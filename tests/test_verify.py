"""The property sweeps of `qcs verify` that are not acceptance criteria, one
test per check; the acceptance criteria run in test_acceptance.py."""

import math
import multiprocessing
from fractions import Fraction

import numpy as np
import pytest

from qcs import dynamics, verify
from qcs.measure_maps import MapSpec, build_map, compose
from qcs.random_objects import random_hermitian, random_pure_state
from qcs.spectral import HermitianOperator, PiecewiseFn, borel_apply, hermitian_part, rounding_ratio, spectral_cdf
from verify_details import DETAILS

ACCEPTANCE_NAMES = {c.check_name for c in verify.ACCEPTANCE_CHECKS}
SWEEPS = [
    c
    for checks in verify.SUITES.values()
    for c in checks
    if c.check_name not in ACCEPTANCE_NAMES
]


def test_check_names_are_unique_across_suites():
    """`qcs verify --suite all` runs the suites one after another, so a check
    listed in two suites would run twice."""
    names = [c.check_name for checks in verify.SUITES.values() for c in checks]
    assert len(names) == len(set(names))


def test_every_check_has_a_pinned_detail_and_every_pin_a_check():
    assert sorted(c.check_name for checks in verify.SUITES.values() for c in checks) == sorted(DETAILS)


def test_run_suite_returns_the_checks_in_order_and_its_workers_see_patches(monkeypatch):
    """`run_suite` runs the checks in forked workers: the results come back
    in `SUITES` order with their pinned details, no worker outlives the
    call, and a patch made before the call reaches the workers (a spawned
    worker would import verify afresh and pass the patched check)."""
    results = verify.run_suite("all")
    assert [r.name for r in results] == [c.check_name for checks in verify.SUITES.values() for c in checks]
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert {r.name: r.detail for r in results} == DETAILS
    assert multiprocessing.active_children() == []

    honest = dynamics.lifted_components
    rot = build_map(MapSpec.rotation(Fraction(1, 5)))

    def shifted(u, sigma, psi, barrier):
        new_psi, new_barrier, transport = honest(u, sigma, psi, barrier)
        return new_psi, new_barrier, compose(rot, transport)

    monkeypatch.setattr(verify, "lifted_components", shifted)
    (law,) = [r for r in verify.run_suite("dynamics") if r.name == "lift-group-law"]
    assert not law.passed
    assert law.detail == "label transports differ"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("check", SWEEPS, ids=[c.check_name for c in SWEEPS])
def test_property_sweep(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[result.name]


def test_functional_covariance_fails_an_image_with_two_blocks_swapped():
    """The pushforward of A's CDF through 2x + 1 against the matrix whose
    eigenvector blocks of two atoms are swapped: the swapped matrix has the
    same spectrum but other weights, so its fresh diagonalization has as
    many atoms but levels far past the rounding bound, while the true
    image's is within it."""
    rng = np.random.default_rng(1212)
    a, psi = random_hermitian(rng, 4), random_pure_state(rng, 4)
    image = borel_apply(PiecewiseFn.affine(2.0, 1.0), a)
    pushed = spectral_cdf(image, psi)
    es = image.eigensystem
    basis = es.basis.copy()
    basis[:, [0, 1]] = basis[:, [1, 0]]
    swapped = hermitian_part((basis * es.column_eigenvalues) @ basis.conj().T)

    def fresh_ratio(entries):
        fresh = HermitianOperator(entries)
        return rounding_ratio(pushed, spectral_cdf(fresh, psi), fresh.eigensystem.eigenvalues)

    assert fresh_ratio(image.entries) <= 1
    assert math.inf > fresh_ratio(swapped) > 1
