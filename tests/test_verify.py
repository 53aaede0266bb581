"""The property sweeps of `qcs verify` that are not acceptance criteria, one
test per check; the acceptance criteria run in test_acceptance.py."""

import math

import numpy as np
import pytest

from qcs import verify
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
