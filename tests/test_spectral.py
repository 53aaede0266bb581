"""Spectral atoms, step CDFs, quantiles, and functional calculus."""

import bisect
import gc
import hashlib
import math
import weakref
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs.errors import DimensionMismatch, DomainGap, NonHermitian, NotNormalized, OutOfDomain
from qcs.harness import ExperimentConfig, run_experiment
from qcs.measure_maps import quantile_pcf
from qcs.spectral import (
    EIGENVALUE_MERGE_TOL,
    WEIGHT_DROP_TOL,
    EigenSystem,
    HermitianOperator,
    PiecewiseFn,
    PureState,
    StepCDF,
    borel_apply,
    eigensystem,
    hermitian_part,
    rounding_bounds,
    rounding_ratio,
    spectral_cdf,
)
from qcs.states import BarrierComplex, ObservableFunction, squaring_witness_model
from qcs.random_objects import random_hermitian, random_pure_state, random_unitary

from layout import ends_of

SCALED_NORM = 1e6


def scaled_pair(dim: int, seed: int = 20210312):
    """A random operator of spectral norm 1e6 and a random state."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    m *= SCALED_NORM / np.linalg.norm(m, 2)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return m, v / np.linalg.norm(v)


def test_identity_has_one_atom():
    es = eigensystem(HermitianOperator(np.eye(2, dtype=complex)))
    assert len(es.atoms) == 1
    lam, p = es.atoms[0]
    assert lam == 1.0
    assert np.array_equal(p, np.eye(2))


def test_diagonal_eigensystem_is_exact():
    es = eigensystem(HermitianOperator(np.diag([1.0, -1.0]).astype(complex)))
    assert es.eigenvalues == (-1.0, 1.0)
    assert np.array_equal(es.projector(0), np.diag([0.0, 1.0]))
    assert np.array_equal(es.projector(1), np.diag([1.0, 0.0]))


def test_sigma_x_projectors_reconstruct():
    sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    es = sx.eigensystem
    assert len(es.atoms) == 2
    for k, lam in enumerate(es.eigenvalues):
        p = es.projector(k)
        assert abs(abs(lam) - 1.0) < 1e-12
        assert np.abs(p @ p - p).max() < 1e-12
        expected = (np.eye(2) + lam * sx.entries) / 2
        assert np.abs(p - expected).max() < 1e-12
    recon = sum(lam * es.projector(k) for k, lam in enumerate(es.eigenvalues))
    assert np.abs(recon - sx.entries).max() < 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitian):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_operator_rejected(bad):
    m = np.eye(2, dtype=complex)
    m[0, 0] = bad
    with pytest.raises(NonHermitian, match="non-finite"):
        HermitianOperator(m)


def test_non_finite_state_rejected():
    with pytest.raises(NotNormalized):
        PureState(np.array([np.nan, 0.0], dtype=complex))


def test_spectral_cdf_of_witness_model_is_bit_exact():
    model = squaring_witness_model()
    cdf = spectral_cdf(model.operator, model.state)
    assert cdf.support == (-1.0, 0.0, 1.0)
    assert cdf.levels == (0.625, 0.875, 1.0)


def test_spectral_cdf_identity_single_step():
    psi = PureState.normalized(np.array([1.0, 2.0, -1.0j]))
    cdf = spectral_cdf(HermitianOperator(np.eye(3, dtype=complex)), psi)
    assert cdf.support == (1.0,)
    assert cdf.levels == (1.0,)


def test_spectral_cdf_matches_bruteforce_subset_weights(rng):
    """Oracle: <E_B> computed as a direct quadratic form for every subset B
    of atoms must match sums of CDF weights."""
    a = random_hermitian(rng, 4)
    psi = random_pure_state(rng, 4)
    cdf = spectral_cdf(a, psi)
    es = a.eigensystem
    vec = psi.amplitudes
    for size in range(1, len(es.atoms) + 1):
        for subset in combinations(range(len(es.atoms)), size):
            e_b = sum(es.projector(k) for k in subset)
            direct = float(np.vdot(vec, e_b @ vec).real)
            via_cdf = sum(
                w
                for r, w in zip(cdf.support, cdf.weights)
                for k in subset
                if abs(r - es.atoms[k][0]) < 1e-12
            )
            assert abs(direct - via_cdf) < 1e-10
    cum = 0.0
    for lam, _ in es.atoms:
        cum = cdf.evaluate(lam)
        direct = float(
            np.vdot(
                vec, sum(es.projector(k) for k, mu in enumerate(es.eigenvalues) if mu <= lam) @ vec
            ).real
        )
        assert abs(cum - direct) < 1e-10


def test_spectral_cdf_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spectral_cdf(
            HermitianOperator(np.eye(2, dtype=complex)),
            PureState(np.array([1.0, 0.0, 0.0], dtype=complex)),
        )


def test_quantile_on_witness_levels():
    model = squaring_witness_model()
    cdf = spectral_cdf(model.operator, model.state)
    assert cdf.quantile(0.5) == -1.0
    assert cdf.quantile(0.7) == 0.0
    # the >= convention takes the atom at an exact level
    assert cdf.quantile(Fraction(7, 8)) == 0.0
    assert cdf.quantile(0.875) == 0.0
    assert cdf.quantile(0.9) == 1.0


def test_quantile_rejects_out_of_domain():
    cdf = StepCDF((0.0,), 1, (1,))
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(OutOfDomain):
            cdf.quantile(bad)


def test_exact_levels_may_collapse_in_floats():
    # atom 1 weighs 2^-80, far below the float spacing near 1/2 + 1/4
    exact = (Fraction(3, 4) - Fraction(1, 2**80), Fraction(3, 4), Fraction(1))
    cdf = StepCDF((0.0, 1.0, 2.0), 2**80, (3 * 2**78 - 1, 3 * 2**78, 2**80))
    assert cdf.levels == (0.75, 0.75, 1.0)
    assert ends_of(cdf) == list(exact)
    assert cdf.weights == (0.75, 2.0**-80, 0.25)
    assert cdf.level_interval(1) == (exact[0], exact[1])
    assert cdf.quantile(Fraction(3, 4) - Fraction(1, 2**81)) == 1.0
    # the float level 0.75 of atom 0 stands for 3/4 - 2^-80 < 0.75
    assert cdf.quantile(0.75) == 1.0 and cdf.quantile(Fraction(3, 4)) == 1.0
    assert cdf.quantile(0.7) == 0.0 and cdf.quantile(0.8) == 2.0


@pytest.mark.parametrize(
    "den, nums, message",
    [
        (2, (1, 1, 2), "strictly ascending"),
        (4, (3, 2, 4), "strictly ascending"),
        (1, (0, 1), "end exactly at 1"),
        (3, (1, 2), "end exactly at 1"),
        (2**80, (2**80, 2**80 + 1), "end exactly at 1"),
        (1, (), "nonempty"),
    ],
    ids=["repeated", "falling", "zero-first", "short-of-one", "past-one", "empty"],
)
def test_exact_levels_are_checked(den, nums, message):
    with pytest.raises(OutOfDomain, match=message):
        StepCDF(tuple(float(k) for k in range(len(nums))), den, nums)


def test_levels_are_reduced_and_aligned_with_the_support():
    cdf = StepCDF((0.0, 1.0), 6, (2, 6))
    assert (cdf.den, cdf.nums, cdf.levels) == (3, (1, 3), (1 / 3, 1.0))
    with pytest.raises(OutOfDomain, match="aligned"):
        StepCDF((0.0,), 2, (1, 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_cdfs_reject_non_finite_input(bad):
    with pytest.raises(OutOfDomain, match="finite"):
        StepCDF((bad, 1.0), 2, (1, 2))
    with pytest.raises(OutOfDomain, match="finite"):
        StepCDF.from_masses((bad,), (1,))


@pytest.mark.parametrize("masses", [(), (1, 0), (2, -1)])
def test_from_masses_needs_positive_masses(masses):
    with pytest.raises(OutOfDomain):
        StepCDF.from_masses(tuple(float(k) for k in range(len(masses))), masses)


@settings(max_examples=150, deadline=None)
@given(
    masses=st.lists(st.integers(1, 2**90), min_size=1, max_size=6).flatmap(
        lambda ms: st.permutations([*ms, 1])
    ),
    common=st.sampled_from([1, 3, 2**40]),
    probes=st.lists(st.fractions(0, 1).filter(lambda f: 0 < f < 1), max_size=6),
)
def test_from_masses_is_the_exact_cdf_of_its_masses(masses, common, probes):
    """Against the ``Fraction`` levels of the masses (a 1 among masses near
    2^90 is an atom of 2^-90 that collapses in floats), for masses sharing
    a common factor: the layout is reduced, floats are rounded once, and
    Fraction and float levels name the atom that a bisection of the
    ``Fraction`` levels does."""
    support = tuple(float(k) for k in range(len(masses)))
    cdf = StepCDF.from_masses(support, [m * common for m in masses])
    total = sum(masses)
    exact = [Fraction(p, total) for p in accumulate(masses)]
    assert math.gcd(cdf.den, *cdf.nums) == 1 and ends_of(cdf) == exact
    assert cdf.levels == tuple(float(c) for c in exact)
    assert cdf.weights == tuple(float(Fraction(m, total)) for m in masses)
    for s in [*probes, *exact[:-1], *(c - Fraction(1, 2**100) for c in exact)]:
        if 0 < s < 1:
            assert cdf.atom_index(s) == bisect.bisect_left(exact, s)
        if 0 < float(s) < 1:
            assert cdf.atom_index(float(s)) == bisect.bisect_left(exact, Fraction(float(s)))
    assert quantile_pcf(cdf).masses_by_value() == {v: Fraction(m, total) for v, m in zip(support, masses)}


def column_shares(a, psi):
    """Each atom's exact share of the state, from the ``Fraction`` values of
    the float column masses |V^dagger psi|^2 summed per eigenvector block."""
    es = a.eigensystem
    cols = [Fraction(c) for c in (np.abs(es.basis.conj().T @ psi.amplitudes) ** 2).tolist()]
    shares, start = [], 0
    for _, v in es.atoms:
        shares.append(sum(cols[start : start + v.shape[1]]))
        start += v.shape[1]
    return [m / sum(cols) for m in shares]


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_spectral_cdf_levels_are_exact_shares_of_the_column_masses(rng, dim):
    """Every atom of a random state is kept, and level k is the exact share
    of atoms 0..k: no float sum, renormalization or pinned last level."""
    for _ in range(20):
        a, psi = random_hermitian(rng, dim), random_pure_state(rng, dim)
        cdf = spectral_cdf(a, psi)
        shares = column_shares(a, psi)
        assert cdf.support == a.eigensystem.eigenvalues
        assert ends_of(cdf) == list(accumulate(shares))
        assert cdf.levels == tuple(float(c) for c in accumulate(shares))


def test_eigenstates_keep_one_atom(rng):
    """An eigenstate of a random operator shows ``eigh`` noise, shares of
    about 1e-37 to 1e-31, on the other eigenspaces; the weight floor drops
    it, so each of 300 eigenstates keeps exactly its own atom."""
    seen = noisy = 0
    while seen < 300:
        a = random_hermitian(rng, int(rng.integers(2, 7)))
        es = a.eigensystem
        for k, lam in enumerate(es.eigenvalues):
            psi = PureState.normalized(es.eigenvector(k))
            shares = column_shares(a, psi)
            noisy += any(s > 0 for j, s in enumerate(shares) if j != k)
            assert max(s for j, s in enumerate(shares) if j != k) < WEIGHT_DROP_TOL
            cdf = spectral_cdf(a, psi)
            assert (cdf.support, cdf.nums) == ((lam,), (1,))
            seen += 1
    assert noisy > 0


def test_weight_floor_is_one_exact_comparison_of_the_masses():
    """Atom 1 of diag(0, 1) in the state (1, x), normalized, has the exact
    share m_1 / (m_0 + m_1) of its float column masses.  For the two
    adjacent floats x whose shares straddle WEIGHT_DROP_TOL, the atom is
    kept exactly when its share is at least the floor: a mass just above
    and one just below it."""
    a = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    floor = Fraction(WEIGHT_DROP_TOL)

    def state_and_share(x):
        psi = PureState.normalized([1.0, x])
        return psi, column_shares(a, psi)[1]

    x = math.sqrt(WEIGHT_DROP_TOL)
    while state_and_share(x)[1] < floor:
        x = math.nextafter(x, math.inf)
    while state_and_share(math.nextafter(x, 0.0))[1] >= floor:
        x = math.nextafter(x, 0.0)
    above, share_above = state_and_share(x)
    below, share_below = state_and_share(math.nextafter(x, 0.0))
    assert share_below < floor <= share_above
    assert spectral_cdf(a, above).support == (0.0, 1.0)
    assert spectral_cdf(a, below).support == (0.0,)


def test_borel_square_on_witness_gives_two_atoms():
    model = squaring_witness_model()
    a2 = borel_apply(PiecewiseFn.square(), model.operator)
    es = a2.eigensystem
    assert [lam for lam, _ in es.atoms] == [0.0, 1.0]
    # A^2 projects onto the union of the two outer blocks
    assert np.abs(es.projector(1) - (model.plus + model.minus)).max() < 1e-12


def test_borel_identity_keeps_operator():
    a = HermitianOperator(np.diag([0.5, -2.0, 3.0]).astype(complex))
    out = borel_apply(PiecewiseFn.identity(), a)
    assert np.abs(out.entries - a.entries).max() < 1e-12


def test_borel_identity_near_the_float_limit_does_not_overflow():
    """The symmetrization halves before it adds, so images near the float
    limit stay finite."""
    a = HermitianOperator(np.diag([1e308, 1.0, -1e308]).astype(complex))
    with np.errstate(over="raise"):
        out = borel_apply(PiecewiseFn.identity(), a)
    assert np.array_equal(out.entries, a.entries)
    assert out.eigensystem.eigenvalues == (-1e308, 1.0, 1e308)


@pytest.mark.parametrize(
    "fn, eigenvalues",
    [
        (PiecewiseFn.square(), [1e200, 1.0]),
        (PiecewiseFn.affine(4.0, 0.0), [1e308, -1.0]),
        (PiecewiseFn.from_poly((0.0, 0.0, 1.0, -1.0)), [1e200, 0.5]),
    ],
    ids=["square-overflow", "affine-overflow", "cubic-to-minus-inf"],
)
def test_borel_image_that_is_not_finite_is_a_domain_gap(fn, eigenvalues):
    """An image that overflows has no atom to merge into: it is not merged
    into the atom below it."""
    a = HermitianOperator(np.diag(eigenvalues).astype(complex))
    with pytest.raises(DomainGap, match="finite"):
        borel_apply(fn, a)


def test_borel_affine_matches_direct_eigensystem():
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    out = borel_apply(PiecewiseFn.affine(2.0, 1.0), sz)
    direct = eigensystem(HermitianOperator(2 * sz.entries + np.eye(2)))
    assert out.eigensystem.eigenvalues == direct.eigenvalues == (-1.0, 3.0)
    for k in range(len(direct.atoms)):
        p, q = out.eigensystem.projector(k), direct.projector(k)
        assert np.abs(p - q).max() < 1e-12


@pytest.mark.parametrize("fn", [PiecewiseFn.affine(2.0, 1.0), PiecewiseFn.from_poly((0.0, 0.0, 0.0, 1.0))], ids=["2x+1", "x^3"])
def test_image_cdf_of_a_strictly_increasing_function_keeps_the_parent_levels(rng, fn):
    """No two images merge, so the CDF of fn(A) is A's with each support
    point r renamed fn(r): the same den and nums."""
    for dim in range(2, 7):
        a, psi = random_hermitian(rng, dim), random_pure_state(rng, dim)
        parent, image = spectral_cdf(a, psi), spectral_cdf(borel_apply(fn, a), psi)
        assert (image.den, image.nums) == (parent.den, parent.nums)
        assert image.support == tuple(map(fn, parent.support))


def test_borel_domain_gap():
    a = HermitianOperator(np.diag([0.0, 5.0]).astype(complex))
    clipped = PiecewiseFn.from_poly((0.0, 1.0), lo=-1.0, hi=1.0)
    with pytest.raises(DomainGap):
        borel_apply(clipped, a)


def test_pure_state_invariants():
    with pytest.raises(NotNormalized):
        PureState(np.array([1.0, 1.0], dtype=complex))
    a = PureState.normalized(np.array([1.0, 1.0], dtype=complex))
    b = PureState.normalized(np.array([1.0j, 1.0j], dtype=complex))
    assert a.projectively_equal(b)
    assert not a.projectively_equal(PureState(np.array([1.0, 0.0], dtype=complex)))


@st.composite
def step_cdfs(draw):
    """CDFs from integer masses, whose total is mostly not a power of two:
    the layout of every phase-space, image and spectral CDF."""
    n = draw(st.integers(min_value=1, max_value=6))
    support = sorted(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)))
    masses = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return StepCDF.from_masses(tuple(float(r) for r in support), masses)


@settings(max_examples=200, deadline=None)
@given(cdf=step_cdfs(), t=st.fractions(min_value=0, max_value=1).filter(lambda f: 0 < f <= 1))
def test_galois_pair_property(cdf, t):
    for k in range(len(cdf.support)):
        lo, hi = cdf.level_interval(k)
        s = lo + (hi - lo) * Fraction(t)
        if not (0 < s < 1):
            continue
        r = cdf.quantile(s)
        assert r == cdf.support[k]
        assert Fraction(cdf.evaluate(r)) >= s
        if cdf.levels[k] < 1.0:
            assert cdf.quantile(cdf.evaluate(cdf.support[k])) <= cdf.support[k]


# ---------------------------------------------------------------------------
# Eigenvector blocks and scale-relative tolerances


def test_scaled_operator_eigensystem_and_cdf():
    m, v = scaled_pair(64)
    a, psi = HermitianOperator(m), PureState(v)
    es = eigensystem(a)
    assert len(es.atoms) == 64
    recon = sum(lam * es.projector(k) for k, lam in enumerate(es.eigenvalues))
    assert np.abs(recon - m).max() <= 1e-10 * SCALED_NORM
    w, vecs = np.linalg.eigh(m)
    born = np.abs(vecs.conj().T @ v) ** 2
    cdf = spectral_cdf(a, psi)
    assert np.abs(np.array(cdf.support) - w).max() <= 1e-10 * SCALED_NORM
    assert np.abs(np.array(cdf.weights) - born).max() <= 1e-12


def test_scaled_operator_borel_square():
    m, v = scaled_pair(64)
    a, psi = HermitianOperator(m), PureState(v)
    squared = borel_apply(PiecewiseFn.square(), a)
    assert np.array_equal(squared.entries, squared.entries.conj().T)
    want = float(np.vdot(v, m @ (m @ v)).real)
    mean = squared.expectation(psi)
    assert abs(mean - want) <= 1e-10 * want
    label_mean = ObservableFunction(squared, BarrierComplex.identity()).expectation(psi)
    assert abs(label_mean - want) <= 1e-10 * want


def test_scaled_operator_measure_experiment():
    m, v = scaled_pair(32)
    config = {
        "kind": "measure",
        "operator": [[[x.real, x.imag] for x in row] for row in m],
        "state": [[x.real, x.imag] for x in v],
        "barrier": {"kind": "rotation", "c": "5/16"},
        "seed": 3,
        "samples": 2000,
    }
    results = run_experiment(ExperimentConfig.from_json(config)).results
    assert len(results["distribution"]) == 32
    assert results["max_error"] <= 1e-15
    born = np.abs(np.linalg.eigh(m)[1].conj().T @ v) ** 2
    got = np.array([row["probability"] for row in results["distribution"]])
    assert np.abs(got - born).max() <= 1e-12
    assert results["ks"]["passed"]


@pytest.mark.parametrize("lam", [0.5, 1e6])
@pytest.mark.parametrize("factor, atoms", [(0.5, 2), (2.0, 3)])
def test_merge_gap_scales_with_the_spectrum(lam, factor, atoms):
    """Eigenvalues merge iff their gap is within 1e-12 * max(1, max|lambda|)."""
    gap = EIGENVALUE_MERGE_TOL * max(1.0, lam)
    a = HermitianOperator(np.diag([-0.25, lam, lam + factor * gap]).astype(complex))
    es = a.eigensystem
    assert len(es.atoms) == atoms
    assert [v.shape[1] for _, v in es.atoms] == ([1, 2] if atoms == 2 else [1, 1, 1])


@pytest.mark.parametrize("slope, atoms", [(0.5e-6, 1), (2e-6, 2)])
def test_borel_merge_gap_scales_with_the_images(slope, atoms):
    a = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    out = borel_apply(PiecewiseFn.affine(slope, SCALED_NORM), a)
    assert len(out.eigensystem.atoms) == atoms
    assert out.eigensystem.eigenvalues[0] == SCALED_NORM


def test_eigensystem_rejects_blocks_that_are_not_a_basis():
    e0 = np.array([[1.0], [0.0]])
    with pytest.raises(NonHermitian):
        EigenSystem(((0.0, e0), (1.0, e0)))
    with pytest.raises(NonHermitian):
        EigenSystem(((0.0, e0),))


def test_spectral_cdf_memo_is_per_operator_and_state_object():
    a = random_hermitian(np.random.default_rng(3), 4)
    psi = random_pure_state(np.random.default_rng(4), 4)
    cdf = spectral_cdf(a, psi)
    assert spectral_cdf(a, psi) is cdf
    twin = PureState(psi.amplitudes)
    fresh = spectral_cdf(a, twin)
    assert fresh is not cdf
    assert (fresh.support, fresh.levels) == (cdf.support, cdf.levels)
    dropped = weakref.ref(twin)
    del twin, fresh
    gc.collect()
    assert dropped() is None
    assert spectral_cdf(a, psi) is cdf


def unitarily_rotated_scaled(dim: int = 16, seed: int = 16):
    """Q diag(+-1e6) Q^dagger with Q a random unitary, as computed: Hermitian
    to rounding relative to its entries, not symmetrized."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lams = SCALED_NORM * rng.choice([-1.0, 1.0], size=dim)
    return (q * lams) @ q.conj().T, np.sort(lams)


def test_hermitian_check_scales_with_the_entries():
    m, lams = unitarily_rotated_scaled()
    assert np.abs(m - m.conj().T).max() > 1e-12
    es = HermitianOperator(m).eigensystem
    assert len(es.atoms) == 2
    assert np.abs(es.column_eigenvalues - lams).max() <= 1e-10 * SCALED_NORM


def test_hermitian_check_rejects_a_scaled_anti_hermitian_part():
    m, _ = scaled_pair(16)
    s = np.random.default_rng(5).normal(size=m.shape)
    with pytest.raises(NonHermitian):
        HermitianOperator(m + 1e-3j * (s + s.T))


def test_the_rounding_rule_is_zero_on_itself_and_infinite_on_another_atom_count(rng):
    a, psi = random_hermitian(rng, 4), random_pure_state(rng, 4)
    cdf, lams = spectral_cdf(a, psi), a.eigensystem.eigenvalues
    assert rounding_ratio(cdf, cdf, lams) == 0
    fewer = StepCDF.from_masses(cdf.support[:-1], [1] * (len(cdf.support) - 1))
    assert rounding_ratio(cdf, fewer, lams) == rounding_ratio(fewer, cdf, lams) == math.inf


def test_the_rounding_bounds_follow_the_scale_and_the_smallest_gap():
    eps = math.ulp(1.0)
    assert rounding_bounds((0.5,)) == (32 * eps, 32 * eps)
    assert rounding_bounds((-1e3, 0.0, 4.0)) == (32 * eps * 1e3, 32 * eps * 1e3 / 4.0)


def rotated_diagonal(diagonal, seed):
    """U diag(diagonal) U^dagger for a seeded random unitary U, symmetrized."""
    u = random_unitary(np.random.default_rng(seed), len(diagonal)).entries
    return hermitian_part((u * np.asarray(diagonal, dtype=float)) @ u.conj().T)


def pinned_cases():
    """(operator, state) pairs the eigensystem pin covers: seeded operators
    at d = 2 to 8, a rotated diag(1, 1, 2) whose atom at 1 is merged, a
    rotated diag(-1, 1, 2) whose images under |x| and x^2 merge, the 1e6-norm
    ``scaled_pair``, and the images |A| and A^2 of each."""
    rng = np.random.default_rng(31)
    cases = [(random_hermitian(rng, d), random_pure_state(rng, d)) for d in range(2, 9)]
    for k, diagonal in enumerate(([1.0, 1.0, 2.0], [-1.0, 1.0, 2.0])):
        cases.append((HermitianOperator(rotated_diagonal(diagonal, k)), random_pure_state(rng, 3)))
    m, v = scaled_pair(16)
    cases.append((HermitianOperator(m), PureState(v)))
    images = [(borel_apply(fn, a), psi) for a, psi in cases for fn in (PiecewiseFn.absolute(), PiecewiseFn.square())]
    return cases + images


def eigensystem_digest() -> str:
    """SHA-256 of everything an eigensystem hands on, over ``pinned_cases``:
    eigenvalues, column eigenvalues, basis bytes, block sizes, the masses of
    the state, the spectral CDF's den and nums, and an image's entries."""
    h = hashlib.sha256()
    for a, psi in pinned_cases():
        es = a.eigensystem
        cdf = spectral_cdf(a, psi)
        h.update(repr(es.eigenvalues).encode())
        h.update(np.asarray(es.column_eigenvalues).tobytes())
        h.update(es.basis.tobytes())
        h.update(repr([v.shape[1] for _, v in es.atoms]).encode())
        h.update(repr(es.masses(psi)).encode())
        h.update(repr((cdf.den, cdf.nums)).encode())
        h.update(a.entries.tobytes())
    return h.hexdigest()


EIGENSYSTEM_DIGEST = "5596b9c7c404ebe009419a54129bbc1c5d2fd3f10c6aa2470a855b237dd58e7d"


def test_the_eigensystem_outputs_are_pinned():
    """Every figure an eigensystem passes on is pinned bitwise.  Like the
    report digests, the pin holds for the numpy and LAPACK build it was
    taken on; another build may move a last bit."""
    merged = HermitianOperator(rotated_diagonal([1.0, 1.0, 2.0], 0))
    symmetric = HermitianOperator(rotated_diagonal([-1.0, 1.0, 2.0], 1))
    for a in (merged, borel_apply(PiecewiseFn.absolute(), symmetric), borel_apply(PiecewiseFn.square(), symmetric)):
        assert [v.shape[1] for _, v in a.eigensystem.atoms] == [2, 1]
    assert eigensystem_digest() == EIGENSYSTEM_DIGEST
