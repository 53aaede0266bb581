"""Named verification suites: the acceptance criteria plus the heavier
property sweeps, runnable standalone through the CLI or pytest.

Every check is deterministic (fixed seeds) and returns a CheckResult with a
one-line detail string, so `qcs verify` can print one pass/fail line per
check and exit nonzero on any failure.  The checks share no state, so
`run_suite` runs them in forked worker processes, one per CPU in the
process's affinity mask, and returns their results in suite order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import (
    EquivalenceComplex,
    UnitaryOperator,
    algebra_product,
    evolution_expectation_check,
    evolve,
    gradient_check,
    heisenberg_check,
    intertwine_check,
    lifted_components,
    pauli_x,
    pauli_y,
    pauli_z,
    quadratic_form,
    schrodinger_equivalence_check,
)
from .measure_maps import (
    MapSpec,
    PiecewiseConstantFn,
    build_map,
    compose,
    factor_against_cdf,
    intervals_measure,
    invert,
    level_function,
    map_equal_ae,
    pushforward_density,
    quantile_pcf,
    verify_measure_preserving,
)
from .random_objects import (
    random_hermitian,
    random_map_spec,
    random_pure_state,
    random_simple_spec,
    random_step_cdf,
    random_unitary,
)
from .spectral import (
    HermitianOperator,
    PiecewiseFn,
    PureState,
    borel_apply,
    rounding_ratio,
    spectral_cdf,
)
from .states import (
    BarrierComplex,
    ObservableFunction,
    default_probe_states,
    eigenvector_probes,
    expectation_via_labels,
    identifiability_check,
    label_mean,
    monotone_compose_check,
    no_go_witness,
    recover_barrier,
    sample_values,
    sigma_simple_regions,
    spectrum_image_check,
    squaring_repair,
    squaring_witness_model,
    value_distribution,
    value_region,
)
from .stats import ks_statistic, ks_threshold
from .phase_space import (
    PhaseSpaceState,
    build_measure,
    momentum_observable,
    operator_mean,
    position_observable,
    realize_barrier,
    shared_barrier_joint_gap,
    spin_observable,
    to_unit_interval,
)

ONE = Fraction(1)
FEW_PIECES = 6  # most pieces of a random barrier in the sweeps


@dataclass
class CheckResult:
    """One check's outcome.  ``seconds`` is the check's own wall time, timed
    inside the worker process that ran it."""

    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _check(name: str):
    def wrap(fn):
        def run() -> CheckResult:
            started = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name, passed, detail, time.perf_counter() - started)

        run.check_name = name
        return run

    return wrap


def _map_with_few_pieces(rng):
    while True:
        m = build_map(random_map_spec(rng))
        if len(m.slopes) <= FEW_PIECES:
            return m


# ---------------------------------------------------------------------------
# Acceptance criteria

@_check("born-exactness")
def check_born_exactness():
    """300 random (operator, state, barrier): exact outcome distribution
    equals the spectral weights to 1e-12."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        dist = value_distribution(a, psi, barrier)
        weights = spectral_cdf(a, psi).weights
        if len(dist) != len(weights):
            return False, "atom count mismatch"
        for (_, prob), w in zip(dist, weights):
            worst = max(worst, abs(float(prob) - w))
    return worst < 1e-12, f"max |exact probability - spectral weight| = {worst:.3e}"


@_check("squaring-example")
def check_squaring_example():
    """The three-projector squaring witness: exact indicator functions, the
    1/2 same-barrier disagreement, and the exact shift repair."""
    model = squaring_witness_model()
    cdf = spectral_cdf(model.operator, model.state)
    if cdf.support != (-1.0, 0.0, 1.0) or cdf.levels != (0.625, 0.875, 1.0):
        return False, f"CDF not bit-exact: {cdf.support}, {cdf.levels}"
    square = PiecewiseFn.square()
    squared_vals = quantile_pcf(cdf).map_values(square)
    ind_a = PiecewiseConstantFn(8, [0, 5, 7, 8], (1.0, 0.0, 1.0))
    if not squared_vals.equal_ae(ind_a):
        return False, "squared quantile is not the expected indicator"
    a2 = borel_apply(square, model.operator)
    cdf2 = spectral_cdf(a2, model.state)
    ind_b = PiecewiseConstantFn(4, [0, 1, 4], (0.0, 1.0))
    if not quantile_pcf(cdf2).equal_ae(ind_b):
        return False, "squared-operator quantile is not the expected indicator"
    rng = np.random.default_rng(7)
    for barrier in [
        build_map(MapSpec.identity()),
        build_map(MapSpec.rotation(Fraction(1, 3))),
        _map_with_few_pieces(rng),
    ]:
        disagreement, repaired, repair_is_shift = squaring_repair(barrier)
        if disagreement != Fraction(1, 2):
            return False, "same-barrier disagreement is not exactly 1/2"
        if repaired != 0:
            return False, "factored repair does not vanish exactly"
        if not repair_is_shift:
            return False, "factored repair differs from the shift as a level map"
    alpha = build_map(MapSpec.identity())
    shift = build_map(MapSpec.rotation(Fraction(3, 8)))
    if no_go_witness(alpha, squared_barrier=compose(shift, alpha)) != 0:
        return False, "shift repair does not vanish exactly"
    return True, "indicators, 1/2 disagreement, and exact repair all hold"


@_check("factorization-roundtrip")
def check_factorization_roundtrip():
    """100 random (CDF, barrier): the factored map reproduces the value
    function a.e. and is exactly measure preserving."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        cdf = random_step_cdf(rng, int(rng.integers(2, 9)))
        barrier = _map_with_few_pieces(rng)
        fn = level_function(cdf, barrier)
        recovered = factor_against_cdf(fn, cdf)
        # composed on the kernel: the recovered map's stored level function is fn renamed
        if not quantile_pcf(cdf).compose_with_map(recovered).equal_ae(fn):
            return False, "recovered map does not reproduce the value function"
        image = pushforward_density(recovered)
        if any(d != ONE for _, _, d in image.cells):
            return False, "recovered map is not exactly measure preserving"
        for lo, hi, v in zip(fn.nums, fn.nums[1:], fn.float_values.tolist()):
            mid = Fraction(lo + hi, 2 * fn.den)
            k = cdf.support.index(v)
            lvl_lo, lvl_hi = cdf.level_interval(k)
            if not (lvl_lo <= recovered(mid) <= lvl_hi):
                return False, "recovered level escapes the atom's level interval"
    return True, "100 roundtrips exact"


@_check("sampling-fit")
def check_sampling_fit():
    """100 seeds x 1e5 samples of the squaring model: KS statistic under the
    99% asymptotic band in at least 98 runs."""
    model = squaring_witness_model()
    barrier = build_map(MapSpec.identity())
    cdf = spectral_cdf(model.operator, model.state)
    n = 100_000
    threshold = ks_threshold(n)
    hits = 0
    for seed in range(100):
        samples = sample_values(model.operator, model.state, barrier, seed, n)
        if ks_statistic(samples, cdf) < threshold:
            hits += 1
    return hits >= 98, f"{hits}/100 seeds under the 99% band"


@_check("gradient-identity")
def check_gradient_identity():
    """50 random (operator, state): central-difference gradient of the
    quadratic form matches twice the operator action to 1e-6."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        f = ObservableFunction(a, BarrierComplex.identity())
        worst = max(worst, gradient_check(f, psi))
    return worst < 1e-6, f"max relative gradient error = {worst:.3e}"


@_check("rabi-dynamics")
def check_rabi_dynamics():
    """Closed-form two-level precession, the evolution-expectation identity,
    and the generator equivalence at finite differences."""
    sx, sz = pauli_x(), pauli_z()
    psi0 = PureState(np.array([1.0, 0.0], dtype=complex))
    times = np.linspace(0.0, 2.0, 20)
    worst = 0.0
    for t in times:
        psi_t = evolve(sx, float(t), psi0)
        worst = max(worst, abs(sz.expectation(psi_t) - math.cos(2 * t)))
    if worst >= 1e-10:
        return False, f"closed-form gap {worst:.3e}"
    rows = evolution_expectation_check(sz, sx, psi0, BarrierComplex.identity(), list(times))
    gap = max(abs(op_side - label_side) for _, op_side, label_side in rows)
    if gap >= 1e-10:
        return False, f"evolution-expectation gap {gap:.3e}"
    f = ObservableFunction(sz, BarrierComplex.identity())
    h_fn = ObservableFunction(sx, BarrierComplex.identity())
    lhs, rhs, sgap = schrodinger_equivalence_check(f, h_fn, psi0, t0=0.3)
    if abs(lhs - (-2 * math.sin(0.6))) >= 1e-5 or sgap >= 1e-5:
        return False, f"generator equivalence gap {sgap:.3e}"
    rng = np.random.default_rng(404)
    for _ in range(5):
        dim = 4
        h = random_hermitian(rng, dim)
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        fo = ObservableFunction(a, BarrierComplex.identity())
        ho = ObservableFunction(h, BarrierComplex.identity())
        t0 = float(rng.uniform(0.1, 1.5))
        _, _, g = schrodinger_equivalence_check(fo, ho, psi, t0)
        if g >= 1e-5:
            return False, f"random generator equivalence gap {g:.3e}"
    return True, f"closed form to {worst:.1e}, label gap {gap:.1e}, FD gap {sgap:.1e}"


@_check("intertwining")
def check_intertwining():
    """10 random (operator, unitary, equivalence complex): the lifted barrier
    composed with the label transport equals the barrier exactly a.e., and the
    step CDFs of U^-1 A U in psi and of A in U psi agree by the rounding rule
    of ``spectral.rounding_ratio``, so the conjugated values equal the lifted
    ones for a.e. label."""
    rng = np.random.default_rng(505)
    for case in range(10):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        u = random_unitary(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        sigma = EquivalenceComplex(random_map_spec(rng, allow_expanding=False))
        if not intertwine_check(a, u, sigma, psi, barrier):
            return False, f"case {case} disagreed"
    return True, "10 cases: exact map identity, step CDFs agree within the rounding bound"


@_check("heisenberg")
def check_heisenberg():
    """1000 random triples satisfy the uncertainty inequality; the standard
    two-level witness attains equality at (1, 1)."""
    identity = BarrierComplex.identity()
    lhs, rhs, holds = heisenberg_check(
        ObservableFunction(pauli_x(), identity),
        ObservableFunction(pauli_y(), identity),
        PureState(np.array([1.0, 0.0], dtype=complex)),
    )
    if not holds or abs(lhs - 1) > 1e-12 or abs(rhs - 1) > 1e-12:
        return False, f"witness gave ({lhs}, {rhs})"
    rng = np.random.default_rng(606)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        f = ObservableFunction(random_hermitian(rng, dim), identity)
        g = ObservableFunction(random_hermitian(rng, dim), identity)
        psi = random_pure_state(rng, dim)
        _, _, ok = heisenberg_check(f, g, psi)
        if not ok:
            return False, "inequality violated"
    return True, "equality witness (1,1); 1000 random triples hold"


@_check("phase-space-expectation")
def check_phase_space_expectation():
    """Spin-1/2 particle on a 64-point grid: matrix expectations equal label
    integrals through the realized barriers, to 1e-12, for position,
    momentum, and the sector observable."""
    rng = np.random.default_rng(707)
    n = 64
    raw = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    state = PhaseSpaceState.normalized(Fraction(1, 2), raw, dq=0.1)
    equiv = to_unit_interval(build_measure(state))
    identity = PiecewiseFn.identity()
    checks = [
        ("position", position_observable(identity, state)),
        ("momentum", momentum_observable(identity, state)),
        ("spin", spin_observable(state)),
    ]
    worst = 0.0
    for coordinate, obs in checks:
        barrier, _ = realize_barrier(obs, equiv)
        label_side = label_mean(level_function(obs.cdf, barrier))
        worst = max(worst, abs(label_side - operator_mean(state, coordinate)))
    return worst < 1e-12, f"max |matrix - label| = {worst:.3e}"


@_check("spectrum-closure")
def check_spectrum_closure():
    """50 random operators with eigenvector probes: the attained values are
    exactly the spectrum."""
    rng = np.random.default_rng(808)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        barrier = _map_with_few_pieces(rng)
        if not spectrum_image_check(a, barrier, eigenvector_probes(a)):
            return False, "attained values differ from the spectrum"
    return True, "attained values equal the spectrum on 50 operators"


# ---------------------------------------------------------------------------
# Extra property sweeps

@_check("spectral-reconstruction")
def check_spectral_reconstruction():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        es = a.eigensystem
        projectors = [es.projector(k) for k in range(len(es.atoms))]
        recon = sum(lam * p for lam, p in zip(es.eigenvalues, projectors))
        worst = max(worst, float(np.abs(recon - a.entries).max()))
        total = sum(projectors)
        worst = max(worst, float(np.abs(total - np.eye(dim)).max()))
        for i, pi in enumerate(projectors):
            for j, pj in enumerate(projectors):
                target = pi if i == j else 0.0
                worst = max(worst, float(np.abs(pi @ pj - target).max()))
    return worst < 1e-10, f"max deviation {worst:.3e} over 200 operators"


@_check("galois-pair")
def check_galois_pair():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        cdf = random_step_cdf(rng, int(rng.integers(1, 9)))
        for k, r in enumerate(cdf.support):
            lo, hi = cdf.level_interval(k)
            for t in (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7), Fraction(1)):
                s = lo + (hi - lo) * t
                if s >= 1:
                    continue
                if cdf.evaluate(cdf.quantile(s)) < s:
                    return False, "F(quantile(s)) < s"
            if cdf.nums[k] < cdf.den and cdf.quantile(cdf.evaluate(r)) > r:
                return False, "quantile(F(r)) > r"
    return True, "Galois inequalities hold on 200 random CDFs"


@_check("quantile-pushforward")
def check_quantile_pushforward():
    rng = np.random.default_rng(1111)
    for _ in range(200):
        cdf = random_step_cdf(rng, int(rng.integers(1, 9)))
        masses = quantile_pcf(cdf).masses_by_value()
        for k, r in enumerate(cdf.support):
            lo, hi = cdf.level_interval(k)
            if masses.get(r) != hi - lo:
                return False, "pushforward mass differs from atom weight"
    return True, "level-interval lengths equal atom weights exactly"


@_check("functional-covariance")
def check_functional_covariance():
    rng = np.random.default_rng(1212)
    fns = [
        PiecewiseFn.square(),
        PiecewiseFn.absolute(),
        PiecewiseFn.affine(2.0, 1.0),
        PiecewiseFn.from_poly((0.0, 0.0, 0.0, 1.0)),
    ]
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        for fn in fns:
            image = borel_apply(fn, a)
            fresh = HermitianOperator(image.entries)
            pushed, diagonalized = spectral_cdf(image, psi), spectral_cdf(fresh, psi)
            worst = max(worst, rounding_ratio(pushed, diagonalized, fresh.eigensystem.eigenvalues))
    return worst <= 1, f"200 images match a fresh diagonalization, worst ratio to the bound {worst:.2f}"


@_check("map-exactness")
def check_map_exactness():
    rng = np.random.default_rng(1313)
    for _ in range(60):
        spec = MapSpec.composition(*(random_simple_spec(rng) for _ in range(int(rng.integers(2, 7)))))
        m = build_map(spec)
        image = pushforward_density(m)
        if image.mass != 1:
            return False, "pushforward mass is not exactly 1"
        if not verify_measure_preserving(m):
            return False, "composition is not measure preserving"
    return True, "compositions of up to 6 maps preserve mass exactly"


@_check("group-closure")
def check_group_closure():
    rng = np.random.default_rng(1414)
    for _ in range(60):
        m1 = build_map(random_map_spec(rng))
        m2 = build_map(random_map_spec(rng))
        if not compose(m1, m2).measure_preserving:
            return False, "composition broke measure preservation"
        inv_spec = random_map_spec(rng, allow_expanding=False)
        m = build_map(inv_spec)
        minv = invert(m)
        if not minv.measure_preserving:
            return False, "inverse broke measure preservation"
        if not map_equal_ae(compose(minv, m), build_map(MapSpec.identity())):
            return False, "inverse composition is not the identity a.e."
    return True, "closure under composition and inversion on 60 random specs"


@_check("null-interval")
def check_null_interval():
    rng = np.random.default_rng(1515)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        cdf = spectral_cdf(a, psi)
        lo = float(rng.uniform(-4, 4))
        hi = lo + float(rng.uniform(0, 3))
        region = value_region(a, psi, barrier, lo, hi)
        has_atom = any(lo < r <= hi for r in cdf.support)
        measure = sum((b - x for x, b in region), Fraction(0))
        if has_atom != (measure > 0) or has_atom != bool(region):
            return False, "empty iff null failed"
    return True, "preimage is empty exactly when its measure vanishes"


@_check("moment-identity")
def check_moment_identity():
    rng = np.random.default_rng(1616)
    fns = [
        PiecewiseFn.constant(1.0),
        PiecewiseFn.identity(),
        PiecewiseFn.square(),
        PiecewiseFn.from_poly((0.0, 0.0, 0.0, 1.0)),
        PiecewiseFn.absolute(),
    ]
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 8))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        for fn in fns:
            label = expectation_via_labels(fn, a, psi, barrier)
            worst = max(worst, abs(label - borel_apply(fn, a).expectation(psi)))
    return worst < 1e-12, f"max |label - matrix| = {worst:.3e}"


@_check("barrier-recovery")
def check_barrier_recovery():
    rng = np.random.default_rng(1717)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        cdf = spectral_cdf(a, psi)
        fn = level_function(cdf, barrier)
        beta = recover_barrier(a, psi, fn)
        if not quantile_pcf(cdf).compose_with_map(beta).equal_ae(fn):
            return False, "recovered barrier produces different values"
        if not beta.measure_preserving:
            return False, "recovered barrier is not measure preserving"
    return True, "value functions recovered a.e. on 50 cases"


@_check("no-go-invariance")
def check_no_go_invariance():
    rng = np.random.default_rng(1818)
    for _ in range(30):
        pre = build_map(random_map_spec(rng))
        base = _map_with_few_pieces(rng)
        if no_go_witness(compose(base, pre)) != Fraction(1, 2):
            return False, "disagreement moved under precomposition"
    return True, "disagreement is exactly 1/2 under 30 random precompositions"


@_check("monotone-covariance")
def check_monotone_covariance():
    rng = np.random.default_rng(1919)
    model = squaring_witness_model()
    barrier = _map_with_few_pieces(rng)
    if not monotone_compose_check(PiecewiseFn.affine(2.0, 1.0), model.operator, model.state, barrier):
        return False, "affine reparametrization failed on the witness model"
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        b = _map_with_few_pieces(rng)
        fn = PiecewiseFn.from_poly((float(rng.normal()), float(rng.uniform(0.5, 2.0))))
        if not monotone_compose_check(fn, a, psi, b):
            return False, "increasing function broke covariance"
    return True, "same-barrier covariance holds for increasing reparametrizations"


@_check("identifiability")
def check_identifiability():
    rng = np.random.default_rng(2020)
    barrier = _map_with_few_pieces(rng)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        a = random_hermitian(rng, dim)
        probes = default_probe_states(dim)
        if not identifiability_check(a, a, barrier, probes):
            return False, "equal operators flagged as unequal"
        b = random_hermitian(rng, dim)
        entries = b.entries.copy()
        np.fill_diagonal(entries, np.diag(a.entries))
        b_same_diag = HermitianOperator(entries)
        if not identifiability_check(a, b_same_diag, barrier, probes):
            return False, "implication failed on a distinct pair"
        # Distinct operators with equal diagonals must be separated by some
        # superposition probe, else the implication above was vacuous.
        if np.abs(a.entries - b_same_diag.entries).max() > 1e-8:
            separated = any(
                abs(a.expectation(p) - b_same_diag.expectation(p)) > 1e-10 for p in probes
            )
            if not separated:
                return False, "distinct operators share all probe means"
    return True, "value statistics identify the operator on 30 pairs"


@_check("sigma-simple-partition")
def check_sigma_simple_partition():
    rng = np.random.default_rng(2121)
    model = squaring_witness_model()
    barrier = _map_with_few_pieces(rng)
    regions = sigma_simple_regions(
        [model.minus, model.zero, model.plus], [-1.0, 0.0, 1.0], model.state, barrier
    )
    measures = [intervals_measure(list(r)) for r in regions]
    if measures != [Fraction(5, 8), Fraction(1, 4), Fraction(1, 8)]:
        return False, f"region measures {measures}"
    if sum(measures, Fraction(0)) != 1:
        return False, "regions do not partition the label space"
    truncated = sigma_simple_regions(
        [model.minus, model.zero], [-1.0, 0.0], model.state, barrier, include_tail=True
    )
    tail_measure = intervals_measure(list(truncated[-1]))
    if tail_measure != Fraction(1, 8):
        return False, f"tail region has measure {tail_measure}"
    return True, "measures (5/8, 1/4, 1/8); truncated tail carries the rest"


@_check("algebra-identities")
def check_algebra_identities():
    rng = np.random.default_rng(2222)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        f = ObservableFunction(random_hermitian(rng, dim), BarrierComplex.identity())
        g = ObservableFunction(random_hermitian(rng, dim), BarrierComplex.identity())
        a, b = f.operator.entries, g.operator.entries
        star = algebra_product("star", f, g)
        worst = max(worst, float(np.abs(star.operator - a @ b).max()))
        h = ObservableFunction(random_hermitian(rng, dim), BarrierComplex.identity())
        lie = lambda x, y: algebra_product("lie", x, y)
        jac = (
            lie(f, lie(g, h)).operator.entries
            + lie(g, lie(h, f)).operator.entries
            + lie(h, lie(f, g)).operator.entries
        )
        worst = max(worst, float(np.abs(jac).max()))
        jordan = lambda x, y: algebra_product("jordan", x, y)
        fg = jordan(f, g)
        ff = jordan(f, f)
        left = jordan(fg, ff).operator.entries
        right = jordan(f, jordan(g, ff)).operator.entries
        worst = max(worst, float(np.abs(left - right).max()))
        psi = random_pure_state(rng, dim)
        lie_label = lie(f, g).expectation(psi)
        lie_matrix = float(
            np.vdot(psi.amplitudes, (-0.5j * (a @ b - b @ a)) @ psi.amplitudes).real
        )
        worst = max(worst, abs(lie_label - lie_matrix))
    return worst < 1e-10, f"max identity deviation {worst:.3e}"


@_check("quadratic-form-identities")
def check_quadratic_form_identities():
    rng = np.random.default_rng(2323)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        f = ObservableFunction(random_hermitian(rng, dim), BarrierComplex.identity())
        g = ObservableFunction(random_hermitian(rng, dim), BarrierComplex.identity())
        psi = random_pure_state(rng, dim)
        vec = psi.amplitudes
        star = algebra_product("star", f, g)
        q_star = star.quadratic_form(vec)
        grad_f = 2.0 * (f.operator.entries @ vec)
        grad_g = 2.0 * (g.operator.entries @ vec)
        pairing = complex(np.vdot(grad_f, grad_g)) / 4.0
        worst = max(worst, abs(q_star - pairing))
        worst = max(worst, abs(q_star.real - quadratic_form(algebra_product("jordan", f, g), vec)))
        worst = max(worst, abs(q_star.imag - quadratic_form(algebra_product("lie", f, g), vec)))
        scaled = 2.0 * vec
        worst = max(worst, abs(quadratic_form(f, scaled) - 4.0 * quadratic_form(f, vec)))
    return worst < 1e-10, f"max identity deviation {worst:.3e}"


@_check("lift-group-law")
def check_lift_group_law():
    rng = np.random.default_rng(2424)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        u = random_unitary(rng, dim)
        v = random_unitary(rng, dim)
        sigma = EquivalenceComplex(random_map_spec(rng, allow_expanding=False))
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        uv = UnitaryOperator(u.entries @ v.entries)
        psi_v, barrier_v, t_v = lifted_components(v, sigma, psi, barrier)
        psi_two, barrier_two, t_u = lifted_components(u, sigma, psi_v, barrier_v)
        psi_one, barrier_one, t_uv = lifted_components(uv, sigma, psi, barrier)
        if not psi_two.projectively_equal(psi_one):
            return False, "lifted states differ projectively"
        if not map_equal_ae(compose(t_u, t_v), t_uv):
            return False, "label transports differ"
        if not map_equal_ae(barrier_two, barrier_one):
            return False, "lifted barriers differ"
    return True, "lift is a homomorphism on 20 random pairs: transports and barriers equal a.e."


@_check("projective-kernel")
def check_projective_kernel():
    rng = np.random.default_rng(2525)
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        u = random_unitary(rng, dim)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        cu = UnitaryOperator(phase * u.entries)
        v = random_unitary(rng, dim)
        sigma = EquivalenceComplex(random_map_spec(rng, allow_expanding=False))
        psi = random_pure_state(rng, dim)
        barrier = _map_with_few_pieces(rng)
        psi_u, barrier_u, t_u = lifted_components(u, sigma, psi, barrier)
        psi_cu, barrier_cu, t_cu = lifted_components(cu, sigma, psi, barrier)
        if not (
            psi_u.projectively_equal(psi_cu)
            and map_equal_ae(t_u, t_cu)
            and map_equal_ae(barrier_u, barrier_cu)
        ):
            return False, "phase multiples act differently"
        same_as_v = psi_u.projectively_equal(v.apply(psi))
        proportional = abs(abs(np.vdot(u.entries @ psi.amplitudes, v.entries @ psi.amplitudes)) - 1) < 1e-10
        if same_as_v != proportional:
            return False, "kernel larger than the phases"
    return True, "lift kernel is exactly the unit phases on 15 pairs"


@_check("phase-marginals")
def check_phase_marginals():
    rng = np.random.default_rng(2626)
    n = 32
    raw = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    state = PhaseSpaceState.normalized(Fraction(1, 2), raw, dq=0.2)
    measure = build_measure(state)
    qdens = ((np.abs(state.amplitudes) ** 2) * state.dq).sum(axis=0)
    pdens = ((np.abs(state.momentum_amplitudes) ** 2) * state.dp).sum(axis=0)
    worst = max(
        float(np.abs(measure.q_marginal() - qdens).max()),
        float(np.abs(measure.p_marginal() - pdens).max()),
    )
    return worst < 1e-12, f"max marginal deviation {worst:.3e}"


@_check("no-shared-barrier")
def check_no_shared_barrier():
    n = 8
    amps = np.zeros((1, n), dtype=complex)
    amps[0, 0] = 1.0
    amps[0, 1] = 1.0
    state = PhaseSpaceState.normalized(Fraction(0), amps, dq=0.5)
    gap = shared_barrier_joint_gap(state)
    if gap <= 0.05:
        return False, f"joint gap {gap:.3e} too small to witness the obstruction"
    rng = np.random.default_rng(2727)
    raw = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    random_gap = shared_barrier_joint_gap(
        PhaseSpaceState.normalized(Fraction(0), raw, dq=0.5)
    )
    return True, f"two-point state gap {gap:.3f}; random state gap {random_gap:.3f}"


# ---------------------------------------------------------------------------
# Suites

ACCEPTANCE_CHECKS = [
    check_born_exactness,
    check_squaring_example,
    check_factorization_roundtrip,
    check_sampling_fit,
    check_gradient_identity,
    check_rabi_dynamics,
    check_intertwining,
    check_heisenberg,
    check_phase_space_expectation,
    check_spectrum_closure,
]

SUITES = {
    "spectral": [
        check_spectral_reconstruction,
        check_galois_pair,
        check_quantile_pushforward,
        check_functional_covariance,
    ],
    "measure": [
        check_map_exactness,
        check_group_closure,
        check_factorization_roundtrip,
    ],
    "states": [
        check_born_exactness,
        check_squaring_example,
        check_null_interval,
        check_sampling_fit,
        check_moment_identity,
        check_barrier_recovery,
        check_no_go_invariance,
        check_monotone_covariance,
        check_identifiability,
        check_sigma_simple_partition,
        check_spectrum_closure,
    ],
    "dynamics": [
        check_gradient_identity,
        check_algebra_identities,
        check_quadratic_form_identities,
        check_rabi_dynamics,
        check_intertwining,
        check_heisenberg,
        check_lift_group_law,
        check_projective_kernel,
    ],
    "phase": [
        check_phase_space_expectation,
        check_phase_marginals,
        check_no_shared_barrier,
    ],
}


def _run_check(key: tuple[str, int]) -> CheckResult:
    suite, index = key
    return SUITES[suite][index]()


def run_suite(name: str) -> list[CheckResult]:
    """Run suite ``name`` (or every suite, for "all") and return one result
    per check, in the order the suites list them.

    The checks run in forked worker processes, one per CPU in this process's
    affinity mask (``taskset`` limits them) and at most one per check.  A
    worker finds its check by (suite, index) in the ``SUITES`` it inherited,
    so no closure is pickled and monkeypatches made before the call reach
    it; a spawned worker would import numpy and qcs afresh and see neither.
    A spy installed before the call counts in the workers, and its counts
    stay there: call the check itself to read them.  Every worker is joined
    before this returns.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    names = list(SUITES) if name == "all" else [name]
    keys = [(suite, i) for suite in names for i in range(len(SUITES[suite]))]
    # Imported here, not at module level, so `import qcs` does not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(keys), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_check, keys))
