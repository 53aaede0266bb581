"""Quadratic forms, products, dispersion, lifted unitaries, evolution."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcs import dynamics, verify
from qcs.dynamics import (
    EquivalenceComplex,
    LiftedAutomorphism,
    UnitaryOperator,
    algebra_product,
    dispersion,
    evolution_expectation_check,
    evolve,
    gradient_check,
    heisenberg_check,
    intertwine_check,
    lift_unitary,
    pauli_x,
    pauli_y,
    pauli_z,
    quadratic_form,
    schrodinger_equivalence_check,
)
from qcs.errors import DimensionMismatch, NonHermitian, NotInjective, OutOfDomain, UndefinedEquivalence
from qcs.measure_maps import MapSpec, build_map, compose, map_equal_ae
from qcs.sampling import uniform_labels
from qcs.spectral import HermitianOperator, PureState, rounding_bounds, spectral_cdf
from qcs.states import BarrierComplex, CompleteState, ObservableFunction, value
from qcs.random_objects import (
    random_hermitian,
    random_map_spec,
    random_pure_state,
    random_unitary,
)

F = Fraction
IDENT_COMPLEX = BarrierComplex.identity()
UP = PureState(np.array([1.0, 0.0], dtype=complex))
PLUS = PureState.normalized(np.array([1.0, 1.0], dtype=complex))


def obs(op):
    return ObservableFunction(op, IDENT_COMPLEX)


def hadamard() -> UnitaryOperator:
    return UnitaryOperator(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))


def test_unitary_validation():
    with pytest.raises(NonHermitian):
        UnitaryOperator(np.array([[1, 1], [0, 1]], dtype=complex))
    h = hadamard()
    assert np.abs(h.entries @ h.entries - np.eye(2)).max() < 1e-12


def test_unitary_rejects_an_empty_matrix():
    with pytest.raises(DimensionMismatch):
        UnitaryOperator(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unitary_rejects_non_finite_entries(bad):
    with pytest.raises(NonHermitian, match="non-finite"):
        UnitaryOperator(np.array([[bad, 0], [0, 1]], dtype=complex))


def test_unitary_conjugate_checks_the_dimension():
    with pytest.raises(DimensionMismatch):
        UnitaryOperator(np.eye(3, dtype=complex)).conjugate(pauli_z())


def test_quadratic_form_examples():
    f = obs(pauli_z())
    assert quadratic_form(f, [1.0, 0.0]) == 1.0
    assert abs(quadratic_form(f, PLUS.amplitudes)) < 1e-15
    assert quadratic_form(f, [2.0, 0.0]) == 4.0
    assert quadratic_form(f, [0.0, 0.0]) == 0.0


def test_gradient_on_plus_state():
    f = obs(pauli_z())
    err = gradient_check(f, PLUS)
    assert err < 1e-6
    target = 2 * pauli_z().entries @ PLUS.amplitudes
    assert np.abs(target - np.array([math.sqrt(2), -math.sqrt(2)])).max() < 1e-12


def test_gradient_identity_operator():
    f = obs(HermitianOperator(np.eye(3, dtype=complex)))
    psi = PureState.normalized(np.array([1.0, 2.0j, -1.0], dtype=complex))
    assert gradient_check(f, psi) < 1e-8


def test_lie_product_of_spin_axes():
    lie = algebra_product("lie", obs(pauli_x()), obs(pauli_y()))
    assert np.abs(lie.operator.entries - pauli_z().entries).max() < 1e-12


def test_jordan_square():
    f = obs(pauli_x())
    jordan = algebra_product("jordan", f, f)
    assert np.abs(jordan.operator.entries - pauli_x().entries @ pauli_x().entries).max() < 1e-12


def test_star_product_identity(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        f, g = obs(random_hermitian(rng, dim)), obs(random_hermitian(rng, dim))
        star = algebra_product("star", f, g)
        assert np.abs(star.operator - f.operator.entries @ g.operator.entries).max() < 1e-12
        psi = random_pure_state(rng, dim)
        matrix_side = complex(
            np.vdot(psi.amplitudes, f.operator.entries @ g.operator.entries @ psi.amplitudes)
        )
        assert abs(star.expectation(psi) - matrix_side) < 1e-10


def test_lie_expectation_matches_matrix(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        f, g = obs(random_hermitian(rng, dim)), obs(random_hermitian(rng, dim))
        psi = random_pure_state(rng, dim)
        a, b = f.operator.entries, g.operator.entries
        target = float(np.vdot(psi.amplitudes, (-0.5j * (a @ b - b @ a)) @ psi.amplitudes).real)
        assert abs(algebra_product("lie", f, g).expectation(psi) - target) < 1e-10


def test_dispersion_examples():
    f = obs(pauli_z())
    assert dispersion(f, UP) == 0.0
    assert abs(dispersion(f, PLUS) - 1.0) < 1e-15
    from qcs.states import squaring_witness_model

    model = squaring_witness_model()
    d = dispersion(ObservableFunction(model.operator, IDENT_COMPLEX), model.state)
    assert abs(d - math.sqrt(0.5)) < 1e-15


def test_heisenberg_equality_witness():
    lhs, rhs, holds = heisenberg_check(obs(pauli_x()), obs(pauli_y()), UP)
    assert holds and lhs == 1.0 and rhs == 1.0


def test_heisenberg_with_itself():
    f = obs(pauli_x())
    lhs, rhs, holds = heisenberg_check(f, f, PLUS)
    assert holds and rhs < 1e-15


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_heisenberg_equality_holds_at_large_operator_scale(scale):
    """s*sx and s*sy on cos t|0> + i sin t|1> attain equality for every t;
    the slack grows with the spectra, so rounding is not a violation."""
    f = obs(HermitianOperator(scale * pauli_x().entries))
    g = obs(HermitianOperator(scale * pauli_y().entries))
    for theta in np.random.default_rng(77).uniform(0, 2 * math.pi, 300):
        psi = PureState(np.array([math.cos(theta), 1j * math.sin(theta)]))
        lhs, rhs, holds = heisenberg_check(f, g, psi)
        assert holds, (theta, lhs, rhs)


def test_evolve_rabi_oracle():
    """Two-level precession has the closed form cos(2t) for the z readout."""
    sx, sz = pauli_x(), pauli_z()
    for t in np.linspace(0, 3, 13):
        psi_t = evolve(sx, float(t), UP)
        assert abs(sz.expectation(psi_t) - math.cos(2 * t)) < 1e-12
        expected = np.array([math.cos(t), -1j * math.sin(t)], dtype=complex)
        assert np.abs(psi_t.amplitudes - expected).max() < 1e-12


def test_rabi_label_side_is_the_exact_mean_rounded_once():
    """The last row of configs/rabi.json (t = 6.28, rotation barrier 1/5):
    the exact label-side mean rounds to ...732, where a sum of per-cell
    rounded lengths gave ...734, two ulps above."""
    f = ObservableFunction(pauli_z(), BarrierComplex(MapSpec.rotation(F(1, 5))))
    psi_t = evolve(pauli_x(), 6.28, UP)
    fn = f.level_fn(psi_t)
    exact = sum(F(v) * F(b - a, fn.den) for a, b, v in zip(fn.nums, fn.nums[1:], fn.values))
    assert f.expectation(psi_t) == float(exact) == 0.9999797077049732


def test_evolve_group_law(rng):
    h = random_hermitian(rng, 4)
    psi = random_pure_state(rng, 4)
    one = evolve(h, 0.7, evolve(h, 0.5, psi))
    two = evolve(h, 1.2, psi)
    assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-10


def test_evolve_at_zero_and_identity_generator():
    psi = PureState.normalized(np.array([1.0, 1.0j], dtype=complex))
    assert np.abs(evolve(pauli_x(), 0.0, psi).amplitudes - psi.amplitudes).max() < 1e-14
    eye = HermitianOperator(np.eye(2, dtype=complex))
    out = evolve(eye, 1.3, psi)
    assert out.projectively_equal(psi)


def test_lift_identity_unitary_is_identity():
    sigma = EquivalenceComplex.identity()
    rot = build_map(MapSpec.rotation(F(1, 5)))
    c = CompleteState(UP, rot, F(1, 3))
    eye = UnitaryOperator(np.eye(2, dtype=complex))
    out = lift_unitary(eye, sigma, c)
    assert out.state.projectively_equal(UP)
    assert out.z == c.z
    assert map_equal_ae(out.barrier, rot)


def test_lift_with_shared_equivalence_moves_only_the_state():
    sigma = EquivalenceComplex(MapSpec.rotation(F(2, 5)))
    rot = build_map(MapSpec.rotation(F(1, 7)))
    c = CompleteState(UP, rot, F(1, 3))
    h = hadamard()
    out = lift_unitary(h, sigma, c)
    assert out.z == c.z
    assert map_equal_ae(out.barrier, rot)
    assert out.state.projectively_equal(PLUS)


def test_lift_preserves_barrier_level():
    sigma = EquivalenceComplex(
        MapSpec.rotation(F(1, 3)),
        {"tagged": MapSpec.rotation(F(5, 7))},
    )
    rot = build_map(MapSpec.rotation(F(3, 11)))
    psi = PureState(np.array([1.0, 0.0], dtype=complex), tag="tagged")
    c = CompleteState(psi, rot, F(1, 5))
    u = hadamard()
    out = lift_unitary(u, sigma, c)
    assert out.barrier(out.z) == rot(F(1, 5))


def test_lifted_automorphism_inverse_roundtrip(rng):
    u = random_unitary(rng, 3)
    sigma = EquivalenceComplex(MapSpec.rotation(F(4, 9)))
    auto = LiftedAutomorphism(u, sigma)
    psi = random_pure_state(rng, 3)
    barrier = build_map(MapSpec.rotation(F(1, 6)))
    c = CompleteState(psi, barrier, F(2, 7))
    back = auto.inverse()(auto(c))
    assert back.state.projectively_equal(psi)
    assert back.z == c.z
    assert map_equal_ae(back.barrier, barrier)


def test_lift_of_unitary_group_is_a_one_parameter_group(rng):
    """Lifting the spectral propagators U_t gives a group in t."""
    h = random_hermitian(rng, 3)

    def propagator(t):
        es = h.eigensystem
        u = sum(np.exp(-1j * lam * t) * es.projector(k) for k, lam in enumerate(es.eigenvalues))
        return UnitaryOperator(u)

    sigma = EquivalenceComplex(MapSpec.rotation(F(2, 9)))
    barrier = build_map(MapSpec.rotation(F(1, 8)))
    psi = random_pure_state(rng, 3)
    c = CompleteState(psi, barrier, F(3, 7))
    s, t = 0.4, 0.9
    two_step = lift_unitary(propagator(s), sigma, lift_unitary(propagator(t), sigma, c))
    one_step = lift_unitary(propagator(s + t), sigma, c)
    assert two_step.state.projectively_equal(one_step.state)
    assert two_step.z == one_step.z
    assert map_equal_ae(two_step.barrier, one_step.barrier)


def test_equivalence_complex_requires_a_rule():
    sigma = EquivalenceComplex(None, {"known": MapSpec.identity()})
    with pytest.raises(UndefinedEquivalence):
        sigma.map_for(None)
    assert sigma.map_for("known")
    # every spec builds a measure-preserving map; the inverse rejects the
    # ones that are not bijections, defaults and overrides alike
    with pytest.raises(NotInjective):
        EquivalenceComplex(MapSpec.expanding(2))
    with pytest.raises(NotInjective):
        EquivalenceComplex(MapSpec.identity(), {"t": MapSpec.expanding(3)})


def test_intertwine_hadamard():
    sigma = EquivalenceComplex(MapSpec.rotation(F(1, 4)))
    barrier = build_map(MapSpec.rotation(F(1, 3)))
    assert intertwine_check(
        pauli_z(), hadamard(), sigma, PLUS, barrier
    )


def test_intertwine_hadamard_with_state_dependent_equivalences():
    sigma = EquivalenceComplex(
        MapSpec.rotation(F(1, 6)),
        {"start": MapSpec.rotation(F(3, 5))},
    )
    psi = PureState(np.array([1.0, 0.0], dtype=complex), tag="start")
    barrier = build_map(MapSpec.rotation(F(2, 7)))
    assert intertwine_check(
        pauli_z(), hadamard(), sigma, psi, barrier
    )


def test_intertwine_identity_unitary():
    sigma = EquivalenceComplex.identity()
    eye = UnitaryOperator(np.eye(3, dtype=complex))
    a = HermitianOperator(np.diag([0.0, 1.0, 4.0]).astype(complex))
    psi = PureState.normalized(np.array([1.0, 1.0, 1.0], dtype=complex))
    assert intertwine_check(a, eye, sigma, psi, build_map(MapSpec.identity()))


def test_intertwine_random_case(rng):
    a = random_hermitian(rng, 4)
    u = random_unitary(rng, 4)
    psi = random_pure_state(rng, 4)
    sigma = EquivalenceComplex(MapSpec.rotation(F(3, 7)))
    barrier = build_map(MapSpec.expanding(2))
    assert intertwine_check(a, u, sigma, psi, barrier)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_intertwine_holds_at_large_operator_scale(scale):
    """The eigenvalues of U^-1 A U and of A come from two diagonalizations and
    differ by a few ulps of the largest one, so the value bound follows the
    spectral scale."""
    rng = np.random.default_rng(4242)
    sigma = EquivalenceComplex(MapSpec.rotation(F(3, 7)))
    barrier = build_map(MapSpec.rotation(F(2, 5)))
    for _ in range(20):
        a = HermitianOperator(scale * random_hermitian(rng, 4).entries)
        u = random_unitary(rng, 4)
        psi = random_pure_state(rng, 4)
        assert intertwine_check(a, u, sigma, psi, barrier)


ORACLE_VALUE_TOL = 1e-10  # the sampled oracle's bound on |lhs - rhs|
ORACLE_LEVEL_GUARD = 1e-9  # its labels keep this far from every CDF level


def ref_intertwine_sampled(a, u, sigma, psi, barrier, n, seed):
    """Sampled reference for intertwine_check: evaluate (U^-1 A U) and A on
    the lifted complete state at n labels drawn away from breakpoints and
    level boundaries."""
    conj = u.conjugate(a)
    new_psi, new_barrier, transport = dynamics.lifted_components(u, sigma, psi, barrier)
    cdf_lhs = spectral_cdf(conj, psi)
    cdf_rhs = spectral_cdf(a, new_psi)
    guard_levels = np.array(sorted(set(cdf_lhs.levels[:-1]) | set(cdf_rhs.levels[:-1])))
    bps = sorted(
        {float(x) for x in barrier.breakpoints}
        | {float(x) for x in transport.breakpoints}
        | {float(x) for x in new_barrier.breakpoints}
    )
    bps_arr = np.array(bps)
    accepted = 0
    position = 0
    while accepted < n:
        batch = uniform_labels(seed, position, 4 * n)
        position += 4 * n
        for zf in batch:
            if np.abs(zf - bps_arr).min() < 1e-12:
                continue
            s_float = float(barrier(Fraction(float(zf))))
            if guard_levels.size and np.abs(s_float - guard_levels).min() < ORACLE_LEVEL_GUARD:
                continue
            z = Fraction(float(zf))
            lhs = value(conj, CompleteState(psi, barrier, z))
            z2 = transport(z)
            if new_barrier.is_breakpoint(z2):
                continue
            if new_barrier(z2) != barrier(z):
                return False
            rhs = value(a, CompleteState(new_psi, new_barrier, z2))
            if abs(lhs - rhs) > ORACLE_VALUE_TOL:
                return False
            accepted += 1
            if accepted >= n:
                break
        if position > 64 * n:
            raise OutOfDomain("could not draw enough labels away from breakpoints")
    return True


def random_lift_case(seed):
    """(a, u, sigma, psi, barrier): every third case has an expanding
    barrier, every other one a tagged state with its own equivalence, and
    every fifth a degenerate operator."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    if seed % 5 == 0:
        a = HermitianOperator(np.diag(rng.integers(-1, 2, dim)).astype(complex))
    else:
        a = random_hermitian(rng, dim)
    u = random_unitary(rng, dim)
    if seed % 3 == 0:
        barrier = build_map(MapSpec.expanding(int(rng.integers(2, 4))))
    else:
        barrier = verify._map_with_few_pieces(rng)
    default = random_map_spec(rng, allow_expanding=False)
    if seed % 2:
        override = random_map_spec(rng, allow_expanding=False)
        sigma = EquivalenceComplex(default, {"start": override})
        psi = PureState(random_pure_state(rng, dim).amplitudes, tag="start")
    else:
        sigma = EquivalenceComplex(default)
        psi = random_pure_state(rng, dim)
    return a, u, sigma, psi, barrier


def test_intertwine_exact_check_agrees_with_sampled_oracle():
    for seed in range(60):
        case = random_lift_case(seed)
        exact = intertwine_check(*case)
        assert exact == ref_intertwine_sampled(*case, n=100, seed=seed), seed
        assert exact, seed


def test_the_rounding_bounds_of_the_oracle_cases_lie_inside_its_guards():
    """The exact check accepts values within the rule's value bound and
    levels within its level bound; on the sampled oracle's 60 cases both lie
    inside the oracle's own tolerances, so the two checks test one claim."""
    bounds = [rounding_bounds(random_lift_case(seed)[0].eigensystem.eigenvalues) for seed in range(60)]
    assert max(value for value, _ in bounds) < ORACLE_VALUE_TOL
    assert max(level for _, level in bounds) < ORACLE_LEVEL_GUARD


def test_intertwine_fails_when_the_lifted_barrier_is_rotated(monkeypatch):
    honest = dynamics.lifted_components
    rot = build_map(MapSpec.rotation(F(1, 5)))

    def rotated(u, sigma, psi, barrier):
        new_psi, new_barrier, transport = honest(u, sigma, psi, barrier)
        return new_psi, compose(rot, new_barrier), transport

    monkeypatch.setattr(dynamics, "lifted_components", rotated)
    for seed in range(6):
        case = random_lift_case(seed)
        assert not intertwine_check(*case), seed
        assert not ref_intertwine_sampled(*case, n=100, seed=seed), seed


def test_intertwine_spectral_identity_catches_a_different_unitary(monkeypatch):
    """The lift moves the state by another unitary but keeps honest maps: the
    map identity holds, and only the step-CDF comparison can fail."""
    honest = dynamics.lifted_components
    other = random_unitary(np.random.default_rng(99), 3)
    seen = []

    def misrouted(u, sigma, psi, barrier):
        _, new_barrier, transport = honest(u, sigma, psi, barrier)
        seen.append(map_equal_ae(compose(new_barrier, transport), barrier))
        return other.apply(psi), new_barrier, transport

    monkeypatch.setattr(dynamics, "lifted_components", misrouted)
    rng = np.random.default_rng(5)
    for seed in range(6):
        a, u = random_hermitian(rng, 3), random_unitary(rng, 3)
        psi = random_pure_state(rng, 3)
        sigma = EquivalenceComplex(random_map_spec(rng, allow_expanding=False))
        barrier = verify._map_with_few_pieces(rng)
        assert not intertwine_check(a, u, sigma, psi, barrier), seed
        assert not ref_intertwine_sampled(a, u, sigma, psi, barrier, n=100, seed=seed), seed
    assert seen and all(seen)


def test_lift_group_law_check_catches_a_shifted_transport(monkeypatch):
    assert verify.check_lift_group_law().passed
    honest = dynamics.lifted_components
    rot = build_map(MapSpec.rotation(F(1, 5)))

    def shifted(u, sigma, psi, barrier):
        new_psi, new_barrier, transport = honest(u, sigma, psi, barrier)
        return new_psi, new_barrier, compose(rot, transport)

    monkeypatch.setattr(verify, "lifted_components", shifted)
    result = verify.check_lift_group_law()
    assert not result.passed
    assert result.detail == "label transports differ"


def test_schrodinger_equivalence_closed_form():
    f, h_fn = obs(pauli_z()), obs(pauli_x())
    lhs, rhs, gap = schrodinger_equivalence_check(f, h_fn, UP, t0=0.3)
    assert abs(lhs - (-2 * math.sin(0.6))) < 1e-5
    assert gap < 1e-5


def test_schrodinger_energy_conservation():
    h_fn = obs(pauli_x())
    lhs, rhs, gap = schrodinger_equivalence_check(h_fn, h_fn, UP, t0=0.4)
    assert abs(rhs) < 1e-12
    assert abs(lhs) < 1e-6


def test_evolution_expectation_examples():
    times = [0.0, 0.5, 1.0, 2.0]

    def largest_gap(a):
        rows = evolution_expectation_check(a, pauli_x(), UP, IDENT_COMPLEX, times)
        return max(abs(op_side - label_side) for _, op_side, label_side in rows)

    assert largest_gap(pauli_z()) < 1e-10
    eye = HermitianOperator(np.eye(2, dtype=complex))
    assert largest_gap(eye) < 1e-14
