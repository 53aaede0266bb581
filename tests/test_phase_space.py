"""Phase-space measures, coordinate observables, and the unit-interval
equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcs.errors import BadSpec, NotNormalized, QcsError
from qcs.measure_maps import (
    MapSpec,
    build_map,
    compose,
    level_function,
    verify_measure_preserving,
)
from qcs.phase_space import (
    CellEquivalence,
    PhaseSpaceMeasure,
    PhaseSpaceState,
    build_measure,
    cell_observable,
    momentum_observable,
    operator_mean,
    position_observable,
    realize_barrier,
    shared_barrier_joint_gap,
    spin_observable,
    to_unit_interval,
)
from qcs.spectral import PiecewiseFn
from qcs.states import label_mean

from layout import cells_of

F = Fraction


def single_sector(values, dq):
    return PhaseSpaceState.normalized(F(0), np.array([values]), dq)


def dft_matrix(n, dq):
    """Explicit unitary DFT in the package's convention, for matrix oracles."""
    j = np.arange(n)
    w = np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)
    return w


def test_state_validation():
    with pytest.raises(BadSpec):
        PhaseSpaceState(F(1, 3), np.zeros((2, 8), dtype=complex), 0.1)
    with pytest.raises(BadSpec):
        PhaseSpaceState(F(1, 2), np.zeros((1, 8), dtype=complex), 0.1)
    with pytest.raises(NotNormalized):
        PhaseSpaceState(F(0), np.ones((1, 8), dtype=complex), 0.1)


def test_delta_state_has_flat_momentum():
    n = 8
    amps = np.zeros(n, dtype=complex)
    amps[3] = 1.0
    state = single_sector(amps, dq=0.25)
    measure = build_measure(state)
    qm = measure.q_marginal()
    assert abs(qm[3] - 1.0) < 1e-12 and abs(qm.sum() - 1.0) < 1e-12
    pm = measure.p_marginal()
    assert np.abs(pm - 1.0 / n).max() < 1e-12


def test_plane_wave_has_point_momentum():
    n = 8
    dq = 0.5
    k = 2
    freqs = np.fft.fftfreq(n, d=dq)
    amps = np.exp(2j * math.pi * freqs[k] * np.arange(n) * dq)
    state = single_sector(amps, dq)
    measure = build_measure(state)
    pm = measure.p_marginal()
    target_p = 2 * math.pi * freqs[k]
    idx = int(np.argmin(np.abs(measure.p_grid - target_p)))
    assert abs(pm[idx] - 1.0) < 1e-12
    assert np.abs(measure.q_marginal() - 1.0 / n).max() < 1e-12


def test_two_sector_state_splits_mass():
    n = 4
    amps = np.zeros((2, n), dtype=complex)
    amps[0, 0] = 1.0
    amps[1, 1] = 1.0
    state = PhaseSpaceState.normalized(F(1, 2), amps, dq=1.0)
    measure = build_measure(state)
    per_sector = measure.masses.sum(axis=(1, 2))
    assert np.abs(per_sector - 0.5).max() < 1e-12


def test_position_observable_toy_cdf():
    dq = 1.0
    amps = np.array([math.sqrt(0.2), math.sqrt(0.3), math.sqrt(0.5)], dtype=complex)
    state = single_sector(amps, dq)
    obs = position_observable(PiecewiseFn.identity(), state)
    assert np.abs(np.array(obs.cdf.levels) - np.array([0.2, 0.5, 1.0])).max() < 1e-12
    assert obs.cdf.support == (0.0, 1.0, 2.0)


def test_position_constant_and_indicator():
    state = single_sector(np.array([1.0, 1.0, 1.0, 1.0], dtype=complex) / 2.0, dq=1.0)
    const = position_observable(PiecewiseFn.constant(3.5), state)
    assert const.cdf.support == (3.5,) and const.cdf.levels == (1.0,)
    indicator = PiecewiseFn((-math.inf, 1.5, math.inf), ((0.0,), (1.0,)))
    bern = position_observable(indicator, state)
    assert bern.cdf.support == (0.0, 1.0)
    assert abs(bern.cdf.levels[0] - 0.5) < 1e-12


def test_momentum_constant_function_is_a_point_mass():
    rng = np.random.default_rng(9)
    state = single_sector(rng.normal(size=8) + 1j * rng.normal(size=8), dq=0.5)
    obs = momentum_observable(PiecewiseFn.constant(0.0), state)
    assert obs.cdf.support == (0.0,) and obs.cdf.levels == (1.0,)


def test_momentum_mean_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    n = 16
    dq = 0.3
    state = single_sector(rng.normal(size=n) + 1j * rng.normal(size=n), dq)
    obs = momentum_observable(PiecewiseFn.identity(), state)
    label_mean = math.fsum(v * w for v, w in zip(obs.cdf.support, obs.cdf.weights))
    w = dft_matrix(n, dq)
    p_diag = np.diag(2 * math.pi * np.fft.fftfreq(n, d=dq))
    p_op = w.conj().T @ p_diag @ w
    vec = state.amplitudes[0]
    matrix_mean = float(np.vdot(vec, p_op @ vec).real) * dq
    assert abs(label_mean - matrix_mean) < 1e-12


def test_spin_observable_cdfs():
    n = 4
    amps = np.zeros((2, n), dtype=complex)
    amps[0, 0] = math.sqrt(0.25)
    amps[1, 0] = math.sqrt(0.75)
    state = PhaseSpaceState(F(1, 2), amps, dq=1.0)
    obs = spin_observable(state)
    assert obs.cdf.support == (-0.5, 0.5)
    assert abs(obs.cdf.levels[0] - 0.25) < 1e-12
    single = PhaseSpaceState.normalized(F(0), np.ones((1, n), dtype=complex), 1.0)
    assert spin_observable(single).cdf.support == (0.0,)
    three = PhaseSpaceState.normalized(F(1), np.ones((3, n), dtype=complex), 1.0)
    levels = spin_observable(three).cdf.levels
    assert np.abs(np.array(levels) - np.array([1 / 3, 2 / 3, 1.0])).max() < 1e-12


def test_to_unit_interval_cells():
    n = 2
    amps = np.zeros((1, n), dtype=complex)
    amps[0, 0] = 1.0
    state = PhaseSpaceState.normalized(F(0), amps, dq=1.0)
    equiv = to_unit_interval(build_measure(state))
    # one position cell splits evenly across two momentum cells
    assert equiv.nums[0] == 0 and equiv.nums[-1] == equiv.den
    assert abs(equiv.nums[1] / equiv.den - 0.5) < 1e-12
    # two cells with masses (1/4, 3/4) occupy the matching subintervals
    eq = CellEquivalence(np.array([0, 1]), 4, [0, 1, 4])
    fn = eq.pcf(np.array([[[5.0, -2.0]]]))
    assert fn(F(1, 8)) == 5.0 and fn(F(1, 2)) == -2.0


@pytest.mark.parametrize(
    "kept, bounds, message",
    [
        ([0, 1], [0, 2], "n\\+1 breakpoints"),
        ([0], [0, 1], "cover"),
        ([0, 1, 2], [0, 1, 1, 2], "strictly ascending"),
    ],
)
def test_cell_equivalence_checks_its_bounds_when_built(kept, bounds, message):
    """Bound numerators over the denominator 2."""
    with pytest.raises(BadSpec, match=message):
        CellEquivalence(np.array(kept), 2, bounds)


def test_single_cell_equivalence_is_identity():
    from qcs.phase_space import PhaseSpaceMeasure

    measure = PhaseSpaceMeasure(
        (F(0),), np.array([[[1.0]]]), np.array([0.0]), np.array([0.0])
    )
    equiv = to_unit_interval(measure)
    assert equiv.nums == [0, equiv.den]
    fn = equiv.pcf(np.array([[[4.5]]]))
    assert fn(F(1, 2)) == 4.5


def test_equivalence_composes_with_barriers():
    rng = np.random.default_rng(11)
    state = single_sector(rng.normal(size=8) + 1j * rng.normal(size=8), dq=0.5)
    obs = position_observable(PiecewiseFn.identity(), state)
    equiv = to_unit_interval(build_measure(state))
    barrier, fn = realize_barrier(obs, equiv)
    assert verify_measure_preserving(barrier)
    rotated = compose(build_map(MapSpec.rotation(F(2, 5))), barrier)
    assert verify_measure_preserving(rotated)


def test_expectation_identity_small_grid():
    rng = np.random.default_rng(3)
    n = 8
    state = PhaseSpaceState.normalized(
        F(1, 2), rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)), dq=0.2
    )
    equiv = to_unit_interval(build_measure(state))
    g = PiecewiseFn.square()
    obs = position_observable(g, state)
    barrier, _ = realize_barrier(obs, equiv)
    label_side = math.fsum(
        v * float(hi - lo) for lo, hi, v in cells_of(level_function(obs.cdf, barrier))
    )
    dens = ((np.abs(state.amplitudes) ** 2) * state.dq).sum(axis=0)
    op_side = math.fsum(g(q) * float(wq) for q, wq in zip(state.q_grid, dens))
    assert abs(label_side - op_side) < 1e-12


def test_squared_momentum_merges_symmetric_values():
    """f = square folds +-p onto one atom; the expectation identity must
    survive the merge through the factorization pipeline."""
    rng = np.random.default_rng(17)
    n = 32
    state = PhaseSpaceState.normalized(
        F(1, 2), rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)), dq=0.15
    )
    obs = momentum_observable(PiecewiseFn.square(), state)
    assert len(obs.cdf.support) < n
    equiv = to_unit_interval(build_measure(state))
    barrier, _ = realize_barrier(obs, equiv)
    label_side = math.fsum(
        v * float(hi - lo) for lo, hi, v in cells_of(level_function(obs.cdf, barrier))
    )
    pdens = ((np.abs(state.momentum_amplitudes) ** 2) * state.dp).sum(axis=0)
    op_side = math.fsum((p**2) * w for p, w in zip(state.p_grid, pdens))
    assert abs(op_side - label_side) < 1e-12 * max(1.0, abs(op_side))


def test_shared_barrier_obstruction_two_point_state():
    """Frozen oracle: for amplitudes (1,1,0,0) on a 4-point grid the actual
    joint and the monotone-coupling joint differ by exactly 1/8."""
    amps = np.zeros((1, 4), dtype=complex)
    amps[0, 0] = 1.0
    amps[0, 1] = 1.0
    state = PhaseSpaceState.normalized(F(0), amps, dq=0.5)
    gap = shared_barrier_joint_gap(state)
    assert abs(gap - 0.125) < 1e-12


def test_joint_gap_on_far_tail_gaussian_is_a_float_or_a_typed_error():
    """A Gaussian whose tail cells fall below the CDF's weight cut-off once
    made the joint gap raise a bare KeyError; only a gap or a QcsError is
    acceptable."""
    q = np.arange(64) * 0.5
    state = single_sector(np.exp(-((q - 16) ** 2) / 2), 0.5)
    try:
        gap = shared_barrier_joint_gap(state)
    except QcsError:
        return
    assert isinstance(gap, float)


def test_joint_gap_on_far_tail_gaussian_is_a_float():
    """Both marginals and the joint table sum the same integer cell masses,
    so the tail values with masses near 1e-112 keep their atoms."""
    q = np.arange(64) * 0.5
    state = single_sector(np.exp(-((q - 16) ** 2) / 2), 0.5)
    gap = shared_barrier_joint_gap(state)
    assert isinstance(gap, float) and 0 < gap < 1


def exact_pipeline_label_mean(measure, cell_values):
    """Carry one cell function through the exact pipeline, check what the
    integer cell masses guarantee, and return its label-side mean."""
    kept, masses, total = measure.cell_masses
    flat = measure.masses.ravel()
    exact = [Fraction(float(flat[i])) for i in kept]
    exact_total = sum(exact)
    assert all(Fraction(m, total) == e / exact_total for m, e in zip(masses, exact))
    equiv = to_unit_interval(measure)
    nums = equiv.nums
    assert all(a < b for a, b in zip(nums, nums[1:])) and nums[-1] == equiv.den
    obs = cell_observable(cell_values, measure)
    barrier, fn = realize_barrier(obs, equiv)
    assert all(s == 1 for s in barrier.slopes)
    levels = (Fraction(0),) + obs.cdf.exact_levels
    weights = {v: hi - lo for v, lo, hi in zip(obs.cdf.support, levels, levels[1:])}
    assert fn.masses_by_value() == weights
    return label_mean(level_function(obs.cdf, barrier))


@st.composite
def far_tail_states(draw):
    """States whose cell masses span hundreds of decades, down to
    subnormals and exact zeros: narrow Gaussians and entries scaled by up to
    1e-160, with some spin sectors empty."""
    spin = draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    n = draw(st.integers(2, 12))
    rows = []
    for _ in range(int(2 * spin) + 1):
        kind = draw(st.sampled_from(["empty", "gaussian", "scaled"]))
        if kind == "gaussian":
            centre = draw(st.floats(0, n - 1))
            width = draw(st.sampled_from([0.2, 0.4, 1.0]))
            rows.append(np.exp(-(((np.arange(n) - centre) / width) ** 2) / 2))
        elif kind == "scaled":
            scales = draw(st.lists(st.integers(-160, 0), min_size=n, max_size=n))
            # an entry of size 1 keeps the normalized mass within its 1e-12 check
            scales[draw(st.integers(0, n - 1))] = 0
            phases = draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n))
            rows.append(np.exp(1j * np.array(phases)) * 10.0 ** np.array(scales))
        else:
            rows.append(np.zeros(n))
    if not any(np.any(r) for r in rows):
        rows[0] = np.ones(n)
    dq = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return PhaseSpaceState.normalized(spin, np.array(rows), dq)


@settings(max_examples=60, deadline=None)
@given(state=far_tail_states())
def test_exact_pipeline_on_far_tail_states(state):
    measure = build_measure(state)
    identity = PiecewiseFn.identity()
    for coordinate, obs in (
        ("position", position_observable(identity, state)),
        ("momentum", momentum_observable(identity, state)),
        ("spin", spin_observable(state)),
    ):
        mean = exact_pipeline_label_mean(measure, obs.cell_values)
        assert abs(mean - operator_mean(state, coordinate)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    sectors=st.integers(1, 3),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_exact_pipeline_on_a_single_occupied_cell(sectors, n, data):
    masses = np.zeros((sectors, n, n))
    cell = tuple(data.draw(st.integers(0, k - 1)) for k in masses.shape)
    masses[cell] = 1.0
    grid = np.arange(n) * 0.5
    measure = PhaseSpaceMeasure(tuple(F(s) for s in range(sectors)), masses, grid, grid)
    value = data.draw(st.floats(-1e6, 1e6))
    cell_values = np.full(masses.shape, -7.0)
    cell_values[cell] = value
    equiv = to_unit_interval(measure)
    assert equiv.nums == [0, equiv.den]
    assert exact_pipeline_label_mean(measure, cell_values) == value


def test_measure_is_built_once_per_state():
    rng = np.random.default_rng(5)
    state = PhaseSpaceState.normalized(F(1, 2), rng.normal(size=(2, 8)) + 0j, dq=0.5)
    measure = build_measure(state)
    assert build_measure(state) is measure and measure.cell_masses is build_measure(state).cell_masses


def test_phase_space_kernels_build_no_fraction_view():
    """realize_barrier, level_function, label_mean and masses_by_value run on
    the integer numerators; the Fraction views of the barriers and the
    functions stay unbuilt until asked for.  A view cached on every piece
    once raised the peak memory of an N=128 round by half."""
    rng = np.random.default_rng(16)
    raw = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    state = PhaseSpaceState.normalized(F(1, 2), raw, dq=0.25)
    equiv = to_unit_interval(build_measure(state))
    identity = PiecewiseFn.identity()
    built = []
    for obs in (
        position_observable(identity, state),
        momentum_observable(identity, state),
        spin_observable(state),
    ):
        barrier, fn = realize_barrier(obs, equiv)
        levels = level_function(obs.cdf, barrier)
        for g in (fn, levels):
            label_mean(g)
            g.masses_by_value()
        assert all("breakpoints" not in vars(g) for g in (barrier, fn, levels))
        built.append((barrier, levels))
    # on demand, the views are the integers over their denominators
    for barrier, levels in built:
        assert levels.breakpoints == tuple(F(n, levels.den) for n in levels.nums)
        assert barrier.breakpoints == tuple(F(n, barrier.den) for n in barrier.nums)


def test_marginals_are_exact():
    rng = np.random.default_rng(7)
    n = 16
    state = PhaseSpaceState.normalized(
        F(1, 2), rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)), dq=0.1
    )
    measure = build_measure(state)
    qdens = ((np.abs(state.amplitudes) ** 2) * state.dq).sum(axis=0)
    pdens = ((np.abs(state.momentum_amplitudes) ** 2) * state.dp).sum(axis=0)
    assert np.abs(measure.q_marginal() - qdens).max() < 1e-12
    assert np.abs(measure.p_marginal() - pdens).max() < 1e-12


def test_non_finite_amplitudes_rejected():
    amps = np.full((1, 4), 0.5 + 0j)
    amps[0, 1] = np.nan
    with pytest.raises(NotNormalized):
        PhaseSpaceState(F(0), amps, 1.0)
