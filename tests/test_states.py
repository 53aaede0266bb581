"""Complete states: value assignments, exact distributions, the squaring
obstruction, and identifiability."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcs import states
from qcs.errors import (
    DimensionMismatch,
    DomainGap,
    LabelOnBreakpoint,
    NotABarrier,
    NotAResolution,
    NotMonotone,
    OutOfDomain,
    UndefinedEquivalence,
    ValueNotInSupport,
)
from qcs.measure_maps import (
    MapSpec,
    PiecewiseAffineMap,
    PiecewiseConstantFn,
    build_map,
    compose,
    intervals_measure,
    invert,
    level_function,
    map_equal_ae,
    pushforward_density,
    quantile_pcf,
)
from qcs.spectral import HermitianOperator, PiecewiseFn, PureState, borel_apply, image_values, spectral_cdf
from qcs.states import (
    BarrierComplex,
    CompleteState,
    ObservableFunction,
    default_probe_states,
    eigenvector_probes,
    expectation_via_labels,
    identifiability_check,
    monotone_compose_check,
    no_go_witness,
    recover_barrier,
    repair_barrier,
    sample_values,
    sigma_simple_regions,
    spectrum_image_check,
    squaring_witness_model,
    value,
    value_distribution,
    value_region,
)
from qcs.random_objects import random_hermitian, random_map_spec, random_pure_state, random_unitary

from layout import cells_of, ends_of, pieces_of

F = Fraction
IDENTITY = build_map(MapSpec.identity())
MODEL = squaring_witness_model()
HALVING = PiecewiseAffineMap(1, [0, 1], (F(1, 2),), 1, [0])


def test_value_examples():
    assert value(MODEL.operator, CompleteState(MODEL.state, IDENTITY, F(1, 2))) == -1.0
    eye = HermitianOperator(np.eye(5, dtype=complex))
    assert value(eye, CompleteState(MODEL.state, IDENTITY, F(1, 3))) == 1.0
    rot = build_map(MapSpec.rotation(F(3, 8)))
    assert value(MODEL.operator, CompleteState(MODEL.state, rot, F(1, 2))) == 0.0


def test_value_requires_matching_dims():
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(DimensionMismatch):
        value(sz, CompleteState(MODEL.state, IDENTITY, F(1, 2)))


def test_complete_state_validation():
    with pytest.raises(OutOfDomain):
        CompleteState(MODEL.state, IDENTITY, F(3, 2))
    rot = build_map(MapSpec.rotation(F(3, 8)))
    with pytest.raises(LabelOnBreakpoint):
        CompleteState(MODEL.state, rot, F(5, 8))
    with pytest.raises(NotABarrier):
        CompleteState(MODEL.state, HALVING, F(1, 3))


def test_value_distribution_exact():
    dist = value_distribution(MODEL.operator, MODEL.state, IDENTITY)
    assert dist == [(-1.0, F(5, 8)), (0.0, F(1, 4)), (1.0, F(1, 8))]
    rot = build_map(MapSpec.rotation(F(3, 8)))
    assert value_distribution(MODEL.operator, MODEL.state, rot) == dist


def test_projector_distribution_and_region():
    """A yes/no observable with weight 1/8: value 1 exactly on the top level
    interval of the barrier."""
    proj = HermitianOperator(MODEL.plus)
    dist = value_distribution(proj, MODEL.state, IDENTITY)
    assert dist == [(0.0, F(7, 8)), (1.0, F(1, 8))]
    region = value_region(proj, MODEL.state, IDENTITY, 0.5, 1.5)
    assert region == [(F(7, 8), F(1))]


def test_sample_values_deterministic_and_partitionable():
    a, psi = MODEL.operator, MODEL.state
    full = sample_values(a, psi, IDENTITY, seed=9, n=512)
    again = sample_values(a, psi, IDENTITY, seed=9, n=512)
    assert np.array_equal(full, again)
    parts = np.concatenate(
        [
            sample_values(a, psi, IDENTITY, seed=9, n=100),
            sample_values(a, psi, IDENTITY, seed=9, n=311, start=100),
            sample_values(a, psi, IDENTITY, seed=9, n=101, start=411),
        ]
    )
    assert np.array_equal(full, parts)


# sha256 of sample_values(MODEL, rotation(1/3) then expanding(3)) output
# bytes, pinned from the dense distance-matrix implementation.
SAMPLE_DIGESTS = {
    (0, 0, 4096): "727be5740b36ded52fa79343881c71936ec5cea9eb5d59b5737162959ff40674",
    (9, 1000, 3000): "c8298b9c7028e1bbe68dbaf27e828e44528fa3d8a6f93ef4d92e4a81288a4508",
    (2021, 123457, 5000): "66488428524f92ed87955c5a6ca2fbf983bd931b469ce3c82694a4ab74be51f5",
}
DIGEST_BARRIER = build_map(
    MapSpec.composition(MapSpec.rotation(F(1, 3)), MapSpec.expanding(3))
)


def _digest(samples: np.ndarray) -> str:
    return hashlib.sha256(samples.tobytes()).hexdigest()


@pytest.mark.parametrize("seed, start, n", sorted(SAMPLE_DIGESTS))
def test_sample_values_stream_is_pinned(seed, start, n):
    a, psi = MODEL.operator, MODEL.state
    whole = sample_values(a, psi, DIGEST_BARRIER, seed, n, start=start)
    assert _digest(whole) == SAMPLE_DIGESTS[seed, start, n]
    cuts = [0, 1, n // 3, n // 3 + 7, n]
    chunks = [
        sample_values(a, psi, DIGEST_BARRIER, seed, hi - lo, start=start + lo)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    assert _digest(np.concatenate(chunks)) == SAMPLE_DIGESTS[seed, start, n]


# The four barrier kinds that the measure-highdim benchmark cycles through.
MANY_CELL_BARRIERS = {
    "rotation": MapSpec.rotation(F(37, 64)),
    "exchange": MapSpec.interval_exchange([F(5, 32), F(13, 32), F(14, 32)], [2, 0, 1]),
    "expanding": MapSpec.expanding(2),
    "rotation-expanding": MapSpec.composition(MapSpec.rotation(F(37, 64)), MapSpec.expanding(3)),
}
# sha256 over the three operators of ``many_cell_pairs`` of the bytes of
# 2**15 sampled values each, pinned from the binary-search lookup.
MANY_CELL_DIGESTS = {
    "rotation": "cef80beb840f3e70737f073125722c16125c9b47a2823b143d86743f6b19b033",
    "exchange": "71e7d154f1df8d9ee4ddc9d8ae4448847b72829ace3849452310ba5cfd9c1f39",
    "expanding": "a9365cfd13e1d224950661a45c51310b180f84725c57addc969fe7fd3ebaedfc",
    "rotation-expanding": "86c499253a51676e6d9006d6686d1d7e017e7a4cb8bd25b0dcc0ad8d1e6061e3",
}


def many_cell_pairs():
    """Seeded operators at d = 64 and 128 and the 1e6-norm ``scaled_pair``
    at d = 128, each with a state: level functions of hundreds of cells."""
    from test_spectral import scaled_pair

    rng = np.random.default_rng(32)
    pairs = [(random_hermitian(rng, d), random_pure_state(rng, d)) for d in (64, 128)]
    m, v = scaled_pair(128)
    return pairs + [(HermitianOperator(m), PureState(v))]


@pytest.mark.parametrize("kind", sorted(MANY_CELL_BARRIERS))
def test_sample_values_on_many_cell_level_functions_are_pinned(kind):
    """Four chunks of 2**13 labels concatenate to the whole draw of 2**15,
    and the draw is pinned bitwise.  Like the other digests, the pin holds
    for the numpy and LAPACK build it was taken on."""
    barrier = build_map(MANY_CELL_BARRIERS[kind])
    h = hashlib.sha256()
    for k, (a, psi) in enumerate(many_cell_pairs()):
        assert len(level_function(spectral_cdf(a, psi), barrier).nums) > 64
        seed, start, chunk = 700 + k, 4096 * k, 1 << 13
        whole = sample_values(a, psi, barrier, seed, 4 * chunk, start=start)
        chunks = [sample_values(a, psi, barrier, seed, chunk, start=start + j * chunk) for j in range(4)]
        assert np.array_equal(np.concatenate(chunks), whole)
        h.update(whole.tobytes())
    assert h.hexdigest() == MANY_CELL_DIGESTS[kind]


def test_chunked_sampling_builds_one_level_function(monkeypatch):
    """Four chunks on one (operator, state, barrier) share one level function,
    round its float ends once and build its guide table once."""
    from functools import cached_property

    from qcs import measure_maps
    from qcs.measure_maps import PiecewiseConstantFn

    rng = np.random.default_rng(5)
    a, psi = random_hermitian(rng, 6), random_pure_state(rng, 6)
    barrier = build_map(MapSpec.composition(MapSpec.rotation(F(1, 3)), MapSpec.expanding(3)))
    calls, arrays, tables = [], [], []
    original, readonly = PiecewiseConstantFn.compose_with_map, measure_maps._readonly
    build_table = PiecewiseConstantFn.buckets.func

    def counted(fn, m):
        calls.append(m)
        return original(fn, m)

    def counted_array(values):
        arrays.append(values)
        return readonly(values)

    def counted_table(fn):
        tables.append(fn)
        return build_table(fn)

    table = cached_property(counted_table)
    table.__set_name__(PiecewiseConstantFn, "buckets")
    monkeypatch.setattr(PiecewiseConstantFn, "compose_with_map", counted)
    monkeypatch.setattr(PiecewiseConstantFn, "buckets", table)
    monkeypatch.setattr(measure_maps, "_readonly", counted_array)
    chunks = [sample_values(a, psi, barrier, 7, 256, start=256 * k) for k in range(1)]
    first = len(arrays)
    chunks += [sample_values(a, psi, barrier, 7, 256, start=256 * k) for k in range(1, 4)]
    assert calls == [barrier]
    assert len(arrays) == first  # no array is built after the first chunk
    fn = level_function(spectral_cdf(a, psi), barrier)
    assert tables == [fn]
    monkeypatch.undo()
    assert np.array_equal(np.concatenate(chunks), sample_values(a, psi, barrier, 7, 1024))
    assert fn.float_ends.tolist() == [float(F(x, fn.den)) for x in fn.nums]
    assert not fn.float_ends.flags.writeable
    _, below, fill = fn.buckets
    assert not below.flags.writeable and not fill.flags.writeable


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64)])
def test_seeds_outside_64_bits_are_rejected(seed):
    """The Philox key is one 64-bit word: seed -1 would draw the labels of
    2**64 - 1, and 2**64 those of 0."""
    from qcs.sampling import keyed_uniform, uniform_labels

    with pytest.raises(OutOfDomain):
        uniform_labels(seed, 0, 4)
    with pytest.raises(OutOfDomain):
        keyed_uniform(seed, 0)
    with pytest.raises(OutOfDomain):
        sample_values(MODEL.operator, MODEL.state, IDENTITY, seed, 4)


def test_extreme_seeds_draw_distinct_streams():
    from qcs.sampling import keyed_uniform, uniform_labels

    top, zero = uniform_labels(2**64 - 1, 0, 8), uniform_labels(0, 0, 8)
    assert not np.array_equal(top, zero)
    assert not np.array_equal(keyed_uniform(2**64 - 1, 0), keyed_uniform(0, 0))


@pytest.mark.parametrize("start, count", [(-1, 4), (0, -1), (-4, -4)])
def test_negative_start_or_count_is_out_of_domain(start, count):
    from qcs.sampling import uniform_labels

    with pytest.raises(OutOfDomain, match="nonnegative"):
        uniform_labels(3, start, count)


def test_negative_redraw_position_is_out_of_domain():
    """Position -1 would wrap to the redraw key of position 2**64 - 1."""
    from qcs.sampling import keyed_uniform

    with pytest.raises(OutOfDomain):
        keyed_uniform(3, -1)


def test_sample_values_agree_with_the_values_function():
    """Each sampled output is the deterministic value at its drawn label."""
    from qcs.sampling import uniform_labels

    rot = build_map(MapSpec.rotation(F(2, 9)))
    out = sample_values(MODEL.operator, MODEL.state, rot, seed=21, n=256)
    labels = uniform_labels(21, 0, 256)
    for z, v in zip(labels, out):
        expected = value(MODEL.operator, CompleteState(MODEL.state, rot, F(float(z))))
        assert v == expected


def _sample_at(monkeypatch, labels, a, psi, barrier):
    """sample_values with the label stream replaced by ``labels``."""
    labels = np.array(labels, dtype=float)
    monkeypatch.setattr(states, "uniform_labels", lambda seed, start, n: labels[start : start + n].copy())
    return labels, sample_values(a, psi, barrier, seed=0, n=len(labels))


def test_sample_values_equal_value_at_labels_next_to_level_ends(monkeypatch):
    """Labels at and within 3 ulps of the cell ends of the level function,
    under a barrier whose slope 99991 spreads each ulp of label over 99991
    ulps of level: every output is the exact value at its label."""
    rng = np.random.default_rng(3)
    a, psi = random_hermitian(rng, 6), random_pure_state(rng, 6)
    k = 99991
    barrier = build_map(MapSpec.expanding(k))
    levels = ends_of(spectral_cdf(a, psi))[:-1]
    labels = []
    for i in range(k - 400, k - 1, 7):
        for c in levels:
            near = [float((i + c) / k)]
            for _ in range(3):
                near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], 1.0)]
            labels += near
    labels, out = _sample_at(monkeypatch, labels, a, psi, barrier)
    checked = 0
    for z, v in zip(labels, out):
        if barrier.is_breakpoint(F(z)):
            continue
        assert v == value(a, CompleteState(psi, barrier, F(z)))
        checked += 1
    assert checked == 57 * len(levels) * 7


def test_sample_values_decide_labels_on_level_ends_exactly(monkeypatch):
    """Labels exactly on the model's levels 5/8 and 7/8 under the identity
    barrier tie with cell ends and take the exact path."""
    labels, out = _sample_at(monkeypatch, [0.625, 0.875, 0.5], MODEL.operator, MODEL.state, IDENTITY)
    expected = [value(MODEL.operator, CompleteState(MODEL.state, IDENTITY, F(z))) for z in labels]
    assert out.tolist() == expected == [-1.0, 0.0, -1.0]


# breakpoints 0, 7/24, 5/8 and 23/24: dyadic and not
NEAR_BARRIER = build_map(MapSpec.composition(MapSpec.rotation(F(3, 8)), MapSpec.expanding(3)))


def test_sample_values_keep_labels_next_to_barrier_breakpoints(monkeypatch):
    """Labels within 1e-15 of a barrier breakpoint, and not on one, keep
    their own exact value: one to four ulps and 9.9e-16 off each interior
    breakpoint, and subnormal to 9.9e-16 above 0."""
    rng = np.random.default_rng(8)
    a, psi = random_hermitian(rng, 6), random_pure_state(rng, 6)
    labels = [np.nextafter(0.625, 1.0), 5e-324, 2.0**-1074 * 3, 2.0**-60, 1e-16, 9.9e-16]
    for b in NEAR_BARRIER.breakpoints[1:-1]:
        for side in (0.0, 1.0):
            z = float(b)
            for _ in range(4):
                z = np.nextafter(z, side)
                labels.append(z)
            labels.append(float(b) + (2 * side - 1) * 9.9e-16)
    labels, out = _sample_at(monkeypatch, labels, a, psi, NEAR_BARRIER)
    expected = [value(a, CompleteState(psi, NEAR_BARRIER, F(z))) for z in labels]
    assert out.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.tuples(st.integers(0, 99), st.floats(2.0**-60, 1e-15), st.booleans()), min_size=1, max_size=8),
)
def test_sample_values_equal_value_within_1e_15_of_random_breakpoints(seed, picks):
    """Random barriers, and labels 2^-60 to 1e-15 off their breakpoints."""
    rng = np.random.default_rng(seed)
    barrier = build_map(random_map_spec(rng))
    a, psi = random_hermitian(rng, 4), random_pure_state(rng, 4)
    ends = barrier.breakpoints[:-1]
    labels = []
    for k, offset, above in picks:
        z = float(ends[k % len(ends)]) + (offset if above else -offset)
        if 0 < z < 1 and not barrier.is_breakpoint(F(z)):
            labels.append(z)
    assume(labels)
    with pytest.MonkeyPatch.context() as patch:
        labels, out = _sample_at(patch, labels, a, psi, barrier)
    assert out.tolist() == [value(a, CompleteState(psi, barrier, F(z))) for z in labels]


def test_sample_values_redraw_labels_exactly_on_barrier_breakpoints(monkeypatch):
    """0.0 and 0.625 are barrier breakpoints: each takes the value at the
    first label of its position's keyed stream; chunks agree bytewise."""
    from qcs.sampling import keyed_uniform

    rng = np.random.default_rng(8)
    a, psi = random_hermitian(rng, 6), random_pure_state(rng, 6)
    labels = [0.3, 0.0, 0.625, 0.7, 0.625, 0.0]
    labels, whole = _sample_at(monkeypatch, labels, a, psi, NEAR_BARRIER)
    for i, z in enumerate(labels):
        label = F(z) if z not in (0.0, 0.625) else F(keyed_uniform(0, i)[0])
        assert whole[i] == value(a, CompleteState(psi, NEAR_BARRIER, label))
    chunks = [sample_values(a, psi, NEAR_BARRIER, 0, hi - lo, start=lo) for lo, hi in ((0, 2), (2, 3), (3, 6))]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()


def test_redraws_skip_candidates_on_breakpoints(monkeypatch):
    labels = [0.0, 0.5]
    draws = np.array([0.625, 0.0, 0.25, 0.75])
    monkeypatch.setattr(states, "keyed_uniform", lambda seed, i: draws)
    _, out = _sample_at(monkeypatch, labels, MODEL.operator, MODEL.state, NEAR_BARRIER)
    assert out[0] == value(MODEL.operator, CompleteState(MODEL.state, NEAR_BARRIER, F(1, 4)))
    monkeypatch.setattr(states, "keyed_uniform", lambda seed, i: draws[:2])
    with pytest.raises(LabelOnBreakpoint):
        _sample_at(monkeypatch, labels, MODEL.operator, MODEL.state, NEAR_BARRIER)


def test_sample_values_identity_operator():
    eye = HermitianOperator(np.eye(5, dtype=complex))
    out = sample_values(eye, MODEL.state, IDENTITY, seed=1, n=64)
    assert np.all(out == 1.0)


def test_sample_frequencies_within_binomial_bands():
    n = 100_000
    out = sample_values(MODEL.operator, MODEL.state, IDENTITY, seed=3, n=n)
    for target, p in [(-1.0, 0.625), (0.0, 0.25), (1.0, 0.125)]:
        freq = np.count_nonzero(out == target) / n
        band = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < band


def test_sigma_simple_regions_of_model():
    regions = sigma_simple_regions(
        [MODEL.minus, MODEL.zero, MODEL.plus], [-1.0, 0.0, 1.0], MODEL.state, IDENTITY
    )
    assert [intervals_measure(list(r)) for r in regions] == [F(5, 8), F(1, 4), F(1, 8)]
    flat = [iv for region in regions for iv in region]
    assert intervals_measure(flat) == 1


def test_sigma_simple_regions_of_non_dyadic_weights_sum_to_exactly_one():
    """Weights near 1/3 and 2/3, none a dyadic rational and their float sum
    not 1: the regions are exact shares of the integer weights, so they
    still partition the label space."""
    psi = PureState.normalized(np.array([1.0, 1.0, 1.0j], dtype=complex))
    first, rest = np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 1.0]).astype(complex)
    barrier = build_map(MapSpec.rotation(F(2, 7)))
    regions = sigma_simple_regions([first, rest], [0.0, 1.0], psi, barrier)
    measures = [intervals_measure(list(r)) for r in regions]
    assert sum(measures) == 1 and all(m.denominator & (m.denominator - 1) for m in measures)
    weights = [np.vdot(psi.amplitudes, p @ psi.amplitudes).real for p in (first, rest)]
    assert measures[0] / measures[1] == F(weights[0]) / F(weights[1])
    tail = sigma_simple_regions([first], [0.0], psi, barrier, include_tail=True)
    assert [intervals_measure(list(r)) for r in tail] == measures


def test_sigma_simple_single_projector():
    regions = sigma_simple_regions(
        [np.eye(3, dtype=complex)], [1.0], PureState(np.array([1, 0, 0], dtype=complex)), IDENTITY
    )
    assert regions == [((F(0), F(1)),)]


def test_sigma_simple_rejects_bad_input():
    with pytest.raises(NotAResolution):
        sigma_simple_regions(
            [MODEL.plus, MODEL.zero], [1.0, 2.0], MODEL.state, IDENTITY
        )
    with pytest.raises(NotAResolution):
        sigma_simple_regions(
            [MODEL.plus, MODEL.plus], [0.0, 1.0], MODEL.state, IDENTITY
        )


def test_cat_threshold_rule():
    """Yes/no value is 1 exactly when the barrier level clears 1 - weight."""
    proj = HermitianOperator(MODEL.plus)  # weight 1/8
    awake = value(proj, CompleteState(MODEL.state, IDENTITY, F(15, 16)))
    asleep = value(proj, CompleteState(MODEL.state, IDENTITY, F(13, 16)))
    assert (awake, asleep) == (1.0, 0.0)
    exactly_at = value(proj, CompleteState(MODEL.state, IDENTITY, F(7, 8)))
    assert exactly_at == 0.0  # level must strictly exceed the threshold


def test_expectation_via_labels_examples():
    args = (MODEL.operator, MODEL.state, IDENTITY)
    assert expectation_via_labels(PiecewiseFn.identity(), *args) == -0.5
    assert expectation_via_labels(PiecewiseFn.constant(1.0), *args) == 1.0
    assert expectation_via_labels(PiecewiseFn.square(), *args) == 0.75


def test_expectation_via_labels_of_an_image_that_is_not_finite_is_a_domain_gap():
    """The square of 1e200 overflows; map_values refuses it as borel_apply
    does, instead of a bare OverflowError from label_mean."""
    a = HermitianOperator(np.diag([1e200, 2.0]).astype(complex))
    psi = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
    with pytest.raises(DomainGap, match="finite"):
        expectation_via_labels(PiecewiseFn.square(), a, psi, IDENTITY)


def test_monotone_compose_check():
    rot = build_map(MapSpec.rotation(F(1, 5)))
    assert monotone_compose_check(PiecewiseFn.affine(2.0, 1.0), MODEL.operator, MODEL.state, rot)
    assert monotone_compose_check(PiecewiseFn.identity(), MODEL.operator, MODEL.state, rot)
    with pytest.raises(NotMonotone):
        monotone_compose_check(PiecewiseFn.square(), MODEL.operator, MODEL.state, rot)


def test_monotone_compose_check_compares_images_merged_into_one_atom():
    """On diag(1, 1+1e-11), 0.01 x maps the two eigenvalues to images 1e-13
    apart, which borel_apply merges into one atom of fn(A); both images are
    then named by that atom, and the covariance holds."""
    a = HermitianOperator(np.diag([1.0, 1.0 + 1e-11]).astype(complex))
    psi = PureState.normalized(np.ones(2, dtype=complex))
    assert len(spectral_cdf(a, psi).support) == 2
    assert len(spectral_cdf(borel_apply(PiecewiseFn.affine(0.01, 0.0), a), psi).support) == 1
    assert monotone_compose_check(PiecewiseFn.affine(0.01, 0.0), a, psi, IDENTITY)
    assert monotone_compose_check(PiecewiseFn.affine(2.0, 0.0), a, psi, IDENTITY)


@pytest.mark.parametrize(
    "fn, spectrum, increasing",
    [
        (PiecewiseFn.from_poly((1.44, -2.4, 1.0)), (1.0, 3.0), True),
        (PiecewiseFn.from_poly((0.0, 0.0, 0.0, 1.0)), (-1.0, 0.0, 1.0), True),
        (PiecewiseFn.absolute(), (-1.0, 1.0), False),
        (PiecewiseFn.square(), (-1.0, 0.0, 1.0), False),
    ],
    ids=["shifted-square-on-1-3", "cubic", "absolute", "square"],
)
def test_monotone_compose_check_needs_increase_on_the_spectrum_only(fn, spectrum, increasing):
    """(x - 1.2)^2 falls on ]1, 1.2[ but is increasing on the spectrum {1, 3},
    which is all the covariance needs."""
    a = HermitianOperator(np.diag(spectrum).astype(complex))
    psi = PureState.normalized(np.ones(len(spectrum), dtype=complex))
    rot = build_map(MapSpec.rotation(F(1, 5)))
    if increasing:
        assert monotone_compose_check(fn, a, psi, rot)
    else:
        with pytest.raises(NotMonotone):
            monotone_compose_check(fn, a, psi, rot)


def test_no_go_witness_values():
    assert no_go_witness(IDENTITY) == F(1, 2)
    for c in (F(1, 7), F(3, 8), F(9, 10)):
        rot = build_map(MapSpec.rotation(c))
        assert no_go_witness(rot) == F(1, 2)
    rot38 = build_map(MapSpec.rotation(F(3, 8)))
    repaired = no_go_witness(IDENTITY, squared_barrier=compose(rot38, IDENTITY))
    assert repaired == 0


@pytest.mark.parametrize(
    "barrier",
    [
        PiecewiseAffineMap(1, [0, 1], (F(-1),), 1, [1]),
        build_map(MapSpec.expanding(3)),
        build_map(MapSpec.interval_exchange([F(1, 5), F(1, 3), F(7, 15)], [2, 0, 1])),
    ],
    ids=["reflection", "expanding3", "interval-exchange"],
)
def test_no_go_witness_is_one_half_for_any_barrier(barrier):
    assert no_go_witness(barrier) == F(1, 2)


def test_no_go_witness_rejects_a_non_barrier_on_either_side():
    with pytest.raises(NotABarrier, match="witness requires"):
        no_go_witness(HALVING)
    with pytest.raises(NotABarrier, match="squared-side"):
        no_go_witness(IDENTITY, squared_barrier=HALVING)


def test_repair_barrier_matches_shift_on_model():
    square = PiecewiseFn.square()
    beta = repair_barrier(MODEL.operator, square, IDENTITY, MODEL.state)
    cdf2 = spectral_cdf(
        HermitianOperator(MODEL.plus + MODEL.minus), MODEL.state
    )
    shift = build_map(MapSpec.rotation(F(3, 8)))
    assert level_function(cdf2, beta).equal_ae(level_function(cdf2, shift))
    assert beta.measure_preserving


def test_repair_with_increasing_function_can_keep_barrier():
    fn = PiecewiseFn.affine(3.0, -1.0)
    rot = build_map(MapSpec.rotation(F(2, 7)))
    beta = repair_barrier(MODEL.operator, fn, rot, MODEL.state)
    cdf_image = spectral_cdf(
        HermitianOperator(3 * MODEL.operator.entries - np.eye(5)), MODEL.state
    )
    assert level_function(cdf_image, beta).equal_ae(level_function(cdf_image, rot))


def test_repair_barrier_roundtrip_random(rng):
    a = random_hermitian(rng, 4)
    psi = random_pure_state(rng, 4)
    rot = build_map(MapSpec.rotation(F(5, 9)))
    fn = PiecewiseFn.absolute()
    beta = repair_barrier(a, fn, rot, psi)
    image_cdf = spectral_cdf(borel_apply(fn, a), psi)
    lhs = level_function(spectral_cdf(a, psi), rot).map_values(fn)
    rhs = level_function(image_cdf, beta)
    assert rhs.equal_ae(lhs)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_repair_barrier_matches_merged_images_at_large_operator_scale(scale):
    """borel_apply merges s^2 and (s(1 + 1e-13))^2 into one atom; the repair
    must name that atom for both values at every operator scale."""
    a = HermitianOperator(np.diag([-scale, scale * (1 + 1e-13), scale / 2]).astype(complex))
    psi = PureState.normalized(np.ones(3, dtype=complex))
    square = PiecewiseFn.square()
    beta = repair_barrier(a, square, IDENTITY, psi)
    assert beta.measure_preserving
    parent, target = spectral_cdf(a, psi), spectral_cdf(borel_apply(square, a), psi)
    composed = level_function(parent, IDENTITY).map_values(square)
    image = level_function(target, beta)
    for lo, hi, v in cells_of(composed):
        assert abs(image((lo + hi) / 2) - v) <= 1e-12 * scale**2
    # the merged atom weighs exactly what its two members weigh
    mass = dict(zip(parent.support, weights_of(parent)))
    assert weights_of(target) == [mass[scale / 2], mass[-scale] + mass[scale * (1 + 1e-13)]]


def weights_of(cdf):
    """A step CDF's atom weights as ``Fraction`` objects."""
    levels = (0, *ends_of(cdf))
    return [hi - lo for lo, hi in zip(levels, levels[1:])]


def assert_exact_repair(a, fn, barrier, psi):
    """The masses that fn(A) takes through the barrier, each value of A
    renamed to its atom of fn(A) (``image_values``), are the weights of
    fn(A) exactly, and the repaired barrier is a piecewise translation."""
    image = borel_apply(fn, a)
    target = spectral_cdf(image, psi)
    renamed = level_function(spectral_cdf(a, psi), barrier).map_values(image_values(image).__getitem__)
    assert renamed.masses_by_value() == dict(zip(target.support, weights_of(target)))
    beta = repair_barrier(a, fn, barrier, psi)
    assert all(s == 1 for s in beta.slopes)
    assert all(d == 1 for _, _, d in pushforward_density(beta).cells)
    assert beta.measure_preserving


def repair_case(rng):
    """(A, psi, barrier spec) of one case of the repair sweep."""
    d = int(rng.integers(2, 7))
    return random_hermitian(rng, d), random_pure_state(rng, d), random_map_spec(rng)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fn=st.sampled_from([PiecewiseFn.absolute(), PiecewiseFn.square()]))
def test_repairs_of_absolute_value_and_square_are_exact(seed, fn):
    a, psi, spec = repair_case(np.random.default_rng(seed))
    assert_exact_repair(a, fn, build_map(spec), psi)


@st.composite
def merge_edge_images(draw):
    """(images, merged): d = 2-6 ascending values at a scale s from 1e-6 to
    1e8, each gap 1-4 ulps, just inside borel_apply's merge gap
    1e-12 * max(1, |value|), or s / 4; merged says whether any gap is one of
    the first two, which borel_apply must then merge."""
    s = 10.0 ** draw(st.integers(-6, 8))
    images, merged = [s * draw(st.floats(-1, 1))], False
    for _ in range(draw(st.integers(1, 5))):
        kind, y = draw(st.sampled_from(["ulps", "inside", "wide"])), images[-1]
        if kind == "ulps":
            for _ in range(draw(st.integers(1, 4))):
                y = math.nextafter(y, math.inf)
        else:
            y += s / 4 if kind == "wide" else (1 - 2**-10) * 1e-12 * max(1.0, abs(y))
        images.append(y)
        merged |= kind != "wide"
    return images, merged


@settings(max_examples=150, deadline=None)
@given(case=merge_edge_images(), seed=st.integers(0, 2**32 - 1))
def test_repair_and_monotone_check_are_exact_at_the_edge_of_the_merge_gap(case, seed):
    """A has eigenvalues 1..d in a random basis, and fn takes the drawn
    images on them, in order or shuffled: each value of A is named by its
    merged atom exactly, whatever the scale."""
    images, merged = case
    rng = np.random.default_rng(seed)
    d = len(images)
    v = random_unitary(rng, d).entries
    a = HermitianOperator((v * np.arange(1.0, d + 1)) @ v.conj().T)
    psi, barrier = random_pure_state(rng, d), build_map(random_map_spec(rng))
    cuts = (-math.inf, *(k + 0.5 for k in range(1, d)), math.inf)
    increasing = PiecewiseFn(cuts, [(y,) for y in images])
    shuffled = PiecewiseFn(cuts, [(y,) for y in rng.permutation(images).tolist()])
    assert (len(borel_apply(increasing, a).eigensystem.atoms) < d) == merged
    for fn in (increasing, shuffled):
        assert_exact_repair(a, fn, barrier, psi)
    assert monotone_compose_check(increasing, a, psi, barrier)


def test_repair_sweep_case_126_is_measure_preserving():
    """Case 126 of the 2,000-case sweep from default_rng(2026) (|A| on even
    cases, A^2 on odd ones) gave a barrier that measure_preserving rejected
    while masses were matched to weights within a tolerance."""
    rng = np.random.default_rng(2026)
    for _ in range(127):
        a, psi, spec = repair_case(rng)
    assert a.dim == 5
    exchange = MapSpec.interval_exchange([F(7, 29), F(14, 29), F(1, 29), F(7, 29)], [2, 3, 0, 1])
    assert spec == MapSpec.composition(MapSpec.rotation(F(41, 62)), exchange)
    assert_exact_repair(a, PiecewiseFn.absolute(), build_map(spec), psi)


def test_repair_succeeds_when_dropped_parent_atoms_merge():
    """A's atoms -1 and 1 each weigh under WEIGHT_DROP_TOL, so A's CDF drops
    them; |A| merges them into one atom, which its CDF omits as well."""
    a = HermitianOperator(np.diag([-1.0, 1.0, 2.0]).astype(complex))
    psi = PureState.normalized([math.sqrt(0.6e-14), math.sqrt(0.6e-14), 1.0])
    fn = PiecewiseFn.absolute()
    assert spectral_cdf(borel_apply(fn, a), psi).support == (2.0,)
    assert_exact_repair(a, fn, IDENTITY, psi)


def test_absolute_value_repair_matches_every_mass_to_its_weight():
    """|A|'s CDF is A's pushed forward, so the masses that |A| takes through
    the barrier are its weights exactly and the repaired barrier has density 1."""
    rng = np.random.default_rng(42)
    a, psi = random_hermitian(rng, 4), random_pure_state(rng, 4)
    fn, barrier = PiecewiseFn.absolute(), build_map(MapSpec.rotation(F(5, 9)))
    assert_exact_repair(a, fn, barrier, psi)
    beta = repair_barrier(a, fn, barrier, psi)
    z = F(1, 3)
    assert value(borel_apply(fn, a), CompleteState(psi, beta, z)) == abs(value(a, CompleteState(psi, barrier, z)))


def test_library_paths_build_no_fraction_view():
    """Maps of every MapSpec kind, their compositions and inverses, and the
    checks, states and samples on them work on integer ends and float value
    arrays: no map or function gains its ``breakpoints`` view, and no
    function its ``values`` tuple."""
    rng = np.random.default_rng(7)
    a, psi = random_hermitian(rng, 3), random_pure_state(rng, 3)
    specs = [
        MapSpec.identity(),
        MapSpec.rotation(F(2, 7)),
        MapSpec.interval_exchange([F(1, 4), F(1, 4), F(1, 2)], [2, 0, 1]),
        MapSpec.expanding(3),
    ]
    maps = [build_map(spec) for spec in specs]
    maps += [build_map(MapSpec.composition(*specs)), compose(maps[1], maps[2]), invert(maps[2])]
    cdf = spectral_cdf(a, psi)
    fns = [quantile_pcf(cdf)]
    for m in maps:
        assert m.measure_preserving
        value_distribution(a, psi, m)
        value(a, CompleteState(psi, m, F(314159, 10**6)))
        sample_values(a, psi, m, 11, 50)
        assert spectrum_image_check(a, m, [psi])
        fns.append(level_function(cdf, m))
    for fn in fns:
        fn.disagreement(fns[0])
        fn.map_values(abs)
    for obj in maps + fns:
        assert "breakpoints" not in vars(obj)
    for fn in fns:
        assert "values" not in vars(fn)


def test_recover_barrier_roundtrip():
    rot = build_map(MapSpec.rotation(F(4, 11)))
    cdf = spectral_cdf(MODEL.operator, MODEL.state)
    fn = level_function(cdf, rot)
    beta = recover_barrier(MODEL.operator, MODEL.state, fn)
    assert quantile_pcf(cdf).compose_with_map(beta).equal_ae(fn)
    assert beta.measure_preserving


def test_recover_barrier_names_claimed_values_by_equality():
    """A claimed value one ulp above the eigenvalue 1.0 is no value of A."""
    fn = level_function(spectral_cdf(MODEL.operator, MODEL.state), IDENTITY)
    moved = [math.nextafter(v, 2) if v == 1.0 else v for v in fn.values]
    with pytest.raises(ValueNotInSupport):
        recover_barrier(MODEL.operator, MODEL.state, PiecewiseConstantFn(fn.den, fn.nums, moved))


def test_spectrum_image_check_examples():
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    probes = [
        PureState(np.array([1, 0], dtype=complex)),
        PureState(np.array([0, 1], dtype=complex)),
        PureState.normalized(np.array([1, 1], dtype=complex)),
    ]
    assert spectrum_image_check(sz, IDENTITY, probes)
    # a probe set that misses an eigenvalue, and a map that never reaches the
    # level interval of +1 under the |+> probe
    assert not spectrum_image_check(sz, IDENTITY, probes[:1])
    assert not spectrum_image_check(sz, HALVING, probes[2:])
    eye = HermitianOperator(np.eye(3, dtype=complex))
    assert spectrum_image_check(eye, IDENTITY, [PureState(np.array([0, 1, 0], dtype=complex))])
    # the witness state alone already attains the full spectrum
    assert spectrum_image_check(MODEL.operator, IDENTITY, [MODEL.state])
    assert spectral_cdf(MODEL.operator, MODEL.state).support == (-1.0, 0.0, 1.0)


def test_identifiability_examples():
    sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    probes = default_probe_states(2)
    assert identifiability_check(sx, sx, IDENTITY, probes)
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    msz = HermitianOperator(np.diag([-1.0, 1.0]).astype(complex))
    assert identifiability_check(sz, msz, IDENTITY, probes)
    up = PureState(np.array([1, 0], dtype=complex))
    assert spectral_cdf(sz, up).support != spectral_cdf(msz, up).support


def test_barrier_complex_lookup():
    bc = BarrierComplex(
        MapSpec.identity(),
        {("a-tag", "s-tag"): MapSpec.rotation(F(1, 4))},
    )
    tagged_a = HermitianOperator(np.eye(2, dtype=complex), tag="a-tag")
    tagged_s = PureState(np.array([1, 0], dtype=complex), tag="s-tag")
    plain_s = PureState(np.array([1, 0], dtype=complex))
    f = ObservableFunction(tagged_a, bc)
    assert map_equal_ae(f.barrier(tagged_s), build_map(MapSpec.rotation(F(1, 4))))
    assert map_equal_ae(f.barrier(plain_s), IDENTITY)


def test_barrier_complex_without_a_map_raises_a_typed_error():
    a = HermitianOperator(np.eye(2, dtype=complex))
    psi = PureState(np.array([1, 0], dtype=complex))
    with pytest.raises(UndefinedEquivalence):
        ObservableFunction(a, BarrierComplex(None)).barrier(psi)


def test_observable_function_roundtrip():
    f = ObservableFunction(MODEL.operator, BarrierComplex.identity())
    assert f.operator is MODEL.operator
    assert f.evaluate(MODEL.state, F(1, 2)) == -1.0
    assert f.expectation(MODEL.state) == -0.5


def test_value_against_independent_bruteforce_oracle(rng):
    """Recompute the assigned value through an entirely separate route:
    eigenvector inner products for the weights, linear scans instead of
    bisection for both the barrier piece and the minimal admissible atom."""

    def oracle(a, psi, barrier, z):
        w, v = np.linalg.eigh(a.entries)
        weights, values = [], []
        i = 0
        while i < len(w):
            j = i
            while j + 1 < len(w) and w[j + 1] - w[j] <= 1e-12:
                j += 1
            amp = 0.0
            for k in range(i, j + 1):
                amp += abs(np.vdot(v[:, k], psi.amplitudes)) ** 2
            weights.append(amp)
            values.append(float(np.mean(w[i : j + 1])))
            i = j + 1
        level = None
        for lo, hi, slope, intercept in pieces_of(barrier):
            if lo < z <= hi:
                level = slope * z + intercept
                break
        cum = 0.0
        for lam, weight in zip(values, weights):
            cum += weight
            if F(cum) >= level:
                return lam
        return values[-1]

    for _ in range(25):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        psi = random_pure_state(rng, dim)
        barrier = build_map(MapSpec.rotation(F(3, 11)))
        cdf = spectral_cdf(a, psi)
        for zf in np.random.default_rng(1).uniform(0.01, 0.99, 40):
            z = F(float(zf))
            s = float(barrier(z))
            if min(abs(s - c) for c in cdf.levels) < 1e-6:
                continue
            got = value(a, CompleteState(psi, barrier, z))
            assert got == oracle(a, psi, barrier, z)


def test_eigenvector_probes_cover_spectrum(rng):
    a = random_hermitian(rng, 5)
    probes = eigenvector_probes(a)
    assert len(probes) == len(a.eigensystem.atoms) + 1
    assert spectrum_image_check(a, IDENTITY, probes)
