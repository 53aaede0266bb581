"""Exact map algebra: pushforwards, composition, inversion, factorization."""

import bisect
import math
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcs.errors import (
    BadSpec,
    DistributionMismatch,
    DomainGap,
    NotInjective,
    OutOfDomain,
    ValueNotInSupport,
)
from qcs.measure_maps import (
    MapSpec,
    PiecewiseAffineMap,
    PiecewiseConstantFn,
    build_map,
    compose,
    factor_against_cdf,
    intervals_measure,
    invert,
    joint_lengths,
    _images,
    _pullback,
    level_function,
    map_equal_ae,
    preimage_intervals,
    pushforward_density,
    quantile_pcf,
    verify_measure_preserving,
)
from qcs.random_objects import random_hermitian, random_map_spec, random_pure_state
from qcs.spectral import StepCDF, spectral_cdf
from qcs.states import CompleteState, label_mean, value

from layout import cdf_of, cells_of, ends_of, fn_of, image_bounds, map_of, piece_at, pieces_of
from per_cell_reference import ref_factor_against_cdf as per_cell_factor, ref_run_bounds

F = Fraction
IDENTITY = build_map(MapSpec.identity())


def halving_map():
    """u -> u/2, total but not measure preserving."""
    return PiecewiseAffineMap(1, [0, 1], (F(1, 2),), 1, [0])


def chord_map():
    """Two-chord approximation of u -> u^2, not measure preserving."""
    return PiecewiseAffineMap(2, [0, 1, 2], (F(1, 2), F(3, 2)), 2, [0, -1])


def test_rotation_pieces():
    rot = build_map(MapSpec.rotation(F(3, 8)))
    assert len(rot.slopes) == 2
    assert rot(F(1, 2)) == F(7, 8)
    assert rot(F(3, 4)) == F(1, 8)
    assert rot.measure_preserving


def test_identity_map():
    assert len(IDENTITY.slopes) == 1
    assert IDENTITY(F(1, 3)) == F(1, 3)
    assert IDENTITY.measure_preserving


def test_expanding_two_pushforward_is_uniform():
    m = build_map(MapSpec.expanding(2))
    assert len(m.slopes) == 2
    image = pushforward_density(m)
    assert all(d == 1 for _, _, d in image.cells)
    assert image.mass == 1


def test_interval_exchange_swap_is_rotation():
    iet = build_map(MapSpec.interval_exchange([F(1, 2), F(1, 2)], [1, 0]))
    assert map_equal_ae(iet, build_map(MapSpec.rotation(F(1, 2))))


def test_bad_specs_rejected():
    with pytest.raises(BadSpec):
        MapSpec.rotation(F(3, 2))
    with pytest.raises(BadSpec):
        MapSpec.expanding(1)
    with pytest.raises(BadSpec):
        MapSpec.interval_exchange([F(1, 2), F(1, 4)], [1, 0])
    with pytest.raises(BadSpec):
        MapSpec.interval_exchange([F(1, 2), F(1, 2)], [0, 0])
    with pytest.raises(BadSpec):
        MapSpec("composition", maps=())


@pytest.mark.parametrize(
    "pieces, message",
    [
        ((1, [0], (), 1, []), "n\\+1 breakpoints"),
        ((2, [0, 1], (F(1),), 1, [0]), "cover"),
        ((4, [1, 4], (F(1),), 1, [0]), "cover"),
        # pieces that leave a gap or overlap are ends that fall back, and an
        # empty piece is an end repeated
        ((4, [0, 2, 1, 4], (F(1), F(1), F(1)), 1, [0, 0, 0]), "strictly ascending"),
        ((4, [0, 3, 2, 4], (F(1), F(1), F(1)), 1, [0, 0, 0]), "strictly ascending"),
        ((2, [0, 1, 1, 2], (F(1), F(1), F(1)), 1, [0, 0, 0]), "strictly ascending"),
        ((1, [0, 1], (F(0),), 2, [1]), "slope must be nonzero"),
        ((1, [0, 1], (F(2),), 1, [0]), "escapes"),
        ((1, [0, 1], (F(-1),), 2, [1]), "escapes"),
        ((2, [0, 1, 2], (F(1),), 1, [0]), "n\\+1 breakpoints"),
        ((1, [0, 1], (F(1),), 1, []), "one intercept per piece"),
        ((1, [0, 1], (F(1),), 0, [0]), "positive denominator"),
    ],
)
def test_map_constructor_rejects_invalid_pieces(pieces, message):
    """Each case is a map in the integer layout (den, nums, slopes, cden, cnums)."""
    with pytest.raises(BadSpec, match=message):
        PiecewiseAffineMap(*pieces)


@pytest.mark.parametrize(
    "breakpoints, values, message",
    [
        ((F(0), F(1)), (1.0, 2.0), "n\\+1 breakpoints"),
        ((F(0),), (), "n\\+1 breakpoints"),
        ((F(0), F(1, 2)), (1.0,), "cover"),
        ((F(1, 4), F(1)), (1.0,), "cover"),
        ((F(0), F(1, 2), F(1, 2), F(1)), (1.0, 2.0, 3.0), "strictly ascending"),
        ((F(0), F(3, 4), F(1, 2), F(1)), (1.0, 2.0, 3.0), "strictly ascending"),
    ],
)
def test_function_constructor_rejects_invalid_cells(breakpoints, values, message):
    with pytest.raises(BadSpec, match=message):
        fn_of(breakpoints, values)


def test_rotation_preserves_uniform():
    rot = build_map(MapSpec.rotation(F(2, 7)))
    image = pushforward_density(rot)
    assert all(d == 1 for _, _, d in image.cells)


def test_expanding_three_preserves_uniform():
    m = build_map(MapSpec.expanding(3))
    image = pushforward_density(m)
    assert all(d == 1 for _, _, d in image.cells)


def test_halving_map_density():
    image = pushforward_density(halving_map())
    lookup = {(a, b): d for a, b, d in image.cells}
    assert lookup == {(F(0), F(1, 2)): F(2), (F(1, 2), F(1)): F(0)}
    assert not verify_measure_preserving(halving_map())


def test_chordal_parabola_is_not_preserving():
    assert not verify_measure_preserving(chord_map())


def test_compose_rotations_cancel():
    r1 = build_map(MapSpec.rotation(F(3, 8)))
    r2 = build_map(MapSpec.rotation(F(5, 8)))
    assert map_equal_ae(compose(r1, r2), IDENTITY)
    assert map_equal_ae(compose(r2, r1), IDENTITY)


def test_compose_with_identity():
    m = build_map(MapSpec.expanding(3))
    assert map_equal_ae(compose(m, IDENTITY), m)
    assert map_equal_ae(compose(IDENTITY, m), m)


def test_compose_preserves_measure():
    m = compose(build_map(MapSpec.expanding(2)), build_map(MapSpec.rotation(F(1, 2))))
    assert m.measure_preserving


def test_composition_spec_applies_in_order():
    spec = MapSpec.composition(MapSpec.rotation(F(1, 4)), MapSpec.rotation(F(1, 2)))
    assert map_equal_ae(build_map(spec), build_map(MapSpec.rotation(F(3, 4))))


def test_invert_rotation():
    for c in (F(1, 3), F(7, 11)):
        m = build_map(MapSpec.rotation(c))
        minv = invert(m)
        assert map_equal_ae(minv, build_map(MapSpec.rotation(1 - c)))
        assert map_equal_ae(compose(minv, m), IDENTITY)


def test_invert_identity():
    assert map_equal_ae(invert(IDENTITY), IDENTITY)


def test_invert_expanding_not_injective():
    with pytest.raises(NotInjective):
        invert(build_map(MapSpec.expanding(2)))


def test_invert_non_surjective_rejected():
    with pytest.raises(NotInjective):
        invert(halving_map())


def test_preimage_intervals_of_rotation():
    rot = build_map(MapSpec.rotation(F(3, 8)))
    # preimage of ]5/8, 1] under u+3/8 mod 1
    parts = preimage_intervals(rot, F(5, 8), F(1))
    assert intervals_measure(parts) == F(3, 8)
    assert parts == [(F(1, 4), F(5, 8))]


def test_map_domain_guard():
    with pytest.raises(OutOfDomain):
        IDENTITY(F(0))
    with pytest.raises(OutOfDomain):
        IDENTITY(1)


def test_pcf_basics():
    fn = PiecewiseConstantFn(2, [0, 1, 2], (2.0, -1.0))
    assert fn(F(1, 4)) == 2.0
    assert fn(F(1, 2)) == 2.0
    assert fn(F(3, 4)) == -1.0
    masses = fn.masses_by_value()
    assert masses[2.0] == F(1, 2) and masses[-1.0] == F(1, 2)


def test_factor_of_quantile_is_identity():
    cdf = cdf_of((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
    alpha = factor_against_cdf(quantile_pcf(cdf), cdf)
    assert map_equal_ae(alpha, IDENTITY)


def test_factor_roundtrip_through_rotation():
    cdf = cdf_of((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
    rot = build_map(MapSpec.rotation(F(1, 4)))
    fn = level_function(cdf, rot)
    alpha = factor_against_cdf(fn, cdf)
    assert verify_measure_preserving(alpha)
    assert quantile_pcf(cdf).compose_with_map(alpha).equal_ae(fn)
    # the recovered map need not equal the rotation pointwise, only the
    # induced values must match
    image = pushforward_density(alpha)
    assert all(d == 1 for _, _, d in image.cells)


def test_factor_constant_against_two_atoms_mismatch():
    cdf = cdf_of((0.0, 1.0), (0.5, 1.0))
    constant = PiecewiseConstantFn(1, [0, 1], (0.0,))
    with pytest.raises(DistributionMismatch):
        factor_against_cdf(constant, cdf)


def test_factor_value_not_in_support():
    cdf = cdf_of((0.0, 1.0), (0.5, 1.0))
    stranger = PiecewiseConstantFn(2, [0, 1, 2], (0.0, 7.0))
    with pytest.raises(ValueNotInSupport):
        factor_against_cdf(stranger, cdf)


def test_factor_names_values_by_equality_not_by_distance():
    """One ulp above the support point 1.0 names no atom; -0.0 names 0.0."""
    cdf = cdf_of((0.0, 1.0), (0.5, 1.0))
    next_up = PiecewiseConstantFn(2, [0, 1, 2], (0.0, math.nextafter(1.0, 2)))
    for factor in (factor_against_cdf, per_cell_factor):
        with pytest.raises(ValueNotInSupport, match="1.0000000000000002 is not a support point"):
            factor(next_up, cdf)
    alpha = factor_against_cdf(PiecewiseConstantFn(2, [0, 1, 2], (-0.0, 1.0)), cdf)
    assert level_function(cdf, alpha).values == (0.0, 1.0)


def test_factor_lands_inside_level_intervals():
    cdf = cdf_of((-2.0, 3.0), (0.3, 1.0))
    rot = build_map(MapSpec.rotation(F(1, 3)))
    fn = level_function(cdf, rot)
    alpha = factor_against_cdf(fn, cdf)
    for lo, hi, v in cells_of(fn):
        mid = (lo + hi) / 2
        k = cdf.support.index(v)
        lvl_lo, lvl_hi = cdf.level_interval(k)
        assert lvl_lo <= alpha(mid) <= lvl_hi


@st.composite
def mass_cdfs(draw):
    """Step CDFs from integer masses in [1, 2^20), as ``random_step_cdf``
    draws them: their reduced denominators are mostly not powers of two."""
    n = draw(st.integers(1, 6))
    support = sorted(draw(st.sets(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n)))
    return StepCDF.from_masses(support, draw(st.lists(st.integers(1, 2**20 - 1), min_size=n, max_size=n)))


def bits(fn):
    """den, nums and the bit pattern of every value of a piecewise-constant function."""
    return fn.den, list(fn.nums), [v.hex() for v in fn.values]


@settings(max_examples=200, deadline=None)
@given(cdf=mass_cdfs(), spec=st.sampled_from([MapSpec.identity(), MapSpec.rotation(0)]))
def test_the_identity_level_function_is_the_composition_bitwise(cdf, spec):
    m = build_map(spec)
    assert bits(level_function(cdf, m)) == bits(quantile_pcf(cdf).compose_with_map(m))


@pytest.mark.parametrize("spec", [MapSpec.rotation(F(1, 3)), MapSpec.identity()], ids=["rotation", "identity"])
def test_level_functions_agree_with_value_at_seeded_labels(spec):
    m = build_map(spec)
    assert len(m.slopes) == (2 if spec.kind == "rotation" else 1)
    rng = np.random.default_rng(31)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        a, psi = random_hermitian(rng, dim), random_pure_state(rng, dim)
        fn = level_function(spectral_cdf(a, psi), m)
        for k in rng.integers(1, 2**62, size=10).tolist():
            z = F(k, 2**62)
            assert fn(z) == value(a, CompleteState(psi, m, z))


@st.composite
def clustered_cdfs(draw):
    """Step CDFs whose masses mix 1 with 2^40 and 2^60, so tiny atoms sit in
    clusters: several float ends share a guide bucket, and ends a few
    2^-61 apart round to one float."""
    n = draw(st.integers(1, 8))
    support = sorted(draw(st.sets(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n)))
    masses = draw(st.lists(st.sampled_from([1, 2, 3, 2**20, 2**40, 2**60]), min_size=n, max_size=n))
    return StepCDF.from_masses(support, masses)


def lookup_labels(ends, rng):
    """Uniform labels, 0.0, every float end below 1, one ulp either side of
    each, and the largest float below 1."""
    inner = ends[ends < 1.0]
    z = np.concatenate(
        (rng.random(200), [0.0], inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0), [np.nextafter(1.0, 0.0)])
    )
    return z[(z >= 0.0) & (z < 1.0)]


def assert_lookup_is_the_binary_search(fn, z):
    """``float_lookup`` gives the values and tie positions of searchsorted."""
    ends = fn.float_ends
    idx = np.searchsorted(ends, z)
    out, ties = fn.float_lookup(z)
    assert out.tobytes() == fn.float_values[idx - 1].tobytes()
    assert ties.tolist() == np.nonzero(ends[idx] == z)[0].tolist()


@settings(max_examples=150, deadline=None)
@given(cdf=clustered_cdfs(), seed=st.integers(0, 2**32 - 1))
def test_the_guide_table_places_labels_as_the_binary_search(cdf, seed):
    rng = np.random.default_rng(seed)
    fn = level_function(cdf, build_map(random_map_spec(rng)))
    k, below, fill = fn.buckets
    assert 4 * len(fn.float_ends) < k <= 8 * len(fn.float_ends)
    assert below.tolist() == np.searchsorted(fn.float_ends, np.arange(k + 1) / k).tolist()
    assert np.isnan(fill).tolist() == (below[1:] > below[:-1]).tolist()
    assert_lookup_is_the_binary_search(fn, lookup_labels(fn.float_ends, rng))


def test_a_capped_guide_table_places_labels_as_the_binary_search(monkeypatch):
    """With 3,000 cells and the cap at 1,024 buckets, most labels share a
    bucket with two or more ends and fall back to the binary search."""
    from qcs import measure_maps

    monkeypatch.setattr(measure_maps, "MAX_BUCKETS", 1 << 10)
    rng = np.random.default_rng(32)
    den = 2**62 + 3
    nums = [0, *sorted(set(rng.integers(1, den - 1, size=3000).tolist())), den]
    fn = PiecewiseConstantFn(den, nums, rng.normal(size=len(nums) - 1))
    assert fn.buckets[0] == 1 << 10
    assert_lookup_is_the_binary_search(fn, lookup_labels(fn.float_ends, rng))


def reflection_map():
    """u -> 1 - u: the simplest measure-preserving map with negative slope."""
    return PiecewiseAffineMap(1, [0, 1], (F(-1),), 1, [1])


def test_reflection_is_measure_preserving():
    m = reflection_map()
    assert verify_measure_preserving(m)
    image = pushforward_density(m)
    assert all(d == 1 for _, _, d in image.cells)


def test_reflection_preimages_and_inverse():
    m = reflection_map()
    assert preimage_intervals(m, F(1, 4), F(1, 2)) == [(F(1, 2), F(3, 4))]
    assert map_equal_ae(invert(m), m)
    assert map_equal_ae(compose(m, m), IDENTITY)


def test_reflection_composes_with_rotation():
    m = compose(reflection_map(), build_map(MapSpec.rotation(F(1, 3))))
    assert m.measure_preserving
    z = F(1, 5)
    assert m(z) == 1 - ((z + F(1, 3)))


def test_reflection_as_barrier_gives_exact_distribution():
    from qcs.states import squaring_witness_model, value_distribution

    model = squaring_witness_model()
    dist = value_distribution(model.operator, model.state, reflection_map())
    assert [p for _, p in dist] == [F(5, 8), F(1, 4), F(1, 8)]


def test_level_function_through_reflection():
    cdf = cdf_of((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
    fn = level_function(cdf, reflection_map())
    # reflected labels: low labels now map to high levels
    assert fn(F(1, 16)) == 1.0
    assert fn(F(1, 4)) == 0.0
    assert fn(F(1, 2)) == -1.0
    alpha = factor_against_cdf(fn, cdf)
    assert verify_measure_preserving(alpha)
    assert quantile_pcf(cdf).compose_with_map(alpha).equal_ae(fn)


# ---------------------------------------------------------------------------
# Property tests

rationals = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def simple_specs(draw):
    kind = draw(st.sampled_from(["rotation", "expanding", "interval_exchange"]))
    if kind == "rotation":
        return MapSpec.rotation(draw(rationals.filter(lambda f: f < 1)))
    if kind == "expanding":
        return MapSpec.expanding(draw(st.integers(2, 4)))
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    total = sum(weights)
    lengths = [Fraction(w, total) for w in weights]
    perm = draw(st.permutations(range(n)))
    return MapSpec.interval_exchange(lengths, perm)


@settings(max_examples=80, deadline=None)
@given(spec=simple_specs())
def test_built_maps_preserve_measure(spec):
    m = build_map(spec)
    image = pushforward_density(m)
    assert image.mass == 1
    assert all(d == 1 for _, _, d in image.cells)


@settings(max_examples=60, deadline=None)
@given(s1=simple_specs(), s2=simple_specs())
def test_composition_group_closure(s1, s2):
    m = compose(build_map(s1), build_map(s2))
    assert m.measure_preserving


@settings(max_examples=60, deadline=None)
@given(spec=simple_specs().filter(lambda s: s.kind != "expanding"))
def test_inversion_group_closure(spec):
    m = build_map(spec)
    minv = invert(m)
    assert minv.measure_preserving
    assert map_equal_ae(compose(minv, m), IDENTITY)
    assert map_equal_ae(compose(m, minv), IDENTITY)


@settings(max_examples=40, deadline=None)
@given(spec=simple_specs(), z=rationals.filter(lambda f: 0 < f < 1))
def test_pointwise_composition_agrees(spec, z):
    m1 = build_map(spec)
    m2 = build_map(MapSpec.rotation(F(2, 5)))
    composed = compose(m1, m2)
    if composed.is_breakpoint(z) or m2.is_breakpoint(z):
        return
    assert composed(z) == m1(m2(z))


# ---------------------------------------------------------------------------
# Midpoint references for the exact kernels.  Each refined cell is classified
# by evaluating at its midpoint and bisecting, with no index arithmetic, and
# the library must agree piece for piece.

def ref_compose(outer, inner):
    pieces = []
    outer_bps = ends_of(outer)
    for lo_p, hi_p, slope, intercept in pieces_of(inner):
        im_lo, im_hi = image_bounds((lo_p, hi_p, slope, intercept))
        cuts = {lo_p, hi_p}
        for c in outer_bps[bisect.bisect_right(outer_bps, im_lo) : bisect.bisect_left(outer_bps, im_hi)]:
            z = (c - intercept) / slope
            if lo_p < z < hi_p:
                cuts.add(z)
        grid = sorted(cuts)
        for lo, hi in zip(grid, grid[1:]):
            _, _, s, c = piece_at(outer, slope * (lo + hi) / 2 + intercept)
            pieces.append((lo, hi, s * slope, s * intercept + c))
    return map_of(pieces)


def ref_compose_with_map(fn, m):
    pieces = []
    interior = ends_of(fn)[1:-1]
    for lo_p, hi_p, slope, intercept in pieces_of(m):
        im_lo, im_hi = image_bounds((lo_p, hi_p, slope, intercept))
        cuts = {lo_p, hi_p}
        for c in interior[bisect.bisect_right(interior, im_lo) : bisect.bisect_left(interior, im_hi)]:
            z = (c - intercept) / slope
            if lo_p < z < hi_p:
                cuts.add(z)
        grid = sorted(cuts)
        for lo, hi in zip(grid, grid[1:]):
            pieces.append((lo, hi, fn(slope * (lo + hi) / 2 + intercept)))
    pieces.sort(key=lambda t: t[0])
    bps = [pieces[0][0]] + [hi for _, hi, _ in pieces]
    return fn_of(bps, [v for _, _, v in pieces])


def ref_factor_against_cdf(fn, cdf):
    """Per-atom source lists, a running level position, then a sort by source."""
    support = cdf.support
    totals = defaultdict(lambda: F(0))
    sources = defaultdict(list)
    for lo, hi, v in cells_of(fn):
        k = min(range(len(support)), key=lambda j: abs(v - support[j]))
        totals[k] += hi - lo
        sources[k].append((lo, hi))
    pieces = []
    for k in range(len(support)):
        lo_lvl, hi_lvl = cdf.level_interval(k)
        slope = (hi_lvl - lo_lvl) / totals[k]
        pos = lo_lvl
        for lo, hi in sources[k]:
            pieces.append((lo, hi, slope, pos - slope * lo))
            pos += slope * (hi - lo)
    pieces.sort(key=lambda p: p[0])
    return map_of(pieces)


def ref_masses_by_value(fn):
    out = defaultdict(lambda: F(0))
    for lo, hi, v in cells_of(fn):
        out[v] += hi - lo
    return dict(out)


def ref_label_mean(fn, power=1):
    """The exact integral of fn**power as a Fraction, rounded once by float()."""
    return float(sum(Fraction(v) ** power * (hi - lo) for lo, hi, v in cells_of(fn)))


def ref_map_equal_ae(m1, m2):
    grid = sorted(set(ends_of(m1)) | set(ends_of(m2)))
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        if piece_at(m1, mid)[2:] != piece_at(m2, mid)[2:]:
            return False
    return True


@st.composite
def signed_maps(draw):
    """Compositions of one to three built maps, each possibly followed by the
    reflection, so pieces of either slope sign occur."""
    m = IDENTITY
    for spec in draw(st.lists(simple_specs(), min_size=1, max_size=3)):
        m = ref_compose(build_map(spec), m)
        if draw(st.booleans()):
            m = ref_compose(reflection_map(), m)
    return m


@st.composite
def built_specs(draw):
    """The identity, a simple spec (rotation(0) among them), or a
    composition of up to three of these."""
    specs = draw(st.lists(st.one_of(st.just(MapSpec.identity()), simple_specs()), min_size=1, max_size=3))
    return specs[0] if len(specs) == 1 else MapSpec.composition(*specs)


def ref_build_map(spec):
    """The piece builder: each kind's (lo, hi, slope, intercept) pieces
    through the public constructor, and compositions through ``compose``."""
    if spec.kind == "identity" or spec.kind == "rotation" and spec.c == 0:
        return map_of([(F(0), F(1), F(1), F(0))])
    if spec.kind == "rotation":
        c = spec.c
        return map_of([(F(0), 1 - c, F(1), c), (1 - c, F(1), F(1), c - 1)])
    if spec.kind == "interval_exchange":
        lengths, perm, n = spec.lengths, spec.perm, len(spec.lengths)
        starts = [sum(lengths[:i], F(0)) for i in range(n)]
        targets = [sum((lengths[j] for j in range(n) if perm[j] < perm[i]), F(0)) for i in range(n)]
        return map_of((a, a + x, F(1), t - a) for a, x, t in zip(starts, lengths, targets))
    if spec.kind == "expanding":
        k = spec.k
        return map_of((F(i, k), F(i + 1, k), F(k), F(-i)) for i in range(k))
    built = ref_build_map(spec.maps[0])
    for sub in spec.maps[1:]:
        built = compose(ref_build_map(sub), built)
    return built


def ref_pushforward_density(m):
    """The per-piece ``Fraction`` sweep: each piece adds 1 / |slope| on its
    image bounds; adjacent cells of equal density merge."""
    deltas = defaultdict(lambda: F(0))
    for p in pieces_of(m):
        im_lo, im_hi = image_bounds(p)
        deltas[im_lo] += 1 / abs(p[2])
        deltas[im_hi] -= 1 / abs(p[2])
    deltas[F(0)] += 0
    deltas[F(1)] += 0
    points = sorted(deltas)
    cells, level = [], F(0)
    for pt, nxt in zip(points, points[1:]):
        level += deltas[pt]
        if cells and cells[-1][2] == level:
            cells[-1] = (cells[-1][0], nxt, level)
        else:
            cells.append((pt, nxt, level))
    return cells


def representation(m):
    return m.den, list(m.nums), m.slopes, m.cden, list(m.cnums)


@settings(max_examples=150, deadline=None)
@given(spec=built_specs())
@example(spec=MapSpec.rotation(0))
@example(spec=MapSpec.expanding(97))
@example(spec=MapSpec.interval_exchange([F(1, 6), F(1, 6), F(2, 3)], [2, 0, 1]))
@example(spec=MapSpec.composition(MapSpec.expanding(3), MapSpec.rotation(F(1, 3)), MapSpec.expanding(2)))
def test_build_map_matches_the_piece_builder(spec):
    assert representation(build_map(spec)) == representation(ref_build_map(spec))


@st.composite
def functions_on(draw, m):
    """A piecewise-constant function whose breakpoints mix random rationals
    with image ends of m's pieces, so some levels sit exactly on an image end.
    Values repeat, so adjacent cells can share a value."""
    ends = sorted({e for p in pieces_of(m) for e in image_bounds(p)} - {F(0), F(1)})
    chosen = draw(st.lists(st.sampled_from(ends), max_size=4)) if ends else []
    extra = draw(st.lists(rationals.filter(lambda f: 0 < f < 1), max_size=4))
    bps = [F(0)] + sorted(set(chosen) | set(extra)) + [F(1)]
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=len(bps) - 1, max_size=len(bps) - 1))
    return fn_of(bps, values)


@settings(max_examples=80, deadline=None)
@given(outer=signed_maps(), inner=signed_maps())
def test_compose_matches_midpoint_reference(outer, inner):
    assert pieces_of(compose(outer, inner)) == pieces_of(ref_compose(outer, inner))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps())
def test_compose_with_map_matches_midpoint_reference(data, m):
    fn = data.draw(functions_on(m))
    assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))


@st.composite
def mixed_denominator_functions(draw):
    """Breakpoints over dyadic, triadic and decimal denominators of up to 95
    bits, with values that recur in cells far apart, so a value's mass sums
    lengths over several denominators and dict order is order of first
    appearance."""
    dens = (2**95, 3**40, 10**20, 2**40 * 3**20)
    points = draw(
        st.sets(st.builds(lambda d, t: Fraction(int(t * d), d), st.sampled_from(dens), st.floats(0, 1)), max_size=12)
    )
    bps = [F(0)] + sorted(points - {F(0), F(1)}) + [F(1)]
    values = draw(st.lists(st.sampled_from([2.0, -1.0, 0.5]), min_size=len(bps) - 1, max_size=len(bps) - 1))
    return fn_of(bps, values)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps())
def test_masses_by_value_matches_per_cell_sum(data, m):
    fn = data.draw(functions_on(m))
    assert list(fn.masses_by_value().items()) == list(ref_masses_by_value(fn).items())
    composed = fn.compose_with_map(m)
    assert list(composed.masses_by_value().items()) == list(ref_masses_by_value(composed).items())
    mixed = data.draw(mixed_denominator_functions())
    for g in (mixed, mixed.compose_with_map(m)):
        assert list(g.masses_by_value().items()) == list(ref_masses_by_value(g).items())


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), power=st.sampled_from([1, 2]))
def test_label_mean_is_the_exact_integral_rounded_once(data, m, power):
    for fn in (data.draw(functions_on(m)), data.draw(mixed_denominator_functions())):
        for g in (fn, fn.compose_with_map(m)):
            assert label_mean(g, power) == ref_label_mean(g, power)


@st.composite
def dyadic_cdfs(draw):
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, 63), min_size=n - 1, max_size=n - 1)))
    levels = [c / 64 for c in cuts] + [1.0]
    return cdf_of(tuple(float(v) for v in range(-1, n - 1)), levels)


@settings(max_examples=80, deadline=None)
@given(cdf=dyadic_cdfs(), m=signed_maps())
def test_factor_against_cdf_matches_reference(cdf, m):
    fn = ref_compose_with_map(quantile_pcf(cdf), m)
    alpha = factor_against_cdf(fn, cdf)
    assert pieces_of(alpha) == pieces_of(ref_factor_against_cdf(fn, cdf))
    assert cells_of(level_function(cdf, alpha)) == cells_of(ref_compose_with_map(quantile_pcf(cdf), alpha))


@st.composite
def float_level_cdfs(draw):
    """Step CDFs whose exact levels are the Fractions of float levels, with
    denominators up to 2^1074: subnormal multiples of 2^-1074, sixty-fourths
    and arbitrary floats."""
    pool = st.one_of(
        st.integers(1, 2**20).map(lambda k: k * 2.0**-1074),
        st.integers(1, 63).map(lambda c: c / 64),
        st.floats(1e-300, 1.0, exclude_max=True),
    )
    levels = sorted(set(draw(st.lists(pool, max_size=4)))) + [1.0]
    return cdf_of(tuple(float(v) for v in range(len(levels))), levels)


@st.composite
def near_matching_functions(draw, cdf):
    """A function whose mass per value is within 1e-13 of the CDF's
    weights, mostly not equal to them: each interior level moves by a
    triadic, decimal or mixed fraction of at most a quarter of its
    neighbouring gaps and of 1e-13.  A signed map then scatters each value
    over several runs."""
    exact = (F(0), *ends_of(cdf))
    shifts = st.sampled_from([F(0), F(1, 3), F(-2, 3), F(7, 10), F(-1, 100), F(5, 3 * 2**7)])
    bps = [F(0)]
    for lo, level, hi in zip(exact, exact[1:], exact[2:]):
        room = min(level - lo, hi - level, F(1, 10**13)) / 4
        bps.append(level + room * draw(shifts))
    bps.append(F(1))
    fn = fn_of(bps, cdf.support)
    return ref_compose_with_map(fn, draw(signed_maps()))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cdf=float_level_cdfs())
def test_factor_against_cdf_on_float_levels_and_mixed_breakpoints(data, cdf):
    """Masses near the weights but not equal to them are refused, by the
    factor and by the per-cell reference; masses equal to them factor alike."""
    fn = data.draw(near_matching_functions(cdf))
    masses, exact = fn.masses_by_value(), (F(0), *ends_of(cdf))
    if all(masses[v] == hi - lo for v, lo, hi in zip(cdf.support, exact, exact[1:])):
        assert pieces_of(factor_against_cdf(fn, cdf)) == pieces_of(ref_factor_against_cdf(fn, cdf))
    else:
        for factor in (factor_against_cdf, per_cell_factor):
            with pytest.raises(DistributionMismatch):
                factor(fn, cdf)


@settings(max_examples=80, deadline=None)
@given(m=signed_maps(), cdf=dyadic_cdfs())
def test_pushforward_density_matches_the_fraction_sweep(m, cdf):
    """On signed maps, on factor outputs, and on the halving and chord maps,
    whose densities are not 1."""
    for out in (m, factor_against_cdf(level_function(cdf, m), cdf), halving_map(), chord_map()):
        assert list(pushforward_density(out).cells) == ref_pushforward_density(out)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps())
def test_factor_against_exact_levels_on_mixed_denominators(data, m):
    """Exact levels over dyadic, triadic and decimal denominators, equal to
    the function's own masses, so every piece has slope 1."""
    fn = data.draw(mixed_denominator_functions())
    masses = fn.masses_by_value()
    support = sorted(masses)
    exact = tuple(accumulate(masses[v] for v in support))
    cdf = cdf_of(support, exact)
    for g in (fn, fn.compose_with_map(m)):
        alpha = factor_against_cdf(g, cdf)
        assert pieces_of(alpha) == pieces_of(ref_factor_against_cdf(g, cdf))
        assert all(s == 1 for s in alpha.slopes)


@st.composite
def signed_zero_cdfs(draw):
    """``dyadic_cdfs`` whose zero support point is 0.0 or -0.0."""
    cdf = draw(dyadic_cdfs())
    zero = draw(st.sampled_from([0.0, -0.0]))
    return StepCDF(tuple(zero if v == 0 else v for v in cdf.support), cdf.den, cdf.nums)


@st.composite
def signed_zero_cells(draw, fn):
    """fn with each zero given either sign; -0.0 == 0.0, so both name the
    CDF's zero."""
    zeros = st.sampled_from([0.0, -0.0])
    return PiecewiseConstantFn(fn.den, fn.nums, [v if v else draw(zeros) for v in fn.values])


@st.composite
def renamed_cells(draw, fn):
    """fn with one cell's value moved off its support point, by 1e-13 or,
    for a zero, to 5e-324: it names no atom."""
    i = draw(st.integers(0, len(fn.values) - 1))
    values = list(fn.values)
    values[i] = values[i] + 1e-13 if values[i] else 5e-324
    return PiecewiseConstantFn(fn.den, fn.nums, values)


def assert_renamed_cells_name_no_atom(data, fn, cdf, factors=(factor_against_cdf,)):
    renamed = data.draw(renamed_cells(fn))
    for factor in factors:
        with pytest.raises(ValueNotInSupport):
            factor(renamed, cdf)


def assert_stores_the_composition(fn, cdf):
    """The level function that factor_against_cdf stores is the quantile
    composed with its map, in den, nums and the bits of every value."""
    alpha = factor_against_cdf(fn, cdf)
    stored, composed = level_function(cdf, alpha), quantile_pcf(cdf).compose_with_map(alpha)
    assert (stored.den, stored.nums) == (composed.den, composed.nums)
    assert list(map(float.hex, stored.values)) == list(map(float.hex, composed.values))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), cdf=signed_zero_cdfs())
def test_factor_stores_the_composition_as_its_level_function(data, m, cdf):
    """On mixed signed zeros; a value moved off its support point raises."""
    fn = quantile_pcf(cdf).compose_with_map(m)
    assert_stores_the_composition(fn, cdf)
    assert_stores_the_composition(data.draw(signed_zero_cells(fn)), cdf)
    assert_renamed_cells_name_no_atom(data, fn, cdf)


@settings(max_examples=80, deadline=None)
@given(outer=signed_maps(), inner=signed_maps(), cdf=dyadic_cdfs(), float_cdf=float_level_cdfs())
def test_every_map_end_is_an_end_of_its_level_functions(outer, inner, cdf, float_cdf):
    """The sampler's breakpoint rule rests on this: a label on a map's end
    ties with an end of the level function.  On signed maps, compositions
    and factor outputs, whose level function under their own CDF is the
    stored one."""
    exact = factor_against_cdf(level_function(cdf, inner), cdf)
    for m in (inner, compose(outer, inner), exact):
        for c in (cdf, float_cdf):
            assert set(ends_of(m)) <= set(ends_of(level_function(c, m)))


def phase_space_cases_at_n16():
    """(transported function, CDF) of the position, squared position,
    momentum and spin observables of a random N=16 spin-1/2 state; every
    momentum cell is its own run."""
    from qcs.phase_space import (
        PhaseSpaceState,
        build_measure,
        momentum_observable,
        position_observable,
        spin_observable,
        to_unit_interval,
    )
    from qcs.spectral import PiecewiseFn

    rng = np.random.default_rng(16)
    raw = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    state = PhaseSpaceState.normalized(F(1, 2), raw, 0.25)
    equiv = to_unit_interval(build_measure(state))
    observables = (
        position_observable(PiecewiseFn.identity(), state),
        position_observable(PiecewiseFn.square(), state),
        momentum_observable(PiecewiseFn.identity(), state),
        spin_observable(state),
    )
    return [(equiv.pcf(obs.cell_values), obs.cdf) for obs in observables]


def test_factor_stores_the_composition_for_the_phase_space_observables_at_n16():
    for fn, cdf in phase_space_cases_at_n16():
        assert_stores_the_composition(fn, cdf)


def ref_lengths_by_value(fn):
    """Integer cell lengths summed per value one cell at a time, keyed by
    the first float that names each value."""
    out = {}
    for a, b, v in zip(fn.nums, fn.nums[1:], fn.values):
        out[v] = out.get(v, 0) + b - a
    return out


def hex_items(lengths):
    return [(v.hex(), n) for v, n in lengths.items()]


def assert_stored_lengths_are_the_cell_sums(fn, cdf):
    stored = level_function(cdf, factor_against_cdf(fn, cdf))
    assert hex_items(stored.lengths_by_value()) == hex_items(ref_lengths_by_value(stored))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), cdf=signed_zero_cdfs())
def test_stored_level_function_carries_the_lengths_by_value(data, m, cdf):
    """The per-atom sums the factor hands its level function, in order and
    with the bits of each key: on mixed signed zeros; a value moved off its
    support point raises."""
    fn = quantile_pcf(cdf).compose_with_map(m)
    assert_stored_lengths_are_the_cell_sums(fn, cdf)
    assert_stored_lengths_are_the_cell_sums(data.draw(signed_zero_cells(fn)), cdf)
    assert_renamed_cells_name_no_atom(data, fn, cdf)


def test_stored_level_function_carries_the_lengths_by_value_at_n16():
    for fn, cdf in phase_space_cases_at_n16():
        assert_stored_lengths_are_the_cell_sums(fn, cdf)


def ref_factor_per_run(fn, cdf):
    """The factor's formulas one run at a time in ``Fraction`` arithmetic,
    each run expanded to its cells by list repetition: the map's den, nums,
    slopes, cden and cnums (reduced), and the level values."""
    support, den, nums = cdf.support, fn.den, fn.nums
    atom_of = {v: k for k, v in enumerate(support)}
    runs, start = [], 0
    for v, run in groupby(fn.values):
        end = start + len(list(run))
        runs.append((start, end, atom_of[v]))
        start = end
    totals = [0] * len(support)
    for start, end, k in runs:
        totals[k] += nums[end] - nums[start]
    levels = (F(0), *ends_of(cdf))
    slopes = [(levels[k + 1] - levels[k]) / F(t, den) for k, t in enumerate(totals)]
    cden = math.lcm(*(c.denominator for c in levels), den * math.lcm(*(s.denominator for s in slopes)))
    before, piece_slopes, intercepts, values = [0] * len(support), [], [], []
    for start, end, k in runs:
        intercept = levels[k] + slopes[k] * F(before[k] - nums[start], den)
        before[k] += nums[end] - nums[start]
        assert (intercept * cden).denominator == 1
        piece_slopes += [slopes[k]] * (end - start)
        intercepts += [int(intercept * cden)] * (end - start)
        values += [support[k]] * (end - start)
    g = math.gcd(cden, *intercepts)
    return den, nums, tuple(piece_slopes), cden // g, [c // g for c in intercepts], values


def assert_factor_matches_the_per_run_formulas(fn, cdf):
    alpha = factor_against_cdf(fn, cdf)
    den, nums, slopes, cden, cnums, values = ref_factor_per_run(fn, cdf)
    assert (alpha.den, alpha.nums, alpha.slopes, alpha.cden, alpha.cnums) == (den, nums, slopes, cden, cnums)
    assert list(map(float.hex, level_function(cdf, alpha).values)) == list(map(float.hex, values))


@st.composite
def run_functions(draw):
    """Runs of 1-4 cells of sizes 1-5 over their total, values drawn from
    three support points, so one-cell runs, long runs and a single run all
    occur; with the CDF of their masses."""
    run_values = draw(st.lists(st.sampled_from([-1.0, 0.0, 2.5]), min_size=1, max_size=12))
    values = [v for v in run_values for _ in range(draw(st.integers(1, 4)))]
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    fn = PiecewiseConstantFn(sum(sizes), [0, *accumulate(sizes)], values)
    masses = fn.masses_by_value()
    support = sorted(masses)
    return fn, cdf_of(support, tuple(accumulate(masses[v] for v in support)))


@settings(max_examples=80, deadline=None)
@given(case=run_functions())
def test_factor_matches_the_per_run_formulas(case):
    """On functions of one-cell runs, long runs and one run."""
    assert_factor_matches_the_per_run_formulas(*case)


def test_factor_matches_the_per_run_formulas_on_fixed_runs_and_at_n16():
    """Every cell its own run, runs of three cells, one run, and the N=16
    phase-space observables, whose momentum cells are each one run."""
    halves = cdf_of((0.0, 2.5), (0.5, 1.0))
    cases = [
        (fn_of([F(k, 4) for k in range(5)], [0.0, 2.5, 0.0, 2.5]), halves),
        (fn_of([F(k, 6) for k in range(7)], [0.0, 0.0, 0.0, 2.5, 2.5, 2.5]), halves),
        (fn_of([F(0), F(1, 3), F(1)], [2.5, 2.5]), cdf_of((2.5,), (1.0,))),
        *phase_space_cases_at_n16(),
    ]
    momentum, _ = cases[5]
    assert len(list(momentum.runs())) == len(momentum.values)
    for fn, cdf in cases:
        assert_factor_matches_the_per_run_formulas(fn, cdf)


def assert_factor_matches_the_per_cell_oracle(fn, cdf):
    """Every field equals the earlier per-cell factorization's: the map's
    den, nums, slopes, cden and cnums, and the stored level function's den,
    nums, value bits and ``lengths_by_value`` items in order."""
    got, want = factor_against_cdf(fn, cdf), per_cell_factor(fn, cdf)
    fields = ("den", "nums", "slopes", "cden", "cnums")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    stored, oracle = level_function(cdf, got), level_function(cdf, want)
    assert (stored.den, stored.nums) == (oracle.den, oracle.nums)
    assert list(map(float.hex, stored.values)) == list(map(float.hex, oracle.values))
    assert hex_items(stored.lengths_by_value()) == hex_items(oracle.lengths_by_value())


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), cdf=signed_zero_cdfs(), case=run_functions())
def test_factor_matches_the_per_cell_oracle(data, m, cdf, case):
    """On mixed signed zeros, and on one-cell runs, long runs and one run; a
    value moved off its support point raises in both."""
    fn = quantile_pcf(cdf).compose_with_map(m)
    for g, c in ((fn, cdf), case):
        assert_factor_matches_the_per_cell_oracle(g, c)
        assert_factor_matches_the_per_cell_oracle(data.draw(signed_zero_cells(g)), c)
        assert_renamed_cells_name_no_atom(data, g, c, (factor_against_cdf, per_cell_factor))


def test_factor_matches_the_per_cell_oracle_at_n16_and_on_errors():
    """The N=16 phase-space observables, and inputs both versions refuse
    with the same error: an atom no value names, a value no atom names, and
    a NaN, which only a kernel output can hold."""
    for fn, cdf in phase_space_cases_at_n16():
        assert_factor_matches_the_per_cell_oracle(fn, cdf)
    three = cdf_of((-1.0, 0.0, 2.5), (0.25, 0.5, 1.0))
    for values, error in (
        ([-1.0, 2.5, 2.5, -1.0], DistributionMismatch),
        ([-1.0, 0.0, 2.5, 7.0], ValueNotInSupport),
        ([-1.0, 0.0, math.nan, 2.5], ValueNotInSupport),
    ):
        fn = PiecewiseConstantFn._built(4, list(range(5)), np.array(values))
        for factor in (factor_against_cdf, per_cell_factor):
            with pytest.raises(error):
                factor(fn, three)


def assert_intercepts_are_image_minus_source_starts(fn, cdf):
    """Each piece's intercept is its run's image start minus its source
    start, the image starts being the prefix sums of the run lengths taken
    in (atom, source) order; the intercepts' denominator divides fn's."""
    alpha = factor_against_cdf(fn, cdf)
    atom_of = {v: k for k, v in enumerate(cdf.support)}
    runs, start = [], 0
    for v, run in groupby(fn.values):
        end = start + len(list(run))
        runs.append((atom_of[v], start, end))
        start = end
    image_start, at = {}, 0
    for _, start, end in sorted(runs):
        image_start[start] = at
        at += fn.nums[end] - fn.nums[start]
    for _, start, end in runs:
        want = F(image_start[start] - fn.nums[start], fn.den)
        assert [F(c, alpha.cden) for c in alpha.cnums[start:end]] == [want] * (end - start)
    assert fn.den % alpha.cden == 0


@settings(max_examples=80, deadline=None)
@given(case=run_functions(), m=signed_maps(), cdf=dyadic_cdfs(), float_cdf=float_level_cdfs())
def test_intercepts_are_image_minus_source_starts(case, m, cdf, float_cdf):
    """On one-cell runs, long runs and one run, and on quantiles of dyadic
    and float-level CDFs composed with signed maps."""
    assert_intercepts_are_image_minus_source_starts(*case)
    for c in (cdf, float_cdf):
        assert_intercepts_are_image_minus_source_starts(quantile_pcf(c).compose_with_map(m), c)


def test_a_source_mass_one_over_g_off_its_weight_is_refused():
    """Atom -1.0 holds 2/8 of the source; levels giving it 3/8, and its
    neighbour 1/8 less, are refused, as the intercepts take every mass to
    equal its weight."""
    fn = fn_of([F(k, 8) for k in range(9)], [-1.0, 0.0, 2.5, -1.0, 0.0, 0.0, 2.5, 2.5])
    support = (-1.0, 0.0, 2.5)
    assert_intercepts_are_image_minus_source_starts(fn, cdf_of(support, (F(2, 8), F(5, 8), 1)))
    with pytest.raises(DistributionMismatch, match="atom -1.0"):
        factor_against_cdf(fn, cdf_of(support, (F(3, 8), F(5, 8), 1)))


SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324]


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from(SPECIAL_VALUES), min_size=1, max_size=24))
def test_run_bounds_match_the_per_cell_comparison(values):
    """numpy's != splits runs where ``operator.ne`` does: -0.0 and 0.0 stay
    in one run, each NaN is a run of its own, and a run's value is the
    value of its first cell; for a cell function carried over by
    ``CellEquivalence.pcf`` and, when every value is finite, for the
    checking constructor, which refuses the others."""
    from qcs.phase_space import CellEquivalence

    n = len(values)
    functions = [CellEquivalence(np.arange(n), n, list(range(n + 1))).pcf(np.array(values))]
    if all(map(math.isfinite, values)):
        functions.append(PiecewiseConstantFn(n, range(n + 1), values))
    else:
        with pytest.raises(DomainGap, match="finite"):
            PiecewiseConstantFn(n, range(n + 1), values)
    for fn in functions:
        starts, ends = fn.run_bounds()
        want_starts, want_ends = ref_run_bounds(fn)
        assert (starts.tolist(), ends.tolist()) == (want_starts, want_ends)
        assert [v.hex() for _, _, v in fn.runs()] == [fn.values[s].hex() for s in want_starts]


def test_lengths_by_value_is_read_only_and_shared():
    """The per-value lengths are built once and shared, so callers cannot
    change them, and the label mean reads the same sums after the masses."""
    fn = fn_of([F(0), F(1, 3), F(1, 2), F(1)], [2.0, -1.0, 2.0])
    cdf = cdf_of((-1.0, 2.0), (F(1, 6), 1.0))
    functions = []
    for g, c in [(fn, cdf), *phase_space_cases_at_n16()]:
        functions += [g, level_function(c, factor_against_cdf(g, c))]
    for h in functions:
        lengths = h.lengths_by_value()
        v = next(iter(lengths))
        with pytest.raises(TypeError):
            lengths[v] = 0
        with pytest.raises(TypeError):
            del lengths[v]
        means = [label_mean(h).hex(), label_mean(h, 2).hex()]
        h.masses_by_value()[v] = F(0)
        assert h.lengths_by_value() is lengths
        assert [label_mean(h).hex(), label_mean(h, 2).hex()] == means
    assert dict(functions[1].lengths_by_value()) == {2.0: 5, -1.0: 1}


def test_runs_are_the_groups_of_equal_adjacent_values():
    values = (1.0, 1.0, -0.0, 0.0, 0.5, math.inf, math.inf, -1.0, 0.5, 0.5)
    fn = PiecewiseConstantFn._built(len(values), list(range(len(values) + 1)), np.array(values))
    expected, start = [], 0
    for v, run in groupby(values):
        end = start + len(list(run))
        expected.append((start, end, v))
        start = end
    got = list(fn.runs())
    assert got == expected
    assert [math.copysign(1, v) for _, _, v in got] == [math.copysign(1, v) for _, _, v in expected]


def ref_disagreement(f, g):
    grid = sorted(set(ends_of(f)) | set(ends_of(g)))
    return sum((hi - lo for lo, hi in zip(grid, grid[1:]) if f((lo + hi) / 2) != g((lo + hi) / 2)), F(0))


@settings(max_examples=80, deadline=None)
@given(
    c1=dyadic_cdfs(),
    c2=dyadic_cdfs(),
    m1=signed_maps(),
    m2=signed_maps(),
    spec=simple_specs().filter(lambda s: s.kind != "expanding"),
)
def test_disagreement_matches_midpoint_reference(c1, c2, m1, m2, spec):
    f, g = level_function(c1, m1), level_function(c2, m2)
    d = f.disagreement(g)
    assert d == ref_disagreement(f, g)
    assert d == g.disagreement(f)
    assert f.equal_ae(g) == (d == 0)
    # the same function cut finer through a bijection and its inverse
    b = build_map(spec)
    refined = level_function(c1, ref_compose(invert(b), ref_compose(b, m1)))
    assert f.disagreement(refined) == 0 and f.equal_ae(refined)


def ref_joint_lengths(*parts):
    """Each cell of the merged partition keyed by the parts' values at its
    midpoint, found by bisecting each part's ``Fraction`` ends."""
    grid = sorted(set().union(*({F(n, d) for n in nums} for d, nums, _ in parts)))
    out = defaultdict(lambda: F(0))
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        key = tuple(values[bisect.bisect_left([F(n, d) for n in nums], mid) - 1] for d, nums, values in parts)
        out[key] += hi - lo
    return dict(out)


@settings(max_examples=80, deadline=None)
@given(c1=dyadic_cdfs(), c2=mass_cdfs(), m1=signed_maps(), m2=signed_maps(), perm=st.permutations(range(3)))
def test_joint_lengths_matches_midpoint_reference(c1, c2, m1, m2, perm):
    """Three parts: a level function, a map keyed by its (slope,
    intercept) pieces and a quantile function.  Each key is the value tuple
    at the midpoint of its merged cells, the lengths sum to den, and
    permuting the parts permutes the keys and nothing else."""
    fn = level_function(c1, m1)
    parts = [
        (fn.den, fn.nums, fn.values),
        (m2.den, m2.nums, list(zip(m2.slopes, (F(c, m2.cden) for c in m2.cnums)))),
        (c2.den, [0, *c2.nums], c2.support),
    ]
    den, lengths = joint_lengths(*parts)
    assert {k: F(n, den) for k, n in lengths.items()} == ref_joint_lengths(*parts)
    assert sum(lengths.values()) == den
    permuted = joint_lengths(*(parts[i] for i in perm))
    assert permuted == (den, {tuple(k[i] for i in perm): n for k, n in lengths.items()})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_checking_constructor_refuses_values_that_are_not_finite(bad):
    """A value that is not finite is a DomainGap when the function is made,
    not an untyped error when ``label_mean`` later reads it."""
    with pytest.raises(DomainGap, match="finite"):
        PiecewiseConstantFn(2, [0, 1, 2], [bad, 1.0])


@settings(max_examples=80, deadline=None)
@given(m1=signed_maps(), m2=signed_maps(), spec=simple_specs().filter(lambda s: s.kind != "expanding"))
def test_map_equal_ae_matches_midpoint_reference(m1, m2, spec):
    # m1 followed by a bijection and its inverse equals m1 a.e., cut finer
    b = build_map(spec)
    refined = ref_compose(invert(b), ref_compose(b, m1))
    assert map_equal_ae(m1, refined) and ref_map_equal_ae(m1, refined)
    assert map_equal_ae(m1, m2) == ref_map_equal_ae(m1, m2)
    assert map_equal_ae(m2, refined) == ref_map_equal_ae(m2, refined)


def test_reflection_kernels_match_references():
    r = reflection_map()
    rot = build_map(MapSpec.rotation(F(1, 3)))
    for outer, inner in ((r, rot), (rot, r), (r, r)):
        assert pieces_of(compose(outer, inner)) == pieces_of(ref_compose(outer, inner))
    # levels 1/3 and 2/3 are image ends of the rotation's pieces
    fn = PiecewiseConstantFn(3, [0, 1, 2, 3], (1.0, -1.0, 1.0))
    for m in (r, compose(r, rot)):
        assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))
    assert map_equal_ae(compose(r, r), IDENTITY) and not map_equal_ae(r, IDENTITY)


def assert_rebuilds(out):
    """A kernel output passes the public constructor's checks, which the
    kernels skip, and comes back unchanged."""
    if isinstance(out, PiecewiseAffineMap):
        rebuilt = PiecewiseAffineMap(out.den, out.nums, out.slopes, out.cden, out.cnums)
        assert representation(rebuilt) == representation(out)
    else:
        rebuilt = PiecewiseConstantFn(out.den, out.nums, out.values)
        assert (rebuilt.den, rebuilt.nums, rebuilt.values) == (out.den, list(out.nums), out.values)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    cdf=dyadic_cdfs(),
    outer=signed_maps(),
    inner=signed_maps(),
    spec=simple_specs().filter(lambda s: s.kind != "expanding"),
    flip=st.booleans(),
    built=built_specs(),
)
def test_kernel_outputs_pass_the_public_checks(data, cdf, outer, inner, spec, flip, built):
    bijection = build_map(spec)
    if flip:
        bijection = compose(reflection_map(), bijection)
    fn = data.draw(functions_on(inner))
    alpha = factor_against_cdf(level_function(cdf, inner), cdf)
    for out in (
        compose(outer, inner),
        invert(bijection),
        alpha,
        fn.compose_with_map(inner),
        level_function(cdf, alpha),
        build_map(built),
    ):
        assert_rebuilds(out)


def test_compose_with_map_reuses_run_ends_under_a_negative_slope():
    # the reflection cut into pieces that share one slope and one intercept
    # object, so every piece after the first continues the same run
    slope, intercept = F(-1), F(1)
    cuts = [F(0), F(1, 8), F(1, 5), F(1, 3), F(1, 2), F(5, 8), F(3, 4), F(1)]
    m = map_of((lo, hi, slope, intercept) for lo, hi in zip(cuts, cuts[1:]))
    assert all(s is slope for s in m.slopes) and set(m.cnums) == {m.cden}
    # some images fall inside one cell, some span several, and 1/2 and 2/3
    # are image ends of pieces
    fn = fn_of((F(0), F(1, 4), F(1, 2), F(3, 5), F(2, 3), F(9, 10), F(1)), (1.0, -1.0, 0.5, 2.0, 0.0, 1.0))
    assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))
    assert fn.compose_with_map(m).equal_ae(fn.compose_with_map(reflection_map()))


def test_compose_with_map_cell_cache_on_an_interval_exchange():
    # consecutive pieces share the slope object ONE but not the intercept;
    # their images jump back to an earlier cell and forward across several
    m = build_map(MapSpec.interval_exchange([F(1, 8), F(1, 4), F(1, 8), F(1, 2)], [3, 0, 2, 1]))
    assert all(s is m.slopes[0] for s in m.slopes)
    fn = PiecewiseConstantFn(16, [0, 2, 3, 6, 8, 12, 16], (1.0, -1.0, 0.5, 2.0, 0.0, 1.0))
    for g in (fn, quantile_pcf(cdf_of((-1.0, 0.0, 1.0), (0.25, 0.375, 1.0)))):
        assert cells_of(g.compose_with_map(m)) == cells_of(ref_compose_with_map(g, m))


def test_phase_space_kernels_match_references_at_n16():
    from qcs.phase_space import PhaseSpaceState, build_measure, position_observable, realize_barrier, to_unit_interval
    from qcs.spectral import PiecewiseFn

    rng = np.random.default_rng(16)
    raw = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    state = PhaseSpaceState.normalized(F(1, 2), raw, 0.25)
    equiv = to_unit_interval(build_measure(state))
    obs = position_observable(PiecewiseFn.square(), state)
    barrier, fn = realize_barrier(obs, equiv)
    assert pieces_of(barrier) == pieces_of(ref_factor_against_cdf(fn, obs.cdf))
    levels = level_function(obs.cdf, barrier)
    assert cells_of(levels) == cells_of(ref_compose_with_map(quantile_pcf(obs.cdf), barrier))
    assert list(levels.masses_by_value().items()) == list(ref_masses_by_value(levels).items())
    for g in (fn, levels):
        assert label_mean(g) == ref_label_mean(g) and label_mean(g, 2) == ref_label_mean(g, 2)
    assert_rebuilds(barrier)
    assert_rebuilds(levels)


@st.composite
def deep_chains(draw):
    """Six to ten maps whose offsets and block lengths are over dyadic,
    triadic, decimal or mixed denominators, with up to two expanding maps
    among them, so common denominators grow along the chain."""
    dens = st.sampled_from([2**40, 3**25, 10**12, 2**20 * 3**10])
    specs = []
    for den in draw(st.lists(dens, min_size=6, max_size=10)):
        if draw(st.booleans()):
            specs.append(MapSpec.rotation(F(draw(st.integers(1, den - 1)), den)))
            continue
        cuts = sorted(draw(st.sets(st.integers(1, den - 1), min_size=1, max_size=3)))
        lengths = [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]
        specs.append(MapSpec.interval_exchange(lengths, draw(st.permutations(range(len(lengths))))))
    for k in draw(st.lists(st.integers(2, 3), max_size=2)):
        specs.insert(draw(st.integers(0, len(specs))), MapSpec.expanding(k))
    return specs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), specs=deep_chains(), cdf=dyadic_cdfs())
def test_deep_compositions_match_references(data, specs, cdf):
    m = ref = IDENTITY
    for spec in specs:
        step = build_map(spec)
        m, ref = compose(step, m), ref_compose(step, ref)
        assert pieces_of(m) == pieces_of(ref)
        assert_rebuilds(m)
    assert pieces_of(build_map(MapSpec.composition(*specs))) == pieces_of(m)
    fn = data.draw(mixed_denominator_functions())
    composed, levels = fn.compose_with_map(m), level_function(cdf, m)
    assert cells_of(composed) == cells_of(ref_compose_with_map(fn, m))
    assert cells_of(levels) == cells_of(ref_compose_with_map(quantile_pcf(cdf), m))
    for g in (composed, levels):
        assert list(g.masses_by_value().items()) == list(ref_masses_by_value(g).items())
        assert label_mean(g) == ref_label_mean(g) and label_mean(g, 2) == ref_label_mean(g, 2)
        assert_rebuilds(g)
    alpha = factor_against_cdf(levels, cdf)
    assert pieces_of(alpha) == pieces_of(ref_factor_against_cdf(levels, cdf))
    assert_rebuilds(alpha)


def ref_pullback(m, den, ends):
    """The pullback with one ``Fraction`` per cut off the grid of 1 / m.den,
    and the ends brought over the lcm of those cuts' denominators."""
    W, alphas, cs, lo, hi = _images(m, den)
    inner = [e * (W // den) for e in ends[1:]]
    nums, sources, cells = [0], [], []
    for t in range(len(alphas)):
        i = bisect.bisect_right(inner, lo[t])
        j = bisect.bisect_left(inner, hi[t], i)
        cuts = [F(e - cs[t], alphas[t]) for e in inner[i:j]]
        spanned = list(range(i, j + 1))
        if alphas[t] < 0:
            cuts.reverse()
            spanned.reverse()
        nums += [*cuts, m.nums[t + 1]]
        sources += [t] * len(spanned)
        cells += spanned
    scale = math.lcm(*(F(x).denominator for x in nums))
    if scale == 1:
        return m.den, [int(x) for x in nums], sources, cells
    out = [int(x * scale) for x in nums]
    g = math.gcd(m.den * scale, *out)
    return m.den * scale // g, [x // g for x in out], sources, cells


@settings(max_examples=150, deadline=None)
@given(data=st.data(), spec=built_specs(), outer=built_specs(), flip=st.booleans())
@example(
    data=None,
    spec=MapSpec.composition(MapSpec.expanding(97), MapSpec.interval_exchange([F(1, 6), F(1, 3), F(1, 2)], [2, 0, 1])),
    outer=MapSpec.expanding(5),
    flip=True,
)
def test_pullback_matches_the_fraction_cuts(data, spec, outer, flip):
    """``_pullback`` through the ends of a built map and of a function, on
    compositions with expanding maps and interval exchanges, either slope
    sign, with m's ends over its own denominator and over three times it:
    bitwise the ends, denominators and indices of the Fraction cuts,
    unreduced when every cut is on the grid of 1 / m.den."""
    m = build_map(spec)
    if flip:
        m = compose(reflection_map(), m)
    partitions = [build_map(outer), quantile_pcf(cdf_of((-1.0, 0.0, 1.0), (0.3, 0.75, 1.0)))]
    if data is not None:
        partitions.append(data.draw(functions_on(m)))
    tripled = PiecewiseAffineMap(3 * m.den, [3 * x for x in m.nums], m.slopes, m.cden, m.cnums)
    for source in (m, tripled):
        for p in partitions:
            den, nums, sources, cells = _pullback(source, p.den, p.nums)
            assert (den, list(nums), list(sources), list(cells)) == ref_pullback(source, p.den, p.nums)


def steep_map(width):
    """]0, width] onto ]0, 1] with slope 1/width, then the identity."""
    return map_of([(F(0), width, 1 / width, F(0)), (width, F(1), F(1), F(0))])


@st.composite
def near_tie_cases(draw):
    """A map and a function that the float filter of compose_with_map cannot
    decide, so it falls back to exact arithmetic.

    The map has pieces of either slope sign, some cut narrower than the
    filter's error margin, and may start with a steep piece: slopes near
    2^1023 whose image ends involve subnormal labels, or slopes above 2^1024
    that do not fit in a float.  The function's breakpoints sit on the
    pieces' image ends or within 2^-60 of them.
    """
    m = draw(signed_maps())
    if draw(st.booleans()):
        exponent = draw(st.sampled_from([60, 1021, 1030, 1100]))
        width = F(draw(st.integers(1, 3)), draw(st.integers(1, 3)) * 2**exponent)
        m = ref_compose(m, steep_map(width))
    pieces = []
    for p in pieces_of(m):
        lo, hi, slope, intercept = p
        narrow = F(1, 2 ** draw(st.sampled_from([60, 80, 200])))
        cut = lo + (hi - lo) / 2
        if draw(st.booleans()) and cut + narrow < hi:
            pieces += [(lo, cut, slope, intercept), (cut, cut + narrow, slope, intercept)]
            pieces.append((cut + narrow, hi, slope, intercept))
        else:
            pieces.append(p)
    m = map_of(pieces)
    ends = sorted({e for p in pieces_of(m) for e in image_bounds(p)})
    offsets = st.builds(lambda k, t: F(k, 2**t), st.integers(-3, 3), st.integers(60, 1100))
    chosen = draw(st.lists(st.tuples(st.sampled_from(ends), offsets), max_size=6))
    points = {e + d for e, d in chosen if 0 < e + d < 1}
    bps = [F(0)] + sorted(points) + [F(1)]
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=len(bps) - 1, max_size=len(bps) - 1))
    return fn_of(bps, values), m


@settings(max_examples=150, deadline=None)
@given(case=near_tie_cases())
def test_compose_with_map_falls_back_to_exact_on_near_ties(case):
    fn, m = case
    assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))


def test_compose_with_map_on_a_slope_too_large_for_a_float():
    m = steep_map(F(1, 2**1100))
    with pytest.raises(OverflowError):
        float(m.slopes[0])
    fn = fn_of((F(0), F(1, 3), F(1, 2) + F(1, 2**70), F(1)), (1.0, -1.0, 0.5))
    assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))


def test_compose_with_map_with_subnormal_labels():
    # labels near the smallest subnormal t round to t, so with slope 2^40+1
    # the float image of ]1.1t, 1.4t] is the point s*t, below its exact
    # image and across the breakpoints 1.05st and 1.2st
    t, s = F(1, 2**1074), F(2**40 + 1)
    cuts = [F(0), F(11, 10) * t, F(14, 10) * t]
    m = map_of([(cuts[0], cuts[1], s, F(0)), (cuts[1], cuts[2], s, F(0)), (cuts[2], F(1), F(1), F(0))])
    fn = fn_of((F(0), F(105, 100) * s * t, F(12, 10) * s * t, F(1, 2), F(1)), (1.0, -1.0, 0.5, 2.0))
    assert cells_of(fn.compose_with_map(m)) == cells_of(ref_compose_with_map(fn, m))
