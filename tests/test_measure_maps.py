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
    _images,
    _pullback,
    level_function,
    map_equal_ae,
    preimage_intervals,
    pushforward_density,
    quantile_pcf,
    verify_measure_preserving,
)
from qcs.spectral import StepCDF
from qcs.states import label_mean

from layout import cells_of, ends_of, fn_of, image_bounds, map_of, piece_at, pieces_of

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
    cdf = StepCDF((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
    alpha = factor_against_cdf(quantile_pcf(cdf), cdf)
    assert map_equal_ae(alpha, IDENTITY)


def test_factor_roundtrip_through_rotation():
    cdf = StepCDF((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
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
    cdf = StepCDF((0.0, 1.0), (0.5, 1.0))
    constant = PiecewiseConstantFn(1, [0, 1], (0.0,))
    with pytest.raises(DistributionMismatch):
        factor_against_cdf(constant, cdf)


def test_factor_value_not_in_support():
    cdf = StepCDF((0.0, 1.0), (0.5, 1.0))
    stranger = PiecewiseConstantFn(2, [0, 1, 2], (0.0, 7.0))
    with pytest.raises(ValueNotInSupport):
        factor_against_cdf(stranger, cdf)


def test_factor_lands_inside_level_intervals():
    cdf = StepCDF((-2.0, 3.0), (0.3, 1.0))
    rot = build_map(MapSpec.rotation(F(1, 3)))
    fn = level_function(cdf, rot)
    alpha = factor_against_cdf(fn, cdf)
    for lo, hi, v in cells_of(fn):
        mid = (lo + hi) / 2
        k = cdf.support.index(v)
        lvl_lo, lvl_hi = cdf.level_interval(k)
        assert lvl_lo <= alpha(mid) <= lvl_hi


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
    cdf = StepCDF((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))
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
    return StepCDF(tuple(float(v) for v in range(-1, n - 1)), tuple(levels))


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
    return StepCDF(tuple(float(v) for v in range(len(levels))), tuple(levels))


@st.composite
def near_matching_functions(draw, cdf):
    """A function whose mass per value is within MATCH_TOL of the CDF's
    weights, mostly not equal to them: each interior level moves by a
    triadic, decimal or mixed fraction of at most a quarter of its
    neighbouring gaps and of 1e-13.  A signed map then scatters each value
    over several runs."""
    exact = (F(0),) + cdf.exact_levels
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
    fn = data.draw(near_matching_functions(cdf))
    alpha = factor_against_cdf(fn, cdf)
    assert pieces_of(alpha) == pieces_of(ref_factor_against_cdf(fn, cdf))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), cdf=dyadic_cdfs(), float_cdf=float_level_cdfs())
def test_pushforward_density_matches_the_fraction_sweep(data, m, cdf, float_cdf):
    """On signed maps, on factor outputs (exact, and within MATCH_TOL, whose
    densities miss 1), and on the halving and chord maps."""
    near = factor_against_cdf(data.draw(near_matching_functions(float_cdf)), float_cdf)
    for out in (m, factor_against_cdf(level_function(cdf, m), cdf), near, halving_map(), chord_map()):
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
    cdf = StepCDF(tuple(support), tuple(float(e) for e in exact), exact)
    for g in (fn, fn.compose_with_map(m)):
        alpha = factor_against_cdf(g, cdf)
        assert pieces_of(alpha) == pieces_of(ref_factor_against_cdf(g, cdf))
        assert all(s == 1 for s in alpha.slopes)


@st.composite
def signed_zero_cdfs(draw):
    """``dyadic_cdfs`` whose zero support point is 0.0 or -0.0."""
    cdf = draw(dyadic_cdfs())
    zero = draw(st.sampled_from([0.0, -0.0]))
    return StepCDF(tuple(zero if v == 0 else v for v in cdf.support), cdf.levels)


@st.composite
def renamed_cells(draw, fn):
    """fn with each cell's value moved within the ``atoms_of`` tolerance, and
    each zero given either sign, so one atom is named by several floats."""
    moves = st.sampled_from([0.0, 1e-13, -4e-13, 9e-13])
    zeros = st.sampled_from([0.0, -0.0, 5e-324, -3e-13])
    return PiecewiseConstantFn(fn.den, fn.nums, [v + draw(moves) if v else draw(zeros) for v in fn.values])


def assert_stores_the_composition(fn, cdf):
    """The level function that factor_against_cdf stores is the quantile
    composed with its map, in den, nums and the bits of every value."""
    alpha = factor_against_cdf(fn, cdf)
    stored, composed = level_function(cdf, alpha), quantile_pcf(cdf).compose_with_map(alpha)
    assert (stored.den, stored.nums) == (composed.den, composed.nums)
    assert list(map(float.hex, stored.values)) == list(map(float.hex, composed.values))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=signed_maps(), cdf=signed_zero_cdfs(), float_cdf=float_level_cdfs())
def test_factor_stores_the_composition_as_its_level_function(data, m, cdf, float_cdf):
    """On masses matched within MATCH_TOL, on values named within the
    atoms_of tolerance and on mixed signed zeros."""
    near = data.draw(near_matching_functions(float_cdf))
    fn = quantile_pcf(cdf).compose_with_map(m)
    for g, c in ((near, float_cdf), (fn, cdf)):
        assert_stores_the_composition(g, c)
        assert_stores_the_composition(data.draw(renamed_cells(g)), c)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), outer=signed_maps(), inner=signed_maps(), cdf=dyadic_cdfs(), float_cdf=float_level_cdfs())
def test_every_map_end_is_an_end_of_its_level_functions(data, outer, inner, cdf, float_cdf):
    """The sampler's breakpoint rule rests on this: a label on a map's end
    ties with an end of the level function.  On signed maps, compositions
    and factor outputs (exact, and within MATCH_TOL), whose level function
    under their own CDF is the stored one."""
    exact = factor_against_cdf(level_function(cdf, inner), cdf)
    near = factor_against_cdf(data.draw(near_matching_functions(float_cdf)), float_cdf)
    for m in (inner, compose(outer, inner), exact, near):
        for c in (cdf, float_cdf):
            assert set(ends_of(m)) <= set(ends_of(level_function(c, m)))


def test_factor_stores_the_composition_for_the_phase_space_observables_at_n16():
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
    for obs in (
        position_observable(PiecewiseFn.identity(), state),
        position_observable(PiecewiseFn.square(), state),
        momentum_observable(PiecewiseFn.identity(), state),
        spin_observable(state),
    ):
        assert_stores_the_composition(equiv.pcf(obs.cell_values), obs.cdf)


def test_runs_are_the_groups_of_equal_adjacent_values():
    values = (1.0, 1.0, -0.0, 0.0, 0.5, math.inf, math.inf, -1.0, 0.5, 0.5)
    fn = PiecewiseConstantFn(len(values), range(len(values) + 1), values)
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
    for g in (fn, quantile_pcf(StepCDF((-1.0, 0.0, 1.0), (0.25, 0.375, 1.0)))):
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
    partitions = [build_map(outer), quantile_pcf(StepCDF((-1.0, 0.0, 1.0), (0.3, 0.75, 1.0)))]
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
