"""Exact calculus of measure-preserving piecewise-affine maps on ]0,1[.

Maps and piecewise-constant functions hold the ends of their pieces as
integer numerators over one denominator, and a map its intercepts likewise
over a second one; slopes are ``Fraction`` objects shared by runs of pieces.
Floats entering from spectral data are converted exactly (every double is
rational), and the kernels compare and cut integers against integers, so
pushforwards, compositions, inversions and preimage measures are computed
with no sampling and no rounding.  ``breakpoints`` is a ``Fraction`` view
of the ends, built on first use and never by the kernels.  Functions are
understood almost everywhere: single points are null, and "equal a.e."
means equal off finitely many breakpoints.

Pieces are left-open right-closed, matching the ]a,b] calculus used by the
step CDFs in :mod:`qcs.spectral`.
"""

from __future__ import annotations

import bisect
import math
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import add, floordiv, gt, index, le, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import BadSpec, DistributionMismatch, DomainGap, NotInjective, OutOfDomain, ValueNotInSupport
from .spectral import StepCDF, _locate, _readonly

RationalLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_BUCKETS = 1 << 20  # cap on a level function's guide table (12 MiB)

Interval = tuple[Fraction, Fraction]


def to_fraction(x: RationalLike) -> Fraction:
    """Exact rational from int, Fraction, float (exact binary value) or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _as_int(x) -> int | None:
    """x if it is an integer (numpy integers too, bools not), else None."""
    try:
        return None if isinstance(x, bool) else index(x)
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# Half-open interval sets ]a,b]

def normalize_intervals(items: Iterable[Interval]) -> list[Interval]:
    """Sort, drop empties, and merge touching/overlapping ]a,b] intervals."""
    cleaned = sorted((lo, hi) for lo, hi in items if hi > lo)
    merged: list[Interval] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def intervals_measure(items: Iterable[Interval]) -> Fraction:
    return sum((hi - lo for lo, hi in normalize_intervals(items)), ZERO)


# ---------------------------------------------------------------------------
# Integer numerators over one denominator

def _over_common(fracs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, nums): the numerators of fracs over d, their least common denominator."""
    den = math.lcm(*(f.denominator for f in fracs))
    return den, [f.numerator * (den // f.denominator) for f in fracs]


def _rescale(nums: Sequence[int], den: int, to: int) -> Sequence[int]:
    """Numerators over den brought over ``to``, a multiple of den."""
    return nums if to == den else list(map(mul, nums, repeat(to // den)))


def _reduced(den: int, nums: list[int]) -> tuple[int, list[int]]:
    """den and nums divided by their greatest common divisor."""
    g = math.gcd(den, *nums)
    return (den, nums) if g == 1 else (den // g, list(map(floordiv, nums, repeat(g))))


def joint_lengths(*parts: tuple[int, Sequence[int], Sequence]) -> tuple[int, dict[tuple, int]]:
    """(den, lengths) on the merge of partitions of ]0,1]: part p is
    (d, nums, values), taking values[t] on its cell ]nums[t] / d,
    nums[t + 1] / d].  den is the lcm of the d, and lengths maps each tuple
    of values, one per part, to the total integer length over den of the
    merged cells where the parts take them.

    The merged ends are the sorted union of every part's ends over den.  A
    merged cell from end e lies in cell t of a part when t of its right
    ends are at or below e, so one ``map(bisect_right, ...)`` per part names
    every cell's value; only the per-key sums step in Python.
    """
    den = math.lcm(*(d for d, _, _ in parts))
    scaled = [_rescale(nums, d, den) for d, nums, _ in parts]
    ends = sorted(set().union(*scaled))
    starts = ends[:-1]
    columns = (
        map(values.__getitem__, map(bisect.bisect_right, repeat(nums[1:]), starts))
        for nums, (_, _, values) in zip(scaled, parts)
    )
    lengths: dict[tuple, int] = {}
    for key, n in zip(zip(*columns), map(sub, ends[1:], starts)):
        lengths[key] = lengths.get(key, 0) + n
    return den, lengths


def check_partition(den: int, nums: Sequence[int], cells: int) -> None:
    """The checks on a partition of ]0,1] into ``cells`` cells with ends
    nums[i] / den, in one integer pass."""
    if len(nums) != cells + 1 or not cells:
        raise BadSpec("need n+1 breakpoints for n cells")
    if nums[0] != 0 or nums[-1] != den:
        raise BadSpec("cells must cover ]0,1]")
    if any(map(le, nums[1:], nums)):
        raise BadSpec("breakpoints must be strictly ascending")


# ---------------------------------------------------------------------------
# Piecewise-affine maps

class PiecewiseAffineMap:
    """Borel map ]0,1[ -> [0,1] made of finitely many affine pieces.

    Piece t is z -> slopes[t] * z + cnums[t] / cden on the source interval
    ]nums[t] / den, nums[t + 1] / den]: the ends are integer numerators over
    one denominator, the intercepts over another.  The value at a breakpoint
    follows the ]lo,hi] convention but is never relied on (breakpoints are
    null).  The constructor checks that the ends tile ]0,1], that every
    slope is nonzero and that every image lies in [0,1].
    """

    def __init__(self, den: int, nums: Sequence[int], slopes: Iterable[RationalLike], cden: int, cnums: Sequence[int]):
        self.den, self.nums, self.slopes = den, list(nums), tuple(map(to_fraction, slopes))
        self.cden, self.cnums = cden, list(cnums)
        check_partition(den, self.nums, len(self.slopes))
        if cden <= 0 or len(self.cnums) != len(self.slopes):
            raise BadSpec("need one intercept per piece over a positive denominator")
        if not all(self.slopes):
            raise BadSpec("piece slope must be nonzero")
        W, _, _, lo, hi = _images(self)
        if min(lo) < 0 or max(hi) > W:
            raise BadSpec("piece image escapes [0,1]")

    @classmethod
    def _built(cls, den, nums, slopes, cden, cnums) -> "PiecewiseAffineMap":
        """A kernel output, not re-validated: its pieces tile ]0,1] with
        nonzero slopes and images in [0,1] by construction."""
        m = object.__new__(cls)
        m.den, m.nums, m.slopes, m.cden, m.cnums = den, nums, slopes, cden, cnums
        return m

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The ends as ``Fraction`` objects, built on first use.  No library
        path reads them; the traced benchmark run counts pieces and
        denominator bits from them (``perfbench/spans.py``), and its
        measure workload compares labels with them."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __call__(self, z: RationalLike) -> Fraction:
        z = to_fraction(z)
        if not (ZERO < z < ONE):
            raise OutOfDomain(f"label {z} outside ]0,1[")
        t = _locate(self.nums, self.den, z)[0] - 1
        return self.slopes[t] * z + Fraction(self.cnums[t], self.cden)

    def is_breakpoint(self, z: RationalLike) -> bool:
        return _locate(self.nums, self.den, to_fraction(z))[1]

    @cached_property
    def measure_preserving(self) -> bool:
        return verify_measure_preserving(self)

    @cached_property
    def _level_memo(self) -> "weakref.WeakKeyDictionary[StepCDF, PiecewiseConstantFn]":
        """Level functions of this map, keyed weakly by step CDF object."""
        return weakref.WeakKeyDictionary()


def map_equal_ae(m1: PiecewiseAffineMap, m2: PiecewiseAffineMap) -> bool:
    """Exact a.e. equality: same affine coefficients wherever two pieces
    overlap, read from ``joint_lengths`` with each piece's value its
    (slope, intercept numerator over the lcm of both intercept denominators)."""
    cden = math.lcm(m1.cden, m2.cden)
    coefficients = [(m.den, m.nums, list(zip(m.slopes, _rescale(m.cnums, m.cden, cden)))) for m in (m1, m2)]
    return all(a == b for a, b in joint_lengths(*coefficients)[1])


# ---------------------------------------------------------------------------
# Densities

@dataclass(frozen=True, eq=False)
class PiecewiseConstantDensity:
    """Atomless density on ]0,1] with constant value on each cell."""

    cells: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def mass(self) -> Fraction:
        return sum(((b - a) * d for a, b, d in self.cells), ZERO)


def pushforward_density(m: PiecewiseAffineMap) -> PiecewiseConstantDensity:
    """Exact image density of Lebesgue measure: on each image cell, the sum
    of 1 / |slope| over the pieces whose image covers it.

    Sweeps the integer image ends of ``_images``.  Piece t has slope
    alphas[t] * m.den / W, so it adds big // |alphas[t]| to an integer
    level, big the lcm of the |alphas|, and a level l is the density
    l * W / (big * m.den).  Mass is preserved exactly.
    """
    W, alphas, _, lo, hi = _images(m)
    big = math.lcm(*set(alphas))
    step = {a: big // abs(a) for a in set(alphas)}
    deltas = defaultdict(int, {0: 0, W: 0})
    for s, x, y in zip(map(step.__getitem__, alphas), lo, hi):
        deltas[x] += s
        deltas[y] -= s
    points = sorted(deltas)
    cells = []
    level = 0
    for pt, nxt in zip(points, points[1:]):
        level += deltas[pt]
        if cells and cells[-1][2] == level:
            cells[-1][1] = nxt
        else:
            cells.append([pt, nxt, level])
    scale = big * m.den
    cells = tuple((Fraction(a, W), Fraction(b, W), Fraction(v * W, scale)) for a, b, v in cells)
    return PiecewiseConstantDensity(cells)


def verify_measure_preserving(m: PiecewiseAffineMap) -> bool:
    """True iff pushing the uniform density through m gives density exactly 1."""
    return all(dens == ONE for _, _, dens in pushforward_density(m).cells)


# ---------------------------------------------------------------------------
# Map composition and inversion

def _images(m: PiecewiseAffineMap, den: int = 1):
    """(W, alphas, cs, lo, hi): piece t's image is ]lo[t] / W, hi[t] / W].

    W is a common multiple of den, m.cden and m.den times each slope's
    denominator, so piece t sends x / m.den to (x * alphas[t] + cs[t]) / W
    with integers alphas[t] and cs[t]; builtins are mapped over the pieces."""
    slopes = dict(zip(map(id, m.slopes), m.slopes))
    W = math.lcm(den, m.cden, m.den * math.lcm(*(s.denominator for s in slopes.values())))
    alpha = {i: s.numerator * (W // (s.denominator * m.den)) for i, s in slopes.items()}
    alphas = list(map(alpha.__getitem__, map(id, m.slopes)))
    cs = _rescale(m.cnums, m.cden, W)
    start = list(map(add, map(mul, m.nums, alphas), cs))
    end = list(map(add, map(mul, m.nums[1:], alphas), cs))
    if min(alphas) > 0:
        return W, alphas, cs, start, end
    return W, alphas, cs, list(map(min, start, end)), list(map(max, start, end))


def _pullback(m: PiecewiseAffineMap, den: int, ends: Sequence[int]):
    """Cut the pieces of m where their images cross an interior end of the
    partition ]ends[k] / den, ends[k + 1] / den] of ]0,1].

    Returns (d, nums, sources, cells): the cut pieces' ends over d, and per
    cut piece the index of its piece of m and of the cell that holds its
    image.  Image ends and partition ends are integers over one W
    (``_images``); an integer bisect finds each image's cell.  A piece whose
    image spans cells is cut at (e - cs[t]) / alphas[t], in units of
    1 / m.den, for each end e inside the image: an integer over m.den * L,
    L the lcm of the alphas of the cut pieces.  The ends are then reduced,
    unless every cut falls on a multiple of 1 / m.den.
    """
    W, alphas, cs, lo, hi = _images(m, den)
    inner = _rescale(ends, den, W)[1:]
    first = list(map(bisect.bisect_right, repeat(inner), lo))
    spans = list(map(gt, hi, map(inner.__getitem__, first)))
    if not any(spans):
        return m.den, m.nums, range(len(first)), first
    scale = math.lcm(*compress(alphas, spans))
    nums, sources, cells, whole = [0], [], [], True
    for t, (i, y) in enumerate(zip(first, hi)):
        j = bisect.bisect_left(inner, y, i)
        c, per = cs[t], scale // alphas[t]
        cuts, spanned = [(e - c) * per for e in inner[i:j]], list(range(i, j + 1))
        whole = whole and not any(x % scale for x in cuts)
        if alphas[t] < 0:
            cuts.reverse()
            spanned.reverse()
        nums += [*cuts, m.nums[t + 1] * scale]
        sources += [t] * len(spanned)
        cells += spanned
    if whole:
        return m.den, [x // scale for x in nums], sources, cells
    return (*_reduced(m.den * scale, nums), sources, cells)


def compose(outer: PiecewiseAffineMap, inner: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact composition outer(inner(z)); agrees pointwise off breakpoints.

    Each inner piece is cut where its image crosses an end of an outer
    piece (``_pullback``), and each cut piece is composed with the outer
    piece that holds its image.
    """
    den, nums, sources, cells = _pullback(inner, outer.den, outer.nums)
    # (a_k / b_k) (c_t / C_i) + c_k / C_o over C_i C_o B, B the lcm of the b_k
    big = math.lcm(*(s.denominator for s in outer.slopes))
    ci, co = inner.cden, outer.cden
    scale = [s.numerator * (big // s.denominator) * co for s in outer.slopes]
    shift = [c * big * ci for c in outer.cnums]
    slopes, cnums = [], []
    for t, k in zip(sources, cells):
        slopes.append(outer.slopes[k] * inner.slopes[t])
        cnums.append(scale[k] * inner.cnums[t] + shift[k])
    return PiecewiseAffineMap._built(den, nums, tuple(slopes), *_reduced(ci * co * big, cnums))


def invert(m: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Inverse of an a.e. bijection; raises NotInjective when images overlap
    or fail to cover ]0,1[ up to finitely many points.  The image ends are
    integers over one W (``_images``), and they are the inverse's ends."""
    W, _, _, lo, hi = _images(m)
    images = sorted(zip(lo, hi, count()))
    cursor, nums, slopes, intercepts = 0, [0], [], []
    for lo_im, hi_im, t in images:
        if lo_im != cursor:
            kind = "overlap" if lo_im < cursor else "gap"
            raise NotInjective(f"piece images have a {kind} near {cursor / W:.6g}")
        s = m.slopes[t]
        nums.append(hi_im)
        slopes.append(1 / s)
        intercepts.append(Fraction(-m.cnums[t], m.cden) / s)
        cursor = hi_im
    if cursor != W:
        raise NotInjective("piece images do not cover ]0,1]")
    return PiecewiseAffineMap._built(*_reduced(W, nums), tuple(slopes), *_over_common(intercepts))


# ---------------------------------------------------------------------------
# Preimages

def preimage_intervals(m: PiecewiseAffineMap, lo: Fraction, hi: Fraction) -> list[Interval]:
    """Exact preimage of the level set ]lo, hi] as a normalized interval list:
    m pulled back through the partition of ]0,1] at lo and hi, keeping the
    cut pieces whose image lies in ]lo, hi]."""
    lo, hi = max(to_fraction(lo), ZERO), min(to_fraction(hi), ONE)
    if hi <= lo:
        return []
    ends = sorted({ZERO, lo, hi, ONE})
    den, nums, _, cells = _pullback(m, *_over_common(ends))
    k = ends.index(lo)
    kept = ((Fraction(a, den), Fraction(b, den)) for a, b, c in zip(nums, nums[1:], cells) if c == k)
    return normalize_intervals(kept)


def preimage_measure(m: PiecewiseAffineMap, lo: Fraction, hi: Fraction) -> Fraction:
    return intervals_measure(preimage_intervals(m, lo, hi))


# ---------------------------------------------------------------------------
# Piecewise-constant functions on ]0,1]

def _finite(values: list[float]) -> np.ndarray:
    """values as a read-only float array; a value that is not finite raises
    DomainGap, as in ``borel_apply``: it has no atom to be named by."""
    out = _readonly(values)
    if not np.isfinite(out).all():
        raise DomainGap("function values must be finite")
    return out


class PiecewiseConstantFn:
    """Real function constant on each cell ]b_{i-1}, b_i] of a partition of ]0,1].

    The breakpoints b_i are held as integer numerators ``nums`` over one
    denominator ``den``, and the values as one read-only float64 array
    ``float_values``; ``values`` is its tuple view.  The constructor checks
    that the numerators partition ]0,1] into one cell per value and that
    every value is finite.
    """

    def __init__(self, den: int, nums: Sequence[int], values: Iterable[float]):
        self.den, self.nums, self.float_values = den, list(nums), _finite([float(v) for v in values])
        check_partition(den, self.nums, len(self.float_values))

    @classmethod
    def _built(cls, den: int, nums: Sequence[int], float_values: np.ndarray) -> "PiecewiseConstantFn":
        """A kernel output, not re-validated: strictly ascending numerators
        from 0 to den and one finite value per cell by construction, in a
        float64 array that the function takes over, not copied, and makes
        read-only."""
        fn = object.__new__(cls)
        float_values.setflags(write=False)
        fn.den, fn.nums, fn.float_values = den, nums, float_values
        return fn

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The breakpoints as ``Fraction`` objects, built on first use.  No
        library path reads them; the traced benchmark run counts cells and
        denominator bits from them (``perfbench/spans.py``)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @cached_property
    def float_ends(self) -> np.ndarray:
        """The ends nums[i] / den, each correctly rounded (integer true
        division rounds once), as a read-only array built on first use."""
        den = self.den
        return _readonly([x / den for x in self.nums])

    @cached_property
    def buckets(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(k, below, fill): a guide table over ``float_ends``, read-only
        and built on first use.  With m ends, k is the power of two with
        4m < k <= 8m, at most MAX_BUCKETS.  Bucket b covers [b/k, (b+1)/k[:
        ``below[b]`` (int32, b <= k) counts the ends below b/k, and
        ``fill[b]`` is the value of the cell that holds the whole bucket,
        or NaN when an end lies in it.  ``floor(e * k)`` is exact since k
        is a power of two, so an end's bucket is found without a float grid."""
        ends, m = self.float_ends, len(self.float_ends)
        k = min(1 << (4 * m).bit_length(), MAX_BUCKETS)
        # buckets of_end[i - 1] + 1 .. of_end[i] have i ends below them, and
        # all but the last lie inside cell i - 1
        of_end = (ends * k).astype(np.intp)
        spans = np.diff(of_end, prepend=-1)
        below = np.repeat(np.arange(m, dtype=np.int32), spans)
        fill = np.repeat(np.concatenate(([np.nan], self.float_values)), spans)
        fill[of_end] = np.nan
        fill = fill[:k]
        below.setflags(write=False)
        fill.setflags(write=False)
        return k, below, fill

    def float_lookup(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(out, ties) for float labels z in [0, 1).  With idx =
        searchsorted(float_ends, z), the number of ends below z, out[i] is
        ``float_values[idx - 1]`` (a new array) and ``ties`` lists, in
        ascending order, the i with ``float_ends[idx] == z[i]``.

        The index is read from ``buckets``, not searched, and equals
        searchsorted's for every z in [0, 1).  k is a power of two, so
        b = floor(z * k) is exact and b/k <= z < (b+1)/k.  Every end below
        b/k is below z and no end at or above (b+1)/k is, so idx = below[b]
        plus the number of ends in bucket b that lie below z.  A bucket with
        no end gives below[b], and ``fill[b]`` is the value of cell
        below[b] - 1; ends[idx] >= (b+1)/k > z there, so it holds no tie.
        ends[0] = 0.0, so bucket 0 holds an end and below[b] >= 1 in every
        empty bucket.  With one end, ends[below[b]], idx = below[b] +
        (ends[below[b]] < z), a sum that also holds with none (so a NaN
        value marks nothing wrongly).  With two or more, searchsorted
        places that bucket's labels."""
        ends = self.float_ends
        k, below, fill = self.buckets
        b = (z * k).astype(np.intp)
        out = fill[b]
        near = np.isnan(out).nonzero()[0]  # labels in a bucket holding an end
        z_near, b_near = z[near], b[near]
        idx = below[b_near]
        many = (below[b_near + 1] - idx > 1).nonzero()[0]
        idx += ends[idx] < z_near
        idx[many] = np.searchsorted(ends, z_near[many])
        out[near] = self.float_values[idx - 1]
        return out, near[ends[idx] == z_near]

    @cached_property
    def values(self) -> tuple[float, ...]:
        """The values as a tuple of floats, built on first use from ``float_values``."""
        return tuple(self.float_values.tolist())

    def __call__(self, z: RationalLike) -> float:
        z = to_fraction(z)
        if not (ZERO < z <= ONE):
            raise OutOfDomain(f"{z} outside ]0,1]")
        return self.float_values[_locate(self.nums, self.den, z)[0] - 1].item()

    def map_values(self, fn) -> "PiecewiseConstantFn":
        """fn of each value, on the same cells; an image that is not finite
        raises DomainGap (``_finite``)."""
        return PiecewiseConstantFn._built(self.den, self.nums, _finite([float(fn(v)) for v in self.values]))

    def run_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends): the first cell of each maximal run of equal
        adjacent values, and the cell after its last, as integer arrays.
        One numpy ``!=`` on ``float_values`` finds them; like ``!=`` on
        Python floats it takes -0.0 and 0.0 as equal and a NaN as unequal
        to everything.  A run's value is the value of its first cell."""
        values = self.float_values
        # cell i starts a run; i = len(values), past the last cell, ends one
        starts_run = np.empty(len(values) + 1, dtype=bool)
        starts_run[0] = starts_run[-1] = True
        np.not_equal(values[1:], values[:-1], out=starts_run[1:-1])
        bounds = starts_run.nonzero()[0]
        return bounds[:-1], bounds[1:]

    def runs(self) -> Iterable[tuple[int, int, float]]:
        """(start, end, v) per maximal run of equal adjacent values: the
        cells start..end-1, that is ]b_start, b_end], all take the value v."""
        starts, ends = self.run_bounds()
        return zip(starts.tolist(), ends.tolist(), self.float_values[starts].tolist())

    @cached_property
    def _lengths(self) -> Mapping[float, int]:
        sums: dict[float, int] = {}
        nums = self.nums
        for start, end, v in self.runs():
            sums[v] = sums.get(v, 0) + nums[end] - nums[start]
        return MappingProxyType(sums)

    def lengths_by_value(self) -> Mapping[float, int]:
        """Total cell length per value over ``den``, in order of first
        appearance, as a read-only mapping built on first use and then
        shared: each run adds its integer length to its value's sum.  The
        level function that ``factor_against_cdf`` stores carries the
        factor's own per-atom sums, so it sums nothing."""
        return self._lengths

    def masses_by_value(self) -> dict[float, Fraction]:
        """Exact pushforward of Lebesgue measure: ``lengths_by_value`` as fractions."""
        return {v: Fraction(n, self.den) for v, n in self.lengths_by_value().items()}

    def disagreement(self, other: "PiecewiseConstantFn") -> Fraction:
        """Exact Lebesgue measure of the set where self and other differ:
        the ``joint_lengths`` of the value pairs that differ."""
        den, lengths = joint_lengths((self.den, self.nums, self.values), (other.den, other.nums, other.values))
        return Fraction(sum([n for (u, v), n in lengths.items() if u != v]), den)

    def equal_ae(self, other: "PiecewiseConstantFn") -> bool:
        """Exact equality off breakpoints."""
        return self.disagreement(other) == 0

    def compose_with_map(self, m: PiecewiseAffineMap) -> "PiecewiseConstantFn":
        """Exact f(m(z)) as a piecewise-constant function of z: each piece of
        m is cut where its image crosses a breakpoint of f (``_pullback``),
        and each cut piece takes the value of the cell that holds its image."""
        den, nums, _, cells = _pullback(m, self.den, self.nums)
        return PiecewiseConstantFn._built(den, nums, self.float_values[cells])


def quantile_pcf(cdf: StepCDF) -> PiecewiseConstantFn:
    """The quantile function of a step CDF as an exact piecewise-constant function."""
    return PiecewiseConstantFn._built(cdf.den, [0, *cdf.nums], np.array(cdf.support))


def level_function(cdf: StepCDF, m: PiecewiseAffineMap) -> PiecewiseConstantFn:
    """The deterministic outcome z -> quantile(cdf, m(z)) as an exact function.

    The result is memoised per (step CDF object, map) on the map; the memo
    holds the CDF only weakly.  Callers share it and must not change it.  A
    map made by ``factor_against_cdf(fn, cdf)`` already holds its level
    function for that ``cdf``, equal to the composition (see there).  A map
    of one piece with slope 1 is the identity, as its image lies in [0,1];
    its level function is ``quantile_pcf(cdf)``, with no cut, and that is
    bitwise the composition, as the CDF's denominator is already reduced.
    """
    memo = m._level_memo
    fn = memo.get(cdf)
    if fn is None:
        identity = len(m.slopes) == 1 and m.slopes[0] == 1
        fn = quantile_pcf(cdf) if identity else quantile_pcf(cdf).compose_with_map(m)
        memo[cdf] = fn
    return fn


# ---------------------------------------------------------------------------
# Map specifications

_KINDS = ("identity", "rotation", "interval_exchange", "expanding", "composition")


@dataclass(frozen=True)
class MapSpec:
    """Serializable description of a representable map on ]0,1[.

    Kinds: identity; rotation(c) by a rational offset; interval_exchange with
    rational block lengths and a permutation (perm[i] is the image slot of
    source block i); expanding(k), z -> k z mod 1; composition, maps applied
    in listed order (first entry acts first).
    """

    kind: str
    c: Fraction | None = None
    lengths: tuple[Fraction, ...] | None = None
    perm: tuple[int, ...] | None = None
    k: int | None = None
    maps: tuple["MapSpec", ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BadSpec(f"unknown map kind {self.kind!r}")
        if self.kind == "rotation":
            c = to_fraction(self.c)
            object.__setattr__(self, "c", c)
            if not (ZERO <= c < ONE):
                raise BadSpec("rotation offset must satisfy 0 <= c < 1")
        elif self.kind == "interval_exchange":
            lengths = tuple(to_fraction(x) for x in self.lengths or ())
            perm = tuple(map(_as_int, self.perm or ()))
            object.__setattr__(self, "lengths", lengths)
            object.__setattr__(self, "perm", perm)
            if not lengths or any(x <= 0 for x in lengths):
                raise BadSpec("block lengths must be positive")
            if sum(lengths) != ONE:
                raise BadSpec("block lengths must sum to 1")
            if None in perm or sorted(perm) != list(range(len(lengths))):
                raise BadSpec("perm must be a permutation of the blocks")
        elif self.kind == "expanding":
            k = _as_int(self.k)
            if k is None or not 2 <= k < sys.maxsize:  # build_map takes range(k + 1)
                raise BadSpec(f"expanding factor must be an integer from 2 to {sys.maxsize - 1}")
            object.__setattr__(self, "k", k)
        elif self.kind == "composition":
            maps = tuple(self.maps or ())
            object.__setattr__(self, "maps", maps)
            if not maps:
                raise BadSpec("composition needs at least one map")

    @classmethod
    def identity(cls) -> "MapSpec":
        return cls("identity")

    @classmethod
    def rotation(cls, c: RationalLike) -> "MapSpec":
        return cls("rotation", c=to_fraction(c))

    @classmethod
    def interval_exchange(cls, lengths: Sequence[RationalLike], perm: Sequence[int]) -> "MapSpec":
        return cls("interval_exchange", lengths=tuple(to_fraction(x) for x in lengths), perm=tuple(perm))

    @classmethod
    def expanding(cls, k: int) -> "MapSpec":
        return cls("expanding", k=k)

    @classmethod
    def composition(cls, *specs: "MapSpec") -> "MapSpec":
        return cls("composition", maps=tuple(specs))

    @classmethod
    def from_json(cls, obj) -> "MapSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise BadSpec("map spec must be an object with a 'kind'")
        kind = obj["kind"]

        def field(key):
            if key not in obj:
                raise BadSpec(f"{kind} map spec needs {key!r}")
            return obj[key]

        try:
            if kind == "identity":
                return cls.identity()
            if kind == "rotation":
                return cls.rotation(field("c"))
            if kind == "interval_exchange":
                return cls.interval_exchange(field("lengths"), field("perm"))
            if kind == "expanding":
                return cls.expanding(field("k"))
            if kind == "composition":
                return cls.composition(*(cls.from_json(m) for m in field("maps")))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise BadSpec(f"bad {kind} map spec: {exc}") from exc
        raise BadSpec(f"unknown map kind {kind!r}")

    def to_json(self):
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "rotation":
            return {"kind": "rotation", "c": str(self.c)}
        if self.kind == "interval_exchange":
            return {
                "kind": "interval_exchange",
                "lengths": [str(x) for x in self.lengths],
                "perm": list(self.perm),
            }
        if self.kind == "expanding":
            return {"kind": "expanding", "k": self.k}
        return {"kind": "composition", "maps": [m.to_json() for m in self.maps]}


def _exchange(lengths: Sequence[Fraction], perm: Sequence[int]) -> PiecewiseAffineMap:
    """The interval exchange sending block i, of length lengths[i], to image
    slot perm[i], with its ends over the lengths' common denominator."""
    den, sizes = _over_common(lengths)
    slot_sizes = [0] * len(sizes)
    for i, p in enumerate(perm):
        slot_sizes[p] = sizes[i]
    nums, slots = [0, *accumulate(sizes)], [0, *accumulate(slot_sizes)]
    cnums = [slots[p] - x for p, x in zip(perm, nums)]
    return PiecewiseAffineMap._built(den, nums, (ONE,) * len(sizes), *_reduced(den, cnums))


def build_map(spec: MapSpec) -> PiecewiseAffineMap:
    """Materialize a MapSpec, checked when it was made, on integer ends with no
    second check: every kind is measure preserving by construction (interval
    exchanges, identity and rotations among them, z -> k z mod 1, and their
    compositions)."""
    if spec.kind == "identity" or spec.kind == "rotation" and spec.c == 0:
        return _exchange((ONE,), (0,))
    if spec.kind == "rotation":
        return _exchange((ONE - spec.c, spec.c), (1, 0))
    if spec.kind == "interval_exchange":
        return _exchange(spec.lengths, spec.perm)
    if spec.kind == "expanding":
        k = spec.k
        return PiecewiseAffineMap._built(k, list(range(k + 1)), (Fraction(k),) * k, 1, list(range(0, -k, -1)))
    built = build_map(spec.maps[0])
    for sub in spec.maps[1:]:
        built = compose(build_map(sub), built)
    return built


# ---------------------------------------------------------------------------
# Constructive factorization against a step CDF

def _per_cell(per_run: np.ndarray, sizes: np.ndarray | None) -> list:
    """Each run's object repeated over its cells, sizes[r] of them for run
    r, as a list of the same shared objects, repeated and unpacked in C.
    ``sizes`` is None when every run is one cell."""
    return (per_run if sizes is None else per_run.repeat(sizes)).tolist()


def factor_against_cdf(fn: PiecewiseConstantFn, cdf: StepCDF) -> PiecewiseAffineMap:
    """Factor fn through the quantile of cdf: find a measure-preserving map a
    with quantile(cdf, a(z)) = fn(z) off finitely many breakpoints.

    Each source cell where fn takes the k-th support value is translated,
    order preserving, onto a chunk of the k-th level interval.  The source
    mass of every atom must equal its weight exactly (else
    DistributionMismatch), so every slope is 1 and the result is a
    piecewise translation, exactly measure preserving.  Each value of fn
    must equal a support point (-0.0 equals 0.0), else ValueNotInSupport;
    callers name the values of a ``borel_apply`` image by its record of the
    merge (``spectral.image_values``), not by distance.

    The map's ends are fn's own numerators over its denominator G.  With
    the exact levels over L, atom k has source length t_k / G equal to its
    level interval ]lo_k / L, (lo_k + w_k) / L].  A run of it from x / G,
    after earlier runs of total length b_k / G, has the intercept
    lo_k / L + (b_k - x) / G.  Every mass equals its weight, so lo_k / L is
    the length of the runs of the atoms before k: the intercept is
    (length of the atom-grouped runs ahead of the run - x) / G, reduced.

    The map stores the level function it guarantees in its ``_level_memo``
    under ``cdf``, so ``level_function(cdf, a)`` does no pullback.  It is
    fn's own ends with each value v renamed to the support point of its
    atom, bit for bit ``quantile_pcf(cdf).compose_with_map(a)``: the runs
    of atom k tile its level interval exactly, so no image crosses a level
    end, ``_pullback`` cuts nothing and keeps the ends, and each cell reads
    ``support[k]``.  It also carries the factor's per-atom sums t_k as its
    ``lengths_by_value``, keyed by ``support[k]`` in order of first
    appearance, so reading its masses or its label mean sums nothing again.

    No Python step is taken per cell.  Runs come from ``run_bounds``, and
    one ``searchsorted`` on the support and one ``!=`` name each run's atom.
    The runs are grouped by atom (a stable sort, so each atom keeps its
    source order), and their ends are read from fn's numerators; one
    ``accumulate`` along them gives every intercept numerator and t_k.
    Intercepts are then repeated over each run's cells in C (``_per_cell``)
    as shared objects, and the levels are the support points of the runs'
    atoms, repeated likewise in numpy.
    """
    support = cdf.support
    den, ends = fn.den, fn.nums
    starts, stops = fn.run_bounds()
    run_values, points = fn.float_values[starts], np.array(support)
    atoms = np.searchsorted(points, run_values).clip(max=len(support) - 1)
    strangers = points[atoms] != run_values
    if strangers.any():
        v = run_values[strangers.argmax()].item()
        raise ValueNotInSupport(f"value {v!r} is not a support point of the CDF")

    # the runs grouped by atom: atom k holds runs[bounds[k]:bounds[k + 1]].
    # Along them, gaps[r] = (length of the grouped runs ahead of run r) -
    # lo[r] steps by hi[r] - lo[r + 1]; a last start at den, which every
    # run is ahead of, closes the steps.  ahead[k] is the length ahead of
    # atom k's runs, so atom k has t_k = ahead[k + 1] - ahead[k].
    runs = np.argsort(atoms, kind="stable")
    counts = np.bincount(atoms, minlength=len(support))
    bounds = [0, *accumulate(counts.tolist())]
    # lists of fn's own end objects, so no index list is alive in the step pass
    lo = [*map(ends.__getitem__, starts[runs].tolist()), den]
    hi = list(map(ends.__getitem__, stops[runs].tolist()))
    gaps = list(accumulate(map(sub, hi, lo[1:]), initial=-lo[0]))
    ahead = [gaps[r] + lo[r] for r in bounds]
    del lo, hi
    totals = list(map(sub, ahead[1:], ahead[:-1]))

    lvl_den, lvl = cdf.den, (0, *cdf.nums)
    for k, total in enumerate(totals):
        weight = lvl[k + 1] - lvl[k]
        if total * lvl_den != weight * den:
            raise DistributionMismatch(
                f"atom {support[k]!r}: source mass {total / den:.17g} vs weight {weight / lvl_den:.17g}"
            )
    # the masses matched, so ahead[k] / G = lvl[k] / L and run r's intercept
    # is gaps[r] / G, shared by its cells (contiguous in source and image)
    cden, grouped = _reduced(den, gaps[:-1])
    del gaps
    intercepts = np.empty(len(grouped), dtype=object)
    intercepts[runs] = grouped
    del grouped

    sizes = None if len(starts) == len(ends) - 1 else stops - starts
    alpha = PiecewiseAffineMap._built(den, ends, (ONE,) * (len(ends) - 1), cden, _per_cell(intercepts, sizes))
    levels = points[atoms]
    level_fn = PiecewiseConstantFn._built(den, ends, levels if sizes is None else levels.repeat(sizes))
    # its value support[k] covers atom k's runs, so its lengths are the totals
    present = np.flatnonzero(counts)
    first_seen = present[np.argsort(runs[np.array(bounds)[present]])].tolist()
    level_fn._lengths = MappingProxyType({support[k]: totals[k] for k in first_seen})
    alpha._level_memo[cdf] = level_fn
    return alpha
