"""Exact calculus of measure-preserving piecewise-affine maps on ]0,1[.

All breakpoint arithmetic is done with ``fractions.Fraction``; floats entering
from spectral data are converted exactly (every double is rational), so
pushforwards, compositions, inversions and preimage measures are computed by
interval algebra with no sampling and no rounding.  Functions are understood
almost everywhere: single points are null, and "equal a.e." means equal off
finitely many breakpoints.

Pieces are left-open right-closed, matching the ]a,b] calculus used by the
step CDFs in :mod:`qcs.spectral`.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    BadSpec,
    DistributionMismatch,
    NotInjective,
    OutOfDomain,
    ValueNotInSupport,
)
from .spectral import EIGENVALUE_MERGE_TOL, StepCDF, spectral_scale

RationalLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)
DENSITY_TOL = Fraction(1, 10**12)
MATCH_TOL = Fraction(1, 10**12)
# compose_with_map's float filter: a bound on the rounding error of
# slope * z + intercept in floats, relative to |slope * z| + |intercept|
# (a few units in the last place), and per unit of |slope| for operands
# that underflow to subnormals
_ROUNDING_MARGIN = 2.0**-50
_UNDERFLOW_MARGIN = 2.0**-1000

Interval = tuple[Fraction, Fraction]


def to_fraction(x: RationalLike) -> Fraction:
    """Exact rational from int, Fraction, float (exact binary value) or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


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
# Piecewise-affine maps

@dataclass(frozen=True)
class AffinePiece:
    """z -> slope*z + intercept on the source interval ]lo, hi]."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __call__(self, z: Fraction) -> Fraction:
        return self.slope * z + self.intercept

    def image_bounds(self) -> tuple[Fraction, Fraction]:
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, eq=False)
class PiecewiseAffineMap:
    """Borel map ]0,1[ -> [0,1] made of finitely many affine pieces.

    Sources tile ]0,1] contiguously; the value at a breakpoint follows the
    ]lo,hi] convention but is never relied on (breakpoints are null).
    """

    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise BadSpec("map needs at least one piece")
        if pieces[0].lo != ZERO or pieces[-1].hi != ONE:
            raise BadSpec("pieces must cover ]0,1]")
        for p, q in zip(pieces, pieces[1:]):
            if p.hi != q.lo:
                raise BadSpec("pieces must tile ]0,1] without gaps or overlaps")
        for p in pieces:
            if p.hi <= p.lo:
                raise BadSpec("piece source interval is empty")
            if p.slope == 0:
                raise BadSpec("piece slope must be nonzero")
            lo_im, hi_im = p.image_bounds()
            if lo_im < ZERO or hi_im > ONE:
                raise BadSpec("piece image escapes [0,1]")

    @classmethod
    def _built(cls, pieces: tuple[AffinePiece, ...]) -> "PiecewiseAffineMap":
        """A kernel output, not re-validated: its pieces tile ]0,1] with
        nonzero slopes and images in [0,1] by construction."""
        m = object.__new__(cls)
        object.__setattr__(m, "pieces", pieces)
        return m

    @cached_property
    def _ends(self) -> list[Fraction]:
        return [p.hi for p in self.pieces]

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return (ZERO,) + tuple(self._ends)

    def piece_at(self, z: Fraction) -> AffinePiece:
        if not (ZERO < z <= ONE):
            raise OutOfDomain(f"label {z} outside ]0,1]")
        return self.pieces[bisect.bisect_left(self._ends, z)]

    def __call__(self, z: RationalLike) -> Fraction:
        z = to_fraction(z)
        if not (ZERO < z < ONE):
            raise OutOfDomain(f"label {z} outside ]0,1[")
        return self.piece_at(z)(z)

    def is_breakpoint(self, z: RationalLike) -> bool:
        z = to_fraction(z)
        return z in self.breakpoints

    @cached_property
    def float_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(piece right ends, slopes, intercepts) as float arrays, for sampling."""
        ends = np.array([float(p.hi) for p in self.pieces])
        slopes = np.array([float(p.slope) for p in self.pieces])
        intercepts = np.array([float(p.intercept) for p in self.pieces])
        return ends, slopes, intercepts

    def evaluate_floats(self, z: np.ndarray) -> np.ndarray:
        """Fast float evaluation; callers must keep z away from breakpoints."""
        ends, slopes, intercepts = self.float_arrays
        idx = np.searchsorted(ends, z, side="left")
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        return slopes[idx] * z + intercepts[idx]

    @cached_property
    def measure_preserving(self) -> bool:
        return verify_measure_preserving(self)


def map_equal_ae(m1: PiecewiseAffineMap, m2: PiecewiseAffineMap) -> bool:
    """Exact a.e. equality: same affine coefficients wherever two pieces overlap.

    Walks both piece lists together, so each overlapping pair is met once.
    """
    i = j = 0
    while i < len(m1.pieces):
        p, q = m1.pieces[i], m2.pieces[j]
        if p.slope != q.slope or p.intercept != q.intercept:
            return False
        if p.hi <= q.hi:
            i += 1
        if q.hi <= p.hi:
            j += 1
    return True


# ---------------------------------------------------------------------------
# Densities

@dataclass(frozen=True, eq=False)
class PiecewiseConstantDensity:
    """Atomless density on ]0,1] with constant value on each cell."""

    cells: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        cells = tuple((to_fraction(a), to_fraction(b), to_fraction(d)) for a, b, d in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells or cells[0][0] != ZERO or cells[-1][1] != ONE:
            raise BadSpec("density cells must cover ]0,1]")
        for a, b, d in cells:
            if b <= a or d < 0:
                raise BadSpec("density cells must be nonempty with nonnegative values")
        for (_, b, _), (a2, _, _) in zip(cells, cells[1:]):
            if b != a2:
                raise BadSpec("density cells must tile ]0,1]")

    @property
    def mass(self) -> Fraction:
        return sum(((b - a) * d for a, b, d in self.cells), ZERO)


def pushforward_density(m: PiecewiseAffineMap) -> PiecewiseConstantDensity:
    """Exact image density of Lebesgue measure: on each image cell, the sum
    of 1 / |slope| over the pieces whose image covers it.

    Uses a sweep over image endpoints, so it stays near-linear in the number
    of pieces.  Mass is preserved exactly.
    """
    deltas: dict[Fraction, Fraction] = defaultdict(lambda: ZERO)
    for piece in m.pieces:
        im_lo, im_hi = piece.image_bounds()
        dens = 1 / abs(piece.slope)
        deltas[im_lo] += dens
        deltas[im_hi] -= dens
    deltas[ZERO] += ZERO
    deltas[ONE] += ZERO
    points = sorted(deltas)
    cells: list[tuple[Fraction, Fraction, Fraction]] = []
    level = ZERO
    for pt, nxt in zip(points, points[1:]):
        level += deltas[pt]
        if nxt > pt:
            if cells and cells[-1][2] == level:
                a, _, dd = cells[-1]
                cells[-1] = (a, nxt, dd)
            else:
                cells.append((pt, nxt, level))
    return PiecewiseConstantDensity(tuple(cells))


def verify_measure_preserving(m: PiecewiseAffineMap) -> bool:
    """True iff pushing the uniform density through m gives density 1
    everywhere, to within DENSITY_TOL."""
    image = pushforward_density(m)
    return all(abs(dens - ONE) <= DENSITY_TOL for _, _, dens in image.cells)


# ---------------------------------------------------------------------------
# Map composition and inversion

def compose(outer: PiecewiseAffineMap, inner: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact composition outer(inner(z)); agrees pointwise off breakpoints.

    The image ]im_lo, im_hi] of an inner piece meets the outer pieces i..j,
    found by bisecting the outer piece ends; the inner piece is cut at the
    preimages of the ends strictly inside its image, and its k-th sub-interval
    (counted from the image's low end) is composed with outer piece i + k.
    """
    pieces: list[AffinePiece] = []
    ends = outer._ends
    for p in inner.pieces:
        im_lo, im_hi = p.image_bounds()
        i = bisect.bisect_right(ends, im_lo)
        j = bisect.bisect_left(ends, im_hi, i)
        cuts = [(c - p.intercept) / p.slope for c in ends[i:j]]
        outers = outer.pieces[i : j + 1]
        if p.slope < 0:
            cuts.reverse()
            outers = outers[::-1]
        grid = [p.lo, *cuts, p.hi]
        for lo, hi, q in zip(grid, grid[1:], outers):
            pieces.append(AffinePiece(lo, hi, q.slope * p.slope, q.slope * p.intercept + q.intercept))
    return PiecewiseAffineMap._built(tuple(pieces))


def invert(m: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Inverse of an a.e. bijection; raises NotInjective when images overlap
    or fail to cover ]0,1[ up to finitely many points."""
    images = []
    for p in m.pieces:
        lo_im, hi_im = p.image_bounds()
        images.append((lo_im, hi_im, p))
    images.sort(key=lambda t: (t[0], t[1]))
    cursor = ZERO
    inv_pieces = []
    for lo_im, hi_im, p in images:
        if lo_im != cursor:
            kind = "overlap" if lo_im < cursor else "gap"
            raise NotInjective(f"piece images have a {kind} near {float(cursor):.6g}")
        inv_pieces.append(AffinePiece(lo_im, hi_im, 1 / p.slope, -p.intercept / p.slope))
        cursor = hi_im
    if cursor != ONE:
        raise NotInjective("piece images do not cover ]0,1]")
    return PiecewiseAffineMap._built(tuple(inv_pieces))


# ---------------------------------------------------------------------------
# Preimages

def preimage_intervals(m: PiecewiseAffineMap, lo: Fraction, hi: Fraction) -> list[Interval]:
    """Exact preimage of the level set ]lo, hi] as a normalized interval list."""
    lo, hi = to_fraction(lo), to_fraction(hi)
    if hi <= lo:
        return []
    out = []
    for p in m.pieces:
        if p.slope > 0:
            a = (lo - p.intercept) / p.slope
            b = (hi - p.intercept) / p.slope
        else:
            a = (hi - p.intercept) / p.slope
            b = (lo - p.intercept) / p.slope
        a, b = max(a, p.lo), min(b, p.hi)
        if b > a:
            out.append((a, b))
    return normalize_intervals(out)


def preimage_measure(m: PiecewiseAffineMap, lo: Fraction, hi: Fraction) -> Fraction:
    return intervals_measure(preimage_intervals(m, lo, hi))


# ---------------------------------------------------------------------------
# Piecewise-constant functions on ]0,1]

@dataclass(frozen=True, eq=False)
class PiecewiseConstantFn:
    """Real function constant on each cell ]b_{i-1}, b_i] of a partition of ]0,1]."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(to_fraction(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) + 1 or not vals:
            raise BadSpec("need n+1 breakpoints for n cells")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise BadSpec("cells must cover ]0,1]")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise BadSpec("breakpoints must be strictly ascending")

    @classmethod
    def _built(cls, breakpoints: tuple[Fraction, ...], values: tuple[float, ...]) -> "PiecewiseConstantFn":
        """A kernel output, not re-validated: strictly ascending rational
        breakpoints from 0 to 1 and one float value per cell by construction."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "breakpoints", breakpoints)
        object.__setattr__(fn, "values", values)
        return fn

    def __call__(self, z: RationalLike) -> float:
        z = to_fraction(z)
        if not (ZERO < z <= ONE):
            raise OutOfDomain(f"{z} outside ]0,1]")
        return self.values[bisect.bisect_left(self.breakpoints, z) - 1]

    def cells(self) -> Iterable[tuple[Fraction, Fraction, float]]:
        for lo, hi, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            yield lo, hi, v

    def map_values(self, fn) -> "PiecewiseConstantFn":
        return PiecewiseConstantFn(self.breakpoints, tuple(fn(v) for v in self.values))

    def runs(self) -> Iterable[tuple[int, int, float]]:
        """(start, end, v) per maximal run of equal adjacent values: the
        cells start..end-1, that is ]b_start, b_end], all take the value v."""
        values = self.values
        start, prev = 0, values[0]
        for end, v in enumerate(values):
            if v != prev:
                yield start, end, prev
                start, prev = end, v
        yield start, len(values), prev

    def masses_by_value(self) -> dict[float, Fraction]:
        """Exact pushforward of Lebesgue measure: total cell length per value,
        in order of first appearance.

        Each run of equal adjacent values adds the numerators of its two ends
        to integer sums keyed by (value, denominator); each value's mass is
        then one ``Fraction`` per denominator, added exactly.
        """
        sums: dict[float, dict[int, int]] = {}
        bps = self.breakpoints
        for start, end, v in self.runs():
            by_den = sums.get(v)
            if by_den is None:
                by_den = sums[v] = {}
            lo, hi = bps[start], bps[end]
            by_den[hi.denominator] = by_den.get(hi.denominator, 0) + hi.numerator
            by_den[lo.denominator] = by_den.get(lo.denominator, 0) - lo.numerator
        return {
            v: sum((Fraction(n, d) for d, n in by_den.items()), ZERO)
            for v, by_den in sums.items()
        }

    def disagreement(self, other: "PiecewiseConstantFn") -> Fraction:
        """Exact Lebesgue measure of the set where self and other differ.

        Walks both breakpoint lists together, so each cell of the merged
        partition is met once.
        """
        a, b = self.breakpoints, other.breakpoints
        total, lo = ZERO, ZERO
        i = j = 1
        while i < len(a):
            hi = min(a[i], b[j])
            if self.values[i - 1] != other.values[j - 1]:
                total += hi - lo
            if a[i] == hi:
                i += 1
            if b[j] == hi:
                j += 1
            lo = hi
        return total

    def equal_ae(self, other: "PiecewiseConstantFn") -> bool:
        """Exact equality off breakpoints."""
        return self.disagreement(other) == 0

    def compose_with_map(self, m: PiecewiseAffineMap) -> "PiecewiseConstantFn":
        """Exact f(m(z)) as a piecewise-constant function of z.

        The image ]im_lo, im_hi] of a piece of m meets the cells i..j of f,
        found by bisecting the interior breakpoints; the piece is cut at the
        preimages of the breakpoints strictly inside its image, and its
        sub-cells take values[i..j], reversed when the slope is negative.

        A float filter decides most pieces without exact arithmetic.  The
        image ends are evaluated in floats and widened by a bound on their
        rounding error (``_ROUNDING_MARGIN`` of the terms' magnitude, plus
        ``_UNDERFLOW_MARGIN`` times the slope's for subnormal operands), so
        the float interval [lo, hi] contains the exact image.  Rounding a
        rational to the nearest float is monotone, so float(e_k) < lo
        implies e_k < lo, and hi < float(e_{k+1}) implies hi < e_{k+1}: the
        piece then lies inside cell k, and is emitted whole with value k.
        Near ties, images that span a breakpoint, and coefficients too large
        for a float take the exact path.
        """
        edges, values = self.breakpoints, self.values
        interior = edges[1:-1]
        # float edges; a NaN image end finds no cell, and an end above 1
        # cannot occur because every piece's image lies in [0, 1]
        float_edges = [e.numerator / e.denominator for e in edges]
        bps, vals = [ZERO], []
        slope = intercept = None
        z_hi = 0.0
        for p in m.pieces:
            hi = p.hi
            z_lo, z_hi = z_hi, hi.numerator / hi.denominator
            try:
                if p.slope is not slope:
                    slope = p.slope
                    rising = slope > 0
                    fs = slope.numerator / slope.denominator
                    tiny = (abs(fs) + 2.0) * _UNDERFLOW_MARGIN
                if p.intercept is not intercept:
                    intercept = p.intercept
                    fc = intercept.numerator / intercept.denominator
                    abs_fc = abs(fc)
            except OverflowError:
                slope = intercept = None
            else:
                at_lo, at_hi = fs * z_lo, fs * z_hi
                err_lo = (abs(at_lo) + abs_fc) * _ROUNDING_MARGIN + tiny
                err_hi = (abs(at_hi) + abs_fc) * _ROUNDING_MARGIN + tiny
                if rising:
                    lo_f, hi_f = at_lo + fc - err_lo, at_hi + fc + err_hi
                else:
                    lo_f, hi_f = at_hi + fc - err_hi, at_lo + fc + err_lo
                k = bisect.bisect_left(float_edges, lo_f) - 1
                if k >= 0 and hi_f < float_edges[k + 1]:
                    bps.append(hi)
                    vals.append(values[k])
                    continue
            s, c = p.slope, p.intercept
            start, end = s * p.lo + c, s * hi + c
            im_lo, im_hi = (start, end) if s > 0 else (end, start)
            i = bisect.bisect_right(interior, im_lo)
            j = bisect.bisect_left(interior, im_hi, i)
            cuts = [(e - c) / s for e in interior[i:j]]
            cell_values = values[i : j + 1]
            if s < 0:
                cuts.reverse()
                cell_values = cell_values[::-1]
            bps += cuts
            bps.append(hi)
            vals += cell_values
        return PiecewiseConstantFn._built(tuple(bps), tuple(vals))


def quantile_pcf(cdf: StepCDF) -> PiecewiseConstantFn:
    """The quantile function of a step CDF as an exact piecewise-constant function."""
    return PiecewiseConstantFn((ZERO,) + cdf.exact_levels, cdf.support)


def level_function(cdf: StepCDF, m: PiecewiseAffineMap) -> PiecewiseConstantFn:
    """The deterministic outcome z -> quantile(cdf, m(z)) as an exact function."""
    return quantile_pcf(cdf).compose_with_map(m)


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
            perm = tuple(int(i) for i in self.perm or ())
            object.__setattr__(self, "lengths", lengths)
            object.__setattr__(self, "perm", perm)
            if not lengths or any(x <= 0 for x in lengths):
                raise BadSpec("block lengths must be positive")
            if sum(lengths) != ONE:
                raise BadSpec("block lengths must sum to 1")
            if sorted(perm) != list(range(len(lengths))):
                raise BadSpec("perm must be a permutation of the blocks")
        elif self.kind == "expanding":
            if self.k is None or int(self.k) < 2:
                raise BadSpec("expanding factor must be an integer >= 2")
            object.__setattr__(self, "k", int(self.k))
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
        except (TypeError, ValueError, ZeroDivisionError) as exc:
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


def build_map(spec: MapSpec) -> PiecewiseAffineMap:
    """Materialize a MapSpec as an exact piecewise-affine map."""
    if spec.kind == "identity":
        return PiecewiseAffineMap((AffinePiece(ZERO, ONE, ONE, ZERO),))
    if spec.kind == "rotation":
        c = spec.c
        if c == ZERO:
            return build_map(MapSpec.identity())
        return PiecewiseAffineMap(
            (
                AffinePiece(ZERO, ONE - c, ONE, c),
                AffinePiece(ONE - c, ONE, ONE, c - ONE),
            )
        )
    if spec.kind == "interval_exchange":
        lengths, perm = spec.lengths, spec.perm
        starts = [sum(lengths[:i], ZERO) for i in range(len(lengths))]
        pieces = []
        for i, length in enumerate(lengths):
            target = sum((lengths[j] for j in range(len(lengths)) if perm[j] < perm[i]), ZERO)
            pieces.append(AffinePiece(starts[i], starts[i] + length, ONE, target - starts[i]))
        return PiecewiseAffineMap(tuple(pieces))
    if spec.kind == "expanding":
        k = spec.k
        pieces = [
            AffinePiece(Fraction(i, k), Fraction(i + 1, k), Fraction(k), Fraction(-i))
            for i in range(k)
        ]
        return PiecewiseAffineMap(tuple(pieces))
    built = build_map(spec.maps[0])
    for sub in spec.maps[1:]:
        built = compose(build_map(sub), built)
    return built


# ---------------------------------------------------------------------------
# Constructive factorization against a step CDF

def atoms_of(values: Iterable[float], support: Sequence[float]) -> dict[float, int]:
    """The index of the support point that names each value: the one within
    ``EIGENVALUE_MERGE_TOL`` times the spectral scale of both, the gap within
    which ``borel_apply`` merges images into one atom.  Raises
    ValueNotInSupport for a value that no support point names."""
    values = list(values)
    tol = EIGENVALUE_MERGE_TOL * spectral_scale([*support, *values])
    atom_of: dict[float, int] = {}
    for v in values:
        idx = bisect.bisect_left(support, v)
        best = None
        for j in (idx - 1, idx):
            if 0 <= j < len(support) and abs(v - support[j]) <= tol:
                best = j
        if best is None:
            raise ValueNotInSupport(f"value {v!r} is not a support point of the CDF")
        atom_of[v] = best
    return atom_of


def factor_against_cdf(fn: PiecewiseConstantFn, cdf: StepCDF) -> PiecewiseAffineMap:
    """Factor fn through the quantile of cdf: find a measure-preserving map a
    with quantile(cdf, a(z)) = fn(z) off finitely many breakpoints.

    Each source cell where fn takes the k-th support value is sent, order
    preserving, onto a chunk of the k-th level interval; the slope is the
    ratio of the level-interval length to the total source length, so the
    result is exactly measure preserving whenever the pushforward of fn
    matches the CDF atom weights exactly.  Each value of fn names its
    support point by ``atoms_of``.

    The arithmetic is on integers: the run ends of fn are numerators over
    their common denominator D, and the exact levels numerators over theirs,
    L.  Atom k has source length t_k / D and level interval
    ]lo_k / L, (lo_k + w_k) / L], and a run of it that starts at s / D,
    after earlier runs of total length b_k / D, has the intercept
    (lo_k t_k + w_k (b_k - s)) / (t_k L): one ``Fraction`` per run.
    """
    support = cdf.support
    atom_of = atoms_of(set(fn.values), support)
    bps = fn.breakpoints

    # Pass 1: per atom, the run ends' numerators summed per denominator;
    # each run starts where the one before it ends, at 0 / 1 for the first.
    sums: list[dict[int, int]] = [{} for _ in support]
    lo_num, lo_den = 0, 1
    for _, end, v in fn.runs():
        by_den = sums[atom_of[v]]
        hi = bps[end]
        hi_num, hi_den = hi.numerator, hi.denominator
        by_den[hi_den] = by_den.get(hi_den, 0) + hi_num
        by_den[lo_den] = by_den.get(lo_den, 0) - lo_num
        lo_num, lo_den = hi_num, hi_den
    dens = {d for by_den in sums for d in by_den}
    src_den = math.lcm(*dens)
    scale = {d: src_den // d for d in dens}
    totals = [sum(n * scale[d] for d, n in by_den.items()) for by_den in sums]

    exact = cdf.exact_levels
    lvl_den = math.lcm(*(c.denominator for c in exact))
    lvl = [0] + [c.numerator * (lvl_den // c.denominator) for c in exact]
    atoms = []  # per atom: (lo_k t_k, w_k, t_k L, slope)
    for k, total in enumerate(totals):
        weight = lvl[k + 1] - lvl[k]
        if total * lvl_den != weight * src_den and (
            total == 0 or abs(Fraction(total, src_den) - Fraction(weight, lvl_den)) > MATCH_TOL
        ):
            raise DistributionMismatch(
                f"atom {support[k]!r}: source mass {total / src_den:.17g} vs weight {weight / lvl_den:.17g}"
            )
        atoms.append((lvl[k] * total, weight, total * lvl_den, Fraction(weight * src_den, total * lvl_den)))

    # Pass 2, in source order; a run's cells are contiguous in source and in
    # image, so they share its intercept.
    before = [0] * len(support)
    pieces = []
    append = pieces.append
    hi_num = 0
    for start, end, v in fn.runs():
        k = atom_of[v]
        base, weight, den, slope = atoms[k]
        hi = bps[end]
        lo_num, hi_num = hi_num, hi.numerator * scale[hi.denominator]
        offset = before[k] - lo_num
        before[k] = offset + hi_num
        intercept = Fraction(base + weight * offset, den)
        for t in range(start, end):
            append(AffinePiece(bps[t], bps[t + 1], slope, intercept))
    return PiecewiseAffineMap._built(tuple(pieces))
