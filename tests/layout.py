"""Conversions between (lo, hi, slope, intercept) pieces with ``Fraction``
entries and the integer layout of maps and piecewise-constant functions,
for the tests' piece-based references and hand-written inputs."""

import bisect
import math
from fractions import Fraction

from qcs.measure_maps import PiecewiseAffineMap, PiecewiseConstantFn


def over_common(fracs):
    """(den, nums): fracs as integer numerators over their least common denominator."""
    fracs = [Fraction(f) for f in fracs]
    den = math.lcm(*(f.denominator for f in fracs))
    return den, [f.numerator * (den // f.denominator) for f in fracs]


def map_of(pieces):
    """The map with these pieces, through the checking constructor; a slope
    object shared by several pieces stays shared."""
    pieces = list(pieces)
    ends = [p[0] for p in pieces[:1]] + [p[1] for p in pieces]
    return PiecewiseAffineMap(*over_common(ends), [p[2] for p in pieces], *over_common(p[3] for p in pieces))


def ends_of(obj):
    """The ends of a map's pieces or a function's cells, as ``Fraction`` objects."""
    return [Fraction(n, obj.den) for n in obj.nums]


def pieces_of(m):
    """m's pieces as (lo, hi, slope, intercept) tuples."""
    ends = ends_of(m)
    return list(zip(ends, ends[1:], m.slopes, (Fraction(c, m.cden) for c in m.cnums)))


def piece_at(m, z):
    """The piece of m whose source interval ]lo, hi] holds z in ]0,1]."""
    t = bisect.bisect_left(m.nums, z * m.den) - 1
    lo, hi = Fraction(m.nums[t], m.den), Fraction(m.nums[t + 1], m.den)
    return lo, hi, m.slopes[t], Fraction(m.cnums[t], m.cden)


def image_bounds(piece):
    """The ends of a piece's image, ascending."""
    lo, hi, slope, intercept = piece
    return tuple(sorted((slope * lo + intercept, slope * hi + intercept)))


def fn_of(breakpoints, values):
    """The function taking values[i] on ]breakpoints[i], breakpoints[i + 1]],
    through the checking constructor."""
    return PiecewiseConstantFn(*over_common(breakpoints), values)


def cells_of(fn):
    """fn's cells as (lo, hi, value) tuples."""
    ends = ends_of(fn)
    return list(zip(ends, ends[1:], fn.values))
