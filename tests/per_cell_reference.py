"""The per-cell passes that the factorization and the cell observable made
before they moved to numpy, kept as oracles: each body is the earlier
library code, with one Python step per cell, calling the earlier run
bounds, reduction and repetition helpers below instead of the library's,
and naming each value by its own exact lookup (``_atom_of``).  Their cell
masses are the per-cell Python integers of ``ref_masses_per_cell``."""

import math
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import lshift, ne, sub
from types import MappingProxyType

import numpy as np

from qcs.errors import DistributionMismatch, DomainGap, ValueNotInSupport
from qcs.measure_maps import PiecewiseAffineMap, PiecewiseConstantFn
from qcs.phase_space import CellObservable
from qcs.spectral import StepCDF

from layout import over_common


def ref_masses_per_cell(measure):
    """(kept, masses, M): the flat indices of the cells of positive mass in
    (sector, position, momentum) order, their masses as Python integers over
    one shared power of two, ks << shifts from the float mantissas, and the
    integers' sum M, so cell i's share of the total is masses[i] / M."""
    ks, shifts = measure._mantissas
    masses = list(map(lshift, ks.tolist(), shifts.tolist()))
    return measure.kept, masses, sum(masses)


def ref_run_bounds(fn):
    """(starts, ends) of the maximal runs of equal adjacent values, compared
    one cell at a time with ``operator.ne``."""
    values = fn.values
    starts = [0, *compress(count(1), map(ne, values, values[1:]))]
    return starts, [*starts[1:], len(values)]


def _reduced(den, nums):
    g = math.gcd(den, *nums)
    return (den, nums) if g == 1 else (den // g, [n // g for n in nums])


def _per_cell(per_run, sizes):
    if sizes is None:
        return per_run
    items = np.empty(len(per_run), dtype=object)
    items[:] = per_run
    return items.repeat(sizes).tolist()


def _atom_of(values, support):
    """Each value's support index by equality, one value at a time; -0.0 ==
    0.0 and they hash alike, so a dict keyed by the support finds either."""
    index = {v: k for k, v in enumerate(support)}
    for v in values:
        if v not in index:
            raise ValueNotInSupport(f"value {v!r} is not a support point of the CDF")
    return index


def ref_factor_against_cdf(fn, cdf):
    support = cdf.support
    atom_of = _atom_of(fn.values, support)
    den, ends = fn.den, fn.nums
    starts, stops = ref_run_bounds(fn)
    atoms = list(map(atom_of.__getitem__, map(fn.values.__getitem__, starts)))
    lo, hi = list(map(ends.__getitem__, starts)), list(map(ends.__getitem__, stops))
    totals = [0] * len(support)
    for k, x, y in zip(atoms, lo, hi):
        totals[k] += y - x

    lvl_den, lvl = cdf.den, [0, *cdf.nums]
    slopes = []
    for k, total in enumerate(totals):
        weight = lvl[k + 1] - lvl[k]
        if total * lvl_den != weight * den:
            raise DistributionMismatch(
                f"atom {support[k]!r}: source mass {total / den:.17g} vs weight {weight / lvl_den:.17g}"
            )
        slopes.append(Fraction(weight * den, total * lvl_den))
    cden = math.lcm(lvl_den, den * math.lcm(*(s.denominator for s in slopes)))
    bases = [v * (cden // lvl_den) for v in lvl]  # lo_k over cden
    per_unit = [s.numerator * (cden // (s.denominator * den)) for s in slopes]  # s_k / G

    # one intercept per run, in source order; a run's cells are contiguous
    # in source and in image, so they share its slope and intercept
    before = [0] * len(support)
    intercepts = []
    for x, y, k in zip(lo, hi, atoms):
        b = before[k]
        before[k] = b + y - x
        intercepts.append(bases[k] + per_unit[k] * (b - x))
    cden, intercepts = _reduced(cden, intercepts)
    sizes = None if len(starts) == len(fn.values) else list(map(sub, stops, starts))
    piece_slopes = tuple(_per_cell(list(map(slopes.__getitem__, atoms)), sizes))
    alpha = PiecewiseAffineMap._built(den, ends, piece_slopes, cden, _per_cell(intercepts, sizes))
    levels = _per_cell(list(map(support.__getitem__, atoms)), sizes)
    level_fn = PiecewiseConstantFn._built(den, ends, np.array(levels, dtype=float))
    # its value support[k] covers atom k's runs, so its lengths are the totals
    level_fn._lengths = MappingProxyType({support[k]: totals[k] for k in dict.fromkeys(atoms)})
    alpha._level_memo[cdf] = level_fn
    return alpha


def ref_cell_observable(cell_values, measure):
    kept, masses, total = ref_masses_per_cell(measure)
    flat = np.asarray(cell_values, dtype=float).ravel()[kept]
    if not np.isfinite(flat).all():
        raise DomainGap("cell values must be finite")
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    change = ranked[1:] != ranked[:-1]
    running = list(accumulate(map(masses.__getitem__, order.tolist())))
    prefix = [running[i] for i in np.flatnonzero(np.append(change, True)).tolist()]
    support = ranked[np.flatnonzero(np.insert(change, 0, True))].tolist()
    cdf = StepCDF(tuple(support), *over_common(Fraction(p, total) for p in prefix))
    return CellObservable(cell_values, cdf)


def ref_shared_barrier_joint_gap(state):
    """The joint gap with the cell masses summed per key in a dict, one
    cell at a time: the joint table keyed by (q, p) value pairs and each
    marginal by value."""
    measure = state.measure
    kept, masses, total = ref_masses_per_cell(measure)
    shape = measure.masses.shape
    qs = np.broadcast_to(measure.q_grid[None, :, None], shape).ravel()[kept].tolist()
    ps = np.broadcast_to(measure.p_grid[None, None, :], shape).ravel()[kept].tolist()
    joint, q_mass, p_mass = {}, {}, {}
    for q, p, m in zip(qs, ps, masses):
        joint[q, p] = joint.get((q, p), 0) + m
        q_mass[q] = q_mass.get(q, 0) + m
        p_mass[p] = p_mass.get(p, 0) + m
    q_support, p_support = sorted(q_mass), sorted(p_mass)
    q_levels = [0, *accumulate(q_mass[v] for v in q_support)]
    p_levels = [0, *accumulate(p_mass[v] for v in p_support)]
    gap = 0
    for i, qv in enumerate(q_support):
        for j, pv in enumerate(p_support):
            comonotone = max(0, min(q_levels[i + 1], p_levels[j + 1]) - max(q_levels[i], p_levels[j]))
            gap = max(gap, abs(joint.get((qv, pv), 0) - comonotone))
    return Fraction(gap, total)
