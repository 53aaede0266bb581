"""Discretized phase space for a particle with spin on a periodic grid.

The label space is one (q, p) grid of rectangular cells per spin sector.
The state-dependent measure puts, on each sector with nonzero norm, the
product of the position density and the momentum density (unitary DFT),
normalized by the sector mass.  Functions of position, of momentum, and the
sector label itself then have label distributions that match the matrix-side
spectral distributions, which is exactly what the checks verify.

The measure is genuinely atomless: cells are rectangles carrying constant
density, never point masses.  A canonical equivalence onto ]0,1[ (cells in
sector, then position, then momentum order, each occupying an interval of
length equal to its mass) lets every barrier tool operate on these labels.

Cell masses are held once, as integers: every positive float mass is
m_i / 2^E for one shared E, and cell i has the exact share m_i / M of the
total M = sum m_i.  The equivalence's bounds and every cell observable's
CDF levels are prefix sums of these integers over M, so the two agree
exactly and nothing is dropped.  The equivalence takes the masses as
Python integers; an observable sums them per atom in numpy, over int64
limbs of the same integers (``PhaseSpaceMeasure.mass_limbs``), so no pass
over the cells runs in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, lshift
from typing import Sequence

import numpy as np

from .errors import BadSpec, DomainGap, NotNormalized
from .measure_maps import (
    PiecewiseAffineMap,
    PiecewiseConstantFn,
    check_partition,
    factor_against_cdf,
    joint_lengths,
)
from .spectral import PiecewiseFn, StepCDF, float_mantissas

MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhaseSpaceState:
    """Per-sector complex amplitudes on an N-point grid with spacing dq.

    ``spin`` is a half-integer; sectors run from -spin to spin in unit steps.
    The momentum grid is the DFT frequency grid scaled by 2*pi, with spacing
    dp = 2*pi / (N * dq); the DFT is unitary so sector masses agree in both
    representations.
    """

    spin: Fraction
    amplitudes: np.ndarray
    dq: float

    def __post_init__(self):
        spin = Fraction(self.spin)
        if spin < 0 or (2 * spin).denominator != 1:
            raise BadSpec("spin must be a nonnegative half-integer")
        object.__setattr__(self, "spin", spin)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise BadSpec("amplitudes must be a (sectors, grid) array")
        n_sectors = int(2 * spin) + 1
        if amps.shape[0] != n_sectors or amps.shape[1] < 2:
            raise BadSpec(
                f"expected {n_sectors} sectors and at least 2 grid points, got {amps.shape}"
            )
        if not float(self.dq) > 0:
            raise BadSpec("grid spacing must be positive")
        object.__setattr__(self, "dq", float(self.dq))
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if not 0 < self.dp < math.inf:
            raise BadSpec(f"momentum spacing 2*pi / (N * dq) = {self.dp!r} is not positive and finite")
        total = math.fsum(float(x) for x in (np.abs(amps) ** 2).ravel()) * self.dq
        if not abs(total - 1.0) <= MASS_TOL:  # also rejects a NaN mass
            raise NotNormalized(f"total mass {total!r} is not 1 within {MASS_TOL}")

    @classmethod
    def normalized(cls, spin, raw: Sequence[Sequence[complex]], dq: float) -> "PhaseSpaceState":
        amps = np.asarray(raw, dtype=complex)
        if amps.ndim == 1:
            amps = amps[None, :]
        total = math.sqrt(math.fsum(float(x) for x in (np.abs(amps) ** 2).ravel()) * float(dq))
        if total == 0:
            raise NotNormalized("cannot normalize the zero state")
        return cls(Fraction(spin), amps / total, float(dq))

    @property
    def n_sectors(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_points(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def dp(self) -> float:
        return 2 * math.pi / (self.n_points * self.dq)

    @cached_property
    def sector_labels(self) -> tuple[Fraction, ...]:
        return tuple(-self.spin + k for k in range(self.n_sectors))

    @cached_property
    def q_grid(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dq

    @cached_property
    def p_grid_unsorted(self) -> np.ndarray:
        return 2 * math.pi * np.fft.fftfreq(self.n_points, d=self.dq)

    @cached_property
    def p_order(self) -> np.ndarray:
        return np.argsort(self.p_grid_unsorted)

    @cached_property
    def p_grid(self) -> np.ndarray:
        return self.p_grid_unsorted[self.p_order]

    @cached_property
    def momentum_amplitudes(self) -> np.ndarray:
        """Momentum wavefunctions in sorted-momentum order; Parseval holds:
        sum |psi_hat|^2 dp = sum |psi|^2 dq per sector."""
        hat = np.fft.fft(self.amplitudes, axis=1, norm="ortho") * math.sqrt(self.dq / self.dp)
        return hat[:, self.p_order]

    @cached_property
    def measure(self) -> "PhaseSpaceMeasure":
        """The product-per-sector measure (see ``build_measure``), built once."""
        kept_labels, blocks, hat = [], [], self.momentum_amplitudes
        for s in range(self.n_sectors):
            qdens = (np.abs(self.amplitudes[s]) ** 2) * self.dq
            pdens = (np.abs(hat[s]) ** 2) * self.dp
            mass = math.fsum(float(x) for x in qdens)
            if mass == 0.0:
                continue
            kept_labels.append(self.sector_labels[s])
            blocks.append(np.outer(qdens, pdens) / mass)
        if not blocks:
            raise NotNormalized("state has no sector with positive mass")
        return PhaseSpaceMeasure(tuple(kept_labels), np.stack(blocks), self.q_grid, self.p_grid)

    def sector_masses(self) -> np.ndarray:
        return np.array(
            [
                math.fsum(float(x) for x in np.abs(self.amplitudes[s]) ** 2) * self.dq
                for s in range(self.n_sectors)
            ]
        )


@dataclass(frozen=True, eq=False)
class PhaseSpaceMeasure:
    """Cell masses per kept (nonzero) sector, momentum axis in sorted order."""

    sector_labels: tuple[Fraction, ...]
    masses: np.ndarray
    q_grid: np.ndarray
    p_grid: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 3 or m.shape[0] != len(self.sector_labels):
            raise BadSpec("masses must be (sectors, q, p)")
        if m.min() < 0:
            raise BadSpec("cell masses must be nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)
        total = math.fsum(m.ravel().tolist())
        if not abs(total - 1.0) <= MASS_TOL:  # also rejects a NaN mass
            raise NotNormalized(f"total mass {total!r} is not 1 within {MASS_TOL}")

    def q_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=(0, 2))

    def p_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=(0, 1))

    @cached_property
    def kept(self) -> np.ndarray:
        """The flat indices of the cells of positive mass, in (sector,
        position, momentum) order."""
        return np.flatnonzero(self.masses.ravel() > 0.0)

    @cached_property
    def _mantissas(self) -> tuple[np.ndarray, np.ndarray]:
        """(ks, shifts): kept cell i's float mass is exactly
        (ks[i] << shifts[i]) / 2^E (``float_mantissas``), so its share of
        the total is its integer mass over the integers' sum M."""
        return float_mantissas(self.masses.ravel()[self.kept])

    @cached_property
    def mass_limbs(self) -> tuple[np.ndarray, int]:
        """(limbs, B): the integer masses ks << shifts of the kept cells
        cut into int64 limbs of B bits, cell i's mass being the sum over j of
        limbs[j, i] << (j * B).  B comes from ``limb_width``, so a sum of
        limbs over any set of cells stays exact in int64.  Built once, in
        numpy, from the mantissas and shifts of the float masses."""
        ks, shifts = self._mantissas
        width, count = limb_width(len(ks), 53 + int(shifts.max()))
        limbs = np.empty((count, len(ks)), dtype=np.int64)
        for j in range(count):
            # bits j*B .. j*B + B - 1 of ks << shifts
            at = shifts - j * width
            right, left = np.clip(-at, 0, 63), np.clip(at, 0, width)
            limbs[j] = ((ks >> right) & ((1 << (width - left)) - 1)) << left
        return limbs, width

    def masses_by_key(self, keys: np.ndarray) -> tuple[list, list[int]]:
        """The distinct values of ``keys`` (one per kept cell) in ascending
        order, and the integer mass of the cells that carry each: a stable
        sort puts each value's cells together, and ``group_masses`` sums
        them."""
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        firsts = np.flatnonzero(np.insert(ranked[1:] != ranked[:-1], 0, True))
        return ranked[firsts].tolist(), self.group_masses(order, firsts)

    def group_masses(self, order: np.ndarray, firsts: np.ndarray) -> list[int]:
        """The integer mass of each group of kept cells: group g is the
        cells order[firsts[g]:firsts[g + 1]], the last running to the end.
        One ``np.add.reduceat`` per limb sums the groups in int64; only the
        limbs of each group's sum are joined in Python."""
        limbs, width = self.mass_limbs
        sums = np.add.reduceat(limbs[:, order], firsts, axis=1)
        masses = sums[-1].tolist()
        for row in sums[-2::-1]:
            masses = list(map(add, map(lshift, masses, repeat(width)), row.tolist()))
        return masses


def limb_width(cells: int, bits: int) -> tuple[int, int]:
    """(B, L): L limbs of B bits hold an integer of ``bits`` bits, and the
    sum of up to ``cells`` such limbs is below 2^63."""
    width = 63 - cells.bit_length()
    assert cells << width < 1 << 63
    return width, -(-bits // width)


def build_measure(state: PhaseSpaceState) -> PhaseSpaceMeasure:
    """Product-per-sector measure; sectors with zero mass are omitted.  It is
    computed once per state, and its observables share its integer masses."""
    return state.measure


@dataclass(frozen=True, eq=False)
class CellObservable:
    """A label function constant on cells, with its exact pushforward CDF."""

    cell_values: np.ndarray
    cdf: StepCDF


def cell_observable(cell_values: np.ndarray, measure: PhaseSpaceMeasure) -> CellObservable:
    """A cell function with its pushforward CDF: atom v has the exact weight
    (sum of the integer masses of v's cells) / M, the same integers that
    place the cells in ``to_unit_interval``.  A stable sort by value puts
    each atom's cells together, first occurrence first; their masses are
    summed per atom in numpy (``group_masses``), and ``StepCDF.from_masses``
    makes the levels their running sums over M."""
    flat = np.asarray(cell_values, dtype=float).ravel()[measure.kept]
    if not np.isfinite(flat).all():
        raise DomainGap("cell values must be finite")
    return CellObservable(cell_values, StepCDF.from_masses(*measure.masses_by_key(flat)))


def position_observable(g: PiecewiseFn, state: PhaseSpaceState) -> CellObservable:
    """g of the position coordinate as a label function with exact distribution."""
    measure = build_measure(state)
    try:
        vals_q = np.array([g(q) for q in measure.q_grid])
    except DomainGap as exc:
        raise DomainGap(f"position function undefined on the grid: {exc}") from exc
    cell_values = np.broadcast_to(vals_q[None, :, None], measure.masses.shape).copy()
    return cell_observable(cell_values, measure)


def momentum_observable(f: PiecewiseFn, state: PhaseSpaceState) -> CellObservable:
    """f of the momentum coordinate; distinct barriers from the position ones
    are generally needed to realize both, see shared_barrier_joint_gap."""
    measure = build_measure(state)
    try:
        vals_p = np.array([f(p) for p in measure.p_grid])
    except DomainGap as exc:
        raise DomainGap(f"momentum function undefined on the grid: {exc}") from exc
    cell_values = np.broadcast_to(vals_p[None, None, :], measure.masses.shape).copy()
    return cell_observable(cell_values, measure)


def spin_observable(state: PhaseSpaceState) -> CellObservable:
    """The sector label as a label function; CDF steps are sector masses."""
    measure = build_measure(state)
    svals = np.array([float(s) for s in measure.sector_labels])
    cell_values = np.broadcast_to(svals[:, None, None], measure.masses.shape).copy()
    return cell_observable(cell_values, measure)


def operator_mean(state: PhaseSpaceState, coordinate: str, fn: PiecewiseFn | None = None) -> float:
    """Matrix-side mean of fn of the position, the momentum or the spin
    label (fn defaults to the identity): fn on the grid weighted by the
    density summed over sectors."""
    if coordinate == "position":
        grid, dens = state.q_grid, ((np.abs(state.amplitudes) ** 2) * state.dq).sum(axis=0)
    elif coordinate == "momentum":
        grid = state.p_grid
        dens = ((np.abs(state.momentum_amplitudes) ** 2) * state.dp).sum(axis=0)
    elif coordinate == "spin":
        grid, dens = state.sector_labels, state.sector_masses()
    else:
        raise BadSpec(f"unknown coordinate {coordinate!r}")
    fn = fn or PiecewiseFn.identity()
    return math.fsum(fn(x) * float(w) for x, w in zip(grid, dens))


class CellEquivalence:
    """Canonical measure equivalence of the cell space onto ]0,1[.

    Cells are ordered by (sector, position, momentum); each cell of positive
    mass occupies an interval of exactly its share of the total mass, so the
    pushforward of the cell measure is Lebesgue by construction.  Cell i is
    ]nums[i] / den, nums[i + 1] / den].
    """

    def __init__(self, kept: np.ndarray, den: int, nums: list[int]):
        # checked once here, for every cell function that pcf transports
        check_partition(den, nums, len(kept))
        self.kept, self.den, self.nums = kept, den, nums

    @property
    def n_cells(self) -> int:
        return len(self.kept)

    def pcf(self, cell_values: np.ndarray) -> PiecewiseConstantFn:
        """Transport a cell function to a piecewise-constant function on
        ]0,1]: the float array of the kept cells' values is handed on as
        the function's ``float_values``."""
        return PiecewiseConstantFn._built(self.den, self.nums, np.asarray(cell_values, dtype=float).ravel()[self.kept])


def to_unit_interval(measure: PhaseSpaceMeasure) -> CellEquivalence:
    """Cell i of positive mass occupies ]P_{i-1} / M, P_i / M], with P_i the
    prefix sums of the integer cell masses ks[i] << shifts[i], one
    ``accumulate`` from the mantissas, and M the last; their ascent is
    checked in one pass."""
    ks, shifts = measure._mantissas
    nums = [0, *accumulate(map(lshift, ks.tolist(), shifts.tolist()))]
    return CellEquivalence(measure.kept, nums[-1], nums)


def realize_barrier(
    obs: CellObservable, equiv: CellEquivalence
) -> tuple[PiecewiseAffineMap, PiecewiseConstantFn]:
    """Barrier on ]0,1[ whose assigned values reproduce the cell observable.

    Returns (barrier, transported function); the barrier is the factorization
    of the transported function against the observable's own CDF.
    """
    fn = equiv.pcf(obs.cell_values)
    return factor_against_cdf(fn, obs.cdf), fn


def shared_barrier_joint_gap(state: PhaseSpaceState) -> float:
    """How far the actual (position, momentum) joint law is from the unique
    joint law a single shared barrier could produce.

    A single barrier realizing both coordinate functions would force the pair
    onto the monotone coupling of the two marginal CDFs (both values are then
    quantiles of one uniform level).  Returns the max absolute difference of
    the two joint mass tables; a strictly positive gap certifies that
    position and momentum need different barriers.

    The joint table and both marginals sum the same integer cell masses
    (``masses_by_key``; a joint key is the complex number q + ip), so the
    difference is computed exactly over M and rounded once.  The monotone
    coupling is the joint law of the two quantile functions, the
    ``joint_lengths`` of the two marginal level partitions over M; off its
    pairs the difference is the joint mass.
    """
    measure = build_measure(state)
    shape, kept = measure.masses.shape, measure.kept
    qs = np.broadcast_to(measure.q_grid[None, :, None], shape).ravel()[kept]
    ps = np.broadcast_to(measure.p_grid[None, None, :], shape).ravel()[kept]
    q_support, q_masses = measure.masses_by_key(qs)
    p_support, p_masses = measure.masses_by_key(ps)
    joint = dict(zip(*measure.masses_by_key(qs + 1j * ps)))
    q_levels, p_levels = [0, *accumulate(q_masses)], [0, *accumulate(p_masses)]
    total, coupling = joint_lengths((q_levels[-1], q_levels, q_support), (p_levels[-1], p_levels, p_support))
    gaps = [abs(joint.pop(complex(q, p), 0) - n) for (q, p), n in coupling.items()]
    return max([*gaps, *joint.values()]) / total
