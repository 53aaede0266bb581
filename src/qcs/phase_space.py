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
exactly and nothing is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import lshift
from typing import Sequence

import numpy as np

from .errors import BadSpec, DomainGap, NotNormalized
from .measure_maps import (
    PiecewiseAffineMap,
    PiecewiseConstantFn,
    check_partition,
    factor_against_cdf,
)
from .spectral import PiecewiseFn, StepCDF

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
    def cell_masses(self) -> tuple[np.ndarray, list[int], int]:
        """(kept, masses, M): the flat indices of the cells of positive mass
        in (sector, position, momentum) order, their masses as integers over
        one shared power of two, and the integers' sum M.

        A positive double is k * 2^e with an integer k < 2^53; with E the
        largest -e, cell i's float mass is exactly masses[i] / 2^E, so its
        share of the total is masses[i] / M with no rounding."""
        flat = self.masses.ravel()
        kept = np.flatnonzero(flat > 0.0)
        mantissas, exponents = np.frexp(flat[kept])
        ks = (mantissas * 2.0**53).astype(np.int64).tolist()  # exact
        shifts = (exponents - exponents.min()).tolist()
        masses = list(map(lshift, ks, shifts))
        return kept, masses, sum(masses)


def build_measure(state: PhaseSpaceState) -> PhaseSpaceMeasure:
    """Product-per-sector measure; sectors with zero mass are omitted.  It is
    computed once per state, and its observables share its integer masses."""
    return state.measure


@dataclass(frozen=True, eq=False)
class CellObservable:
    """A label function constant on cells, with its exact pushforward CDF."""

    cell_values: np.ndarray
    cdf: StepCDF


def _sum_by_key(keys, masses: list[int]) -> dict:
    """Integer cell masses summed per key (a cell value, or a pair of them)."""
    out: dict = {}
    for key, m in zip(keys, masses):
        out[key] = out.get(key, 0) + m
    return out


def cell_observable(cell_values: np.ndarray, measure: PhaseSpaceMeasure) -> CellObservable:
    """A cell function with its pushforward CDF: atom v has the exact weight
    (sum of the integer masses of v's cells) / M, the same integers that
    place the cells in ``to_unit_interval``.  A stable sort by value puts
    each atom's cells together, first occurrence first, and the level after
    atom v is the running sum of the sorted masses at v's last cell."""
    kept, masses, total = measure.cell_masses
    flat = np.asarray(cell_values, dtype=float).ravel()[kept]
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    change = ranked[1:] != ranked[:-1]
    running = list(accumulate(map(masses.__getitem__, order.tolist())))
    prefix = [running[i] for i in np.flatnonzero(np.append(change, True)).tolist()]
    support = ranked[np.flatnonzero(np.insert(change, 0, True))].tolist()
    cdf = StepCDF(
        tuple(support), tuple(p / total for p in prefix), tuple(Fraction(p, total) for p in prefix)
    )
    return CellObservable(cell_values, cdf)


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
        """Transport a cell function to a piecewise-constant function on ]0,1]."""
        flat = np.asarray(cell_values, dtype=float).ravel()[self.kept]
        return PiecewiseConstantFn._built(self.den, self.nums, tuple(flat.tolist()))


def to_unit_interval(measure: PhaseSpaceMeasure) -> CellEquivalence:
    """Cell i of positive mass occupies ]P_{i-1} / M, P_i / M], with P_i the
    prefix sums of the integer cell masses: the integers pass through as
    they are, and their ascent is checked in one pass."""
    kept, masses, total = measure.cell_masses
    return CellEquivalence(kept, total, [0, *accumulate(masses)])


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

    The joint table and both marginals sum the same integer cell masses, so
    the difference is computed exactly over M and rounded once.
    """
    measure = build_measure(state)
    kept, masses, total = measure.cell_masses
    shape = measure.masses.shape
    qs = np.broadcast_to(measure.q_grid[None, :, None], shape).ravel()[kept].tolist()
    ps = np.broadcast_to(measure.p_grid[None, None, :], shape).ravel()[kept].tolist()
    joint = _sum_by_key(zip(qs, ps), masses)
    q_mass, p_mass = _sum_by_key(qs, masses), _sum_by_key(ps, masses)
    q_support, p_support = sorted(q_mass), sorted(p_mass)
    q_levels = [0, *accumulate(q_mass[v] for v in q_support)]
    p_levels = [0, *accumulate(p_mass[v] for v in p_support)]
    gap = 0
    for i, qv in enumerate(q_support):
        qlo, qhi = q_levels[i], q_levels[i + 1]
        for j, pv in enumerate(p_support):
            comonotone = max(0, min(qhi, p_levels[j + 1]) - max(qlo, p_levels[j]))
            gap = max(gap, abs(joint.get((qv, pv), 0) - comonotone))
    return gap / total
