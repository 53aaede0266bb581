"""Finite-dimensional Hermitian observables and their spectral statistics.

The statistical content of an observable A in a pure state is carried by a
right-continuous step CDF r -> weight of the spectrum at or below r, together
with its left-continuous quantile function on ]0,1[.  Everything downstream
(barriers, deterministic value assignments, exact distribution checks)
consumes these two objects, so the constructors here are strict about
invariants.

Conventions used throughout the package:

* intervals on the line and on ]0,1[ are left-open right-closed, ]a,b];
* the quantile takes the atom at a level boundary, min{r : F(r) >= s};
* a matrix is Hermitian when it deviates from its adjoint by at most
  ``HERMITIAN_TOL`` times ``max(1, max|A_ij|)``; eigenvalues closer than
  ``EIGENVALUE_MERGE_TOL`` times the spectral scale ``max(1, max|lambda|)``
  are one spectral atom, and the spectral reconstruction is checked against
  ``PROJECTOR_TOL`` times the same scale, so these rules follow the
  operator's size (for entries and spectra within [-1, 1] they are absolute);
* spectral CDFs (:meth:`StepCDF.from_weights`) drop atoms with weight below
  ``WEIGHT_DROP_TOL`` so that their float levels stay strictly increasing;
  a CDF built from exact weights keeps every atom in its exact levels.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainGap, NonHermitian, NotNormalized, OutOfDomain

HERMITIAN_TOL = 1e-12
EIGENVALUE_MERGE_TOL = 1e-12
WEIGHT_DROP_TOL = 1e-14
PROJECTOR_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, halved before the sum so that it cannot overflow."""
    return m / 2 + m.conj().T / 2


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite-dimensional observable, stored as its full complex matrix.

    The eigensystem is computed lazily and cached; the cache fill is
    idempotent, so concurrent readers are safe.
    """

    entries: np.ndarray
    tag: str | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonHermitian(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NonHermitian("matrix has non-finite entries")
        dev = float(np.abs(m - m.conj().T).max())
        # spectral_scale(m) >= 1, so the scale is needed only past the absolute bound.
        if dev > HERMITIAN_TOL and dev > HERMITIAN_TOL * spectral_scale(m):
            raise NonHermitian(f"matrix deviates from its adjoint by {dev:.3e}")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigensystem(self) -> "EigenSystem":
        return eigensystem(self)

    @cached_property
    def _cdf_memo(self) -> "weakref.WeakKeyDictionary[PureState, StepCDF]":
        """Step CDFs of this operator, keyed weakly by state object."""
        return weakref.WeakKeyDictionary()

    def expectation(self, psi: "PureState") -> float:
        if psi.dim != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim} vs state dim {psi.dim}")
        return float(np.vdot(psi.amplitudes, self.entries @ psi.amplitudes).real)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral atoms (eigenvalue, eigenvector block) in ascending order.

    Atom k is ``(lambda_k, V_k)`` with ``V_k`` a d x m_k matrix whose columns
    are an orthonormal basis of the eigenspace, so the blocks side by side
    form one unitary ``V`` (``basis``).  The projector ``P_k = V_k V_k^dagger``
    is built only on request (:meth:`projector`); weights come from one
    ``V^dagger psi``.
    """

    atoms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.atoms:
            raise NonHermitian("empty eigensystem")
        lams = [float(lam) for lam, _ in self.atoms]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise NonHermitian("eigenvalues must be strictly ascending")
        # One read-only copy of V; the atoms hold views of its column blocks.
        basis = _readonly(np.hstack([np.asarray(v, dtype=complex) for _, v in self.atoms]))
        starts = [0]
        for _, v in self.atoms:
            starts.append(starts[-1] + np.shape(v)[1])
        views = tuple((lam, basis[:, i:j]) for lam, i, j in zip(lams, starts, starts[1:]))
        object.__setattr__(self, "atoms", views)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_block_starts", tuple(starts))
        if basis.shape[0] != basis.shape[1]:
            raise NonHermitian(f"eigenvector blocks of shape {basis.shape} do not span the space")
        # V^dagger V = I: the projectors are orthogonal idempotents resolving the identity.
        if np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() > PROJECTOR_TOL:
            raise NonHermitian("eigenvector blocks are not orthonormal")

    @property
    def dim(self) -> int:
        return self.atoms[0][1].shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.atoms)

    @property
    def column_eigenvalues(self) -> np.ndarray:
        """The eigenvalue of each column of ``basis``, the blocks side by side."""
        return np.repeat(self.eigenvalues, np.diff(self._block_starts))

    def matrix(self) -> np.ndarray:
        """The operator V diag(lambda) V^dagger that the atoms describe."""
        return (self.basis * self.column_eigenvalues) @ self.basis.conj().T

    def weights(self, psi: "PureState") -> list[float]:
        """Spectral weights <P_k> of a unit state: |V^dagger psi|^2 summed per block."""
        if psi.dim != self.dim:
            raise DimensionMismatch(f"eigensystem dim {self.dim} vs state dim {psi.dim}")
        amps = np.abs(self.basis.conj().T @ psi.amplitudes) ** 2
        starts = self._block_starts
        return [math.fsum(amps[i:j]) for i, j in zip(starts, starts[1:])]

    def projector(self, k: int) -> np.ndarray:
        """The orthogonal projector V_k V_k^dagger onto the k-th eigenspace."""
        v = self.atoms[k][1]
        return v @ v.conj().T

    def eigenvector(self, k: int) -> np.ndarray:
        """A unit vector in the k-th eigenspace (deterministic choice)."""
        p = self.projector(k)
        col = int(np.argmax(np.linalg.norm(p, axis=0)))
        v = p[:, col]
        return v / np.linalg.norm(v)


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; two states are the same ray iff |<psi,phi>| = 1."""

    amplitudes: np.ndarray
    tag: str | None = None

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size == 0:
            raise NotNormalized("empty state vector")
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= 1e-12:  # also rejects a NaN norm
            raise NotNormalized(f"state norm {nrm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", _readonly(v))

    @classmethod
    def normalized(cls, vec: Sequence[complex], tag: str | None = None) -> "PureState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(v / nrm, tag=tag)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projectively_equal(self, other: "PureState", tol: float = 1e-10) -> bool:
        if self.dim != other.dim:
            return False
        return abs(abs(np.vdot(self.amplitudes, other.amplitudes)) - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class StepCDF:
    """Right-continuous step CDF with strictly increasing levels ending at 1.

    ``support[k]`` carries the atom weight ``exact_levels[k] -
    exact_levels[k-1]``; the level interval of atom k is
    ]exact_levels[k-1], exact_levels[k]] with exact_levels[-1] := 0.

    ``exact_levels`` are the levels as rationals, and every exact operation
    (``level_interval``, ``atom_index`` of a ``Fraction``, ``weights``) reads
    them.  When they are not given they are the exact values of the float
    levels, which must then rise strictly.  When they are given (a CDF whose
    atom weights are known exactly), they must rise strictly, and the float
    levels must be their correctly rounded values: these are non-decreasing,
    but two exact levels closer than a float's spacing collapse onto one.
    """

    support: tuple[float, ...]
    levels: tuple[float, ...]
    exact_levels: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        support = tuple(float(r) for r in self.support)
        levels = tuple(float(c) for c in self.levels)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "levels", levels)
        if len(support) != len(levels) or not support:
            raise OutOfDomain("support and levels must be nonempty and aligned")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise OutOfDomain("support points must be strictly ascending")
        if self.exact_levels is None:
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise OutOfDomain("levels must be strictly ascending")
            # the range test also rejects a NaN level, which passes the one above
            if not (all(0.0 < c <= 1.0 for c in levels) and levels[-1] == 1.0):
                raise OutOfDomain("levels must lie in ]0,1] and end exactly at 1")
            exact = tuple(Fraction(c) for c in levels)
        else:
            exact = tuple(self.exact_levels)
            if len(exact) != len(levels) or any(float(e) != c for e, c in zip(exact, levels)):
                raise OutOfDomain("float levels must be the exact levels rounded")
            if any(b <= a for a, b in zip(exact, exact[1:])):
                raise OutOfDomain("exact levels must be strictly ascending")
            if not (0 < exact[0] and exact[-1] == 1):
                raise OutOfDomain("exact levels must lie in ]0,1] and end exactly at 1")
        object.__setattr__(self, "exact_levels", exact)

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[float, float]]) -> "StepCDF":
        """Build from (value, weight) pairs; drops near-zero weights, renormalizes."""
        items = sorted((float(v), float(w)) for v, w in pairs)
        support, weights = [], []
        for v, w in items:
            if support and v == support[-1]:
                weights[-1] += w
            else:
                support.append(v)
                weights.append(w)
        kept = [(v, w) for v, w in zip(support, weights) if w >= WEIGHT_DROP_TOL]
        if not kept:
            raise OutOfDomain("all weights vanish")
        total = math.fsum(w for _, w in kept)
        cum, levels = 0.0, []
        for _, w in kept:
            cum += w
            levels.append(cum / total)
        levels[-1] = 1.0
        return cls(tuple(v for v, _ in kept), tuple(levels))

    @property
    def weights(self) -> tuple[float, ...]:
        """Atom weights, each the exact level difference rounded once from
        integers (integer true division is correctly rounded, so for
        float-derived levels this is bitwise the float difference)."""
        nums = [0] + [c.numerator for c in self.exact_levels]
        dens = [1] + [c.denominator for c in self.exact_levels]
        return tuple(
            (n1 * d0 - n0 * d1) / (d1 * d0) for n0, d0, n1, d1 in zip(nums, dens, nums[1:], dens[1:])
        )

    def atom_index(self, s) -> int:
        """Index of the atom whose level interval contains s (the >= rule)."""
        if isinstance(s, Fraction):
            if not (0 < s < 1):
                raise OutOfDomain(f"quantile level {s} outside ]0,1[")
            return bisect.bisect_left(self.exact_levels, s)
        s = float(s)
        if not (0.0 < s < 1.0):
            raise OutOfDomain(f"quantile level {s!r} outside ]0,1[")
        k = bisect.bisect_left(self.levels, s)
        # Rounding is monotone, so a float level above s has its exact level
        # above s too; only a float level equal to s (exact levels collapsed
        # onto it) can hide exact levels below s.
        if self.levels[k] == s:
            return bisect.bisect_left(self.exact_levels, Fraction(s))
        return k

    def quantile(self, s) -> float:
        """min{r : F(r) >= s} for s in ]0,1[; accepts float or Fraction."""
        return self.support[self.atom_index(s)]

    def evaluate(self, r: float) -> float:
        """F(r), right-continuous."""
        idx = bisect.bisect_right(self.support, float(r))
        return self.levels[idx - 1] if idx > 0 else 0.0

    def level_interval(self, k: int) -> tuple[Fraction, Fraction]:
        lo = self.exact_levels[k - 1] if k > 0 else Fraction(0)
        return lo, self.exact_levels[k]


def cdfs_close(f: StepCDF, g: StepCDF, value_tol: float, level_tol: float) -> bool:
    """Same atom count, with values pairwise within ``value_tol`` and levels
    pairwise within ``level_tol``."""
    if len(f.support) != len(g.support):
        return False
    return all(abs(a - b) <= value_tol for a, b in zip(f.support, g.support)) and all(
        abs(a - b) <= level_tol for a, b in zip(f.levels, g.levels)
    )


@dataclass(frozen=True, eq=False)
class PiecewiseFn:
    """Piecewise-polynomial function on left-open right-closed pieces.

    ``breakpoints`` has one more entry than ``coefficients``; the outer
    entries may be -inf/+inf.  Coefficients are in ascending powers.
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        coeffs = tuple(tuple(float(c) for c in cs) for cs in self.coefficients)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coefficients", coeffs)
        if len(bps) != len(coeffs) + 1 or not coeffs:
            raise DomainGap("need n+1 breakpoints for n pieces")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise DomainGap("breakpoints must be strictly ascending")

    @classmethod
    def from_poly(cls, coeffs: Sequence[float], lo: float = -math.inf, hi: float = math.inf) -> "PiecewiseFn":
        return cls((lo, hi), (tuple(coeffs),))

    @classmethod
    def identity(cls) -> "PiecewiseFn":
        return cls.from_poly((0.0, 1.0))

    @classmethod
    def constant(cls, c: float) -> "PiecewiseFn":
        return cls.from_poly((float(c),))

    @classmethod
    def affine(cls, a: float, b: float) -> "PiecewiseFn":
        return cls.from_poly((float(b), float(a)))

    @classmethod
    def square(cls) -> "PiecewiseFn":
        return cls.from_poly((0.0, 0.0, 1.0))

    @classmethod
    def absolute(cls) -> "PiecewiseFn":
        return cls((-math.inf, 0.0, math.inf), ((0.0, -1.0), (0.0, 1.0)))

    def __call__(self, x: float) -> float:
        x = float(x)
        if not (self.breakpoints[0] < x <= self.breakpoints[-1]):
            raise DomainGap(f"{x!r} outside the covered interval")
        idx = bisect.bisect_left(self.breakpoints, x) - 1
        acc = 0.0
        for c in reversed(self.coefficients[idx]):
            acc = acc * x + c
        return acc


def spectral_scale(values) -> float:
    """max(1, max|value|): the unit in which the adjoint deviation, the merge
    gap and the reconstruction tolerance are measured."""
    return max(1.0, float(np.max(np.abs(values))))


def eigensystem(a: HermitianOperator) -> EigenSystem:
    """Diagonalize into eigenvector blocks, merging eigenvalues within
    ``EIGENVALUE_MERGE_TOL`` times the spectral scale; an atom's eigenvalue is
    the mean of its members.  The reconstruction ``V diag(lambda) V^dagger``
    must match the operator within ``PROJECTOR_TOL`` times the same scale."""
    w, v = np.linalg.eigh(a.entries)
    scale = spectral_scale(w)
    # gaps of halves, so none overflows near +-1e308; halving is exact
    # wherever a gap can be near the merge bound
    apart = ~(np.diff(w / 2) <= EIGENVALUE_MERGE_TOL * scale / 2)
    starts = [0, *(np.flatnonzero(apart) + 1).tolist(), a.dim]
    system = EigenSystem(tuple((float(np.mean(w[i:j])), v[:, i:j]) for i, j in zip(starts, starts[1:])))
    if np.abs(system.matrix() - a.entries).max() > PROJECTOR_TOL * scale:
        raise NonHermitian("spectral reconstruction failed")
    return system


def _with_eigensystem(entries: np.ndarray, system: EigenSystem) -> HermitianOperator:
    op = HermitianOperator(entries)
    op.__dict__["eigensystem"] = system
    return op


def spectral_cdf(a: HermitianOperator, psi: PureState) -> StepCDF:
    """Step CDF of the observable's distribution in the given state.

    Built by :meth:`StepCDF.from_weights` from the eigenvalues and their
    spectral weights, so atoms with weight below ``WEIGHT_DROP_TOL`` are
    dropped and the last level is pinned to 1.  The result is memoised per
    (operator, state object); the memo holds the state only weakly.
    """
    if a.dim != psi.dim:
        raise DimensionMismatch(f"operator dim {a.dim} vs state dim {psi.dim}")
    memo = a._cdf_memo
    cdf = memo.get(psi)
    if cdf is None:
        es = a.eigensystem
        cdf = memo[psi] = StepCDF.from_weights(zip(es.eigenvalues, es.weights(psi)))
    return cdf


def borel_apply(fn: PiecewiseFn, a: HermitianOperator) -> HermitianOperator:
    """Functional calculus: apply fn to the spectrum, merging images within
    ``EIGENVALUE_MERGE_TOL`` times the image scale (a merged atom keeps its
    smallest image and the stacked eigenvector blocks of its members).

    The returned operator carries the image eigensystem, so downstream CDFs
    use bitwise the same image values as direct evaluation of fn.  Its
    entries are ``V diag(fn(lambda)) V^dagger``, symmetrized to be exactly
    Hermitian.  An image that is not finite raises DomainGap: it has no atom
    to be merged into.
    """
    images = sorted(((fn(lam), v) for lam, v in a.eigensystem.atoms), key=lambda t: t[0])
    if not all(math.isfinite(val) for val, _ in images):
        raise DomainGap("function images must be finite")
    half_gap = EIGENVALUE_MERGE_TOL * spectral_scale([val for val, _ in images]) / 2
    merged: list[tuple[float, list[np.ndarray]]] = []
    for val, v in images:
        if merged and val / 2 - merged[-1][0] / 2 <= half_gap:
            merged[-1][1].append(v)
        else:
            merged.append((val, [v]))
    system = EigenSystem(tuple((val, np.hstack(blocks)) for val, blocks in merged))
    m = system.matrix()
    return _with_eigensystem(hermitian_part(m), system)


def moment(a: HermitianOperator, psi: PureState, k: int) -> float:
    """k-th spectral moment, sum over atoms of eigenvalue^k times weight."""
    if a.dim != psi.dim:
        raise DimensionMismatch(f"operator dim {a.dim} vs state dim {psi.dim}")
    if k < 0:
        raise OutOfDomain("moment order must be nonnegative")
    es = a.eigensystem
    ws = es.weights(psi)
    return math.fsum((lam**k) * w for lam, w in zip(es.eigenvalues, ws))
