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
* every step CDF is built by :meth:`StepCDF.from_masses` from integer
  masses, its levels exact shares ``m_k / M``; a spectral CDF takes each
  column mass ``|(V^dagger psi)_j|^2``, a float and so an integer over one
  power of two, sums them per eigenvector block, and drops the atoms whose
  share is below ``WEIGHT_DROP_TOL``, the ``eigh`` rounding noise (shares of
  about 1e-37 to 1e-31) that an eigenstate shows on the other eigenspaces;
  the CDF of a :func:`borel_apply` image sums its parent's masses and keeps
  every atom, however light;
* two computed step CDFs of one spectral distribution (two diagonalizations,
  or a pushforward against a fresh one) agree by one rule,
  :func:`rounding_ratio`: the same atom count, values within ``c * eps * s``
  and levels within ``c * eps * s / delta`` (:func:`rounding_bounds`).
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import index, lshift, sub
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainGap, NonHermitian, NotNormalized, OutOfDomain

HERMITIAN_TOL = 1e-12
EIGENVALUE_MERGE_TOL = 1e-12
WEIGHT_DROP_TOL = 1e-14
PROJECTOR_TOL = 1e-10
ROUNDING_C = 32  # the c of the c * eps * s / delta bound of rounding_bounds


def _locate(nums: Sequence[int], den: int, z: Fraction) -> tuple[int, bool]:
    """(i, on_end) for ascending integers nums over den: i is the first
    index with z <= nums[i] / den, the bisect_left of ceil(z * den), and
    on_end tells whether z equals nums[i] / den."""
    q, r = divmod(-z.numerator * den, z.denominator)
    i = bisect.bisect_left(nums, -q)
    return i, not r and i < len(nums) and nums[i] == -q


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def float_mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ks, shifts): int64 arrays with each nonnegative float x[i] exactly
    (ks[i] << shifts[i]) / 2^E.  A double is k * 2^e with an integer
    k < 2^53; E is the largest -e, so shifts[i] = e_i + E >= 0."""
    mantissas, exponents = np.frexp(x)
    ks = (mantissas * 2.0**53).astype(np.int64)  # exact
    return ks, (exponents - exponents.min()).astype(np.int64)


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
    are an orthonormal basis of the eigenspace.  The blocks are column views
    of one read-only unitary ``V`` (``basis``), held once: the ``atoms``
    constructor lays its blocks side by side into a new V, while
    :func:`eigensystem` and :func:`borel_apply` hand over the V they built
    (``_of``); both run the same checks.  ``eigenvalues`` and
    ``column_eigenvalues``, the eigenvalue of each column of V, are computed
    once, at construction.  The projector ``P_k = V_k V_k^dagger`` is built
    only on request (:meth:`projector`); masses come from one ``V^dagger psi``.
    """

    atoms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.atoms:
            raise NonHermitian("empty eigensystem")
        blocks = [np.asarray(v, dtype=complex) for _, v in self.atoms]
        self._settle([float(lam) for lam, _ in self.atoms], np.hstack(blocks), [v.shape[1] for v in blocks])

    @classmethod
    def _of(cls, eigenvalues: list[float], basis: np.ndarray, sizes: list[int]) -> "EigenSystem":
        """Atom k is eigenvalues[k] with the next sizes[k] columns of
        ``basis``, a complex array that the eigensystem takes over, not
        copied, and makes read-only."""
        system = object.__new__(cls)
        system._settle(eigenvalues, basis, sizes)
        return system

    def _settle(self, lams: list[float], basis: np.ndarray, sizes: list[int]) -> None:
        """The checks of both constructors, then the atoms as column views."""
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise NonHermitian("eigenvalues must be strictly ascending")
        if basis.shape[0] != basis.shape[1]:
            raise NonHermitian(f"eigenvector blocks of shape {basis.shape} do not span the space")
        # V^dagger V = I: the projectors are orthogonal idempotents resolving the identity.
        deviation = basis.conj().T @ basis
        deviation.flat[:: len(deviation) + 1] -= 1
        if np.abs(deviation).max() > PROJECTOR_TOL:
            raise NonHermitian("eigenvector blocks are not orthonormal")
        basis.setflags(write=False)
        starts = (0, *accumulate(sizes))
        columns = np.repeat(lams, sizes)
        columns.setflags(write=False)
        set_ = object.__setattr__
        set_(self, "atoms", tuple((lam, basis[:, i:j]) for lam, i, j in zip(lams, starts, starts[1:])))
        set_(self, "basis", basis)
        set_(self, "eigenvalues", tuple(lams))
        set_(self, "column_eigenvalues", columns)
        set_(self, "_block_starts", starts)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrix(self) -> np.ndarray:
        """The operator V diag(lambda) V^dagger that the atoms describe."""
        return (self.basis * self.column_eigenvalues) @ self.basis.conj().T

    def masses(self, psi: "PureState") -> list[int]:
        """Integer spectral masses: the column masses |V^dagger psi|^2, each
        exactly an integer over one shared power of two, summed per block,
        so block k carries the exact share m_k / sum(m) of their total.
        When every block is one column, the column masses are returned as
        they are."""
        if psi.dim != self.dim:
            raise DimensionMismatch(f"eigensystem dim {self.dim} vs state dim {psi.dim}")
        ks, shifts = float_mantissas(np.abs(self.basis.conj().T @ psi.amplitudes) ** 2)
        cols = list(map(lshift, ks.tolist(), shifts.tolist()))
        if len(self.atoms) == len(cols):
            return cols
        starts = self._block_starts
        return [sum(cols[i:j]) for i, j in zip(starts, starts[1:])]

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

    def projectively_equal(self, other: "PureState") -> bool:
        if self.dim != other.dim:
            return False
        return abs(abs(np.vdot(self.amplitudes, other.amplitudes)) - 1.0) <= 1e-10


@dataclass(frozen=True, eq=False)
class StepCDF:
    """Right-continuous step CDF with strictly increasing levels ending at 1.

    The levels are integer numerators ``nums`` over one reduced denominator
    ``den``, the layout of :class:`qcs.measure_maps.PiecewiseConstantFn`:
    ``support[k]`` carries the atom weight ``(nums[k] - nums[k-1]) / den``,
    and the level interval of atom k is ]nums[k-1] / den, nums[k] / den]
    with nums[-1] := 0.  Every operation (``level_interval``, ``weights``,
    ``atom_index`` and so ``quantile``, which take a float level at its
    exact value) reads the integers.  The float ``levels`` are their
    correctly rounded values, for reports and for :func:`rounding_ratio`:
    non-decreasing, as two levels closer than a float's spacing collapse
    onto one.
    """

    support: tuple[float, ...]
    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        support = tuple(float(r) for r in self.support)
        den, nums = index(self.den), tuple(map(index, self.nums))
        if len(support) != len(nums) or not support:
            raise OutOfDomain("support and levels must be nonempty and aligned")
        if not all(map(math.isfinite, support)) or any(b <= a for a, b in zip(support, support[1:])):
            raise OutOfDomain("support points must be finite and strictly ascending")
        if any(b <= a for a, b in zip((0, *nums), nums)) or nums[-1] != den:
            raise OutOfDomain("levels must be strictly ascending in ]0,1] and end exactly at 1")
        g = math.gcd(den, *nums)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nums", tuple(n // g for n in nums))

    @classmethod
    def from_masses(cls, support: Sequence[float], masses: Iterable[int]) -> "StepCDF":
        """Atom k of ``support`` weighs masses[k] / sum(masses), exactly:
        the levels are the prefix sums of the integer masses, which rise
        strictly only if every mass is positive."""
        nums = tuple(accumulate(masses))
        return cls(support, nums[-1] if nums else 0, nums)

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """The levels nums[k] / den, each correctly rounded (integer true
        division rounds once)."""
        return tuple(n / self.den for n in self.nums)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """Atom weights, each the exact level difference rounded once (for
        dyadic levels that is bitwise the float difference)."""
        den, nums = self.den, self.nums
        return tuple((b - a) / den for a, b in zip((0, *nums), nums))

    def atom_index(self, s) -> int:
        """Index of the atom whose level interval contains s (the >= rule):
        the first k with s <= nums[k] / den.  A float is taken at its exact
        value, once it is known to lie in ]0,1[."""
        exact = isinstance(s, Fraction)
        s = s if exact else float(s)
        if not (0 < s < 1):
            raise OutOfDomain(f"quantile level {s} outside ]0,1[")
        return _locate(self.nums, self.den, s if exact else Fraction(s))[0]

    def quantile(self, s) -> float:
        """min{r : F(r) >= s} for s in ]0,1[; accepts float or Fraction."""
        return self.support[self.atom_index(s)]

    def evaluate(self, r: float) -> Fraction:
        """F(r), right-continuous, as the exact level nums[k] / den."""
        idx = bisect.bisect_right(self.support, float(r))
        return Fraction(self.nums[idx - 1], self.den) if idx > 0 else Fraction(0)

    def level_interval(self, k: int) -> tuple[Fraction, Fraction]:
        lo = self.nums[k - 1] if k > 0 else 0
        return Fraction(lo, self.den), Fraction(self.nums[k], self.den)


def rounding_bounds(eigenvalues: Sequence[float]) -> tuple[float, float]:
    """(value bound, level bound) on two diagonalizations of one spectral
    distribution: ``c * eps * s`` and ``c * eps * s / delta``, with ``c`` =
    ``ROUNDING_C``, ``s`` the spectral scale of the ascending ``eigenvalues``
    and ``delta`` their smallest gap (1 for a single eigenvalue, whose level
    is 1 on both sides), the shape of the Davis-Kahan sin theta bound on
    eigenvectors."""
    value_tol = ROUNDING_C * math.ulp(1.0) * spectral_scale(eigenvalues)
    return value_tol, value_tol / min(np.diff(eigenvalues).tolist(), default=1.0)


def rounding_ratio(f: StepCDF, g: StepCDF, eigenvalues: Sequence[float]) -> float:
    """The worst ratio of the pairwise value and level differences of two
    step CDFs to their :func:`rounding_bounds` over ``eigenvalues``; the two
    agree when it is at most 1.  Infinite when the atom counts differ."""
    if len(f.support) != len(g.support):
        return math.inf
    value_tol, level_tol = rounding_bounds(eigenvalues)
    return max(
        max(map(abs, map(sub, f.support, g.support))) / value_tol,
        max(map(abs, map(sub, f.levels, g.levels))) / level_tol,
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
    return max(1.0, float(np.abs(values).max()))


def eigensystem(a: HermitianOperator) -> EigenSystem:
    """Diagonalize into eigenvector blocks, merging eigenvalues within
    ``EIGENVALUE_MERGE_TOL`` times the spectral scale; an atom's eigenvalue is
    the mean of its members.  The reconstruction ``V diag(lambda) V^dagger``
    must match the operator within ``PROJECTOR_TOL`` times the same scale."""
    w, v = np.linalg.eigh(a.entries)
    scale, values = spectral_scale(w), w.tolist()
    # gaps of halves, so none overflows near +-1e308; halving is exact
    # wherever a gap can be near the merge bound
    halves, half_tol = [x / 2 for x in values], EIGENVALUE_MERGE_TOL * scale / 2
    starts = [0, *(i for i in range(1, a.dim) if not halves[i] - halves[i - 1] <= half_tol), a.dim]
    # the mean of one float is that float
    lams = [values[i] if j - i == 1 else float(np.mean(w[i:j])) for i, j in zip(starts, starts[1:])]
    system = EigenSystem._of(lams, v, list(map(sub, starts[1:], starts)))
    if np.abs(system.matrix() - a.entries).max() > PROJECTOR_TOL * scale:
        raise NonHermitian("spectral reconstruction failed")
    return system


def spectral_cdf(a: HermitianOperator, psi: PureState) -> StepCDF:
    """Step CDF of the observable's distribution in the given state.

    Built by :meth:`StepCDF.from_masses` from the eigenvalues and their
    integer masses (:meth:`EigenSystem.masses`), so level k is the exact
    share of the atoms up to k.  An atom whose mass m_k is below
    ``WEIGHT_DROP_TOL`` times the total M is dropped, by one integer
    comparison; every kept share is at least 1e-14, so the float levels
    still rise strictly.  A :func:`borel_apply` image sums its parent's
    integer masses per atom and drops nothing.
    The result is memoised per (operator, state object); the memo holds the
    state only weakly.
    """
    if a.dim != psi.dim:
        raise DimensionMismatch(f"operator dim {a.dim} vs state dim {psi.dim}")
    memo = a._cdf_memo
    cdf = memo.get(psi)
    if cdf is None:
        es = a.eigensystem
        if "image_of" in a.__dict__:
            parent, value_of = a.__dict__["image_of"]
            base = spectral_cdf(parent, psi)
            masses = dict.fromkeys(es.eigenvalues, 0)
            for r, m in zip(base.support, map(sub, base.nums, (0, *base.nums))):
                masses[value_of[r]] += m
            cdf = StepCDF.from_masses(list(compress(masses, masses.values())), filter(None, masses.values()))
        else:
            masses = es.masses(psi)
            num, den = WEIGHT_DROP_TOL.as_integer_ratio()
            floor = num * sum(masses)
            kept = [m * den >= floor for m in masses]
            cdf = StepCDF.from_masses(list(compress(es.eigenvalues, kept)), compress(masses, kept))
        memo[psi] = cdf
    return cdf


def borel_apply(fn: PiecewiseFn, a: HermitianOperator) -> HermitianOperator:
    """Functional calculus: apply fn to the spectrum, merging images within
    ``EIGENVALUE_MERGE_TOL`` times the image scale (a merged atom keeps its
    smallest image and the stacked eigenvector blocks of its members).

    The returned operator carries the image eigensystem and, as
    ``image_of``, the pair (a, the value of the image atom that merged each
    eigenvalue of a).  That map is the one record of the merge: it names A's
    values as values of fn(A) (:func:`image_values`), and :func:`spectral_cdf`
    pushes a's CDF forward by it.  The entries are
    ``V diag(fn(lambda)) V^dagger``, symmetrized to be exactly Hermitian.  An
    image that is not finite raises DomainGap: it has no atom to be merged
    into.
    """
    es = a.eigensystem
    lams, starts = es.eigenvalues, es._block_starts
    images = sorted((fn(lam), k) for k, lam in enumerate(lams))
    if not all(math.isfinite(val) for val, _ in images):
        raise DomainGap("function images must be finite")
    half_gap = EIGENVALUE_MERGE_TOL * spectral_scale([val for val, _ in images]) / 2
    merged: list[tuple[float, list[int]]] = []
    for val, k in images:
        if merged and val / 2 - merged[-1][0] / 2 <= half_gap:
            merged[-1][1].append(k)
        else:
            merged.append((val, [k]))
    order = [c for _, ks in merged for k in ks for c in range(starts[k], starts[k + 1])]
    sizes = [sum(starts[k + 1] - starts[k] for k in ks) for _, ks in merged]
    system = EigenSystem._of([float(val) for val, _ in merged], es.basis.take(order, axis=1), sizes)
    op = HermitianOperator(hermitian_part(system.matrix()))
    value_of = {lams[k]: val for val, ks in merged for k in ks}
    op.__dict__.update(eigensystem=system, image_of=(a, value_of))
    return op


def image_values(image: HermitianOperator) -> dict[float, float]:
    """For an operator made by :func:`borel_apply`, each eigenvalue of its
    parent mapped to the value of the image atom that merged it: fn of the
    eigenvalue, or the smallest image of its atom.  Shared; do not change it."""
    return image.__dict__["image_of"][1]
