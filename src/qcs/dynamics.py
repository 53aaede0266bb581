"""Quadratic forms, observable-function algebra, and lifted unitary dynamics.

Unitary evolution lifts to the space of complete states through a complex of
measure equivalences: the state moves by the unitary, the label and barrier
move through the equivalences so that the barrier level of the label is
untouched.  All map algebra is exact; time evolution uses spectral
exponentials, so no integrator error enters the theorem checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitian,
    OutOfDomain,
)
from .measure_maps import (
    MapSpec,
    PiecewiseAffineMap,
    compose,
    invert,
    map_equal_ae,
)
from .spectral import HermitianOperator, PureState, hermitian_part, rounding_ratio, spectral_cdf, spectral_scale
from .states import (
    BarrierComplex,
    CompleteState,
    ObservableFunction,
    label_mean,
)

UNITARY_TOL = 1e-10


def pauli_x() -> HermitianOperator:
    return HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))


def pauli_y() -> HermitianOperator:
    return HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=complex))


def pauli_z() -> HermitianOperator:
    return HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NonHermitian("matrix has non-finite entries")
        dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if dev > UNITARY_TOL:
            raise NonHermitian(f"matrix deviates from unitarity by {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: PureState, tag: str | None = None) -> PureState:
        if self.dim != psi.dim:
            raise DimensionMismatch(f"unitary dim {self.dim} vs state dim {psi.dim}")
        return PureState.normalized(self.entries @ psi.amplitudes, tag=tag)

    def conjugate(self, a: HermitianOperator) -> HermitianOperator:
        """U^-1 A U, symmetrized to stay exactly Hermitian."""
        if self.dim != a.dim:
            raise DimensionMismatch(f"unitary dim {self.dim} vs operator dim {a.dim}")
        m = self.entries.conj().T @ a.entries @ self.entries
        return HermitianOperator(hermitian_part(m))


class EquivalenceComplex(BarrierComplex):
    """A bijective measure-preserving map of ]0,1[ for every state, keyed by
    state tag, with its inverse.  Every spec is built and inverted when the
    complex is made, so a map that is not a bijection raises ``NotInjective``
    there."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_inverses", {})
        for spec in (*self.overrides.values(), self.default):
            if spec is not None:
                self._invert(spec)

    def _invert(self, spec: MapSpec) -> PiecewiseAffineMap:
        memo = self.__dict__["_inverses"]
        if spec not in memo:
            memo[spec] = invert(self._build(spec))
        return memo[spec]

    def inverse_for(self, key: Hashable) -> PiecewiseAffineMap:
        return self._invert(self.spec_for(key))


def lifted_components(
    u: UnitaryOperator,
    sigma: EquivalenceComplex,
    psi: PureState,
    barrier: PiecewiseAffineMap,
) -> tuple[PureState, PiecewiseAffineMap, PiecewiseAffineMap]:
    """(new state, new barrier, label transport) of the lifted automorphism.

    The new barrier is barrier o sigma_psi^-1 o sigma_newpsi and the label
    moves by sigma_newpsi^-1 o sigma_psi, so barrier(z) is preserved exactly.
    """
    new_psi = u.apply(psi)
    sig_fwd = sigma.map_for(psi.tag)
    sig_inv = sigma.inverse_for(psi.tag)
    new_fwd = sigma.map_for(new_psi.tag)
    new_inv = sigma.inverse_for(new_psi.tag)
    transport = compose(new_inv, sig_fwd)
    new_barrier = compose(barrier, compose(sig_inv, new_fwd))
    return new_psi, new_barrier, transport


def lift_unitary(
    u: UnitaryOperator, sigma: EquivalenceComplex, c: CompleteState
) -> CompleteState:
    """Deterministic image of a complete state under the lifted unitary."""
    new_psi, new_barrier, transport = lifted_components(u, sigma, c.state, c.barrier)
    new_z = transport(c.z)
    return CompleteState(new_psi, new_barrier, new_z)


@dataclass(frozen=True, eq=False)
class LiftedAutomorphism:
    """The automorphism of complete states induced by (unitary, equivalences)."""

    unitary: UnitaryOperator
    sigma: EquivalenceComplex

    def __call__(self, c: CompleteState) -> CompleteState:
        return lift_unitary(self.unitary, self.sigma, c)

    def inverse(self) -> "LiftedAutomorphism":
        return LiftedAutomorphism(UnitaryOperator(self.unitary.entries.conj().T), self.sigma)


# ---------------------------------------------------------------------------
# Quadratic forms and gradients

def quadratic_form(f: ObservableFunction, phi: Sequence[complex]) -> float:
    """norm^2 times the label mean on the normalized state; extends
    continuously to 0 where it equals the matrix form exactly."""
    vec = np.asarray(phi, dtype=complex).reshape(-1)
    if vec.shape[0] != f.operator.dim:
        raise DimensionMismatch(f"vector dim {vec.shape[0]} vs operator dim {f.operator.dim}")
    nrm2 = float(np.vdot(vec, vec).real)
    if nrm2 == 0.0:
        return 0.0
    psi = PureState(vec / math.sqrt(nrm2))
    return nrm2 * f.expectation(psi)


def gradient_check(f: ObservableFunction, psi: PureState) -> float:
    """Central-difference gradient of the quadratic form in the 2*dim real
    coordinates, step 1e-5, against twice the operator acting on the state;
    returns the max-norm error relative to the target's max norm."""
    h = 1e-5
    base = psi.amplitudes.astype(complex)
    dim = base.shape[0]
    grad = np.zeros(dim, dtype=complex)
    for k in range(dim):
        for which in (1.0, 1.0j):
            bump = np.zeros(dim, dtype=complex)
            bump[k] = which * h
            plus = quadratic_form(f, base + bump)
            minus = quadratic_form(f, base - bump)
            diff = (plus - minus) / (2 * h)
            grad[k] += diff * which
    target = 2.0 * (f.operator.entries @ base)
    scale = max(float(np.abs(target).max()), 1e-300)
    return float(np.abs(grad - target).max()) / scale


# ---------------------------------------------------------------------------
# Algebra on observable functions

@dataclass(frozen=True, eq=False)
class ComplexObservable:
    """Complexified product function: real and imaginary observable parts."""

    real_part: ObservableFunction
    imag_part: ObservableFunction

    @property
    def operator(self) -> np.ndarray:
        return self.real_part.operator.entries + 1j * self.imag_part.operator.entries

    def expectation(self, psi: PureState) -> complex:
        return complex(self.real_part.expectation(psi), self.imag_part.expectation(psi))

    def quadratic_form(self, phi: Sequence[complex]) -> complex:
        return complex(quadratic_form(self.real_part, phi), quadratic_form(self.imag_part, phi))


def algebra_product(kind: str, f: ObservableFunction, g: ObservableFunction):
    """Lie, Jordan, or star product of observable functions, via the
    corresponding operator product under f's barrier complex.

    lie(A,B) = -(i/2)(AB - BA); jordan(A,B) = (AB + BA)/2; star = jordan
    plus i times lie, which is the plain operator product and is returned as
    a complex-valued observable.
    """
    a, b = f.operator.entries, g.operator.entries
    if a.shape != b.shape:
        raise DimensionMismatch("operators must share a dimension")
    if kind == "lie":
        m = -0.5j * (a @ b - b @ a)
        return ObservableFunction(HermitianOperator(hermitian_part(m)), f.barrier_complex)
    if kind == "jordan":
        m = 0.5 * (a @ b + b @ a)
        return ObservableFunction(HermitianOperator(hermitian_part(m)), f.barrier_complex)
    if kind == "star":
        return ComplexObservable(
            algebra_product("jordan", f, g), algebra_product("lie", f, g)
        )
    raise OutOfDomain(f"unknown product kind {kind!r}")


def dispersion(f: ObservableFunction, psi: PureState) -> float:
    """Label-side standard deviation of the assigned values."""
    fn = f.level_fn(psi)
    m1 = label_mean(fn)
    m2 = label_mean(fn, power=2)
    return math.sqrt(max(0.0, m2 - m1 * m1))


def heisenberg_check(
    f: ObservableFunction, g: ObservableFunction, psi: PureState
) -> tuple[float, float, bool]:
    """(product of dispersions, |mean of the lie product|, inequality holds).

    The slack is 1e-12 times the spectral scales of both operators, so it
    follows their size and is the absolute 1e-12 for spectra within [-1, 1].
    """
    lhs = dispersion(f, psi) * dispersion(g, psi)
    rhs = abs(algebra_product("lie", f, g).expectation(psi))
    slack = (
        1e-12
        * spectral_scale(f.operator.eigensystem.eigenvalues)
        * spectral_scale(g.operator.eigensystem.eigenvalues)
    )
    return lhs, rhs, lhs >= rhs - slack


# ---------------------------------------------------------------------------
# Evolution

def evolve(h: HermitianOperator, t: float, psi0: PureState) -> PureState:
    """Spectral propagation: V exp(-i lambda t) V^dagger psi over the
    eigenvector blocks V of the generator."""
    if h.dim != psi0.dim:
        raise DimensionMismatch(f"generator dim {h.dim} vs state dim {psi0.dim}")
    es = h.eigensystem
    phases = np.exp(-1j * es.column_eigenvalues * t)
    out = es.basis @ (phases * (es.basis.conj().T @ psi0.amplitudes))
    return PureState.normalized(out)


def intertwine_check(
    a: HermitianOperator,
    u: UnitaryOperator,
    sigma: EquivalenceComplex,
    psi: PureState,
    barrier: PiecewiseAffineMap,
) -> bool:
    """Whether (U^-1 A U) on (psi, barrier, z) equals A on the lifted complete
    state for a.e. label z, decided by two exact checks without drawing labels.

    The map identity ``new_barrier o transport = barrier`` a.e. puts both sides
    at the same quantile level barrier(z), and the spectral identity gives the
    step CDFs of U^-1 A U in psi and of A in the lifted state the same atoms,
    agreeing by the rounding rule over A's eigenvalues (``rounding_ratio`` at
    most 1).  So the two values agree within its value bound at every level
    farther than its level bound from a level boundary.
    """
    new_psi, new_barrier, transport = lifted_components(u, sigma, psi, barrier)
    if not map_equal_ae(compose(new_barrier, transport), barrier):
        return False
    conjugated, lifted = spectral_cdf(u.conjugate(a), psi), spectral_cdf(a, new_psi)
    return rounding_ratio(conjugated, lifted, a.eigensystem.eigenvalues) <= 1


def schrodinger_equivalence_check(
    f: ObservableFunction,
    h_fn: ObservableFunction,
    psi0: PureState,
    t0: float,
) -> tuple[float, float, float]:
    """(time derivative of the label mean, twice the lie-product mean, gap).

    The left side is a central difference, step 1e-4, of the label-side
    expectation along the evolution generated by ``h_fn.operator``; the
    right side is at t0.
    """
    dt = 1e-4
    h = h_fn.operator
    plus = f.expectation(evolve(h, t0 + dt, psi0))
    minus = f.expectation(evolve(h, t0 - dt, psi0))
    lhs = (plus - minus) / (2 * dt)
    rhs = 2.0 * algebra_product("lie", f, h_fn).expectation(evolve(h, t0, psi0))
    return lhs, rhs, abs(lhs - rhs)


def evolution_expectation_check(
    a: HermitianOperator,
    h: HermitianOperator,
    psi0: PureState,
    barriers: BarrierComplex,
    times: Sequence[float],
) -> list[tuple[float, float, float]]:
    """(t, operator side, label side) for each time: the matrix expectation
    on the evolved state and the label mean taken with the initial barrier
    complex on the evolved state's CDF (the shared label measure is
    Lebesgue).  The identity holds when the two sides agree."""
    f = ObservableFunction(a, barriers)
    rows = []
    for t in times:
        psi_t = evolve(h, float(t), psi0)
        rows.append((float(t), a.expectation(psi_t), f.expectation(psi_t)))
    return rows
