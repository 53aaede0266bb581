"""Complete states and deterministic value assignments.

A complete state is a triple (pure state, barrier, label): the barrier is a
measure-preserving map of ]0,1[ and the label a point of ]0,1[.  On such a
triple every observable takes the single value

    quantile(F, barrier(label))

where F is the observable's spectral step CDF in the state.  The operations
here verify, exactly and by sampling, that these assignments reproduce the
spectral weights, and they exhibit the squaring obstruction that forces the
barrier to depend on the observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import lshift
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOnBreakpoint,
    NotABarrier,
    NotAResolution,
    NotMonotone,
    OutOfDomain,
    UndefinedEquivalence,
)
from .measure_maps import (
    Interval,
    MapSpec,
    PiecewiseAffineMap,
    PiecewiseConstantFn,
    build_map,
    compose,
    factor_against_cdf,
    level_function,
    normalize_intervals,
    preimage_intervals,
    to_fraction,
)
from .sampling import keyed_uniform, uniform_labels
from .spectral import (
    PROJECTOR_TOL,
    HermitianOperator,
    PiecewiseFn,
    PureState,
    StepCDF,
    borel_apply,
    float_mantissas,
    image_values,
    rounding_bounds,
    rounding_ratio,
    spectral_cdf,
)

# No library path reads this; the benchmark's measure workload skips labels
# this close to a barrier breakpoint (``perfbench/workloads.py``).
BREAKPOINT_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class CompleteState:
    """(pure state, measure-preserving barrier, label in ]0,1[)."""

    state: PureState
    barrier: PiecewiseAffineMap
    z: Fraction

    def __post_init__(self):
        z = to_fraction(self.z)
        object.__setattr__(self, "z", z)
        if not (0 < z < 1):
            raise OutOfDomain(f"label {z} outside ]0,1[")
        if not self.barrier.measure_preserving:
            raise NotABarrier("barrier does not push Lebesgue measure to itself")
        if self.barrier.is_breakpoint(z):
            raise LabelOnBreakpoint(f"label {z} is a breakpoint of the barrier")


@dataclass(frozen=True, eq=False)
class BarrierComplex:
    """A measure-preserving map of ]0,1[ for every key: a default map plus
    overrides keyed by any hashable.  Barriers are keyed by (operator tag,
    state tag) and the equivalences of ``dynamics.EquivalenceComplex`` by
    state tag.  Each map is built on first use and not checked: ``build_map``
    makes it measure preserving."""

    default: MapSpec | None
    overrides: Mapping[Hashable, MapSpec] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "overrides", dict(self.overrides))
        object.__setattr__(self, "_built", {})

    @classmethod
    def identity(cls) -> "BarrierComplex":
        return cls(MapSpec.identity())

    def _build(self, spec: MapSpec) -> PiecewiseAffineMap:
        cache = self.__dict__["_built"]
        if spec not in cache:
            cache[spec] = build_map(spec)
        return cache[spec]

    def spec_for(self, key: Hashable) -> MapSpec:
        spec = self.overrides.get(key, self.default)
        if spec is None:
            raise UndefinedEquivalence(f"no map for key {key!r} and no default")
        return spec

    def map_for(self, key: Hashable) -> PiecewiseAffineMap:
        return self._build(self.spec_for(key))


@dataclass(frozen=True, eq=False)
class ObservableFunction:
    """A label-space function whose per-state distribution is the spectral
    distribution of ``operator``; evaluation goes through the barrier complex."""

    operator: HermitianOperator
    barrier_complex: BarrierComplex

    def barrier(self, psi: PureState) -> PiecewiseAffineMap:
        return self.barrier_complex.map_for((self.operator.tag, psi.tag))

    def cdf(self, psi: PureState) -> StepCDF:
        return spectral_cdf(self.operator, psi)

    def level_fn(self, psi: PureState) -> PiecewiseConstantFn:
        return level_function(self.cdf(psi), self.barrier(psi))

    def evaluate(self, psi: PureState, z) -> float:
        return value(self.operator, CompleteState(psi, self.barrier(psi), to_fraction(z)))

    def expectation(self, psi: PureState) -> float:
        """Label-side mean, computed by exact interval algebra."""
        return label_mean(self.level_fn(psi))


def label_mean(fn: PiecewiseConstantFn, power: int = 1) -> float:
    """Integral of fn**power over ]0,1[, correctly rounded: each value is p / q
    with q a power of two, so the integral is an integer over den * max(q)**power,
    and one integer true division rounds it."""
    lengths = fn.lengths_by_value()
    ratios = [v.as_integer_ratio() for v in lengths]
    scale = max([q for _, q in ratios]) ** power
    total = sum([p**power * n * (scale // q**power) for (p, q), n in zip(ratios, lengths.values())])
    return total / (fn.den * scale)


def value(a: HermitianOperator, c: CompleteState) -> float:
    """The deterministic outcome assigned to observable ``a`` on a complete state."""
    if a.dim != c.state.dim:
        raise DimensionMismatch(f"operator dim {a.dim} vs state dim {c.state.dim}")
    return spectral_cdf(a, c.state).quantile(c.barrier(c.z))


def value_distribution(
    a: HermitianOperator, psi: PureState, barrier: PiecewiseAffineMap
) -> list[tuple[float, Fraction]]:
    """Exact outcome distribution: the measure of the barrier preimage of each
    level interval, read off the level function.  Probabilities are exact
    rationals; the claim under test elsewhere is that they equal the weights."""
    if not barrier.measure_preserving:
        raise NotABarrier("value distributions require a measure-preserving barrier")
    cdf = spectral_cdf(a, psi)
    masses = level_function(cdf, barrier).masses_by_value()
    return [(r, masses.get(r, Fraction(0))) for r in cdf.support]


def value_region(
    a: HermitianOperator,
    psi: PureState,
    barrier: PiecewiseAffineMap,
    lo: float,
    hi: float,
) -> list[Interval]:
    """Exact label region where the assigned value falls in ]lo, hi]: the
    runs of the level function whose value lies there."""
    fn = level_function(spectral_cdf(a, psi), barrier)
    kept = normalize_intervals((fn.nums[i], fn.nums[j]) for i, j, v in fn.runs() if lo < v <= hi)
    return [(Fraction(x, fn.den), Fraction(y, fn.den)) for x, y in kept]


def sample_values(
    a: HermitianOperator,
    psi: PureState,
    barrier: PiecewiseAffineMap,
    seed: int,
    n: int,
    start: int = 0,
) -> np.ndarray:
    """Deterministic emulation of repeated measurement.

    Labels are uniform on ]0,1[ from the (seed, position) counter stream,
    and each output is the exact level function at its label, so it equals
    ``value()`` there.  A label that is exactly a barrier breakpoint (0.0
    included) has no value; it is replaced from a stream keyed by its
    position, so output is independent of chunking.

    Each label z is placed among the level function's float cell ends by
    its bucket floor(z * k) in their guide table of k buckets, k a power of
    two (``PiecewiseConstantFn.float_lookup``, which proves that it finds
    the cell ``searchsorted`` finds), so the outputs are those of a binary
    search, bitwise.  A label equal to a float end is decided exactly.
    """
    if n < 1:
        raise OutOfDomain("need at least one sample")
    cdf = spectral_cdf(a, psi)
    z = uniform_labels(seed, start, n)
    fn = level_function(cdf, barrier)
    out, ties = fn.float_lookup(z)
    # ends[idx - 1] < z <= ends[idx], each end the correctly rounded exact
    # end e.  Rounding is monotone and z is a float, so z != ends[idx]
    # proves e[idx - 1] < z < e[idx]: z lies inside cell idx - 1.  Every
    # barrier end is an end of the level function, so a label on a barrier
    # breakpoint is among the ties, which are decided on the exact label.
    for i in ties.tolist():
        label = Fraction(z[i])
        if barrier.is_breakpoint(label):
            label = _redraw(barrier, seed, start + i)
        out[i] = cdf.quantile(barrier(label))
    return out


def _redraw(barrier: PiecewiseAffineMap, seed: int, position: int) -> Fraction:
    """The first label of the position's keyed stream off the barrier breakpoints."""
    for candidate in map(Fraction, keyed_uniform(seed, position)):
        if not barrier.is_breakpoint(candidate):
            return candidate
    raise LabelOnBreakpoint("could not draw a label off the breakpoints")


def sigma_simple_regions(
    projectors: Sequence[np.ndarray],
    values: Sequence[float],
    psi: PureState,
    barrier: PiecewiseAffineMap,
    include_tail: bool = False,
) -> list[tuple[Interval, ...]]:
    """Label regions on which a simple operator sum(values[k] * P_k) takes each value.

    Region k is the barrier preimage of ]s_{k-1}, s_k], with s_k the exact
    share of the projector weights up to k: each weight <psi, P_k psi> is a
    float, so an integer over one power of two (``float_mantissas``), and
    the shares of those integers end at exactly 1.  With ``include_tail``
    the projectors may resolve the identity only up to a residual
    projector; its weight is one more mass, and its label interval is
    returned as one extra region (the zero-value tail in the motivating
    family of simple operators).
    """
    if len(projectors) != len(values) or not projectors:
        raise NotAResolution("need matching nonempty projectors and values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise NotAResolution("values must be strictly increasing")
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    dim = psi.dim
    for p in mats:
        if p.shape != (dim, dim):
            raise DimensionMismatch("projector shape does not match the state")
        if np.abs(p - p.conj().T).max() > PROJECTOR_TOL or np.abs(p @ p - p).max() > PROJECTOR_TOL:
            raise NotAResolution("entries must be orthogonal projectors")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.abs(mats[i] @ mats[j]).max() > PROJECTOR_TOL:
                raise NotAResolution("projectors must be pairwise orthogonal")
    deficit = np.eye(dim) - sum(mats)
    if np.abs(deficit).max() > PROJECTOR_TOL:
        if not include_tail:
            raise NotAResolution("projectors do not resolve the identity")
        if np.abs(deficit @ deficit - deficit).max() > PROJECTOR_TOL:
            raise NotAResolution("residual is not a projector")
        mats.append(deficit)

    weights = np.array([np.vdot(psi.amplitudes, p @ psi.amplitudes).real for p in mats])
    ks, shifts = float_mantissas(np.maximum(weights, 0.0))
    nums = [0, *accumulate(map(lshift, ks.tolist(), shifts.tolist()))]
    bounds = [Fraction(n, nums[-1]) for n in nums]
    return [tuple(preimage_intervals(barrier, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def expectation_via_labels(
    fn: PiecewiseFn,
    a: HermitianOperator,
    psi: PureState,
    barrier: PiecewiseAffineMap,
) -> float:
    """Label-side integral of fn composed with the assigned values, rounded once."""
    if not barrier.measure_preserving:
        raise NotABarrier("label-side expectations require a measure-preserving barrier")
    return label_mean(level_function(spectral_cdf(a, psi), barrier).map_values(fn))


def monotone_compose_check(
    fn: PiecewiseFn,
    a: HermitianOperator,
    psi: PureState,
    barrier: PiecewiseAffineMap,
) -> bool:
    """For fn strictly increasing on the support of A's distribution in psi,
    the assigned values of fn(A) coincide with fn of the assigned values of A,
    with the same barrier (exact comparison).  Each r_k is named by the
    value of its atom of fn(A), as ``borel_apply`` recorded the merge
    (``image_values``): fn(r_k), or the smallest image of a merged atom."""
    cdf = spectral_cdf(a, psi)
    images = [fn(r) for r in cdf.support]
    if any(lo >= hi for lo, hi in zip(images, images[1:])):
        raise NotMonotone("function is not strictly increasing on the spectrum")
    image = borel_apply(fn, a)
    lhs = level_function(cdf, barrier).map_values(image_values(image).__getitem__)
    return lhs.equal_ae(level_function(spectral_cdf(image, psi), barrier))


# ---------------------------------------------------------------------------
# The squaring witness

@dataclass(frozen=True, eq=False)
class SquaringModel:
    """Three orthogonal projectors with exactly representable weights.

    The state has amplitudes (1/4, 1/4, 1/2, 3/4, 1/4), so the projector
    weights are the binary-exact (1/8, 1/4, 5/8) and the whole operator
    pipeline (diagonalization, spectral weights, cumulative levels) stays
    bit-exact.
    """

    operator: HermitianOperator
    state: PureState
    plus: np.ndarray
    zero: np.ndarray
    minus: np.ndarray


def squaring_witness_model() -> SquaringModel:
    e = np.zeros((5, 5), dtype=complex)
    e[0, 0] = e[1, 1] = 1.0
    f = np.zeros((5, 5), dtype=complex)
    f[2, 2] = 1.0
    g = np.zeros((5, 5), dtype=complex)
    g[3, 3] = g[4, 4] = 1.0
    a = HermitianOperator(e - g, tag="squaring-witness")
    psi = PureState(np.array([0.25, 0.25, 0.5, 0.75, 0.25], dtype=complex), tag="squaring-state")
    return SquaringModel(a, psi, e, f, g)


def no_go_witness(
    barrier: PiecewiseAffineMap, squared_barrier: PiecewiseAffineMap | None = None
) -> Fraction:
    """Exact measure of the label set where squaring the assigned value of
    the witness model's A = E - G disagrees with the assigned value of
    A^2 = E + G.

    Both sides are the model's level functions: A's through ``barrier`` with
    its values squared, and A^2's through ``squared_barrier`` (by default the
    same barrier).  With one barrier the disagreement is 1/2 for every
    measure-preserving barrier; ``squared_barrier`` lets callers test a
    repaired pair.
    """
    if not barrier.measure_preserving:
        raise NotABarrier("witness requires a measure-preserving barrier")
    second = squared_barrier if squared_barrier is not None else barrier
    if not second.measure_preserving:
        raise NotABarrier("squared-side barrier must be measure preserving")
    model = squaring_witness_model()
    square = PiecewiseFn.square()
    squared_values = level_function(spectral_cdf(model.operator, model.state), barrier).map_values(square)
    a2 = borel_apply(square, model.operator)
    return squared_values.disagreement(level_function(spectral_cdf(a2, model.state), second))


def repair_barrier(
    a: HermitianOperator,
    fn: PiecewiseFn,
    barrier: PiecewiseAffineMap,
    psi: PureState,
) -> PiecewiseAffineMap:
    """A barrier for fn(A) whose assigned values equal fn of A's assigned values.

    Constructed by factoring A's value function, each value renamed to its
    atom of fn(A) as ``borel_apply`` recorded the merge (``image_values``),
    against the CDF of fn(A), A's CDF pushed forward exactly: every value is
    a support point and every mass equals its weight, so it always succeeds,
    and the barrier is a piecewise translation."""
    image = borel_apply(fn, a)
    composed = level_function(spectral_cdf(a, psi), barrier).map_values(image_values(image).__getitem__)
    return factor_against_cdf(composed, spectral_cdf(image, psi))


def squaring_repair(barrier: PiecewiseAffineMap) -> tuple[Fraction, Fraction, bool]:
    """The squaring witness through ``barrier``: the same-barrier
    disagreement, the disagreement once A^2 takes the repaired barrier, and
    whether that barrier gives A^2 the values of the 3/8 shift of ``barrier``."""
    model = squaring_witness_model()
    square = PiecewiseFn.square()
    beta = repair_barrier(model.operator, square, barrier, model.state)
    cdf2 = spectral_cdf(borel_apply(square, model.operator), model.state)
    shift = compose(build_map(MapSpec.rotation(Fraction(3, 8))), barrier)
    shift_matches = level_function(cdf2, beta).equal_ae(level_function(cdf2, shift))
    return no_go_witness(barrier), no_go_witness(barrier, squared_barrier=beta), shift_matches


def recover_barrier(
    a: HermitianOperator, psi: PureState, fn: PiecewiseConstantFn
) -> PiecewiseAffineMap:
    """Factor a claimed value function through the spectral quantile."""
    return factor_against_cdf(fn, spectral_cdf(a, psi))


# ---------------------------------------------------------------------------
# Spectrum and identifiability checks

def spectrum_image_check(
    a: HermitianOperator,
    barrier: PiecewiseAffineMap,
    probes: Sequence[PureState],
) -> bool:
    """The values the barrier assigns over the probes are exactly the
    operator's eigenvalues."""
    attained: set[float] = set()
    for psi in probes:
        attained.update(level_function(spectral_cdf(a, psi), barrier).values)
    return attained == set(a.eigensystem.eigenvalues)


def identifiability_check(
    a1: HermitianOperator,
    a2: HermitianOperator,
    barrier: PiecewiseAffineMap,
    probes: Sequence[PureState],
) -> bool:
    """Whether 'equal value functions on all probes implies equal operators' held.

    With a shared barrier, a.e. equality of the value functions is equivalent
    to equality of the spectral CDFs, so the hypothesis is tested there, by
    the rounding rule over a1's eigenvalues; the operators are then equal
    when their entries agree within its value bound.
    """
    lams = a1.eigensystem.eigenvalues
    if any(rounding_ratio(spectral_cdf(a1, p), spectral_cdf(a2, p), lams) > 1 for p in probes):
        return True
    return float(np.abs(a1.entries - a2.entries).max()) <= rounding_bounds(lams)[0]


def default_probe_states(dim: int) -> list[PureState]:
    """A basis, real pairwise superpositions, and imaginary ones: enough to
    separate any two distinct observables through their distributions."""
    probes = []
    eye = np.eye(dim, dtype=complex)
    for i in range(dim):
        probes.append(PureState(eye[i]))
    for i in range(dim):
        for j in range(i + 1, dim):
            probes.append(PureState.normalized(eye[i] + eye[j]))
            probes.append(PureState.normalized(eye[i] + 1j * eye[j]))
    return probes


def eigenvector_probes(a: HermitianOperator) -> list[PureState]:
    """One eigenvector per spectral atom, plus a uniform superposition."""
    es = a.eigensystem
    probes = [PureState(es.eigenvector(k)) for k in range(len(es.atoms))]
    probes.append(PureState.normalized(np.ones(a.dim, dtype=complex)))
    return probes
