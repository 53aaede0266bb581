"""Random case builders for property sweeps (shared by checks and tests)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dynamics import UnitaryOperator
from .measure_maps import MapSpec
from .spectral import HermitianOperator, PureState, StepCDF, hermitian_part

MAX_DEN = 64  # largest denominator of a random rational
MAX_WEIGHT = 16  # random block weights lie in [1, MAX_WEIGHT)
MAX_MASS = 2**20  # random atom masses lie in [1, MAX_MASS)


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(hermitian_part(m))


def random_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.normalized(v)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return UnitaryOperator(q)


def random_rational(rng: np.random.Generator) -> Fraction:
    den = int(rng.integers(2, MAX_DEN + 1))
    num = int(rng.integers(0, den))
    return Fraction(num, den)


def random_lengths(rng: np.random.Generator, blocks: int) -> list[Fraction]:
    """Positive rationals summing to exactly 1, from weights below MAX_WEIGHT."""
    weights = [int(rng.integers(1, MAX_WEIGHT)) for _ in range(blocks)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]

def random_simple_spec(rng: np.random.Generator) -> MapSpec:
    kind = rng.choice(["rotation", "interval_exchange", "expanding"])
    if kind == "rotation":
        return MapSpec.rotation(random_rational(rng))
    if kind == "expanding":
        return MapSpec.expanding(int(rng.integers(2, 4)))
    blocks = int(rng.integers(2, 5))
    perm = list(rng.permutation(blocks))
    return MapSpec.interval_exchange(random_lengths(rng, blocks), perm)


def random_map_spec(rng: np.random.Generator, allow_expanding: bool = True) -> MapSpec:
    """A measure-preserving spec with a handful of pieces; optionally
    restricted to invertible kinds."""
    def one() -> MapSpec:
        while True:
            spec = random_simple_spec(rng)
            if allow_expanding or spec.kind != "expanding":
                return spec

    if rng.random() < 0.3:
        return MapSpec.composition(one(), one())
    return one()


def random_step_cdf(rng: np.random.Generator, atoms: int) -> StepCDF:
    support = np.sort(rng.normal(size=atoms) * 3)
    while np.any(np.diff(support) < 1e-6):
        support = np.sort(rng.normal(size=atoms) * 3)
    masses = rng.integers(1, MAX_MASS, size=atoms).tolist()
    return StepCDF.from_masses(support.tolist(), masses)
