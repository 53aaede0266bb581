"""The three benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (set-up, not
timed as run time) and runs one round of its fixed operations in `round()`,
checking every output there.  A round makes every qcs object afresh, so no
cached eigensystem or map carries over from an earlier round and every round
does the same work.  qcs functions are called through their modules, so the
traced run sees the calls the benchmark makes as well as those between
layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference
from qcs import errors, harness, measure_maps, phase_space, sampling, spectral, states, stats
from qcs import verify


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    check_seconds: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def warm_up(max_dim: int) -> None:
    """First LAPACK and FFT calls pay one-off start-up costs; pay them in set-up."""
    rng = np.random.default_rng(0)
    for d in sorted({64, max_dim}):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.linalg.eigh(m + m.conj().T)
    np.fft.fft(np.ones(64, dtype=complex))


# ---------------------------------------------------------------------------

class VerifySuite:
    """`qcs verify --suite all`: the 29 property checks in the CLI's order.

    The suite seeds its own cases, so the benchmark seed does not change its
    inputs.  One operation is one check.
    """

    name = "verify-suite"
    SUITE = {"full": "all", "small": "spectral"}

    def __init__(self, seed: int, size: str = "full"):
        self.suite = self.SUITE[size]
        warm_up(8)

    @staticmethod
    def check_names() -> list[str]:
        """Names of the checks of the full suite, in run_suite("all") order."""
        names: list[str] = []
        for checks in verify.SUITES.values():
            names.extend(c.check_name for c in checks if c.check_name not in names)
        return names

    def round(self) -> RoundResult:
        out = RoundResult()
        for r in verify.run_suite(self.suite):
            out.attempted += 1
            out.check_seconds[r.name] = r.seconds
            out.expect(r.passed, f"check {r.name} failed: {r.detail}")
        return out


# ---------------------------------------------------------------------------

class PhaseSpaceGrid:
    """Exact phase-space pipeline for a spin-1/2 particle on an N-point grid.

    2*N*N cells; each observable is carried through realize_barrier and
    level_function to its label-side mean.  One operation is one observable.
    The round ends with the joint-law gap of the two-point witness state.
    """

    name = "phase-space-grid"
    GRID = {"full": 128, "small": 12}
    DQ = 0.1
    WITNESS_POINTS = 8
    WITNESS_DQ = 0.5

    def __init__(self, seed: int, size: str = "full"):
        n = self.GRID[size]
        rng = np.random.default_rng([seed, 2])
        self.raw = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        self.witness_at = int(rng.integers(0, self.WITNESS_POINTS - 1))
        ref = reference.phase_space_reference(self.raw, self.DQ)
        self.expected = {
            key: (math.fsum(v * m), reference.merged_marginal(v, m))
            for key, (v, m) in ref.items()
        }
        warm_up(8)

    def observables(self, state):
        fn = spectral.PiecewiseFn
        yield "position", lambda: phase_space.position_observable(fn.identity(), state)
        yield "position_squared", lambda: phase_space.position_observable(fn.square(), state)
        yield "momentum", lambda: phase_space.momentum_observable(fn.identity(), state)
        yield "spin", lambda: phase_space.spin_observable(state)

    def round(self) -> RoundResult:
        out = RoundResult()
        state = phase_space.PhaseSpaceState.normalized(Fraction(1, 2), self.raw, self.DQ)
        equiv = phase_space.to_unit_interval(phase_space.build_measure(state))
        for key, make in self.observables(state):
            out.attempted += 1
            try:
                obs = make()
                barrier, _ = phase_space.realize_barrier(obs, equiv)
                level_fn = measure_maps.level_function(obs.cdf, barrier)
            except errors.QcsError as exc:
                out.failed += 1
                out.expect(False, f"{key}: {type(exc).__name__}: {exc}")
                continue
            mean = states.label_mean(level_fn)
            want_mean, (want_values, want_masses) = self.expected[key]
            out.expect(
                abs(mean - want_mean) <= 1e-12,
                f"{key}: label mean {mean!r} vs matrix mean {want_mean!r}",
            )
            masses = level_fn.masses_by_value()
            values = sorted(masses)
            got = np.array([float(masses[v]) for v in values])
            out.expect(
                len(values) == len(want_values)
                and np.allclose(values, want_values, rtol=1e-12, atol=1e-12)
                and float(np.abs(got - want_masses).max()) <= 1e-12,
                f"{key}: mass by value differs from the numpy marginal",
            )
        amps = np.zeros((1, self.WITNESS_POINTS), dtype=complex)
        amps[0, self.witness_at : self.witness_at + 2] = 1.0
        witness = phase_space.PhaseSpaceState.normalized(Fraction(0), amps, self.WITNESS_DQ)
        gap = phase_space.shared_barrier_joint_gap(witness)
        out.expect(gap > 0.05, f"two-point joint gap {gap!r} is not above 0.05")
        return out


# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    matrix: np.ndarray
    psi: np.ndarray
    spec: measure_maps.MapSpec
    seed: int
    positions: np.ndarray
    config: dict
    values: np.ndarray
    weights: np.ndarray
    squared_mean: float
    scaled: bool


def _pairs(a: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in a]


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def _barrier_spec(rng: np.random.Generator, kind: int) -> measure_maps.MapSpec:
    """A barrier with few pieces; `kind` cycles so every seed has the same mix."""
    c = Fraction(int(rng.integers(1, 64)), 64)
    if kind == 0:
        return measure_maps.MapSpec.rotation(c)
    if kind == 1:
        cuts = sorted(rng.choice(np.arange(1, 32), size=2, replace=False))
        a, b = int(cuts[0]), int(cuts[1])
        lengths = [Fraction(a, 32), Fraction(b - a, 32), Fraction(32 - b, 32)]
        return measure_maps.MapSpec.interval_exchange(lengths, [2, 0, 1])
    if kind == 2:
        return measure_maps.MapSpec.expanding(2)
    spec = measure_maps.MapSpec
    return spec.composition(spec.rotation(c), spec.expanding(3))


class MeasureHighdim:
    """`qcs run`-style measure experiments on operators of dimension in the
    low hundreds, a few states each, sampled in fixed chunks.

    One operation is one experiment.  One experiment in eight uses an
    operator scaled to spectral norm 1e6, built from a fixed seed: the
    absolute reconstruction tolerance of the spectral layer rejects it, so it
    is counted as failed while that fault stands.
    """

    name = "measure-highdim"
    # (dimension, states) per operator; scaled operator dimension; labels
    # checked with value(); chunks of sample_values per experiment.
    SIZES = {
        "full": {
            "operators": ((128, 3), (160, 2), (192, 2)),
            "scaled_dim": 128,
            "labels": 200,
            "chunk": 1 << 15,
            "chunks": 4,
        },
        "small": {
            "operators": ((6, 3), (8, 2), (9, 2)),
            "scaled_dim": 8,
            "labels": 20,
            "chunk": 1 << 10,
            "chunks": 3,
        },
    }
    SCALED_SEED = 20210312
    SCALED_NORM = 1e6
    KS_LEVEL = 0.99
    KS_FALSE_ALARM = 1e-4

    def __init__(self, seed: int, size: str = "full"):
        p = self.SIZES[size]
        self.chunk, self.chunks = p["chunk"], p["chunks"]
        self.n = self.chunk * self.chunks
        rng = np.random.default_rng([seed, 3])
        cases = []
        for d, n_states in p["operators"]:
            m = _random_hermitian(rng, d)
            for _ in range(n_states):
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                cases.append((m, v / np.linalg.norm(v), False))
        fixed = np.random.default_rng(self.SCALED_SEED)
        m = _random_hermitian(fixed, p["scaled_dim"])
        v = fixed.normal(size=p["scaled_dim"]) + 1j * fixed.normal(size=p["scaled_dim"])
        cases.append((m * (self.SCALED_NORM / np.linalg.norm(m, 2)), v / np.linalg.norm(v), True))

        self.experiments = []
        for k, (m, v, scaled) in enumerate(cases):
            source = fixed if scaled else rng
            spec = _barrier_spec(source, k % 4)
            exp_seed = self.SCALED_SEED if scaled else int(rng.integers(0, 2**31))
            positions = np.sort(source.choice(self.n, size=p["labels"], replace=False))
            config = {
                "kind": "measure",
                "id": f"highdim-{k}",
                "operator": [_pairs(row) for row in m],
                "state": _pairs(v),
                "barrier": spec.to_json(),
                "seed": exp_seed,
                "samples": 0,
            }
            values, weights = reference.born_weights(m, v)
            squared = reference.squared_mean(m, v)
            self.experiments.append(
                Experiment(
                    m, v, spec, exp_seed, positions, config, values, weights, squared, scaled
                )
            )
        self.ks_band = reference.kolmogorov_quantile(self.KS_LEVEL) / math.sqrt(self.n)
        self.ks_allowed = reference.allowed_exceedances(
            len(self.experiments), self.KS_LEVEL, self.KS_FALSE_ALARM
        )
        warm_up(max(d for d, _ in p["operators"]))

    def round(self) -> RoundResult:
        out = RoundResult()
        exceed = 0
        for exp in self.experiments:
            out.attempted += 1
            try:
                report = harness.run_experiment(harness.ExperimentConfig.from_json(exp.config))
                exceed += self._check(exp, report, out)
            except errors.QcsError as exc:
                out.failed += 1
                expected = (
                    exp.scaled
                    and isinstance(exc, errors.NonHermitian)
                    and str(exc) == "spectral reconstruction failed"
                )
                out.expect(expected, f"{exp.config['id']}: {type(exc).__name__}: {exc}")
        out.expect(
            exceed <= self.ks_allowed,
            f"{exceed} KS statistics above the {self.KS_LEVEL:.0%} band, "
            f"more than the {self.ks_allowed} allowed",
        )
        return out

    def _check(self, exp: Experiment, report, out: RoundResult) -> int:
        """Check one experiment's outputs; returns 1 if its KS statistic is
        above the band, else 0."""
        tag = exp.config["id"]
        rendered = json.loads(harness.render_report(report, "json"))
        rows = rendered["results"]["distribution"]
        got_values = np.array([r["eigenvalue"] for r in rows])
        got_probs = np.array([r["probability"] for r in rows])
        scale = max(1.0, float(np.abs(exp.values).max()))
        out.expect(
            got_values.size == exp.values.size
            and float(np.abs(got_values - exp.values).max()) <= 1e-10 * scale
            and float(np.abs(got_probs - exp.weights).max()) <= 1e-12,
            f"{tag}: exact probabilities differ from the numpy Born weights",
        )

        a = spectral.HermitianOperator(exp.matrix)
        psi = spectral.PureState(exp.psi)
        barrier = measure_maps.build_map(exp.spec)
        samples = np.concatenate(
            [
                states.sample_values(a, psi, barrier, exp.seed, self.chunk, start=k * self.chunk)
                for k in range(self.chunks)
            ]
        )
        ks = stats.ks_statistic(samples, spectral.spectral_cdf(a, psi))
        ks_ref = reference.ks_distance(samples, exp.values, exp.weights)
        out.expect(
            abs(ks - ks_ref) <= 1e-9, f"{tag}: KS statistic {ks!r} vs reference {ks_ref!r}"
        )

        breakpoints = np.array([float(b) for b in barrier.breakpoints])
        mismatched = []
        for pos in exp.positions:
            z = float(sampling.uniform_labels(exp.seed, int(pos), 1)[0])
            if np.abs(z - breakpoints).min() < states.BREAKPOINT_EPS:
                continue  # the sampler redraws such labels from another stream
            v = states.value(a, states.CompleteState(psi, barrier, z))
            if v != samples[pos]:
                mismatched.append(f"{pos}: {v!r} vs {float(samples[pos])!r}")
        out.expect(
            not mismatched,
            f"{tag}: value() at position differs from sample_values at {len(mismatched)} of "
            f"{len(exp.positions)} positions, first {mismatched[:1]}",
        )

        squared = spectral.borel_apply(spectral.PiecewiseFn.square(), a)
        mean = states.ObservableFunction(squared, states.BarrierComplex(exp.spec)).expectation(psi)
        out.expect(
            abs(mean - exp.squared_mean) <= 1e-10 * max(1.0, abs(exp.squared_mean)),
            f"{tag}: squared-observable mean {mean!r} vs psi^dagger A^2 psi {exp.squared_mean!r}",
        )
        return int(ks_ref >= self.ks_band)


WORKLOADS = {w.name: w for w in (VerifySuite, PhaseSpaceGrid, MeasureHighdim)}
