"""Configuration-driven experiment runner and report emission.

Configs are JSON objects with a ``kind`` plus a per-kind payload; matrices
are lists of rows whose entries are reals or [re, im] pairs, rationals are
"p/q" strings, and map specs follow :class:`qcs.measure_maps.MapSpec`.
Reports serialize deterministically (sorted keys, floats at 17 significant
digits), so identical config and seed reproduce identical numeric fields.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any

import numpy as np

from .errors import DomainGap, QcsError, SchemaError
from .measure_maps import (
    MapSpec,
    build_map,
    level_function,
    to_fraction,
)
from .spectral import (
    HermitianOperator,
    PiecewiseFn,
    PureState,
    borel_apply,
    spectral_cdf,
    spectral_scale,
)
from .states import (
    BarrierComplex,
    label_mean,
    sample_values,
    squaring_repair,
    squaring_witness_model,
    value_distribution,
)
from .stats import ks_statistic, ks_threshold
from . import verify as verify_module
from .dynamics import evolution_expectation_check
from .phase_space import (
    PhaseSpaceState,
    build_measure,
    momentum_observable,
    operator_mean,
    position_observable,
    realize_barrier,
    spin_observable,
    to_unit_interval,
)

KINDS = ("measure", "dynamics", "example4", "cat", "phase_space", "verify_suite")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    payload: dict
    experiment_id: str
    seed: int = 0
    samples: int = 0

    @classmethod
    def from_json(cls, obj: Any) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise SchemaError("config must be a JSON object")
        kind = obj.get("kind")
        if kind not in KINDS:
            raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
        seed = obj.get("seed", 0)
        samples = obj.get("samples", 0)
        # the label stream is keyed by a 64-bit Philox key (qcs.sampling)
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise SchemaError("seed must be an integer in [0, 2**64)")
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
            raise SchemaError("samples must be a nonnegative integer")
        return cls(
            kind=kind,
            payload=dict(obj),
            experiment_id=str(obj.get("id", kind)),
            seed=seed,
            samples=samples,
        )


@dataclass(frozen=True)
class Report:
    experiment: str
    results: dict
    seed: int
    runtime: float


# ---------------------------------------------------------------------------
# Payload parsing

def _is_finite_real(v) -> bool:
    """True for a JSON number (not a boolean) within float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _entry_to_complex(x) -> complex:
    try:
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return complex(float(x), 0.0)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            re, im = x
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
                return complex(float(re), float(im))
    except OverflowError:
        pass
    raise SchemaError(f"matrix entries must be finite reals or [re, im] pairs, got {x!r}")


def _finite(a: np.ndarray) -> np.ndarray:
    """One vectorized check instead of one per entry: NaN and infinite
    entries are config errors."""
    if not np.isfinite(a).all():
        raise SchemaError("matrix entries must be finite reals or [re, im] pairs")
    return a


_REALS = {int, float}


def _complex_array(rows: list, width: int) -> np.ndarray:
    """The complex (len(rows), width) array of rows of ``width`` entries,
    every entry a real or an [re, im] pair.

    When every entry is a real, or every entry a list or tuple of exactly two
    reals, and each number's exact type is int or float (so no bool, str or
    numpy scalar), one numpy call converts the flattened numbers: pairs
    become float pairs viewed as complex, which keeps the sign of a zero
    part.  Anything else, or an int beyond float range, is read entry by
    entry, which reports the first bad entry.
    """
    shape = (len(rows), width)
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    try:
        if kinds <= _REALS:
            return np.array(entries, dtype=float).reshape(shape).astype(complex)
        if kinds <= {list, tuple} and set(map(len, entries)) == {2}:
            parts = list(chain.from_iterable(entries))
            if set(map(type, parts)) <= _REALS:
                return np.array(parts, dtype=float).view(complex).reshape(shape)
    except OverflowError:
        pass
    return np.array([[_entry_to_complex(x) for x in row] for row in rows], dtype=complex)


def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("matrix must be a nonempty list of rows")
    for k, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            # rows are read in order: a bad entry in an earlier row is reported first
            _complex_array(obj[:k], len(obj))
            raise SchemaError("matrix must be square")
    return _finite(_complex_array(obj, len(obj)))


def parse_vector(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("vector must be a nonempty list")
    return _finite(_complex_array([obj], len(obj))[0])


def parse_sectors(obj, n: int) -> np.ndarray:
    """Phase-space amplitudes: one row of N entries per spin sector."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("psi must be a nonempty list of sector arrays")
    if not all(isinstance(row, list) and len(row) == n for row in obj):
        raise SchemaError("psi sector arrays must have length N")
    return _finite(_complex_array(obj, n))


def parse_hermitian(obj, what: str) -> HermitianOperator:
    try:
        return HermitianOperator(parse_matrix(obj))
    except QcsError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def parse_normalize(payload: dict) -> bool:
    flag = payload.get("normalize", False)
    if not isinstance(flag, bool):
        raise SchemaError("normalize must be true or false")
    return flag


def parse_state(obj, normalize: bool, what: str, *ops: HermitianOperator) -> PureState:
    vec = parse_vector(obj)
    if any(op.dim != len(vec) for op in ops):
        raise SchemaError(f"{what} dim {len(vec)} vs operator dims {[op.dim for op in ops]}")
    try:
        return PureState.normalized(vec) if normalize else PureState(vec)
    except QcsError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def parse_map_spec(obj, default: MapSpec | None = None) -> MapSpec:
    if obj is None:
        if default is None:
            raise SchemaError("missing map spec")
        return default
    try:
        return MapSpec.from_json(obj)
    except QcsError as exc:
        raise SchemaError(f"bad map spec: {exc}") from exc


def parse_piecewise_fn(obj) -> PiecewiseFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("function spec must be an object with a 'kind'")
    kind = obj["kind"]

    def field(key):
        if key not in obj:
            raise SchemaError(f"{kind} function spec needs {key!r}")
        return obj[key]

    try:
        if kind == "identity":
            return PiecewiseFn.identity()
        if kind == "square":
            return PiecewiseFn.square()
        if kind == "abs":
            return PiecewiseFn.absolute()
        if kind == "constant":
            return PiecewiseFn.constant(float(field("c")))
        if kind == "affine":
            return PiecewiseFn.affine(float(field("a")), float(field("b")))
        if kind == "poly":
            lo = float(obj.get("lo", -math.inf))
            hi = float(obj.get("hi", math.inf))
            return PiecewiseFn.from_poly([float(c) for c in field("coeffs")], lo, hi)
    except (TypeError, ValueError, OverflowError, DomainGap) as exc:
        raise SchemaError(f"bad {kind} function spec: {exc}") from exc
    raise SchemaError(f"unknown function kind {kind!r}")


def parse_barrier_complex(obj) -> BarrierComplex:
    if obj is None:
        return BarrierComplex.identity()
    if isinstance(obj, dict) and "kind" in obj:
        return BarrierComplex(parse_map_spec(obj))
    if not isinstance(obj, dict):
        raise SchemaError("barrier complex must be an object")
    default = parse_map_spec(obj.get("default"), MapSpec.identity())
    entries = obj.get("overrides", [])
    if not isinstance(entries, list):
        raise SchemaError("barrier overrides must be a list")
    overrides = {}
    for entry in entries:
        if not isinstance(entry, dict) or "map" not in entry:
            raise SchemaError("barrier override needs a 'map'")
        key = (entry.get("operator"), entry.get("state"))
        if not all(tag is None or isinstance(tag, str) for tag in key):
            raise SchemaError("barrier override operator and state must be tag strings")
        overrides[key] = parse_map_spec(entry["map"])
    return BarrierComplex(default, overrides)


# ---------------------------------------------------------------------------
# Experiments

def _run_measure(config: ExperimentConfig) -> dict:
    payload = config.payload
    if "operator" not in payload or "state" not in payload:
        raise SchemaError("measure experiment needs 'operator' and 'state'")
    a = parse_hermitian(payload["operator"], "operator")
    psi = parse_state(payload["state"], parse_normalize(payload), "state", a)
    barrier = build_map(parse_map_spec(payload.get("barrier"), MapSpec.identity()))
    cdf = spectral_cdf(a, psi)
    dist = value_distribution(a, psi, barrier)
    exact_rows = [
        {"eigenvalue": v, "probability": float(p), "probability_exact": str(p)}
        for v, p in dist
    ]
    max_err = max(
        abs(float(p) - w) for (_, p), w in zip(dist, cdf.weights)
    )
    results: dict[str, Any] = {
        "distribution": exact_rows,
        "spectral_weights": list(cdf.weights),
        "max_error": max_err,
        "rows": [
            {"eigenvalue": row["eigenvalue"], "probability": row["probability"]}
            for row in exact_rows
        ],
    }
    n = config.samples
    if n > 0:
        samples = sample_values(a, psi, barrier, config.seed, n)
        stat = ks_statistic(samples, cdf)
        threshold = ks_threshold(n, 0.99)
        results["ks"] = {
            "n": n,
            "statistic": stat,
            "threshold_99": threshold,
            "passed": bool(stat < threshold),
        }
        out_path = payload.get("samples_out")
        if out_path:
            if not isinstance(out_path, str):
                raise SchemaError("samples_out must be a path string")
            try:
                with open(out_path, "w") as fh:
                    for x in samples:
                        fh.write(f"{float(x):.17g}\n")
            except OSError as exc:
                raise SchemaError(f"cannot write samples_out {out_path}: {exc}") from exc
            results["samples_path"] = str(out_path)
    return results


def _run_dynamics(config: ExperimentConfig) -> dict:
    payload = config.payload
    for key in ("H", "A", "psi0", "times"):
        if key not in payload:
            raise SchemaError(f"dynamics experiment needs '{key}'")
    h = parse_hermitian(payload["H"], "H")
    a = parse_hermitian(payload["A"], "A")
    psi0 = parse_state(payload["psi0"], parse_normalize(payload), "psi0", h, a)
    times = payload["times"]
    if not isinstance(times, list) or not times or not all(_is_finite_real(t) for t in times):
        raise SchemaError("times must be a nonempty list of reals")
    barriers = parse_barrier_complex(payload.get("barrier"))
    rows = []
    for t, op_side, label_side in evolution_expectation_check(a, h, psi0, barriers, times):
        gap = abs(op_side - label_side)
        rows.append({"t": t, "operator_side": op_side, "label_side": label_side, "gap": gap})
    worst = max(row["gap"] for row in rows)
    bound = 1e-10 * spectral_scale(a.eigensystem.eigenvalues)
    return {"rows": rows, "max_gap": worst, "passed": bool(worst < bound)}


def _run_example4(config: ExperimentConfig) -> dict:
    payload = config.payload
    model = squaring_witness_model()
    alpha = build_map(parse_map_spec(payload.get("barrier"), MapSpec.identity()))
    cdf = spectral_cdf(model.operator, model.state)
    cdf2 = spectral_cdf(borel_apply(PiecewiseFn.square(), model.operator), model.state)
    disagreement, repaired, shift_matches = squaring_repair(alpha)
    return {
        "cdf": [{"value": v, "level": c} for v, c in zip(cdf.support, cdf.levels)],
        "squared_cdf": [{"value": v, "level": c} for v, c in zip(cdf2.support, cdf2.levels)],
        "disagreement": float(disagreement),
        "disagreement_exact": str(disagreement),
        "repaired_disagreement": float(repaired),
        "repaired_disagreement_exact": str(repaired),
        "repair_equals_shift_ae": bool(shift_matches),
        "passed": bool(disagreement == Fraction(1, 2) and repaired == 0 and shift_matches),
        "rows": [
            {"quantity": "disagreement", "value": float(disagreement)},
            {"quantity": "repaired_disagreement", "value": float(repaired)},
        ],
    }


def _run_cat(config: ExperimentConfig) -> dict:
    payload = config.payload
    if "p" not in payload or "z" not in payload:
        raise SchemaError("cat experiment needs 'p' and 'z'")
    try:
        p, z = to_fraction(payload["p"]), to_fraction(payload["z"])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"bad rational p or z: {exc}") from exc
    if not (0 < p < 1):
        raise SchemaError("p must lie strictly between 0 and 1")
    if not (0 < z < 1):
        raise SchemaError("z must lie strictly between 0 and 1")
    alpha = build_map(parse_map_spec(payload.get("barrier"), MapSpec.identity()))
    if alpha.is_breakpoint(z):
        raise SchemaError(f"label {z} is a breakpoint of the barrier")
    level = alpha(z)
    awake = level > 1 - p
    return {
        "survival_weight": float(p),
        "label": float(z),
        "barrier_level": float(level),
        "threshold": float(1 - p),
        "value": 1 if awake else 0,
        "outcome": "awake" if awake else "asleep",
    }


def _run_phase_space(config: ExperimentConfig) -> dict:
    payload = config.payload
    for key in ("sigma", "N", "dq", "psi", "observable"):
        if key not in payload:
            raise SchemaError(f"phase_space experiment needs '{key}'")
    try:
        spin = Fraction(str(payload["sigma"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad spin: {exc}") from exc
    n = payload["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SchemaError("N must be an integer >= 2")
    dq = payload["dq"]
    if not _is_finite_real(dq) or not dq > 0:
        raise SchemaError("dq must be a positive finite number")
    amps = parse_sectors(payload["psi"], n)
    build = PhaseSpaceState.normalized if parse_normalize(payload) else PhaseSpaceState
    try:
        state = build(spin, amps, float(dq))
    except QcsError as exc:
        raise SchemaError(f"bad phase-space state: {exc}") from exc
    obs_spec = payload["observable"]
    if not isinstance(obs_spec, dict) or "kind" not in obs_spec:
        raise SchemaError("observable must be an object with a 'kind'")
    okind = obs_spec["kind"]
    fn = None
    try:
        if okind == "position":
            fn = parse_piecewise_fn(obs_spec.get("g", {"kind": "identity"}))
            obs = position_observable(fn, state)
        elif okind == "momentum":
            fn = parse_piecewise_fn(obs_spec.get("f", {"kind": "identity"}))
            obs = momentum_observable(fn, state)
        elif okind == "spin":
            obs = spin_observable(state)
        else:
            raise SchemaError(f"unknown observable kind {okind!r}")
    except DomainGap as exc:
        raise SchemaError(str(exc)) from exc
    op_side = operator_mean(state, okind, fn)
    barrier, _ = realize_barrier(obs, to_unit_interval(build_measure(state)))
    label_side = label_mean(level_function(obs.cdf, barrier))
    gap = abs(op_side - label_side)
    return {
        "distribution": [
            {"value": v, "level": c} for v, c in zip(obs.cdf.support, obs.cdf.levels)
        ],
        "operator_side": op_side,
        "label_side": label_side,
        "gap": gap,
        "passed": bool(gap < 1e-12 * spectral_scale(obs.cdf.support)),
        "rows": [
            {"value": v, "weight": w} for v, w in zip(obs.cdf.support, obs.cdf.weights)
        ],
    }


def _run_verify_suite(config: ExperimentConfig) -> dict:
    suite = config.payload.get("suite", "all")
    if not isinstance(suite, str):
        raise SchemaError("suite must be a string")
    try:
        outcomes = verify_module.run_suite(suite)
    except KeyError as exc:
        raise SchemaError(str(exc)) from exc
    return {
        "suite": suite,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in outcomes
        ],
        "passed": all(r.passed for r in outcomes),
        "rows": [{"name": r.name, "passed": int(r.passed)} for r in outcomes],
    }


_RUNNERS = {
    "measure": _run_measure,
    "dynamics": _run_dynamics,
    "example4": _run_example4,
    "cat": _run_cat,
    "phase_space": _run_phase_space,
    "verify_suite": _run_verify_suite,
}


def run_experiment(config: ExperimentConfig) -> Report:
    started = time.perf_counter()
    results = _RUNNERS[config.kind](config)
    return Report(
        experiment=config.experiment_id,
        results=results,
        seed=config.seed,
        runtime=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Deterministic serialization

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    if isinstance(value, (np.floating,)):
        return format(float(value), ".17g")
    if isinstance(value, (np.integer,)):
        return str(int(value))
    raise SchemaError(f"cannot serialize {type(value).__name__}")


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        body = {
            "experiment": report.experiment,
            "seed": report.seed,
            "results": report.results,
            "runtime_seconds": round(report.runtime, 6),
        }
        return _fmt(body) + "\n"
    if fmt == "csv":
        rows = report.results.get("rows")
        if rows:
            header = list(rows[0].keys())
            lines = [",".join(header)]
            for row in rows:
                lines.append(
                    ",".join(
                        format(row[k], ".17g") if isinstance(row[k], float) else str(row[k])
                        for k in header
                    )
                )
        else:
            lines = ["key,value"]
            for k in sorted(report.results):
                v = report.results[k]
                if isinstance(v, (int, float, str, bool)):
                    lines.append(f"{k},{_fmt(v) if not isinstance(v, str) else v}")
        return "\n".join(lines) + "\n"
    raise SchemaError(f"unknown report format {fmt!r}")


def emit_report(report: Report, fmt: str, path: str) -> None:
    text = render_report(report, fmt)
    with open(path, "w") as fh:
        fh.write(text)
