"""Span recording for the traced benchmark run.

`install` wraps public qcs functions in every qcs module namespace that binds
them, and methods on their classes, so that calls one layer makes into
another are recorded as well.  Each span keeps its name, start, end and
parent; spans stay in memory until the run ends.  Hooks attached to some
functions also count work (pieces built, labels drawn, array bytes) where it
happens.  `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Recorder:
    """Spans as parallel lists; a parent of -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def by_name(self) -> tuple[dict, dict, dict]:
        """(self seconds, outermost inclusive seconds, calls) per span name.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursive calls are not counted twice.
        """
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, t in enumerate(self.self_times()):
            name = self.names[i]
            self_s[name] += t
            calls[name] += 1
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                total_s[name] += self.ends[i] - self.starts[i]
        return self_s, total_s, calls

    def write(self, path) -> None:
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        spans = [
            [index[n], round(s, 9), round(e, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            body = {"names": names, "fields": ["name", "start", "end", "parent"], "spans": spans}
            json.dump(body, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Work counters, run after the wrapped call returns (inside a span of their
# own, so their cost is not charged to the caller's self time).

def _eigensystem_bytes(rec, args, result):
    rec.counts["spectral.eigensystem_bytes"] += sum(p.nbytes for _, p in result.atoms)


def _borel_bytes(rec, args, result):
    _eigensystem_bytes(rec, args, result.__dict__["eigensystem"])


def _map_pieces(rec, args, result):
    rec.counts["measure_maps.pieces_built"] += len(result.breakpoints) - 1
    bits = max(b.denominator.bit_length() for b in result.breakpoints)
    key = "measure_maps.max_denominator_bits"
    rec.maxima[key] = max(rec.maxima[key], bits)


def _labels_sampled(rec, args, result):
    rec.counts["states.labels"] += len(result)


def _labels_drawn(rec, args, result):
    rec.counts["sampling.labels_drawn"] += len(result)


def _cells(rec, args, result):
    rec.counts["phase_space.cells"] += result.n_cells


# (module, attribute, span name, counter); an attribute "Class.method" is
# wrapped on the class.
TARGETS = [
    ("spectral", "eigensystem", "spectral.eigensystem", _eigensystem_bytes),
    ("spectral", "spectral_cdf", "spectral.spectral_cdf", None),
    ("spectral", "borel_apply", "spectral.borel_apply", _borel_bytes),
    ("measure_maps", "build_map", "measure_maps.build_map", _map_pieces),
    ("measure_maps", "compose", "measure_maps.compose", _map_pieces),
    ("measure_maps", "PiecewiseConstantFn.compose_with_map", "measure_maps.compose", _map_pieces),
    ("measure_maps", "invert", "measure_maps.invert", _map_pieces),
    ("measure_maps", "pushforward_density", "measure_maps.pushforward_density", None),
    ("measure_maps", "preimage_intervals", "measure_maps.preimage", None),
    ("measure_maps", "preimage_measure", "measure_maps.preimage", None),
    ("measure_maps", "factor_against_cdf", "measure_maps.factor_against_cdf", _map_pieces),
    ("measure_maps", "level_function", "measure_maps.level_function", None),
    ("measure_maps", "map_equal_ae", "measure_maps.equal_ae", None),
    ("measure_maps", "PiecewiseConstantFn.equal_ae", "measure_maps.equal_ae", None),
    ("states", "value", "states.value", None),
    ("states", "sample_values", "states.sample_values", _labels_sampled),
    ("states", "value_distribution", "states.value_distribution", None),
    ("states", "ObservableFunction.expectation", "states.expectation", None),
    ("states", "expectation_via_labels", "states.expectation", None),
    ("states", "label_mean", "states.expectation", None),
    ("dynamics", "lifted_components", "dynamics.lifted_components", None),
    ("dynamics", "intertwine_check", "dynamics.intertwine_check", None),
    ("dynamics", "evolve", "dynamics.evolve", None),
    ("dynamics", "heisenberg_check", "dynamics.heisenberg_check", None),
    ("dynamics", "gradient_check", "dynamics.gradient_check", None),
    ("phase_space", "build_measure", "phase_space.build_measure", None),
    ("phase_space", "to_unit_interval", "phase_space.to_unit_interval", _cells),
    ("phase_space", "position_observable", "phase_space.observable", None),
    ("phase_space", "momentum_observable", "phase_space.observable", None),
    ("phase_space", "spin_observable", "phase_space.observable", None),
    ("phase_space", "realize_barrier", "phase_space.realize_barrier", None),
    ("phase_space", "shared_barrier_joint_gap", "phase_space.joint_gap", None),
    ("sampling", "uniform_labels", "sampling.uniform_labels", _labels_drawn),
    ("stats", "ks_statistic", "stats.ks_statistic", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "render_report", "harness.render_report", None),
]


def _wrap(fn, name: str, rec: Recorder, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            with rec.span("trace.counting"):
                counter(rec, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every target; returns what `uninstall` needs to undo it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "qcs" or n.startswith("qcs.")]
    undo = []
    for module_name, attr, span_name, counter in TARGETS:
        home = sys.modules["qcs." + module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(original, span_name, rec, counter))
            undo.append((cls, method, original))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(original, span_name, rec, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round; `_s` entries are self seconds
    unless noted in the README."""
    self_s, total_s, calls = rec.by_name()
    c = rec.counts
    built_s = sum(
        self_s[n]
        for n in (
            "measure_maps.build_map",
            "measure_maps.compose",
            "measure_maps.invert",
            "measure_maps.factor_against_cdf",
        )
    )
    out = {
        "spectral.eigensystem_s": self_s["spectral.eigensystem"],
        "spectral.eigensystem_calls": calls["spectral.eigensystem"],
        "spectral.spectral_cdf_s": self_s["spectral.spectral_cdf"],
        "spectral.spectral_cdf_calls": calls["spectral.spectral_cdf"],
        "spectral.borel_apply_s": self_s["spectral.borel_apply"],
        "spectral.eigensystem_mb": c["spectral.eigensystem_bytes"] / 2**20,
        "measure_maps.build_map_s": self_s["measure_maps.build_map"],
        "measure_maps.compose_s": self_s["measure_maps.compose"],
        "measure_maps.compose_calls": calls["measure_maps.compose"],
        "measure_maps.invert_s": self_s["measure_maps.invert"],
        "measure_maps.pushforward_density_s": self_s["measure_maps.pushforward_density"],
        "measure_maps.preimage_s": self_s["measure_maps.preimage"],
        "measure_maps.factor_against_cdf_s": self_s["measure_maps.factor_against_cdf"],
        "measure_maps.level_function_s": self_s["measure_maps.level_function"],
        "measure_maps.equal_ae_s": self_s["measure_maps.equal_ae"],
        "measure_maps.pieces_built": c["measure_maps.pieces_built"],
        "states.value_s": self_s["states.value"],
        "states.value_calls": calls["states.value"],
        "states.sample_values_s": self_s["states.sample_values"],
        "states.value_distribution_s": self_s["states.value_distribution"],
        "states.expectation_s": self_s["states.expectation"],
        "dynamics.lifted_components_s": self_s["dynamics.lifted_components"],
        "dynamics.intertwine_check_s": self_s["dynamics.intertwine_check"],
        "dynamics.evolve_s": self_s["dynamics.evolve"],
        "dynamics.heisenberg_check_s": self_s["dynamics.heisenberg_check"],
        "dynamics.gradient_check_s": self_s["dynamics.gradient_check"],
        "phase_space.build_measure_s": self_s["phase_space.build_measure"],
        "phase_space.to_unit_interval_s": self_s["phase_space.to_unit_interval"],
        "phase_space.observable_s": self_s["phase_space.observable"],
        "phase_space.realize_barrier_s": self_s["phase_space.realize_barrier"],
        "phase_space.joint_gap_s": self_s["phase_space.joint_gap"],
        "phase_space.cells": c["phase_space.cells"],
        "sampling.uniform_labels_s": self_s["sampling.uniform_labels"],
        "sampling.labels_drawn": c["sampling.labels_drawn"],
        "stats.ks_statistic_s": self_s["stats.ks_statistic"],
        "harness.run_experiment_s": total_s["harness.run_experiment"],
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.render_report_s": self_s["harness.render_report"],
        "trace.spans": len(rec.names),
    }
    out = {k: v / rounds for k, v in out.items()}
    # Rates and maxima are not summed over rounds.
    out["measure_maps.cells_per_s"] = _ratio(c["measure_maps.pieces_built"], built_s)
    out["measure_maps.max_denominator_bits"] = rec.maxima["measure_maps.max_denominator_bits"]
    out["states.labels_per_s"] = _ratio(c["states.labels"], total_s["states.sample_values"])
    return out
