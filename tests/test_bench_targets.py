"""The traced benchmark run wraps the qcs functions listed in
perfbench/spans.py; each of them must still exist where it is listed, and
each work counter must read what its target returns.  Every qcs name the
benchmark's workloads and tests read must resolve."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

from qcs import measure_maps, phase_space, sampling, spectral, states

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = load_spans()
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        home = importlib.import_module("qcs." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"qcs.{module_name}.{attr}")
    assert len(spans.TARGETS) > 0 and not missing


def test_every_work_counter_reads_a_real_output_of_its_target():
    """Each counter runs on one output of the call it is attached to and
    counts something; a target with a counter and no output here fails."""
    a = spectral.HermitianOperator(np.array([[1, 1j, 0], [-1j, 0, 2], [0, 2, -1]]))
    psi = spectral.PureState.normalized(np.array([1, 1j, 2]))
    rotation = measure_maps.build_map(measure_maps.MapSpec.rotation(Fraction(1, 3)))
    cdf = spectral.spectral_cdf(a, psi)
    levels = measure_maps.level_function(cdf, rotation)
    grid = phase_space.PhaseSpaceState.normalized(Fraction(0), np.ones((1, 4), dtype=complex), 0.5)
    outputs = {
        "eigensystem": lambda: spectral.eigensystem(a),
        "borel_apply": lambda: spectral.borel_apply(spectral.PiecewiseFn.square(), a),
        "build_map": lambda: measure_maps.build_map(measure_maps.MapSpec.expanding(3)),
        "compose": lambda: measure_maps.compose(measure_maps.build_map(measure_maps.MapSpec.expanding(2)), rotation),
        "PiecewiseConstantFn.compose_with_map": lambda: measure_maps.quantile_pcf(cdf).compose_with_map(rotation),
        "invert": lambda: measure_maps.invert(rotation),
        "factor_against_cdf": lambda: measure_maps.factor_against_cdf(levels, cdf),
        "sample_values": lambda: states.sample_values(a, psi, rotation, 5, 20),
        "uniform_labels": lambda: sampling.uniform_labels(5, 0, 20),
        "to_unit_interval": lambda: phase_space.to_unit_interval(phase_space.build_measure(grid)),
    }
    spans = load_spans()
    counted = [(attr, counter) for _, attr, _, counter in spans.TARGETS if counter is not None]
    assert counted and {attr for attr, _ in counted} <= set(outputs)
    for attr, counter in counted:
        rec = spans.Recorder()
        counter(rec, (), outputs[attr]())
        assert sum(rec.counts.values()) + sum(rec.maxima.values()) > 0, attr


def qcs_names_read(path):
    """(module, name) for each ``<qcs module>.<name>`` attribute read and
    each ``from qcs.<module> import <name>`` in the source at path."""
    tree = ast.parse(path.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qcs":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcs."):
            names.update((node.module[4:], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((modules[node.value.id], node.attr))
    return names


def test_every_qcs_name_the_benchmark_reads_resolves():
    read = qcs_names_read(PERFBENCH / "workloads.py") | qcs_names_read(PERFBENCH / "test_perfbench.py")
    missing = sorted(
        f"qcs.{module}.{name}"
        for module, name in read
        if not hasattr(importlib.import_module("qcs." + module), name)
    )
    assert ("states", "BREAKPOINT_EPS") in read and not missing
