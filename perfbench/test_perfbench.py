"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench

Runs every workload end to end through run.py and asserts that its checks
pass, that a traced run reports exactly the per-layer metrics BENCHMARK.json
lists, and that corrupted program outputs are caught by the checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from qcs import harness, states  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks_pass(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    if workload == "measure-highdim":
        # One experiment in eight is the scaled operator, which fails today.
        assert result["failed"] * 8 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    proc = bench(
        "--workload", "measure-highdim", "--seed", "7", "--seconds", "1", "--trace", "1",
        "--size", "small",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["spectral.spectral_cdf_calls"]["value"] > 0
    assert result["metrics"]["harness.run_experiment_s"]["value"] > 0


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _perturb_probability(original):
    def run_experiment(config):
        report = original(config)
        report.results["distribution"][0]["probability"] += 1e-9
        return report

    return run_experiment


def _perturb_sample(original):
    def sample_values(*args, **kwargs):
        return original(*args, **kwargs) + 1.0

    return sample_values


def _perturb_mean(original):
    def label_mean(fn, power=1):
        return original(fn, power) + 1e-9

    return label_mean


@pytest.mark.parametrize(
    "workload, owner, attr, corrupt, expected",
    [
        ("measure-highdim", harness, "run_experiment", _perturb_probability, "Born weights"),
        ("measure-highdim", states, "sample_values", _perturb_sample, "value() at position"),
        ("phase-space-grid", states, "label_mean", _perturb_mean, "label mean"),
    ],
)
def test_corrupted_output_is_caught(monkeypatch, workload, owner, attr, corrupt, expected):
    w = workloads.WORKLOADS[workload](7, "small")
    assert not w.round().problems
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    problems = w.round().problems
    assert any(expected in p for p in problems), problems
