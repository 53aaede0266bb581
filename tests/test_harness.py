"""Config parsing, experiment runs, report emission, KS statistics, CLI."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcs
from qcs import harness
from qcs.errors import BadSpec, EmptySample, SchemaError
from qcs.harness import (
    ExperimentConfig,
    Report,
    emit_report,
    parse_matrix,
    parse_piecewise_fn,
    parse_sectors,
    parse_vector,
    render_report,
    run_experiment,
)
from qcs.measure_maps import MapSpec, PiecewiseConstantFn, build_map, map_equal_ae
from qcs.stats import ks_statistic, ks_threshold
from qcs import verify
from qcs.cli import build_parser, main as cli_main
from layout import cdf_of
from verify_details import DETAILS

WITNESS_CDF = cdf_of((-1.0, 0.0, 1.0), (0.625, 0.875, 1.0))


def test_ks_statistic_perfect_fit():
    # samples placed at the quantile levels of the target
    qs = np.linspace(0.001, 0.999, 2000)
    samples = [WITNESS_CDF.quantile(float(s)) for s in qs]
    assert ks_statistic(samples, WITNESS_CDF) < 0.01


def test_ks_statistic_constant_samples():
    cdf = cdf_of((0.0, 1.0), (0.3, 1.0))
    stat = ks_statistic(np.ones(100), cdf)
    assert stat >= 0.3


def test_ks_statistic_empty():
    with pytest.raises(EmptySample):
        ks_statistic([], WITNESS_CDF)


def ref_ks_statistic(samples, cdf):
    """Two scalar ``searchsorted`` calls per support point, one atom at a time."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    worst, prev_level = 0.0, 0.0
    for r, level in zip(cdf.support, cdf.levels):
        at = np.searchsorted(x, r, side="right") / x.size
        below = np.searchsorted(x, r, side="left") / x.size
        worst = max(worst, abs(at - level), abs(below - prev_level))
        prev_level = level
    return worst


@settings(max_examples=100, deadline=None)
@given(
    cuts=st.sets(st.integers(1, 63), max_size=5),
    picks=st.lists(st.integers(-1, 11), min_size=1, max_size=40),
)
def test_ks_statistic_matches_the_per_atom_loop(cuts, picks):
    """Samples with ties, on support points, between them and outside."""
    levels = [c / 64 for c in sorted(cuts)] + [1.0]
    support = tuple(float(2 * k) for k in range(len(levels)))
    samples, cdf = [p * 1.0 for p in picks], cdf_of(support, levels)
    got, want = ks_statistic(samples, cdf), ref_ks_statistic(samples, cdf)
    assert type(got) is float and got.hex() == float(want).hex()


def test_ks_threshold_table():
    assert abs(ks_threshold(10_000) - 0.0163) < 1e-12


def measure_config(**extra):
    base = {
        "kind": "measure",
        "operator": [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        "state": [[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]],
        "normalize": True,
        "barrier": {"kind": "rotation", "c": "3/8"},
        "seed": 5,
        "samples": 2000,
    }
    base.update(extra)
    return ExperimentConfig.from_json(base)


def test_measure_experiment_runs():
    report = run_experiment(measure_config())
    dist = report.results["distribution"]
    assert [row["eigenvalue"] for row in dist] == [-1.0, 0.0, 1.0]
    assert report.results["max_error"] < 1e-12
    assert report.results["ks"]["passed"]


def test_measure_reproducibility():
    r1 = run_experiment(measure_config())
    r2 = run_experiment(measure_config())
    assert render_report(
        Report(r1.experiment, r1.results, r1.seed, 0.0), "json"
    ) == render_report(Report(r2.experiment, r2.results, r2.seed, 0.0), "json")


def test_measure_samples_file(tmp_path):
    out = tmp_path / "samples.txt"
    config = measure_config(samples=50, samples_out=str(out))
    run_experiment(config)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 50
    assert all(float(x) in (-1.0, 0.0, 1.0) for x in lines)


def test_schema_rejects_non_hermitian():
    with pytest.raises(SchemaError):
        run_experiment(
            ExperimentConfig.from_json(
                {"kind": "measure", "operator": [[0, 1], [0, 0]], "state": [1, 0]}
            )
        )


def test_schema_rejects_unnormalized_state():
    with pytest.raises(SchemaError):
        run_experiment(
            ExperimentConfig.from_json(
                {"kind": "measure", "operator": [[1, 0], [0, 1]], "state": [1, 1]}
            )
        )


def test_schema_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        ExperimentConfig.from_json({"kind": "nope"})
    with pytest.raises(SchemaError):
        ExperimentConfig.from_json({"kind": "measure", "seed": -3})
    with pytest.raises(SchemaError):
        ExperimentConfig.from_json([1, 2, 3])


def test_example4_experiment():
    report = run_experiment(ExperimentConfig.from_json({"kind": "example4"}))
    res = report.results
    assert res["disagreement_exact"] == "1/2"
    assert res["repaired_disagreement_exact"] == "0"
    assert res["repair_equals_shift_ae"] is True
    assert res["passed"] is True


@pytest.mark.parametrize(
    "barrier",
    [
        {"kind": "identity"},
        {"kind": "rotation", "c": "1/5"},
        {"kind": "rotation", "c": "1/3"},
        {"kind": "rotation", "c": "3/8"},
        {"kind": "expanding", "k": 2},
        {"kind": "interval_exchange", "lengths": ["1/2", "1/3", "1/6"], "perm": [2, 0, 1]},
    ],
    ids=["identity", "rotation-1/5", "rotation-1/3", "rotation-3/8", "expanding-2", "exchange"],
)
def test_example4_with_rotated_barrier(barrier):
    report = run_experiment(ExperimentConfig.from_json({"kind": "example4", "barrier": barrier}))
    assert report.results["disagreement_exact"] == "1/2"
    assert report.results["repaired_disagreement_exact"] == "0"
    assert report.results["repair_equals_shift_ae"] is True


def test_cat_experiment_threshold():
    awake = run_experiment(
        ExperimentConfig.from_json({"kind": "cat", "p": "3/10", "z": 0.8})
    )
    assert awake.results["outcome"] == "awake" and awake.results["value"] == 1
    asleep = run_experiment(
        ExperimentConfig.from_json({"kind": "cat", "p": "3/10", "z": 0.6})
    )
    assert asleep.results["outcome"] == "asleep" and asleep.results["value"] == 0
    boundary = run_experiment(
        ExperimentConfig.from_json({"kind": "cat", "p": "3/10", "z": "7/10"})
    )
    assert boundary.results["outcome"] == "asleep"


def test_cat_refuses_a_label_on_a_barrier_breakpoint(capsys):
    """The rotation by 1/2 has a breakpoint at 1/2, where the cat has no
    value; a label next to it still has one."""
    rotation = '{"kind": "rotation", "c": "1/2"}'
    config = {"kind": "cat", "p": "1/2", "z": "1/2", "barrier": json.loads(rotation)}
    with pytest.raises(SchemaError, match="breakpoint"):
        run_experiment(ExperimentConfig.from_json(config))
    assert cli_main(["cat", "--p", "1/2", "--z", "0.5", "--barrier", rotation]) == 2
    assert "breakpoint" in capsys.readouterr().err
    assert cli_main(["cat", "--p", "1/2", "--z", "0.75", "--barrier", rotation]) == 0
    assert '"asleep"' in capsys.readouterr().out


def test_dynamics_experiment_rows():
    config = ExperimentConfig.from_json(
        {
            "kind": "dynamics",
            "H": [[0, 1], [1, 0]],
            "A": [[1, 0], [0, -1]],
            "psi0": [1, 0],
            "times": [0.0, 0.5, 1.0],
        }
    )
    report = run_experiment(config)
    assert report.results["passed"] is True
    rows = report.results["rows"]
    assert [row["t"] for row in rows] == [0.0, 0.5, 1.0]
    for row in rows:
        assert abs(row["operator_side"] - math.cos(2 * row["t"])) < 1e-10
        assert row["gap"] < 1e-10


def test_dynamics_barrier_object_form_applies_the_untagged_override():
    """Config operators and states carry no tags, so the override keyed by
    (None, None) is the barrier every step uses."""
    base = {
        "kind": "dynamics",
        "H": [[0, 1], [1, 0]],
        "A": [[1, 0], [0, -1]],
        "psi0": [1, 0],
        "times": [0.0, 0.5, 1.0],
    }
    table = {"default": {"kind": "rotation", "c": "1/5"}, "overrides": [{"map": {"kind": "identity"}}]}
    plain = run_experiment(ExperimentConfig.from_json({**base, "barrier": {"kind": "identity"}}))
    overridden = run_experiment(ExperimentConfig.from_json({**base, "barrier": table}))
    assert overridden.results["rows"] == plain.results["rows"]
    barrier = harness.parse_barrier_complex(table).map_for((None, None))
    assert map_equal_ae(barrier, build_map(MapSpec.identity()))


def test_phase_space_experiment():
    rng = np.random.default_rng(2)
    n = 8
    raw = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    total = math.sqrt(float((np.abs(raw) ** 2).sum()) * 0.25)
    psi = [[[z.real, z.imag] for z in row] for row in raw / total]
    config = ExperimentConfig.from_json(
        {
            "kind": "phase_space",
            "sigma": "1/2",
            "N": n,
            "dq": 0.25,
            "psi": psi,
            "observable": {"kind": "position", "g": {"kind": "identity"}},
        }
    )
    report = run_experiment(config)
    assert report.results["gap"] < 1e-12
    assert report.results["passed"] is True


def test_verify_suite_experiment_kind():
    report = run_experiment(
        ExperimentConfig.from_json({"kind": "verify_suite", "suite": "spectral"})
    )
    assert report.results["passed"] is True
    assert all(row["passed"] for row in report.results["checks"])
    with pytest.raises(SchemaError):
        run_experiment(ExperimentConfig.from_json({"kind": "verify_suite", "suite": "nope"}))


def test_report_emission_deterministic(tmp_path):
    report = run_experiment(measure_config(samples=0))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, "json", str(p1))
    emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    assert parsed["experiment"] == "measure"


def test_report_csv_rows(tmp_path):
    report = run_experiment(measure_config(samples=0))
    path = tmp_path / "dist.csv"
    emit_report(report, "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eigenvalue,probability"
    assert len(lines) == 4


def test_dynamics_csv(tmp_path):
    config = ExperimentConfig.from_json(
        {
            "kind": "dynamics",
            "H": [[0, 1], [1, 0]],
            "A": [[1, 0], [0, -1]],
            "psi0": [1, 0],
            "times": [0.0, 1.0],
        }
    )
    path = tmp_path / "dyn.csv"
    emit_report(run_experiment(config), "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,operator_side,label_side,gap"
    assert len(lines) == 3


def test_floats_rendered_at_17_digits():
    report = Report("x", {"value": 1 / 3}, 0, 0.0)
    assert "0.33333333333333331" in render_report(report, "json")


def test_cli_example4_and_cat(capsys):
    assert cli_main(["example4"]) == 0
    out = capsys.readouterr().out
    assert '"1/2"' in out.replace(" ", "") or "0.5" in out
    assert cli_main(["cat", "--p", "3/10", "--z", "0.8"]) == 0
    assert "awake" in capsys.readouterr().out


def test_cli_run_and_config_errors(tmp_path, capsys):
    config = {
        "kind": "measure",
        "operator": [[1, 0], [0, -1]],
        "state": [1, 0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nope"}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["run", "--config", str(missing)]) == 2


MAP_SPECS = {
    "rotation": {"kind": "rotation", "c": "1/3"},
    "interval_exchange": {"kind": "interval_exchange", "lengths": ["1/2", "1/2"], "perm": [1, 0]},
    "expanding": {"kind": "expanding", "k": 2},
    "composition": {"kind": "composition", "maps": [{"kind": "expanding", "k": 2}]},
}


@pytest.mark.parametrize(
    "kind, key",
    [
        ("rotation", "c"),
        ("interval_exchange", "lengths"),
        ("interval_exchange", "perm"),
        ("expanding", "k"),
        ("composition", "maps"),
    ],
)
def test_map_spec_missing_key_is_a_bad_spec(kind, key):
    spec = dict(MAP_SPECS[kind])
    MapSpec.from_json(spec)
    del spec[key]
    with pytest.raises(BadSpec, match=repr(key)):
        MapSpec.from_json(spec)


FUNCTION_SPECS = {
    "constant": {"kind": "constant", "c": 2},
    "affine": {"kind": "affine", "a": 2, "b": 1},
    "poly": {"kind": "poly", "coeffs": [0, 1]},
}


@pytest.mark.parametrize(
    "kind, key", [("constant", "c"), ("affine", "a"), ("affine", "b"), ("poly", "coeffs")]
)
def test_function_spec_missing_key_is_a_schema_error(kind, key):
    spec = dict(FUNCTION_SPECS[kind])
    parse_piecewise_fn(spec)
    del spec[key]
    with pytest.raises(SchemaError, match=repr(key)):
        parse_piecewise_fn(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "constant", "c": True},
        {"kind": "constant", "c": "2"},
        {"kind": "affine", "a": "2", "b": 1},
        {"kind": "affine", "a": 2, "b": False},
        {"kind": "poly", "coeffs": "12"},
        {"kind": "poly", "coeffs": [1, True]},
        {"kind": "poly", "coeffs": [0, 1], "lo": "-1"},
        {"kind": "poly", "coeffs": [0, 1], "hi": True},
    ],
)
def test_cli_function_spec_with_a_non_number_exits_2(tmp_path, capsys, spec):
    """Strings and booleans are not numbers: "12" is no coefficient list
    and true is no 1.0."""
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 2,
        "dq": 1.0,
        "psi": [[1, 0]],
        "observable": {"kind": "position", "g": spec},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "function spec" in capsys.readouterr().err


def test_cli_phase_space_without_a_finite_momentum_spacing_exits_2(tmp_path, capsys):
    """N * dq overflows, so dp = 2 pi / (N * dq) is 0."""
    config = {
        "kind": "phase_space",
        "sigma": 0,
        "N": 2,
        "dq": 1e308,
        "psi": [[1e-154, 0]],
        "observable": {"kind": "momentum"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "momentum spacing" in capsys.readouterr().err


def test_cli_rotation_without_offset_exits_2(tmp_path, capsys):
    config = {
        "kind": "measure",
        "operator": [[1, 0], [0, -1]],
        "state": [1, 0],
        "barrier": {"kind": "rotation"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "needs 'c'" in capsys.readouterr().err


def test_cli_expanding_factor_past_the_index_range_exits_2(tmp_path, capsys):
    """range(k + 1) overflowed for k >= 2**63 - 1; 10**30 is refused before
    any allocation."""
    config = {"kind": "cat", "p": "1/2", "z": "1/3", "barrier": {"kind": "expanding", "k": 10**30}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "expanding factor must be an integer from 2 to" in capsys.readouterr().err


CAT_ARGV = ("cat", "--p", "1/2", "--z", "0.75")


def run_qcs_module(module: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -m module *argv`` on the qcs that this suite imports: its
    parent directory leads the child's PYTHONPATH, whether or not (and
    whichever tree) qcs is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(qcs.__file__).parent.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_qcs_runs_the_cli():
    proc = run_qcs_module("qcs", *CAT_ARGV)
    assert proc.returncode == 0, proc.stderr
    assert "awake" in proc.stdout


def test_python_dash_m_qcs_verify_forks_its_workers_cleanly():
    """The real entry point runs every check in forked workers: all pass,
    and neither the pool nor a worker writes to stderr."""
    proc = run_qcs_module("qcs", "verify", "--suite", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{len(DETAILS)}/{len(DETAILS)} checks passed"
    assert proc.stderr == ""


def test_cli_verify_suite_runs(capsys):
    assert cli_main(["verify", "--suite", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "checks passed" in out


def test_cli_verify_accepts_exactly_all_and_the_suites():
    parser = build_parser()
    for name in ("all", *verify.SUITES):
        assert parser.parse_args(["verify", "--suite", name]).suite == name
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "nonexistent"])
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == ["all", *verify.SUITES]


def test_cli_entry_point_installed():
    proc = run_qcs_module("qcs.cli", *CAT_ARGV)
    assert proc.returncode == 0
    assert "awake" in proc.stdout


@pytest.mark.parametrize("lo, hi", [(1, 0), (0.5, 0.5)])
def test_cli_poly_with_empty_domain_exits_2(tmp_path, capsys, lo, hi):
    g = {"kind": "poly", "coeffs": [0, 1], "lo": lo, "hi": hi}
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 2,
        "dq": 1.0,
        "psi": [[1, 0]],
        "observable": {"kind": "position", "g": g},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "bad poly function spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("operator", [[math.nan, 0], [0, 1]]),
        ("operator", [[1, [0, math.inf]], [[0, -math.inf], 1]]),
        ("operator", [[10**400, 0], [0, 1]]),
        ("state", [math.nan, 0]),
        ("state", [[1, math.nan], 0]),
    ],
)
def test_cli_non_finite_entries_exit_2(tmp_path, capsys, field, value):
    config = {"kind": "measure", "operator": [[1, 0], [0, -1]], "state": [1, 0]}
    config[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("times", [[], [0.0, math.nan], [math.inf]])
def test_cli_dynamics_without_finite_times_exits_2(tmp_path, capsys, times):
    config = {
        "kind": "dynamics",
        "H": [[0, 1], [1, 0]],
        "A": [[1, 0], [0, -1]],
        "psi0": [1, 0],
        "times": times,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "times must be a nonempty list of reals" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key", [("position", "g"), ("momentum", "f")])
def test_cli_phase_space_function_not_covering_the_grid_exits_2(tmp_path, capsys, kind, key):
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 4,
        "dq": 1.0,
        "psi": [[0.5, 0.5, 0.5, 0.5]],
        "observable": {"kind": kind, key: {"kind": "poly", "coeffs": [0, 1], "lo": 1.5, "hi": 9}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert f"{kind} function undefined on the grid" in capsys.readouterr().err


def test_cli_phase_space_with_nan_amplitude_exits_2(tmp_path, capsys):
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 2,
        "dq": 1.0,
        "psi": [[1, math.nan]],
        "observable": {"kind": "position", "g": {"kind": "identity"}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_phase_space_with_non_finite_cell_values_exits_2(tmp_path, capsys):
    """g(q) = 1e308 q overflows on the grid; an infinite cell value would
    make the atom tolerance of the barrier factorization infinite."""
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 4,
        "dq": 2.0,
        "psi": [[1, 2, 3, 4]],
        "normalize": True,
        "observable": {"kind": "position", "g": {"kind": "affine", "a": 1e308, "b": 0}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "cell values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["position", "momentum", "spin"])
def test_cli_phase_space_far_tail_gaussian_exits_0(tmp_path, kind):
    """A Gaussian whose tail cells weigh down to about 1e-112, far below the
    float spacing of CDF levels near 1, so several float levels collapse;
    every cell keeps its exact mass and the label mean matches."""
    from qcs.phase_space import PhaseSpaceState, operator_mean

    q = np.arange(64) * 0.5
    psi = np.exp(-((q - 16) ** 2) / 2)
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 64,
        "dq": 0.5,
        "psi": [psi.tolist()],
        "normalize": True,
        "observable": {"kind": kind},
    }
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    state = PhaseSpaceState.normalized(0, psi[None, :], 0.5)
    assert abs(results["label_side"] - operator_mean(state, kind)) < 1e-12
    assert results["passed"]


def run_cli(tmp_path, config):
    """Exit code and report results of `qcs run` on a config."""
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    code = cli_main(["run", "--config", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())["results"]


def test_cli_dynamics_pass_bound_follows_the_scale_of_the_observable(tmp_path):
    """An observable of norm near 1.3e6 leaves the evolution identity a
    float gap of 7e-10, past the bare 1e-10 but far inside 1e-10 times the
    spectral scale."""
    config = {
        "kind": "dynamics",
        "A": [[0, 1e6], [1e6, 5e5]],
        "H": [[1, 0.3], [0.3, -1]],
        "psi0": [0.6, 0.8],
        "times": np.linspace(0, 6.28, 16).tolist(),
    }
    code, results = run_cli(tmp_path, config)
    assert code == 0 and results["passed"] is True
    assert 1e-10 < results["max_gap"] < 1e-8


def test_cli_phase_space_pass_bound_follows_the_scale_of_the_observable(tmp_path):
    """g = 1000 q on a grid up to q = 31.5 leaves a label-side gap of
    1.8e-12, past the bare 1e-12 but inside 1e-12 times the spectral scale."""
    rng = np.random.default_rng(3)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    config = {
        "kind": "phase_space",
        "sigma": "0",
        "N": 64,
        "dq": 0.5,
        "psi": [[[z.real, z.imag] for z in psi]],
        "normalize": True,
        "observable": {"kind": "position", "g": {"kind": "affine", "a": 1000, "b": 0}},
    }
    code, results = run_cli(tmp_path, config)
    assert code == 0 and results["passed"] is True
    assert 1e-12 < results["gap"] < 1e-10


@pytest.mark.filterwarnings("error")
def test_cli_measure_with_eigenvalues_near_the_float_limit_runs_without_warnings(tmp_path):
    """The gap of the eigenvalues +-1e308 overflows a float; the merge
    compares gaps without forming it."""
    config = {"kind": "measure", "operator": [[1e308, 0], [0, -1e308]], "state": [0.6, 0.8], "samples": 200}
    code, results = run_cli(tmp_path, config)
    assert code == 0
    assert [row["eigenvalue"] for row in results["rows"]] == [-1e308, 1e308]


MEASURE = '"kind": "measure", "operator": [[1, 0], [0, -1]], "state": [1, 0]'
DYNAMICS = '"kind": "dynamics", "H": [[0, 1], [1, 0]], "times": [0.0, 1.0]'
PHASE_SPACE = '"kind": "phase_space", "sigma": "0", "N": 2, "dq": 1.0, "observable": {"kind": "spin"}'
POSITION = '"kind": "phase_space", "sigma": "0", "N": 2, "dq": 1.0, "psi": [[1, 0]], "observable": {"kind": "position", "g": %s}'
HUGE = str(10**400)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"kind": "cat", "p": "3/10", "z": 1e400}', id="cat-z-overflow"),
        pytest.param('{"kind": "cat", "p": "3/10", "z": NaN}', id="cat-z-nan"),
        pytest.param('{"kind": "cat", "p": "3/10", "z": "abc"}', id="cat-z-text"),
        pytest.param('{"kind": "cat", "p": 1e400, "z": 0.8}', id="cat-p-overflow"),
        pytest.param('{"kind": "cat", "p": [1], "z": 0.8}', id="cat-p-list"),
        pytest.param("{%s, \"psi\": [[1, 2], [3]]}" % PHASE_SPACE, id="phase-space-ragged-psi"),
        pytest.param("{%s, \"psi\": [5, 6]}" % PHASE_SPACE, id="phase-space-scalar-rows"),
        pytest.param(
            '{%s, "A": [[1, 0], [0, -1]], "psi0": [1, 0], "barrier": {"overrides": '
            '[{"operator": [1], "map": {"kind": "identity"}}]}}' % DYNAMICS,
            id="dynamics-override-operator-list",
        ),
        pytest.param(
            '{%s, "A": [[1, 0], [0, -1]], "psi0": [1, 0], "barrier": {"overrides": 5}}' % DYNAMICS,
            id="dynamics-overrides-not-a-list",
        ),
        pytest.param('{%s, "normalize": "no"}' % MEASURE, id="measure-normalize-text"),
        pytest.param(
            '{%s, "A": [[1, 0], [0, -1]], "psi0": [1, 0], "normalize": 1}' % DYNAMICS,
            id="dynamics-normalize-number",
        ),
        pytest.param('{%s, "psi": [[1, 0]], "normalize": "no"}' % PHASE_SPACE, id="phase-space-normalize-text"),
        pytest.param(
            '{"kind": "measure", "operator": [[1, 0], [0, -1]], "state": [1, 0, 0]}',
            id="measure-dimension-mismatch",
        ),
        pytest.param(
            '{%s, "A": [[1, 0, 0], [0, -1, 0], [0, 0, 0]], "psi0": [1, 0]}' % DYNAMICS,
            id="dynamics-observable-dimension-mismatch",
        ),
        pytest.param(
            '{%s, "A": [[1, 0], [0, -1]], "psi0": [1, 0, 0]}' % DYNAMICS,
            id="dynamics-state-dimension-mismatch",
        ),
        pytest.param(
            '{%s, "samples": 10, "samples_out": "@TMP@/missing/samples.txt"}' % MEASURE,
            id="measure-unwritable-samples-out",
        ),
        pytest.param('{%s, "samples": 10, "samples_out": ["samples.txt"]}' % MEASURE, id="measure-samples-out-list"),
        pytest.param('{%s, "barrier": {"kind": "expanding", "k": 2.5}}' % MEASURE, id="map-k-float"),
        pytest.param(
            '{%s, "barrier": {"kind": "interval_exchange", "lengths": ["1/2", "1/2"], "perm": [0.5, 1]}}'
            % MEASURE,
            id="map-perm-float",
        ),
        pytest.param('{%s, "barrier": {"kind": "rotation", "c": 1e400}}' % MEASURE, id="map-c-overflow"),
        pytest.param(
            '{"kind": "phase_space", "sigma": "0", "N": 2, "dq": %s, "psi": [[1, 0]], "observable": {"kind": "spin"}}'
            % HUGE,
            id="phase-space-dq-huge-int",
        ),
        pytest.param("{%s}" % (POSITION % '{"kind": "constant", "c": %s}' % HUGE), id="fn-c-huge-int"),
        pytest.param("{%s}" % (POSITION % '{"kind": "affine", "a": %s, "b": 0}' % HUGE), id="fn-a-huge-int"),
        pytest.param("{%s}" % (POSITION % '{"kind": "affine", "a": 1, "b": %s}' % HUGE), id="fn-b-huge-int"),
        pytest.param("{%s}" % (POSITION % '{"kind": "poly", "coeffs": [0, %s]}' % HUGE), id="fn-coeffs-huge-int"),
        pytest.param("{%s}" % (POSITION % '{"kind": "poly", "coeffs": [0, 1], "lo": -%s}' % HUGE), id="fn-lo-huge-int"),
        pytest.param("{%s}" % (POSITION % '{"kind": "poly", "coeffs": [0, 1], "hi": %s}' % HUGE), id="fn-hi-huge-int"),
        pytest.param('{%s, "seed": %d}' % (MEASURE, 2**64 + 1), id="seed-beyond-64-bits"),
    ],
)
def test_cli_malformed_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text.replace("@TMP@", str(tmp_path)))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    """The label stream is keyed by 64 bits, so seeds 1 and 2**64 + 1 would
    draw the same labels; the override is rejected like the config key."""
    path = tmp_path / "config.json"
    path.write_text('{%s, "samples": 10}' % MEASURE)
    assert cli_main(["run", "--config", str(path), "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    assert cli_main(["run", "--config", str(path), "--seed", str(2**64 + 1)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# ---------------------------------------------------------------------------
# Matrix, vector and sector parsing against the per-entry reference


def _ref_entry(x) -> complex:
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


def ref_parse_entries(rows) -> np.ndarray:
    """The per-entry parse's last step: the entries, each converted on its
    own, stacked into one array and checked for finiteness once."""
    out = np.array(rows, dtype=complex)
    if not np.isfinite(out).all():
        raise SchemaError("matrix entries must be finite reals or [re, im] pairs")
    return out


def ref_parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("matrix must be a nonempty list of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != len(obj):
            raise SchemaError("matrix must be square")
        rows.append([_ref_entry(x) for x in row])
    return ref_parse_entries(rows)


def ref_parse_vector(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("vector must be a nonempty list")
    return ref_parse_entries([_ref_entry(x) for x in obj])


def ref_parse_sectors(obj, n) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("psi must be a nonempty list of sector arrays")
    if not all(isinstance(row, list) and len(row) == n for row in obj):
        raise SchemaError("psi sector arrays must have length N")
    return ref_parse_entries([[_ref_entry(x) for x in row] for row in obj])


def _outcome(parse, *args):
    """(bytes, shape) of the parsed array, or the error's type and message."""
    try:
        out = parse(*args)
    except SchemaError as exc:
        return type(exc), str(exc)
    assert out.dtype == np.complex128
    return out.tobytes(), out.shape


EDGE_REALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -2.75,
    2**53 + 1, 2**63, -(2**63), 2**63 + 1, 2**64 - 1, 2**64 + 1, 3**500,
    1 << 900, -(1 << 900), 10**400, -(10**400), math.nan, math.inf, -math.inf,
]
REALS = st.one_of(st.sampled_from(EDGE_REALS), st.floats(), st.integers())
NON_REALS = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["1.5", "0", "-0.0", "nan", "1e400", "ab"]),
    st.text(max_size=2),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
)


def _pairs(part):
    return st.builds(lambda re, im, tup: (re, im) if tup else [re, im], part, part, st.booleans())


ANY_ENTRY = st.one_of(
    REALS,
    _pairs(REALS),
    NON_REALS,
    _pairs(st.one_of(REALS, NON_REALS)),
    st.lists(REALS, min_size=1, max_size=3).filter(lambda x: len(x) != 2),
    st.tuples(REALS, REALS, REALS),
)


@st.composite
def entry_rows(draw, n_rows: int, width: int):
    """n_rows rows of width entries: all reals, all pairs, or anything."""
    entry = draw(st.sampled_from([REALS, _pairs(REALS), ANY_ENTRY]))
    return [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(n_rows)]


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    rows = draw(entry_rows(n, n))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[k] = draw(
            st.one_of(
                st.lists(ANY_ENTRY, max_size=n + 1),
                st.lists(REALS, min_size=n, max_size=n).map(tuple),
                NON_REALS,
            )
        )
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([[-0.0, [1, -0.0]], [[-0.0, 0.0], (2**64 + 1, 5e-324)]])
@example([[True, 0], [0, 1]])
@example([["1.5", 0], [0, 1]])
@example([[1, 2], [3, 10**400]])
@example([[[1, 2], [3, 4]], [[5, 6], [7, 8, 9]]])
def test_parse_matrix_matches_the_per_entry_reference(obj):
    assert _outcome(parse_matrix, obj) == _outcome(ref_parse_matrix, obj)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: entry_rows(1, n)).map(lambda rows: rows[0]))
@example([[-0.0, 0.0], [0.0, -0.0]])
@example([False, 1.0])
@example([(1, 2), [3.5, 1 << 900]])
def test_parse_vector_matches_the_per_entry_reference(obj):
    assert _outcome(parse_vector, obj) == _outcome(ref_parse_vector, obj)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(2, 4)).flatmap(
        lambda s: st.tuples(entry_rows(*s), st.integers(1, 5))
    )
)
@example(([[1, -0.0], [[0, 0], 2]], 2))
@example(([[1, 2], [3, 4]], 3))
@example(([[[-0.0, 0.0], (1, 2)]], 2))
@example(([[True, 1.0]], 2))
@example(([["1.5", 0]], 2))
def test_parse_sectors_matches_the_per_entry_reference(case):
    rows, n = case
    assert _outcome(parse_sectors, rows, n) == _outcome(ref_parse_sectors, rows, n)


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("as_pairs", [False, True])
def test_well_formed_configs_parse_without_per_entry_calls(monkeypatch, as_pairs):
    rng = np.random.default_rng(64)
    m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    if as_pairs:
        matrix = [[[x.real, x.imag] for x in row] for row in m.tolist()]
        vector = [(x.real, x.imag) for x in v.tolist()]
    else:
        matrix = m.real.tolist()
        vector = [int(x) for x in (v.real * 1000)]
    expected = ref_parse_matrix(matrix), ref_parse_vector(vector), ref_parse_sectors(matrix, 64)
    calls = _count_calls(monkeypatch, harness, "_entry_to_complex")
    got = parse_matrix(matrix), parse_vector(vector), parse_sectors(matrix, 64)
    assert calls == []
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def test_qcs_run_measure_builds_one_level_function(tmp_path, monkeypatch, capsys):
    """value_distribution and the sampled KS check share one level function."""
    config = {
        "kind": "measure",
        "operator": [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        "state": [1, 1, 1],
        "normalize": True,
        "barrier": {"kind": "composition", "maps": [{"kind": "rotation", "c": "1/3"}, {"kind": "expanding", "k": 3}]},
        "samples": 500,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    calls = _count_calls(monkeypatch, PiecewiseConstantFn, "compose_with_map")
    assert cli_main(["run", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["ks"]["n"] == 500
    assert len(calls) == 1


def test_realized_barriers_give_their_level_functions_without_a_pullback(monkeypatch, capsys):
    """realize_barrier stores each barrier's level function, in the library
    and under qcs run on every phase_space config."""
    from fractions import Fraction
    from pathlib import Path

    from qcs.measure_maps import level_function
    from qcs.phase_space import (
        PhaseSpaceState,
        build_measure,
        momentum_observable,
        position_observable,
        realize_barrier,
        spin_observable,
        to_unit_interval,
    )
    from qcs.spectral import PiecewiseFn

    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    state = PhaseSpaceState.normalized(Fraction(1, 2), raw, 0.25)
    equiv = to_unit_interval(build_measure(state))
    calls = _count_calls(monkeypatch, PiecewiseConstantFn, "compose_with_map")
    for obs in (
        position_observable(PiecewiseFn.square(), state),
        momentum_observable(PiecewiseFn.identity(), state),
        spin_observable(state),
    ):
        barrier, _ = realize_barrier(obs, equiv)
        level_function(obs.cdf, barrier)
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("phase_space_*.json"))
    assert len(configs) == 3
    for path in configs:
        assert cli_main(["run", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["passed"]
    assert calls == []
