"""Command-line entry points.

Exit codes: 0 everything passed, 1 a property or fit check failed,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QcsError, SchemaError
from .harness import ExperimentConfig, Report, emit_report, render_report, run_experiment
from . import verify as verify_module


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_json(raw)


def _any_failed(results) -> bool:
    if isinstance(results, dict):
        if results.get("passed") is False:
            return True
        return any(_any_failed(v) for v in results.values())
    if isinstance(results, list):
        return any(_any_failed(v) for v in results)
    return False


def _emit_or_print(report: Report, fmt: str, out: str | None) -> None:
    if out:
        emit_report(report, fmt, out)
    else:
        sys.stdout.write(render_report(report, fmt))


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None or args.samples is not None:
        payload = dict(config.payload)
        if args.seed is not None:
            payload["seed"] = args.seed
        if args.samples is not None:
            payload["samples"] = args.samples
        config = ExperimentConfig.from_json(payload)
    report = run_experiment(config)
    _emit_or_print(report, args.format, args.out)
    return 1 if _any_failed(report.results) else 0


def cmd_verify(args) -> int:
    outcomes = verify_module.run_suite(args.suite)
    for r in outcomes:
        print(r.line())
    failed = [r for r in outcomes if not r.passed]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 1 if failed else 0


def _with_barrier(payload: dict, barrier: str | None) -> ExperimentConfig:
    """The config of a built-in experiment, with the --barrier map spec if given."""
    if barrier:
        try:
            payload["barrier"] = json.loads(barrier)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"--barrier must be JSON: {exc}") from exc
    return ExperimentConfig.from_json(payload)


def cmd_example4(args) -> int:
    report = run_experiment(_with_barrier({"kind": "example4"}, args.barrier))
    _emit_or_print(report, args.format, args.out)
    return 0 if report.results["passed"] else 1


def cmd_cat(args) -> int:
    report = run_experiment(_with_barrier({"kind": "cat", "p": args.p, "z": args.z}, args.barrier))
    _emit_or_print(report, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcs",
        description="Deterministic value assignments for quantum observables: "
        "experiments, exact checks, and sampled fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--samples", type=int, help="override the config sample count")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument("--suite", default="all", choices=("all", *verify_module.SUITES))
    p_verify.set_defaults(fn=cmd_verify)

    p_ex = sub.add_parser("example4", help="run the built-in squaring experiment")
    p_ex.add_argument("--barrier", help="map spec as a JSON string")
    p_ex.add_argument("--out", help="write the report here instead of stdout")
    p_ex.add_argument("--format", choices=("json", "csv"), default="json")
    p_ex.set_defaults(fn=cmd_example4)

    p_cat = sub.add_parser("cat", help="threshold test for a yes/no observable")
    p_cat.add_argument("--p", required=True, help="success weight as a rational, e.g. 3/10")
    p_cat.add_argument("--z", required=True, type=float, help="label in ]0,1[")
    p_cat.add_argument("--barrier", help="map spec as a JSON string")
    p_cat.add_argument("--out", help="write the report here instead of stdout")
    p_cat.add_argument("--format", choices=("json", "csv"), default="json")
    p_cat.set_defaults(fn=cmd_cat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
