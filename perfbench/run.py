"""Benchmark for qcs: three workloads, each measured in fresh processes.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With --trace 0 each workload reports its end-to-end metrics: set-up time
(median of several fresh processes), run time per round (median of the
rounds in one process) and that process's peak resident memory.  With
--trace 1 a separate process alternates untraced and traced rounds and
reports per-layer metrics per traced round, including the tracing overhead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-suite", "phase-space-grid", "measure-highdim")
# Set-up is timed in this many fresh processes besides the measured one.
SETUP_PROBES = 10
# Every process started for one workload ends within this many seconds.
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def start_worker(
    workload: str, seed: int, seconds: float, mode: str, size: str, deadline: float
) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--size", size, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} worker printed no result")
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str, deadline: float
) -> dict:
    """One workload's result object, as printed on the last line."""
    if trace:
        r = start_worker(workload, seed, seconds, "trace", size, deadline)
        layers = r["layers"]
        print(
            f"{workload}: traced round {statistics.median(r['traced_round_s']):.4f} s, "
            f"untraced round {statistics.median(r['round_s']):.4f} s, "
            f"tracing overhead {layers['trace.overhead_s']:.4f} s"
        )
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(layers.items())}
    else:
        setups = [
            start_worker(workload, seed, seconds, "setup", size, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        r = start_worker(workload, seed, seconds, "run", size, deadline)
        setups.append(r["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["round_s"]),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        shown = ", ".join(f"{name} = {v:.4f} {UNITS[name]}" for name, v in values.items())
        print(
            f"{workload}: {shown}; {r['attempted']} operations attempted, {r['failed']} failed; "
            f"{len(r['round_s'])} rounds, {len(setups)} set-ups, {blas_threads()} BLAS threads"
        )
    for problem in r["problems"]:
        print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not r["problems"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="small: reduced inputs for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qcs" / "__init__.py").is_file():
        print(f"qcs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {
            w: measure(w, args.seed, args.seconds, bool(args.trace), args.size, deadline)
            for w in names
        }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
