"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup  build the workload and report the set-up time only;
  run    set up, then run whole rounds for about --seconds, untraced;
  trace  set up, then alternate untraced and traced rounds for about
         --seconds, and report per-layer figures per traced round.

--t0 is the parent's time.monotonic() just before it started this process,
so set-up time counts interpreter start and imports.  The last line of
standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def run_rounds(workload, seconds: float, traced: bool, out_dir: Path, label: str) -> dict:
    """Whole rounds until another round would pass `seconds` (at least one
    round; in trace mode at least one untraced and one traced round)."""
    times, traced_times = [], []
    attempted = failed = 0
    problems: list[str] = []
    check_seconds: dict[str, list[float]] = {}
    rec = spans.Recorder()
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if traced else (False,)):
            undo = spans.install(rec) if with_trace else []
            t = time.perf_counter()
            try:
                with rec.span("bench.round") if with_trace else contextlib.nullcontext():
                    r = workload.round()
            finally:
                spans.uninstall(undo)
            (traced_times if with_trace else times).append(time.perf_counter() - t)
            attempted += r.attempted
            failed += r.failed
            problems.extend(p for p in r.problems if p not in problems)
            if with_trace:
                for name, s in r.check_seconds.items():
                    check_seconds.setdefault(name, []).append(s)
        pair = times[-1] + (traced_times[-1] if traced else 0.0)
        if time.perf_counter() - start + pair > seconds:
            break
    result = {"attempted": attempted, "failed": failed, "problems": problems, "round_s": times}
    if traced:
        layers = spans.layer_metrics(rec, len(traced_times))
        for name in workloads.VerifySuite.check_names():
            layers[f"verify.{name}_s"] = statistics.fmean(check_seconds.get(name, [0.0]))
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        result["layers"] = layers
        result["traced_round_s"] = traced_times
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"spans-{label}.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        label = f"{args.workload}-seed{args.seed}"
        traced = args.mode == "trace"
        result.update(run_rounds(workload, args.seconds, traced, ROOT / ".bench_out", label))
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
