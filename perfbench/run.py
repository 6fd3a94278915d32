#!/usr/bin/env python3
"""realmon benchmark: one workload, one run, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``work_per_s``,
``call_tail_ms``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` prints the
per-layer metrics from a separate traced process.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report, the machine fingerprint and the drift diagnostic.

The load is a closed loop with one caller: each workload runs in one child
process that makes its top-level calls one after another, with BLAS pinned
to one thread.  The program is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("verify", "certify", "noisy_sweep", "exact_sweeps")
SETUP_PROBES = 4  # setup-only processes per run, besides the measured one
TAIL_PERCENTILE = 90
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_worker(mode: str, args, deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its report and its setup seconds."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready_monotonic"] - spawned


def tail(seconds: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE of the call times, and how many calls lie
    above that rank.

    The percentile is fixed rather than "the highest with ten calls above
    it": that rule moves with the call count, so a run of 11 calls would
    report its second-fastest call and a faster commit a higher percentile.
    """
    ordered = sorted(seconds)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def print_context(report: dict) -> tuple[int, int]:
    """Print fingerprint, drift and error rate; return (attempted, failed)."""
    ref_before, ref_after = report["reference_loop_s"]
    attempted = report["attempted"] + 1
    failed = report["failed"] + (not report["warm_up_ok"])
    print(f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    print(
        f"drift reference_loop_before_s={ref_before:.4f} reference_loop_after_s={ref_after:.4f} "
        f"change={ref_after / ref_before - 1.0:+.2%} (diagnostic only; no metric is rescaled)"
    )
    print(f"error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} attempted, warm-up included)")
    return attempted, failed


def end_to_end(args, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(run_worker("setup", args, deadline)[1])
    report, setup_s = run_worker("measure", args, deadline)
    setups.append(setup_s)

    seconds = report["call_seconds"]
    work_per_s = sum(report["units"]) / sum(seconds)
    tail_s, beyond = tail(seconds)
    attempted, failed = print_context(report)
    print(
        f"work_per_s {work_per_s:.6g} 1/s  ({sum(report['units'])} units in {len(seconds)} calls "
        f"/ {sum(seconds):.3f} s of call time; median call {statistics.median(seconds):.4f} s)"
    )
    print(f"call_tail_ms {tail_s * 1e3:.6g} ms  (p{TAIL_PERCENTILE} of {len(seconds)} calls, {beyond} above it)")
    print(f"setup_s {statistics.median(setups):.6g} s  (median of {len(setups)} processes: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"peak_rss_mb {report['peak_rss_kb'] / 1024:.6g} MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "call_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
        },
    }


def per_layer(args, deadline: float) -> dict:
    report, _ = run_worker("trace", args, deadline)
    attempted, failed = print_context(report)
    metrics = {}
    for name, (value, unit) in report["per_layer"].items():
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"traced calls {report['traced_calls']}; counts and self times are per top-level call")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "realmon", "__init__.py")):
        print(f"no realmon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
