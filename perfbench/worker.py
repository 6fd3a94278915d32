"""One workload process: set up, run top-level calls, report one JSON line.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` on ``PYTHONPATH``.  Modes:

  setup    import, build inputs, warm up, report the ready time, exit
  measure  setup, then untraced calls for ``--seconds``: call wall times,
           output checks and peak RSS
  trace    setup, then pairs of (untraced, traced) calls on the same inputs
           for ``--seconds``: per-layer metrics and tracing overhead

Both timed modes also report the fingerprint and a fixed reference loop
timed before and after the calls.

The ready time is ``time.monotonic()``, which is system-wide on Linux, so
the parent can subtract its own spawn time from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback

REFERENCE_LOOP_N = 3_000_000


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop; a machine-speed probe only."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


def git_commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: str, seed: int) -> dict:
    import numpy as np
    import realmon

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    eig_backend = getattr(realmon, "eig_backend", None)
    return {
        "realmon_version": realmon.__version__,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "eig_backend": eig_backend() if eig_backend else "absent",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_call(workload, inputs, workdir, run=None):
    """One checked top-level call: (seconds, output or None, ok)."""
    start = time.perf_counter()
    try:
        output = run(workload.call, inputs, workdir) if run else workload.call(inputs, workdir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, False
    elapsed = time.perf_counter() - start
    return elapsed, output, bool(workload.check(inputs, output))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    import realmon
    import realmon.cli  # noqa: F401  (part of what a CLI user pays at start)

    expected_src = os.path.realpath(os.path.join(args.root, "src", "realmon"))
    if os.path.dirname(os.path.realpath(realmon.__file__)) != expected_src:
        print(f"realmon imported from {realmon.__file__}, not {expected_src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=args.root) as workdir:
        warm = workload.smallest()
        _, _, warm_ok = run_call(warm, warm.inputs(args.seed, 0), workdir)
        ready = time.monotonic()
        result = {"ready_monotonic": ready, "warm_up_ok": warm_ok}
        if args.mode != "setup":
            before = reference_loop_s()
            result.update((measure if args.mode == "measure" else trace)(workload, args, workdir))
            result["reference_loop_s"] = [before, reference_loop_s()]
            result["fingerprint"] = fingerprint(args.root, args.seed)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def measure(workload, args, workdir) -> dict:
    seconds, units, oks, first = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while not seconds or time.perf_counter() < deadline:
        inputs = workload.inputs(args.seed, len(seconds))
        elapsed, output, ok = run_call(workload, inputs, workdir)
        if first is None:
            first = (inputs, output)
        seconds.append(elapsed)
        units.append(workload.units(inputs))
        oks.append(ok)
    if oks[0] and hasattr(workload, "replay_matches"):
        oks[0] = workload.replay_matches(*first, workdir)
    return {
        "call_seconds": seconds,
        "units": units,
        "attempted": len(oks),
        "failed": oks.count(False),
    }


def trace(workload, args, workdir) -> dict:
    from spans import Tracer, traced

    tracer = Tracer()
    inputs = workload.inputs(args.seed, 0)
    untraced_s, attempted, failed = 0.0, 0, 0
    deadline = time.perf_counter() + args.seconds
    while tracer.top_calls == 0 or time.perf_counter() < deadline:
        elapsed, _, ok = run_call(workload, inputs, workdir)
        untraced_s += elapsed
        with traced(tracer):
            _, _, traced_ok = run_call(workload, inputs, workdir, run=tracer.top_level)
        attempted += 2
        failed += (not ok) + (not traced_ok)
    silent = tracer.silent_spans(workload.expected)
    if silent:
        raise RuntimeError(f"expected spans recorded no call on {workload.name}: {silent}")
    metrics = tracer.metrics(untraced_s)
    return {
        "attempted": attempted,
        "failed": failed,
        "traced_calls": tracer.top_calls,
        "per_layer": {name: list(v) for name, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
