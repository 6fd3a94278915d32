"""Outside-in span wrappers around realmon's public functions.

A span wraps one public function at every module binding that refers to it:
the defining module, the package namespace and every ``from .x import y``
site.  Calls made between modules are therefore timed without touching the
package source.  A span's self time is its duration minus the time covered
by child spans; the wrapper's own bookkeeping is charged to no span, so it
shows up in ``trace.unattributed_ms`` rather than in a layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# Spans per layer, and the metric fields each span reports.  Every span
# listed here is wrapped; a span reporting only ``calls`` still owns its
# self time, so that time is not charged to its caller.
SPANS = {
    "linalg.hermitian_eig": (
        "self_ms", "calls", "calls_d2", "calls_d3", "calls_d4",
        "us_per_call_d2", "us_per_call_d3", "us_per_call_d4", "distinct_frac",
    ),
    "linalg.tensor_product": ("self_ms", "calls"),
    "linalg.partial_trace": ("calls",),
    "states.von_neumann_entropy": ("self_ms", "calls"),
    "observables.observable_from_axis": ("self_ms", "calls"),
    "observables.commutes": ("self_ms", "calls"),
    "observables.is_mutually_unbiased": ("self_ms", "calls"),
    "channels.monitor": ("self_ms", "calls"),
    "channels.dephase": ("self_ms", "calls"),
    "channels.to_superoperator": ("self_ms", "calls"),
    "reality.reality_report": ("self_ms", "calls"),
    "reality.delta_reality_other": ("self_ms", "calls"),
    "reality.delta_reality_monitored": ("self_ms", "calls"),
    "reality.irreality": ("self_ms", "calls"),
    "reality.classify_case": ("self_ms", "calls"),
    "sampling.random_observable": ("self_ms", "calls"),
    "sampling.random_density": ("self_ms", "calls"),
    "sampling.random_mu_pair": ("self_ms", "calls"),
    "sampling.random_commuting_pair": ("self_ms", "calls"),
    "sampling.mixture_of_eigenstates": ("self_ms", "calls"),
    "circuits.build_monitor_circuit": ("self_ms", "calls"),
    "circuits.run_circuit_density": ("self_ms", "calls"),
    "circuits.extract_channel": ("self_ms", "calls"),
    "circuits.apply_circuit_matrix": ("self_ms", "calls"),
    "noise.sample_shots": ("self_ms", "calls", "shots"),
    "noise.apply_readout_noise": ("self_ms", "calls"),
    "tomography.estimate_pauli": ("self_ms", "calls"),
    "tomography.reconstruct_state": ("self_ms", "calls"),
    "sweeps.run_sweep": ("self_ms",),
    "sweeps.verify_cases": ("self_ms",),
    "sweeps.certify_circuits": ("self_ms",),
    "sweeps.render_csv": ("self_ms", "bytes"),
    "sweeps.emit_json": ("self_ms", "bytes"),
    "svg.render_sweep_chart": ("self_ms", "bytes"),
}

# field -> (unit, better)
FIELD_UNITS = {
    "self_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "calls_d2": ("count", "lower"),
    "calls_d3": ("count", "lower"),
    "calls_d4": ("count", "lower"),
    "us_per_call_d2": ("us", "lower"),
    "us_per_call_d3": ("us", "lower"),
    "us_per_call_d4": ("us", "lower"),
    "distinct_frac": ("fraction", "higher"),
    "shots": ("count", "lower"),
    "bytes": ("B", "lower"),
}

RUN_METRICS = {
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        (f"{span}.{field}", *FIELD_UNITS[field])
        for span, fields in SPANS.items()
        for field in fields
    ]
    out.extend((name, unit, better) for name, (unit, better) in RUN_METRICS.items())
    return out


class SpanStats:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


def _eig_hook(tracer, stats, args, kwargs, result, self_s):
    m = args[0] if args else kwargs["m"]
    d = len(m)
    stats.add(f"calls_d{d}", 1)
    stats.add(f"self_s_d{d}", self_s)
    tracer.eig_inputs.add(hash((d, _as_bytes(m))))


def _as_bytes(m) -> bytes:
    return np.ascontiguousarray(m, dtype=complex).tobytes()


def _shots_hook(tracer, stats, args, kwargs, result, self_s):
    stats.add("shots", int(args[1] if len(args) > 1 else kwargs["n_shots"]))


def _text_bytes_hook(tracer, stats, args, kwargs, result, self_s):
    stats.add("bytes", len(result.encode("utf-8")))


def _file_bytes_hook(tracer, stats, args, kwargs, result, self_s):
    stats.add("bytes", os.path.getsize(args[2] if len(args) > 2 else kwargs["path"]))


HOOKS = {
    "linalg.hermitian_eig": _eig_hook,
    "noise.sample_shots": _shots_hook,
    "sweeps.render_csv": _text_bytes_hook,
    "svg.render_sweep_chart": _text_bytes_hook,
    "sweeps.emit_json": _file_bytes_hook,
}


class Tracer:
    """Per-span call counts, self time and argument-derived counts.

    ``clock`` is injectable so tests can drive it; the benchmark uses
    ``time.perf_counter``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: SpanStats() for name in SPANS}
        self.eig_inputs: set = set()
        self.eig_distinct = 0
        self.top_calls = 0
        self.top_wall_s = 0.0
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        hook = HOOKS.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            enter = clock()
            frame = [0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                self_s = clock() - start - frame[0]
                stack.pop()
                stats.calls += 1
                stats.self_s += self_s
                if returned and hook is not None:
                    hook(self, stats, args, kwargs, result, self_s)
                if stack:
                    stack[-1][0] += clock() - enter
            return result

        span.__wrapped_by_perfbench__ = True
        return span

    def top_level(self, fn, *args, **kwargs):
        """Run one top-level call, counting it and its wall time."""
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.top_wall_s += self.clock() - start
            self.top_calls += 1
            self.eig_distinct += len(self.eig_inputs)
            self.eig_inputs.clear()

    def metrics(self, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per top-level call, as name -> (value, unit)."""
        n = max(self.top_calls, 1)
        out = {}
        for name, unit, _ in per_layer_metrics():
            span, _, field = name.rpartition(".")
            if span == "trace":
                continue
            out[name] = (self._field(self.stats[span], field, n), unit)
        attributed = sum(s.self_s for s in self.stats.values())
        overhead = self.top_wall_s / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0
        out["trace.overhead_frac"] = (overhead, RUN_METRICS["trace.overhead_frac"][0])
        out["trace.unattributed_ms"] = (
            (self.top_wall_s - attributed) * 1e3 / n,
            RUN_METRICS["trace.unattributed_ms"][0],
        )
        return out

    def _field(self, stats: SpanStats, field: str, n: int) -> float:
        if field == "self_ms":
            return stats.self_s * 1e3 / n
        if field == "calls":
            return stats.calls / n
        if field.startswith("us_per_call_d"):
            d = field.rsplit("d", 1)[1]
            calls = stats.counts.get(f"calls_d{d}", 0)
            return stats.counts.get(f"self_s_d{d}", 0.0) * 1e6 / calls if calls else 0.0
        if field == "distinct_frac":
            return self.eig_distinct / stats.calls if stats.calls else 0.0
        return stats.counts.get(field, 0) / n

    def silent_spans(self, expected) -> list[str]:
        """Expected spans that recorded no call."""
        return [name for name in expected if self.stats[name].calls == 0]


def realmon_modules():
    """Every loaded module of the realmon package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "realmon" or name.startswith("realmon.")
    ]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every binding of every span for the duration of the block.

    Submodules are resolved with ``importlib.import_module``: the package
    re-exports a function named ``reality``, so attribute access on the
    package would find that function instead of the ``reality`` module.
    """
    wrappers = {}
    for name in SPANS:
        module_name, _, func_name = name.rpartition(".")
        module = importlib.import_module(f"realmon.{module_name}")
        fn = getattr(module, func_name)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"{name} is already wrapped")
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    patched = []
    try:
        for module in realmon_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
