"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import realmon
from run import WORKLOAD_NAMES, tail
from spans import SPANS, Tracer, per_layer_metrics, realmon_modules, traced
from workloads import WORKLOADS, Certify, ExactSweeps, NoisySweep, Verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 3.0

    def broken():
        clock.now += 4.0
        raise ValueError("boom")

    wrapped_leaf = tracer.wrap("fake.leaf", leaf)
    wrapped_broken = tracer.wrap("fake.broken", broken)

    def middle():
        clock.now += 2.0
        wrapped_leaf()
        wrapped_leaf()
        with pytest.raises(ValueError):
            wrapped_broken()
        clock.now += 1.0

    wrapped_middle = tracer.wrap("fake.middle", middle)

    def top():
        clock.now += 0.5
        wrapped_middle()

    tracer.top_level(tracer.wrap("fake.top", top))
    stats = tracer.stats
    assert (stats["fake.leaf"].calls, stats["fake.leaf"].self_s) == (2, 6.0)
    assert (stats["fake.broken"].calls, stats["fake.broken"].self_s) == (1, 4.0)
    assert (stats["fake.middle"].calls, stats["fake.middle"].self_s) == (1, 3.0)
    assert (stats["fake.top"].calls, stats["fake.top"].self_s) == (1, 0.5)
    assert tracer.top_wall_s == 13.5
    assert tracer.metrics(untraced_wall_s=13.5)["trace.unattributed_ms"][0] == 0.0


def _bindings():
    return {(m.__name__, name): value for m in realmon_modules() for name, value in vars(m).items()}


def test_wrappers_cover_import_sites_and_are_restored():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with traced(tracer):
            import realmon.circuits
            import realmon.states
            import realmon.sweeps

            for fn in (
                realmon.hermitian_eig,
                realmon.states.hermitian_eig,
                realmon.circuits.tensor_product,
                realmon.sweeps.run_circuit_density,
                realmon.sweeps.classify_case,
                realmon.sweeps.von_neumann_entropy,
            ):
                assert getattr(fn, "__wrapped_by_perfbench__", False), fn
            realmon.sweeps.verify_cases(seed=0, trials=1, dims=(2,))
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    assert not getattr(realmon.hermitian_eig, "__wrapped_by_perfbench__", False)
    assert tracer.stats["reality.reality_report"].calls > 0


SMALL = {
    "verify": Verify(trials=2, dims=(2, 3, 4)),
    "certify": Certify(resolution=3),
    "noisy_sweep": NoisySweep(points=3, shots=64, repeats=2),
    "exact_sweeps": ExactSweeps(points=3),
}


def _traced_counts(workload, seed, workdir):
    """Counts of one traced call made after the warm-up, as the worker does;
    without the warm-up the first call also fills lazy caches."""
    warm = workload.smallest()
    warm.call(warm.inputs(seed, 0), workdir)
    tracer = Tracer()
    inputs = workload.inputs(seed, 0)
    with traced(tracer):
        output = tracer.top_level(workload.call, inputs, workdir)
    assert workload.check(inputs, output)
    assert tracer.silent_spans(workload.expected) == []
    metrics = tracer.metrics(untraced_wall_s=1.0)
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit in ("count", "B") or name.endswith("distinct_frac")
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    first = _traced_counts(SMALL[name], 7, str(tmp_path))
    second = _traced_counts(SMALL[name], 7, str(tmp_path))
    assert first == second
    assert any(first.values())


def test_exact_sweeps_check_catches_disagreeing_paths():
    workload = SMALL["exact_sweeps"]
    configs = workload.inputs(3, 0)
    output = workload.call(configs, None)
    assert workload.check(configs, output)
    records, csv, chart = output[1]
    bad = dataclasses.replace(records[1], dR_Xp=records[1].dR_Xp + 1e-6)
    output[1] = ([records[0], bad, *records[2:]], csv, chart)
    assert not workload.check(configs, output)


def test_noisy_sweep_replays_byte_identical(tmp_path):
    workload = SMALL["noisy_sweep"]
    config = workload.inputs(5, 1)
    output = workload.call(config, str(tmp_path))
    assert workload.check(config, output)
    assert workload.replay_matches(config, output, str(tmp_path))
    assert config.grid_values != workload.inputs(5, 2).grid_values


def test_tail_is_the_nearest_rank_90th_percentile():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 0)
    assert tail([float(v) for v in range(20, 0, -1)]) == (18.0, 2)
    assert tail([float(v) for v in range(1, 201)]) == (180.0, 20)


def test_benchmark_json_names_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert {span.split(".")[0] for span in SPANS} == {
        "linalg", "states", "observables", "channels", "reality", "sampling",
        "circuits", "noise", "tomography", "sweeps", "svg",
    }
