"""The four benchmark workloads: inputs, one top-level call, output check.

Each workload is a frozen dataclass whose fields are the per-call sizes
(the CLI defaults); ``smallest()`` gives the same workload at its smallest
size, which serves as the warm-up call and as the size the tests use.

Inputs come from the workload seed and the call index only.  The sweep
workloads shift the interior points of each preset grid by a seeded
fraction of a grid step, so no two calls in a run share a grid point other
than the endpoints: a cache that outlives one call would otherwise hit on
every call after the first, which a user running the CLI once per process
never sees.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

sweeps = importlib.import_module("realmon.sweeps")
svg = importlib.import_module("realmon.svg")

EXACT_PRESETS = ("fig1", "fig2", "fig4a", "fig4b", "fig4c")
EXACT_PATHS = ("analytic", "circuit")
AGREEMENT_TOL = 1e-9


def call_seed(seed: int, index: int) -> int:
    """Seed handed to the program for call ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def jittered_config(scenario: str, points: int, seed: int, index: int, **overrides):
    """Preset config for call ``index``: its interior grid points move by a
    seeded part of a step, and the config seed is the call's seed."""
    grid = sweeps.make_config(scenario, points=points).grid_values
    if points > 2:
        step = grid[1] - grid[0]
        shift = float(np.random.default_rng([seed, index]).uniform(-0.5, 0.5)) * step
        grid = (grid[0],) + tuple(g + shift for g in grid[1:-1]) + (grid[-1],)
    return sweeps.make_config(
        scenario, points=points, grid_values=grid, seed=call_seed(seed, index), **overrides
    )


@dataclass(frozen=True)
class Verify:
    """``verify_cases``: eigensolve-heavy invariants on random instances."""

    trials: int = 200
    dims: tuple[int, ...] = (2, 3, 4)

    name = "verify"
    expected = (
        "linalg.hermitian_eig", "states.von_neumann_entropy", "observables.commutes",
        "observables.is_mutually_unbiased", "channels.monitor", "channels.dephase", "reality.reality_report", "reality.delta_reality_other",
        "reality.delta_reality_monitored", "reality.irreality", "reality.classify_case",
        "sampling.random_observable", "sampling.random_density", "sampling.random_mu_pair",
        "sampling.random_commuting_pair", "sampling.mixture_of_eigenstates",
        "sweeps.verify_cases",
    )

    def smallest(self):
        return replace(self, trials=1, dims=(2,))

    def inputs(self, seed, index):
        return call_seed(seed, index)

    def call(self, seed, workdir):
        return sweeps.verify_cases(seed=seed, trials=self.trials, dims=self.dims)

    def units(self, inputs):
        return self.trials * len(self.dims)

    def check(self, inputs, report):
        return report.ok


@dataclass(frozen=True)
class Certify:
    """``certify_circuits``: extracted dilation channels against the algebra."""

    resolution: int = 17
    include_three_qubit: bool = True

    name = "certify"
    expected = (
        "linalg.tensor_product", "linalg.partial_trace", "observables.observable_from_axis",
        "channels.to_superoperator", "circuits.build_monitor_circuit", "circuits.extract_channel",
        "circuits.apply_circuit_matrix", "sweeps.certify_circuits",
    )

    def smallest(self):
        return replace(self, resolution=2, include_three_qubit=False)

    def inputs(self, seed, index):
        return call_seed(seed, index)

    def call(self, seed, workdir):
        return sweeps.certify_circuits(
            resolution=self.resolution, seed=seed, include_three_qubit=self.include_three_qubit
        )

    def units(self, inputs):
        """Channels extracted: 2 couplings x 2 widths x 3 bases per grid point,
        the three-qubit smoke test, and the CNOT mapping scan."""
        return 12 * self.resolution + (3 if self.include_three_qubit else 0) + self.resolution

    def check(self, inputs, report):
        return report.ok


def _finite(record) -> bool:
    values = (
        record.theta_m, record.epsilon, record.dR_X, record.dR_Xp, record.S_rho,
        record.S_mon, record.S_probe, record.S_probe_mon, record.se_dR_X, record.se_dR_Xp,
    )
    return all(v is not None and math.isfinite(v) for v in values)


@dataclass(frozen=True)
class NoisySweep:
    """Fig. 4a on the noisy path: circuits with noise plus shot tomography."""

    points: int = sweeps.DEFAULT_GRID_POINTS
    shots: int = sweeps.DEFAULT_SHOTS
    repeats: int = sweeps.DEFAULT_REPEATS

    name = "noisy_sweep"
    expected = (
        "linalg.hermitian_eig", "linalg.tensor_product", "linalg.partial_trace",
        "states.von_neumann_entropy", "observables.observable_from_axis",
        "observables.commutes", "reality.classify_case", "circuits.build_monitor_circuit",
        "circuits.run_circuit_density", "circuits.apply_circuit_matrix",
        "noise.sample_shots", "noise.apply_readout_noise", "tomography.estimate_pauli",
        "tomography.reconstruct_state", "sweeps.run_sweep", "sweeps.render_csv",
        "sweeps.emit_json",
    )

    def smallest(self):
        return replace(self, points=2, repeats=1)

    def inputs(self, seed, index):
        return jittered_config(
            "fig4a", self.points, seed, index,
            path="noisy", shots=self.shots, repeats=self.repeats,
        )

    def call(self, config, workdir):
        records = sweeps.run_sweep(config)
        csv = sweeps.render_csv(records)
        sweeps.emit_json(records, config, os.path.join(workdir, "noisy_sweep.json"))
        return records, csv

    def units(self, config):
        return len(config.grid_values)

    def check(self, config, output):
        records, _ = output
        return len(records) == len(config.grid_values) and all(_finite(r) for r in records)

    def replay_matches(self, config, output, workdir) -> bool:
        """Same config and seed again: the CSV must be byte-identical."""
        return self.call(config, workdir)[1] == output[1]


@dataclass(frozen=True)
class ExactSweeps:
    """Every preset on the analytic and the noiseless circuit path."""

    points: int = sweeps.DEFAULT_GRID_POINTS

    name = "exact_sweeps"
    expected = (
        "linalg.hermitian_eig", "linalg.tensor_product", "linalg.partial_trace",
        "states.von_neumann_entropy", "observables.observable_from_axis",
        "observables.commutes", "observables.is_mutually_unbiased", "channels.monitor",
        "channels.dephase", "reality.reality_report", "reality.classify_case",
        "circuits.build_monitor_circuit", "circuits.run_circuit_density",
        "circuits.apply_circuit_matrix", "sweeps.run_sweep", "sweeps.render_csv",
        "svg.render_sweep_chart",
    )

    def smallest(self):
        return replace(self, points=2)

    def inputs(self, seed, index):
        return [
            jittered_config(preset, self.points, seed, index, path=path)
            for preset in EXACT_PRESETS
            for path in EXACT_PATHS
        ]

    def call(self, configs, workdir):
        out = []
        for config in configs:
            records = sweeps.run_sweep(config)
            out.append((records, sweeps.render_csv(records), svg.render_sweep_chart(records, config)))
        return out

    def units(self, configs):
        return sum(len(c.grid_values) for c in configs)

    def check(self, configs, output):
        """Analytic and circuit records agree point by point on dR_X and dR_Xp."""
        by_preset: dict = {}
        for config, (records, _, _) in zip(configs, output):
            if len(records) != len(config.grid_values):
                return False
            by_preset.setdefault(config.scenario, []).append(records)
        for analytic, circuit in by_preset.values():
            for a, c in zip(analytic, circuit):
                if not (abs(a.dR_X - c.dR_X) <= AGREEMENT_TOL and abs(a.dR_Xp - c.dR_Xp) <= AGREEMENT_TOL):
                    return False
        return len(by_preset) == len(EXACT_PRESETS)


WORKLOADS = {w.name: w for w in (Verify(), Certify(), NoisySweep(), ExactSweeps())}
