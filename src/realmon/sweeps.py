"""Sweep engine: figure-preset grids evaluated on one of three paths.

A sweep walks a grid (monitoring strength, intensity, or an observable axis
angle), evaluates the reality variations at each point along one of three
paths (exact channel algebra, noiseless dilation circuits, or noisy
circuits with finite-shot tomography), and renders the records as CSV or
JSON.  Records are produced in grid order and all randomness is derived
from the config seed per (point, repeat, state), so identical configs give
byte-identical CSV regardless of evaluation order.  The analytic path
evaluates the whole grid as one stack; the circuit and noisy paths go point
by point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuits import build_monitor_circuit, epsilon_of_strength, run_circuit_density, strength_of_epsilon
from .config import DEFAULT_SHOTS, ConfigError, SweepConfig, resolve_state
from .noise import confusion_from_flip
from .observables import ObservableStack, observable_from_axis
from .output import write_json
from .reality import classify_case, reality_report
from .states import von_neumann_entropy
from .tomography import estimate_pauli, reconstruct_state

# The benchmark in perfbench/ reads these names from realmon.sweeps, so they are re-exported here.
from .certify import certify_circuits  # noqa: F401
from .config import DEFAULT_GRID_POINTS, DEFAULT_REPEATS, make_config  # noqa: F401
from .verify import verify_cases  # noqa: F401

CSV_HEADER = "theta_m,epsilon,dR_X,dR_Xp,S_rho,S_mon,S_probe,S_probe_mon,case,path,se_dR_X,se_dR_Xp"


@dataclass(frozen=True)
class SweepRecord:
    theta_m: float
    epsilon: float
    dR_X: float
    dR_Xp: float
    S_rho: float
    S_mon: float
    S_probe: float
    S_probe_mon: float
    case: str
    path: str
    se_dR_X: float | None = None
    se_dR_Xp: float | None = None


def _point_parameters(config: SweepConfig, value: float):
    """Resolve one grid value into (theta_m_column, epsilon, monitor_axis, probe_axis)."""
    monitor_axis = config.monitor_axis
    probe_axis = config.probe_axis
    if config.grid_kind == "theta_m":
        eps = epsilon_of_strength(config.coupling, value)
        return value, eps, monitor_axis, probe_axis
    if config.grid_kind == "epsilon":
        theta_m = strength_of_epsilon(config.coupling, value)
        return theta_m, value, monitor_axis, probe_axis
    if config.sweep_target == "probe":
        probe_axis = (value, probe_axis[1])
    else:
        monitor_axis = (value, monitor_axis[1])
    return value, config.epsilon, monitor_axis, probe_axis


def _circuit_states(config, rho, eps, monitor_axis, probe_axis, depolarizing):
    theta_m = strength_of_epsilon(config.coupling, eps)
    mon_circ = build_monitor_circuit([monitor_axis], theta_m, config.coupling)
    probe_circ = build_monitor_circuit([probe_axis], math.pi / 2, "CZ")
    mon = run_circuit_density(mon_circ, rho, depolarizing)
    probe = run_circuit_density(probe_circ, rho, depolarizing)
    probe_mon = run_circuit_density(probe_circ, mon, depolarizing)
    return mon, probe, probe_mon


def _tomography_entropies(config, index, states) -> list[list[float]]:
    """One entropy row per tomography repeat, each state sampled from its own seed."""
    repeats = 1 if config.shots == 0 else config.repeats
    confusion = confusion_from_flip(config.readout_flip)
    rows = []
    for rep in range(repeats):
        row = []
        for state_idx, state in enumerate(states):
            rng = np.random.default_rng([config.seed, index, rep, state_idx])
            bloch = estimate_pauli(state, config.shots, rng, confusion)
            row.append(von_neumann_entropy(reconstruct_state(bloch)))
        rows.append(row)
    return rows


def _record(theta_m: float, epsilon: float, entropies, case, path: str) -> SweepRecord:
    """One record from rows of (S_rho, S_mon, S_probe, S_probe_mon).

    The exact paths give one row; the noisy path gives one row per
    tomography repeat, and its records carry the standard errors of the two
    gains (zero for a single repeat).
    """
    s = np.asarray(entropies, dtype=float)
    rows = np.column_stack((s[:, 1] - s[:, 0], s[:, 2] + s[:, 1] - s[:, 0] - s[:, 3], s))
    means = [float(m) for m in rows.mean(axis=0)]
    se = (None, None)
    if path == "noisy":
        se = rows[:, :2].std(axis=0, ddof=1) / math.sqrt(len(rows)) if len(rows) > 1 else np.zeros(2)
        se = (float(se[0]), float(se[1]))
    return SweepRecord(theta_m, epsilon, *means, case=str(case), path=path, se_dR_X=se[0], se_dR_Xp=se[1])


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point of a validated config, in grid order."""
    config.validate()
    rho = resolve_state(config.state)
    depolarizing = config.depolarizing if config.path == "noisy" else 0.0
    points = [_point_parameters(config, value) for value in config.grid_values]
    pairs = [(observable_from_axis(*m_axis), observable_from_axis(*p_axis)) for _, _, m_axis, p_axis in points]
    if config.path == "analytic":
        # the whole grid is one stack: one evaluation for all points
        report = reality_report(
            ObservableStack(x for x, _ in pairs),
            ObservableStack(xp for _, xp in pairs),
            np.array([eps for _, eps, _, _ in points]),
            rho,
        )
        exact = np.broadcast_arrays(
            report.entropy_initial, report.entropy_monitored, report.entropy_probe, report.entropy_probe_monitored
        )
    records: list[SweepRecord] = []
    for index, ((theta_col, eps, monitor_axis, probe_axis), (x_obs, xp_obs)) in enumerate(zip(points, pairs)):
        if config.path == "analytic":
            entropies = [[s[index] for s in exact]]
        else:
            states = (rho, *_circuit_states(config, rho, eps, monitor_axis, probe_axis, depolarizing))
            if config.path == "circuit":
                entropies = [[von_neumann_entropy(state) for state in states]]
            else:
                entropies = _tomography_entropies(config, index, states)
        case = classify_case(x_obs, xp_obs, rho)
        records.append(_record(theta_col, eps, entropies, case, config.path))
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def render_csv(records: list[SweepRecord]) -> str:
    if not records:
        raise ConfigError("records: nothing to emit")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    _fmt(r.theta_m),
                    _fmt(r.epsilon),
                    _fmt(r.dR_X),
                    _fmt(r.dR_Xp),
                    _fmt(r.S_rho),
                    _fmt(r.S_mon),
                    _fmt(r.S_probe),
                    _fmt(r.S_probe_mon),
                    r.case,
                    r.path,
                    _fmt(r.se_dR_X),
                    _fmt(r.se_dR_Xp),
                )
            )
        )
    return "\n".join(lines) + "\n"


def sweep_metadata(config: SweepConfig) -> dict:
    meta = asdict(config)
    meta["tomography"] = (
        "simulated per-axis sampling with symmetric readout confusion; "
        f"shots={config.shots} (default {DEFAULT_SHOTS}), repeats={config.repeats}"
    )
    if config.grid_kind == "axis_theta":
        meta["theta_m_column"] = "swept observable axis angle (rad)"
    else:
        meta["theta_m_column"] = "monitoring strength angle (rad)"
    return meta


def emit_json(records: list[SweepRecord], config: SweepConfig, path: str):
    if not records:
        raise ConfigError("records: nothing to emit")
    payload = {"metadata": sweep_metadata(config), "records": [asdict(r) for r in records]}
    write_json(path, payload)
