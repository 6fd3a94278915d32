"""Sweep engine: figure-preset grids evaluated on one of three paths.

A sweep walks a grid (monitoring strength, intensity, or an observable axis
angle), evaluates the reality variations at each point along one of three
paths (exact channel algebra, noiseless dilation circuits, or noisy
circuits with finite-shot tomography), and renders the records as CSV or
JSON.  Records are produced in grid order and all randomness is derived
from the config seed per (point, repeat, state), so identical configs give
byte-identical CSV regardless of evaluation order.  Every path evaluates
the whole grid as one stack; only circuit construction and case labels are
per grid point.
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
from .states import DensityOperator, von_neumann_entropy
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
    """Resolve one grid value into (theta_m_column, epsilon, strength, monitor_axis, probe_axis)."""
    monitor_axis = config.monitor_axis
    probe_axis = config.probe_axis
    if config.grid_kind == "theta_m":
        return value, epsilon_of_strength(config.coupling, value), value, monitor_axis, probe_axis
    if config.grid_kind == "epsilon":
        theta_m = strength_of_epsilon(config.coupling, value)
        return theta_m, value, theta_m, monitor_axis, probe_axis
    if config.sweep_target == "probe":
        probe_axis = (value, probe_axis[1])
    else:
        monitor_axis = (value, monitor_axis[1])
    return value, config.epsilon, strength_of_epsilon(config.coupling, config.epsilon), monitor_axis, probe_axis


def _circuit_states(config, rho, points, depolarizing) -> DensityOperator:
    """Every grid point's (rho, mon, probe, probe_mon) as one (4N, 2, 2) stack, in (point, state) order."""
    mats = []
    for _, _, theta_m, monitor_axis, probe_axis in points:
        mon_circ = build_monitor_circuit([monitor_axis], theta_m, config.coupling)
        probe_circ = build_monitor_circuit([probe_axis], math.pi / 2, "CZ")
        mon = run_circuit_density(mon_circ, rho, depolarizing)
        probe = run_circuit_density(probe_circ, rho, depolarizing)
        probe_mon = run_circuit_density(probe_circ, mon, depolarizing)
        mats += [rho.matrix, mon.matrix, probe.matrix, probe_mon.matrix]
    return DensityOperator(np.stack(mats), validate=False)


def _tomography_entropies(config, states: DensityOperator) -> np.ndarray:
    """(repeats, N, 4) entropies of the stacked states' tomographic reconstructions.

    Member k, state k % 4 of grid point k // 4, samples repeat r from seed ``[seed, k // 4, r, k % 4]``.
    """
    repeats = 1 if config.shots == 0 else config.repeats
    confusion = confusion_from_flip(config.readout_flip)
    bloch = []
    for rep in range(repeats):
        seeds = [[config.seed, k // 4, rep, k % 4] for k in range(states.batch)]
        bloch.append(estimate_pauli(states, config.shots, seeds, confusion))
    return von_neumann_entropy(reconstruct_state(np.concatenate(bloch))).reshape(repeats, -1, 4)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point of a validated config, in grid order.

    Each path gives a (repeats, N, 4) array of (S_rho, S_mon, S_probe,
    S_probe_mon), with one repeat on the exact paths.  Records hold the repeat
    means; noisy ones also the standard errors of the gains (0 for one repeat).
    """
    config.validate()
    rho = resolve_state(config.state)
    depolarizing = config.depolarizing if config.path == "noisy" else 0.0
    points = [_point_parameters(config, value) for value in config.grid_values]
    pairs = [(observable_from_axis(*m_axis), observable_from_axis(*p_axis)) for *_, m_axis, p_axis in points]
    if config.path == "analytic":
        report = reality_report(
            ObservableStack(x for x, _ in pairs),
            ObservableStack(xp for _, xp in pairs),
            np.array([eps for _, eps, *_ in points]),
            rho,
        )
        parts = report.entropy_initial, report.entropy_monitored, report.entropy_probe, report.entropy_probe_monitored
        s = np.stack(np.broadcast_arrays(*parts), axis=-1)[None]
    else:
        states = _circuit_states(config, rho, points, depolarizing)
        if config.path == "circuit":
            s = von_neumann_entropy(states).reshape(1, -1, 4)
        else:
            s = _tomography_entropies(config, states)
    gains = np.stack((s[..., 1] - s[..., 0], s[..., 2] + s[..., 1] - s[..., 0] - s[..., 3]), axis=-1)
    means = np.concatenate((gains, s), axis=-1).mean(axis=0).tolist()
    se = [(None, None)] * len(points)
    if config.path == "noisy":
        se = (gains.std(axis=0, ddof=1) / math.sqrt(len(s)) if len(s) > 1 else np.zeros_like(gains[0])).tolist()
    return [
        SweepRecord(theta_col, eps, *mean, str(classify_case(x_obs, xp_obs, rho)), config.path, *err)
        for (theta_col, eps, *_), (x_obs, xp_obs), mean, err in zip(points, pairs, means, se)
    ]


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
