"""Sweep engine: figure-preset grids evaluated on one of three paths.

A sweep walks a grid (monitoring strength, intensity, or an observable axis
angle), evaluates the reality variations at each point along one of three
paths (exact channel algebra, noiseless dilation circuits, or noisy
circuits with finite-shot tomography), and renders the records as CSV or
JSON.  Records are produced in grid order and all randomness comes from
one generator seeded with the config seed, drawn in (repeat, point, state)
order, so identical configs give byte-identical CSV.  Every path evaluates
the whole grid as one stack: the grid resolves once into its strength and
intensity columns and (N, 2) monitor and probe axes, one
``observable_from_axis`` call per axis builds each observable stack, the
circuit paths build one stack of monitor circuits and one of probe
circuits and make three stacked runs, and one ``classify_case`` call
labels every point.  The noisy path takes the (4N, 2, 2) state stack's
``tomography.reconstructions``, chunks of whole repeats seeded with the
config seed, and makes one entropy call per chunk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .circuits import build_monitor_circuit, epsilon_of_strength, run_circuit_density, strength_of_epsilon
from .config import DEFAULT_SHOTS, ConfigError, SweepConfig, resolve_state
from .noise import confusion_from_flip
from .observables import observable_from_axis
from .output import write_json
from .reality import classify_case, reality_report
from .states import DensityOperator, von_neumann_entropy
from .tomography import reconstructions

# The benchmark in perfbench/ reads these names from realmon.sweeps, so they are re-exported here.
from .certify import certify_circuits  # noqa: F401
from .config import DEFAULT_GRID_POINTS, DEFAULT_REPEATS, make_config  # noqa: F401
from .verify import verify_cases  # noqa: F401


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


_CSV_FIELDS = tuple(f.name for f in fields(SweepRecord))
CSV_HEADER = ",".join(_CSV_FIELDS)


def _grid_parameters(config: SweepConfig):
    """Resolve the grid once: its record columns (theta_m, epsilon) as N numbers each,
    the swept one as given so that records hold the config's own numbers, its (N,)
    strength angles and its (N, 2) monitor and probe axes."""
    values, n = config.grid_values, len(config.grid_values)
    monitor_axes, probe_axes = (np.full((n, 2), axis, dtype=float) for axis in (config.monitor_axis, config.probe_axis))
    if config.grid_kind == "theta_m":
        strength = np.array(values, dtype=float)
        return values, epsilon_of_strength(config.coupling, strength).tolist(), strength, monitor_axes, probe_axes
    if config.grid_kind == "epsilon":
        theta_m = [strength_of_epsilon(config.coupling, value) for value in values]
        return theta_m, values, np.array(theta_m), monitor_axes, probe_axes
    (probe_axes if config.sweep_target == "probe" else monitor_axes)[:, 0] = values
    strength = np.full(n, strength_of_epsilon(config.coupling, config.epsilon))
    return values, (config.epsilon,) * n, strength, monitor_axes, probe_axes


def _circuit_states(config, rho, strength, monitor_axes, probe_axes) -> DensityOperator:
    """Every grid point's (rho, mon, probe, probe_mon) as one (4N, 2, 2) stack, in (point, state) order.

    The grid's monitor circuits form one stack of N and its probe circuits
    another, so the whole grid takes three stacked circuit runs.
    """
    rate = config.depolarizing if config.path == "noisy" else 0.0
    mon_circ = build_monitor_circuit([monitor_axes.T], strength, config.coupling, rate)
    probe_circ = build_monitor_circuit([probe_axes.T], math.pi / 2, "CZ", rate)
    mon = run_circuit_density(mon_circ, rho)
    probe = run_circuit_density(probe_circ, rho)
    probe_mon = run_circuit_density(probe_circ, mon)
    mats = (np.broadcast_to(rho.matrix, mon.matrix.shape), mon.matrix, probe.matrix, probe_mon.matrix)
    return DensityOperator(np.stack(mats, axis=1).reshape(-1, 2, 2), validate=False)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point of a config, in grid order.

    Each path gives a (repeats, N, 4) array of (S_rho, S_mon, S_probe,
    S_probe_mon), with one repeat on the exact paths.  Records hold the repeat
    means; noisy ones also the standard errors of the gains (0 for one repeat).
    """
    rho = resolve_state(config.state)
    theta_col, eps, strength, monitor_axes, probe_axes = _grid_parameters(config)
    x = observable_from_axis(*monitor_axes.T)
    xp = observable_from_axis(*probe_axes.T)
    if config.path == "analytic":
        report = reality_report(x, xp, np.array(eps, dtype=float), rho)
        parts = report.entropy_initial, report.entropy_monitored, report.entropy_probe, report.entropy_probe_monitored
        s = np.stack(np.broadcast_arrays(*parts), axis=-1)[None]
    else:
        states = _circuit_states(config, rho, strength, monitor_axes, probe_axes)
        if config.path == "circuit":
            s = von_neumann_entropy(states).reshape(1, -1, 4)
        else:
            repeats = 1 if config.shots == 0 else config.repeats
            confusion = confusion_from_flip(config.readout_flip)
            chunks = reconstructions(states, config.shots, repeats, config.seed, confusion)
            s = np.concatenate([von_neumann_entropy(rec) for rec in chunks]).reshape(repeats, -1, 4)
    gains = np.stack((s[..., 1] - s[..., 0], s[..., 2] + s[..., 1] - s[..., 0] - s[..., 3]), axis=-1)
    means = np.concatenate((gains, s), axis=-1).mean(axis=0).tolist()
    se = [(None, None)] * len(eps)
    if config.path == "noisy":
        se = (gains.std(axis=0, ddof=1) / math.sqrt(len(s)) if len(s) > 1 else np.zeros_like(gains[0])).tolist()
    labels = classify_case(x, xp, rho)
    return [
        SweepRecord(theta, epsilon, *mean, str(label), config.path, *err)
        for theta, epsilon, label, mean, err in zip(theta_col, eps, labels, means, se)
    ]


def render_csv(records: list[SweepRecord]) -> str:
    """One CSV row per record, its fields in declaration order: strings as they
    are, numbers as their float repr and a missing standard error as empty."""
    if not records:
        raise ConfigError("records: nothing to emit")
    lines = [CSV_HEADER]
    for r in records:
        values = (getattr(r, name) for name in _CSV_FIELDS)
        lines.append(",".join(v if isinstance(v, str) else "" if v is None else repr(float(v)) for v in values))
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
    payload = {
        "metadata": sweep_metadata(config),
        "records": [{name: getattr(r, name) for name in _CSV_FIELDS} for r in records],
    }
    write_json(path, payload)
