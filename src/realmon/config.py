"""Sweep configuration: presets, validation and the shared input checks.

A ``SweepConfig`` is built from a scenario preset plus field overrides
(``make_config``) or from a JSON object (``config_from_json``), and
``validate`` rejects every malformed field with a ``ConfigError`` that names
it.  The checks on integers, seeds, shot counts, finite numbers, output
paths and state specs live here once and serve every entry point.

Grid semantics per scenario: the fig4 presets sweep the strength angle
theta_m (intensity follows from the coupling); the fig1/fig2 presets sweep
the tilted observable's axis angle at fixed intensity, and that swept angle
is what lands in the ``theta_m`` record column.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .noise import DEFAULT_DEPOLARIZING_RATE, DEFAULT_READOUT_FLIP
from .states import DensityOperator, PureState, density_from_pure

SCENARIOS = ("fig1", "fig2", "fig4a", "fig4b", "fig4c", "custom")
PATHS = ("analytic", "circuit", "noisy")
GRID_KINDS = ("theta_m", "epsilon", "axis_theta")

DEFAULT_GRID_POINTS = 33
DEFAULT_SHOTS = 8192
DEFAULT_REPEATS = 10

STATE_PRESETS = {
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "minus": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    "iplus": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "iminus": np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex),
    "zero": np.diag([1.0, 0.0]).astype(complex),
    "one": np.diag([0.0, 1.0]).astype(complex),
    "mixed": np.eye(2, dtype=complex) / 2.0,
}


class ConfigError(ValueError):
    """Configuration or I/O input is malformed; message names the offending field."""


def is_integer(value) -> bool:
    """An integer that is not a bool (``True`` is an ``Integral`` too)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def finite_numbers(values) -> bool:
    """A tuple or list of finite real numbers, none of them a bool."""
    return isinstance(values, (tuple, list)) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) for v in values
    )


def check_seed(seed):
    """Seeds feed ``numpy.random.default_rng``, which takes nonnegative integers."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed: must be a nonnegative integer, got {seed!r}")


def check_shots(shots):
    """Shots per axis: 0 (exact expectations) up to 2**63 - 1, since numpy draws int64 counts."""
    if not (is_integer(shots) and 0 <= shots < 2**63):
        raise ConfigError(f"shots: must be an integer in [0, 2**63 - 1], got {shots!r}")


def check_output_path(name: str, path):
    """An output path is None (no file) or a nonempty string."""
    if not (path is None or (isinstance(path, str) and path)):
        raise ConfigError(f"{name}: must be a nonempty file path, got {path!r}")


def resolve_state(spec) -> DensityOperator:
    """A preset name or a ``{"theta": .., "phi": ..}`` Bloch-angle dict as a qubit state."""
    if isinstance(spec, str):
        try:
            return DensityOperator(STATE_PRESETS[spec], validate=False)
        except KeyError:
            raise ConfigError(
                f"state: unknown preset {spec!r}, expected one of {sorted(STATE_PRESETS)}"
            ) from None
    if isinstance(spec, dict):
        if "theta" not in spec or set(spec) - {"theta", "phi"}:
            raise ConfigError(f"state: angle spec takes numeric 'theta' and optional 'phi' only, got {spec!r}")
        theta, phi = spec["theta"], spec.get("phi", 0.0)
        if not finite_numbers((theta, phi)):
            raise ConfigError(f"state: 'theta' and 'phi' must be finite numbers, got {spec!r}")
        amp = [math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))]
        return density_from_pure(PureState(amp))
    raise ConfigError(f"state: expected preset name or angle dict, got {type(spec).__name__}")


@dataclass(frozen=True)
class SweepConfig:
    scenario: str = "custom"
    state: object = "plus"
    monitor_axis: tuple[float, float] = (0.0, 0.0)
    probe_axis: tuple[float, float] = (math.pi / 2, 0.0)
    grid_kind: str = "theta_m"
    grid_values: tuple[float, ...] = ()
    sweep_target: str | None = None
    epsilon: float = 1.0
    coupling: str = "CZ"
    path: str = "analytic"
    shots: int = DEFAULT_SHOTS
    repeats: int = DEFAULT_REPEATS
    seed: int = 0
    readout_flip: float = DEFAULT_READOUT_FLIP
    depolarizing: float = DEFAULT_DEPOLARIZING_RATE
    out: str | None = None
    svg: str | None = None
    json_out: str | None = None

    def validate(self) -> "SweepConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown value {self.scenario!r}, expected one of {SCENARIOS}")
        if self.path not in PATHS:
            raise ConfigError(f"path: unknown value {self.path!r}, expected one of {PATHS}")
        if self.grid_kind not in GRID_KINDS:
            raise ConfigError(f"grid_kind: unknown value {self.grid_kind!r}")
        if not self.grid_values:
            raise ConfigError("grid_values: grid must be nonempty")
        if not finite_numbers(self.grid_values):
            raise ConfigError(f"grid_values: must be finite numbers, got {self.grid_values!r}")
        for name in ("monitor_axis", "probe_axis"):
            axis = getattr(self, name)
            if not (finite_numbers(axis) and len(axis) == 2):
                raise ConfigError(f"{name}: must be two finite numbers (theta, phi), got {axis!r}")
        if self.grid_kind == "epsilon" and any(not 0.0 <= g <= 1.0 for g in self.grid_values):
            raise ConfigError("grid_values: intensity values must lie in [0, 1]")
        if self.grid_kind == "theta_m" and any(
            not 0.0 <= g <= math.pi / 2 + 1e-12 for g in self.grid_values
        ):
            raise ConfigError("grid_values: strength angles must lie in [0, pi/2]")
        if not (finite_numbers((self.epsilon,)) and 0.0 <= self.epsilon <= 1.0):
            raise ConfigError(f"epsilon: must be a number in [0, 1], got {self.epsilon!r}")
        if self.coupling not in ("CZ", "CNOT"):
            raise ConfigError(f"coupling: must be CZ or CNOT, got {self.coupling!r}")
        if self.grid_kind == "axis_theta" and self.sweep_target not in ("probe", "monitor"):
            raise ConfigError("sweep_target: axis_theta sweeps need 'probe' or 'monitor'")
        check_shots(self.shots)
        if not (is_integer(self.repeats) and self.repeats >= 1):
            raise ConfigError(f"repeats: must be an integer of at least 1, got {self.repeats!r}")
        check_seed(self.seed)
        if not (finite_numbers((self.depolarizing,)) and 0.0 <= self.depolarizing <= 1.0):
            raise ConfigError(f"depolarizing: must be a number in [0, 1], got {self.depolarizing!r}")
        if not (finite_numbers((self.readout_flip,)) and 0.0 <= self.readout_flip <= 1.0):
            raise ConfigError(f"readout_flip: must be a number in [0, 1], got {self.readout_flip!r}")
        for name in ("out", "svg", "json_out"):
            check_output_path(name, getattr(self, name))
        resolve_state(self.state)
        return self


def _grid(points: int, stop: float) -> tuple[float, ...]:
    return tuple(stop * k / (points - 1) for k in range(points))


def make_config(scenario: str = "custom", *, points: int = DEFAULT_GRID_POINTS, **overrides) -> SweepConfig:
    """Build a validated config from a scenario preset plus field overrides."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown value {scenario!r}, expected one of {SCENARIOS}")
    if not (is_integer(points) and points >= 2):
        raise ConfigError(f"points: must be an integer of at least 2, got {points!r}")
    base: dict = {"scenario": scenario}
    if scenario == "fig1":
        base.update(
            state="plus",
            monitor_axis=(0.0, 0.0),
            probe_axis=(math.pi / 2, 0.0),
            grid_kind="axis_theta",
            sweep_target="probe",
            grid_values=_grid(points, math.pi),
            epsilon=1.0,
        )
    elif scenario == "fig2":
        base.update(
            state="plus",
            monitor_axis=(math.pi / 4, 0.0),
            probe_axis=(0.0, 0.0),
            grid_kind="axis_theta",
            sweep_target="monitor",
            grid_values=_grid(points, math.pi),
            epsilon=1.0,
        )
    elif scenario == "fig4a":
        base.update(
            state="plus",
            monitor_axis=(0.0, 0.0),
            probe_axis=(math.pi / 2, 0.0),
            grid_kind="theta_m",
            grid_values=_grid(points, math.pi / 2),
        )
    elif scenario == "fig4b":
        base.update(
            state="iplus",
            monitor_axis=(0.0, 0.0),
            probe_axis=(math.pi / 2, 0.0),
            grid_kind="theta_m",
            grid_values=_grid(points, math.pi / 2),
        )
    elif scenario == "fig4c":
        base.update(
            state="plus",
            monitor_axis=(math.pi / 4, 0.0),
            probe_axis=(0.0, 0.0),
            grid_kind="theta_m",
            grid_values=_grid(points, math.pi / 2),
        )
    else:
        base.update(grid_values=overrides.pop("grid_values", _grid(points, math.pi / 2)))
    base.update(overrides)
    try:
        config = SweepConfig(**base)
    except TypeError as exc:
        raise ConfigError(f"unknown config field: {exc}") from None
    return config.validate()


def config_from_json(path: str, /, **overrides) -> SweepConfig:
    """Build a validated config from a JSON object's fields, ``overrides`` on top."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key in ("grid_values", "monitor_axis", "probe_axis"):
        if key in data and isinstance(data[key], list):
            data[key] = tuple(data[key])
    data.update(overrides)
    return make_config(**data)
