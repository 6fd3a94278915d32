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
import os
from dataclasses import dataclass

import numpy as np

from .circuits import COUPLINGS
from .noise import DEFAULT_DEPOLARIZING_RATE, DEFAULT_READOUT_FLIP
from .states import DensityOperator, PureState, density_from_pure

# Scenario presets: the fields each one sets, and the stop of its evenly
# spaced grid, which starts at 0.
PRESETS = {
    "fig1": (
        dict(state="plus", monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0), grid_kind="axis_theta",
             sweep_target="probe", epsilon=1.0),
        math.pi,
    ),
    "fig2": (
        dict(state="plus", monitor_axis=(math.pi / 4, 0.0), probe_axis=(0.0, 0.0), grid_kind="axis_theta",
             sweep_target="monitor", epsilon=1.0),
        math.pi,
    ),
    "fig4a": (
        dict(state="plus", monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0), grid_kind="theta_m"),
        math.pi / 2,
    ),
    "fig4b": (
        dict(state="iplus", monitor_axis=(0.0, 0.0), probe_axis=(math.pi / 2, 0.0), grid_kind="theta_m"),
        math.pi / 2,
    ),
    "fig4c": (
        dict(state="plus", monitor_axis=(math.pi / 4, 0.0), probe_axis=(0.0, 0.0), grid_kind="theta_m"),
        math.pi / 2,
    ),
    "custom": ({}, math.pi / 2),
}
SCENARIOS = tuple(PRESETS)
PATHS = ("analytic", "circuit", "noisy")
GRID_KINDS = ("theta_m", "epsilon", "axis_theta")

DEFAULT_GRID_POINTS = 33
DEFAULT_SHOTS = 8192
DEFAULT_REPEATS = 10

# Size caps, checked before any grid, stack or sample is built; a value
# above one exits 3 naming its field.  Peaks below were measured on a 2-vCPU
# x86 VM.  A sweep evaluates its whole grid as one stack, and the noisy path
# one (4 * points)-state stack per repeat: a noisy sweep at 10,000 points
# peaks near 90 MB RSS with 20 repeats, and each further repeat adds about
# 0.3 MB.
MAX_GRID_POINTS = 10_000
MAX_REPEATS = 100
# verify-cases evaluates each section as one stack of ``trials`` instances
# per dimension, about 0.32 MB per instance at d = 16: 1,000 trials at d = 16
# peak near 360 MB RSS and take about 11 s.
MAX_TRIALS = 1_000
# Each entry of verify-cases' ``dims``; the linear algebra is sized for d <= 16.
MAX_DIMENSION = 16
# tomo-sim evaluates its seeds in chunks of 4,096, so memory stays near 50 MB
# and time grows linearly: 200,000 seeds take about 15 s.
MAX_SEEDS = 1_000_000
# certify-circuits extracts 12 * resolution + 3 circuits: resolution 1,000
# peaks near 80 MB RSS and takes about 3.5 s.
MAX_RESOLUTION = 1_000

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
    """An output path is None (no file) or a nonempty string naming a file,
    not a directory, in a directory that exists: checked before any work, so
    a bad path fails before a long run instead of after it."""
    if path is None:
        return
    if not (isinstance(path, str) and path) or "\0" in path:
        raise ConfigError(f"{name}: must be a nonempty file path without NUL bytes, got {path!r}")
    if os.path.isdir(path):
        raise ConfigError(f"{name}: {path!r} is a directory, not a file path")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{name}: the directory of {path!r} does not exist")


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
        if len(self.grid_values) > MAX_GRID_POINTS:
            raise ConfigError(f"grid_values: at most {MAX_GRID_POINTS} points, got {len(self.grid_values)}")
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
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"coupling: must be CZ or CNOT, got {self.coupling!r}")
        if self.sweep_target not in (None, "probe", "monitor"):
            raise ConfigError(f"sweep_target: must be null, 'probe' or 'monitor', got {self.sweep_target!r}")
        if self.grid_kind == "axis_theta" and self.sweep_target is None:
            raise ConfigError("sweep_target: axis_theta sweeps need 'probe' or 'monitor'")
        check_shots(self.shots)
        if not (is_integer(self.repeats) and 1 <= self.repeats <= MAX_REPEATS):
            raise ConfigError(f"repeats: must be an integer in [1, {MAX_REPEATS}], got {self.repeats!r}")
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
    if not (is_integer(points) and 2 <= points <= MAX_GRID_POINTS):
        raise ConfigError(f"points: must be an integer in [2, {MAX_GRID_POINTS}], got {points!r}")
    fields, stop = PRESETS[scenario]
    try:
        config = SweepConfig(**{"scenario": scenario, **fields, "grid_values": _grid(points, stop), **overrides})
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # bad bytes, syntax or nesting depth
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key in ("grid_values", "monitor_axis", "probe_axis"):
        if key in data and isinstance(data[key], list):
            data[key] = tuple(data[key])
    data.update(overrides)
    return make_config(**data)
