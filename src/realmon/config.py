"""Sweep configuration: presets, validation and the shared input checks.

A ``SweepConfig`` is built from a scenario preset plus field overrides
(``make_config``) or from a JSON object (``config_from_json``), and
``validate`` rejects every malformed field with a ``ConfigError`` that names
it.  Every entry point (``validate``, ``make_config``, ``verify_cases``,
``certify_circuits``, ``estimate_pauli`` and ``tomography_errors``) checks
its inputs with the same three checkers: ``check_integer``,
``check_number`` and ``check_choice``, each raising ``ConfigError("<name>:
...")``.  ``validate`` adds only its cross-field rules: the grid range each
``grid_kind`` admits (``GRID_RANGES``), and that an ``axis_theta`` grid
needs a ``sweep_target``.  Output paths and state specs are checked here
too, so the CLI maps every one of these errors to exit code 3.

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
# The values each grid kind admits: strength angles in [0, pi/2] (with 1e-12
# of rounding slack), intensities in [0, 1], any finite axis angle.
GRID_RANGES = {"theta_m": (0, math.pi / 2 + 1e-12), "epsilon": (0, 1), "axis_theta": (-math.inf, math.inf)}
GRID_KINDS = tuple(GRID_RANGES)

DEFAULT_GRID_POINTS = 33
DEFAULT_SHOTS = 8192
DEFAULT_REPEATS = 10
MAX_SHOTS = 2**63 - 1  # numpy draws int64 counts

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


def _shown(value) -> str:
    """``repr(value)``, or its size for an integer too long for Python to print (over 4,300 digits)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def check_integer(name: str, value, low: int, high: int | None = None):
    """An integer in [low, high], never a bool (``True`` is an ``Integral`` too); ``high=None`` is no upper bound."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name}: must be an integer {bounds}, got {_shown(value)}")


def check_number(name: str, value, low: float, high: float):
    """A finite real number, never a bool, in [low, high]."""
    try:  # a plain float skips the slow abstract-class check
        real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = real and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    if not (ok and low <= value <= high):
        raise ConfigError(f"{name}: must be a finite number in [{low}, {high}], got {_shown(value)}")


def check_choice(name: str, value, options):
    """One of ``options``."""
    if value not in options:
        raise ConfigError(f"{name}: unknown value {_shown(value)}, expected one of {options}")


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
        check_choice("state", spec, sorted(STATE_PRESETS))
        return DensityOperator(STATE_PRESETS[spec], validate=False)
    if isinstance(spec, dict):
        if "theta" not in spec or set(spec) - {"theta", "phi"}:
            raise ConfigError(f"state: angle spec takes numeric 'theta' and optional 'phi' only, got {_shown(spec)}")
        theta, phi = spec["theta"], spec.get("phi", 0.0)
        check_number("state.theta", theta, -math.inf, math.inf)
        check_number("state.phi", phi, -math.inf, math.inf)
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
        check_choice("scenario", self.scenario, SCENARIOS)
        check_choice("path", self.path, PATHS)
        check_choice("grid_kind", self.grid_kind, GRID_KINDS)
        check_choice("coupling", self.coupling, COUPLINGS)
        check_choice("sweep_target", self.sweep_target, (None, "probe", "monitor"))
        if self.grid_kind == "axis_theta" and self.sweep_target is None:
            raise ConfigError("sweep_target: axis_theta sweeps need 'probe' or 'monitor'")
        grid = self.grid_values
        if not (isinstance(grid, (tuple, list)) and 1 <= len(grid) <= MAX_GRID_POINTS):
            raise ConfigError(f"grid_values: must be a list of 1 to {MAX_GRID_POINTS} numbers, got {_shown(grid):.80}")
        for value in grid:
            check_number("grid_values", value, *GRID_RANGES[self.grid_kind])
        for name in ("monitor_axis", "probe_axis"):
            axis = getattr(self, name)
            if not (isinstance(axis, (tuple, list)) and len(axis) == 2):
                raise ConfigError(f"{name}: must be two numbers (theta, phi), got {_shown(axis)}")
            for value in axis:
                check_number(name, value, -math.inf, math.inf)
        for name in ("epsilon", "depolarizing", "readout_flip"):
            check_number(name, getattr(self, name), 0, 1)
        check_integer("shots", self.shots, 0, MAX_SHOTS)
        check_integer("repeats", self.repeats, 1, MAX_REPEATS)
        check_integer("seed", self.seed, 0)
        for name in ("out", "svg", "json_out"):
            check_output_path(name, getattr(self, name))
        resolve_state(self.state)
        return self


def _grid(points: int, stop: float) -> tuple[float, ...]:
    return tuple(stop * k / (points - 1) for k in range(points))


def make_config(scenario: str = "custom", *, points: int = DEFAULT_GRID_POINTS, **overrides) -> SweepConfig:
    """Build a validated config from a scenario preset plus field overrides."""
    check_choice("scenario", scenario, SCENARIOS)
    check_integer("points", points, 2, MAX_GRID_POINTS)
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
    except (ValueError, RecursionError) as exc:  # bad bytes, syntax, an overlong integer or nesting depth
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key in ("grid_values", "monitor_axis", "probe_axis"):
        if key in data and isinstance(data[key], list):
            data[key] = tuple(data[key])
    data.update(overrides)
    return make_config(**data)
