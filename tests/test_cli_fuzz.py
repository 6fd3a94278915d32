"""Property tests: malformed input to ``realmon`` exits 0 or 3, never with a traceback.

Each example starts from a small valid command (a ``sweep --config`` JSON of
at most 5 points, 3 repeats and 64 shots, its grid sometimes replaced by
accepted values at the edges of their range, or small flags for the other
subcommands) and replaces one to three of its values with malformed ones:
wrong types, bools, NaN and Infinity, empty strings, nested lists, odd dicts
and sizes over their caps.  ``cli.main`` runs in process, and argparse's
``SystemExit`` counts as its exit code.

Over-cap sizes must be rejected by validation.  The first step of each
command that builds or draws anything is wrapped so that the example fails
if it is reached at more than the small sizes drawn here, so nothing is ever
allocated at an over-cap size.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import realmon.certify as certify_mod
import realmon.cli as cli_mod
import realmon.config as config_mod
import realmon.tomography as tomography_mod
import realmon.verify as verify_mod
from realmon.config import (
    GRID_KINDS,
    MAX_DIMENSION,
    MAX_GRID_POINTS,
    MAX_REPEATS,
    MAX_RESOLUTION,
    MAX_SEEDS,
    MAX_TRIALS,
    PATHS,
    SCENARIOS,
    STATE_PRESETS,
)

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

MALFORMED = [
    "x", "", "NaN", True, False, None, float("nan"), float("inf"), float("-inf"), -1, 1.5, 10**30, 1e30,
    [], [[0.1]], [["a", 1]], [float("nan")], [True, 0.2], {}, {"theta": "a"}, {"": 1}, {"theta": 1.0, "x": 2},
]
# Accepted grid values at the edges of their ranges: the theta_m check admits
# pi/2 + 1e-12 for rounding, and -0.0 passes every lower bound of 0.
GRID_EDGES = [-0.0, 0.0, 1.0, math.pi / 2, math.pi / 2 + 5e-13, math.pi / 2 + 1e-12]
OVER_CAP = {
    "points": [MAX_GRID_POINTS + 1, 10**12, 10**30],
    "repeats": [MAX_REPEATS + 1, 10**12],
    "shots": [2**63, 10**30],
    "grid_values": [[0.5] * (MAX_GRID_POINTS + 1)],
}
SWEEP_FIELDS = (
    "scenario", "state", "monitor_axis", "probe_axis", "grid_kind", "grid_values", "sweep_target", "epsilon",
    "coupling", "path", "shots", "repeats", "seed", "readout_flip", "depolarizing", "out", "svg", "json_out",
    "points",
)

BAD_FLAGS = ["x", "", "nan", "inf", "-1", "1.5", "True", "[1]", "{}", "1e30", "1000000000000"]
OVER_CAP_FLAGS = {
    "--trials": [str(MAX_TRIALS + 1)],
    "--dims": [str(MAX_DIMENSION + 1)],
    "--resolution": [str(MAX_RESOLUTION + 1)],
    "--seeds": [str(MAX_SEEDS + 1)],
    "--shots": [str(2**63)],
}
SMALL_FLAGS = {
    "verify-cases": {
        "--seed": st.integers(0, 20).map(str),
        "--trials": st.integers(1, 3).map(str),
        "--dims": st.lists(st.sampled_from(["2", "3", "4"]), min_size=1, max_size=2, unique=True),
    },
    "certify-circuits": {"--seed": st.integers(0, 20).map(str), "--resolution": st.sampled_from(["2", "3"])},
    "tomo-sim": {
        "--state": st.sampled_from(sorted(STATE_PRESETS)),
        "--shots": st.integers(0, 64).map(str),
        "--seeds": st.integers(1, 5).map(str),
        "--seed": st.integers(0, 20).map(str),
    },
}


@pytest.fixture
def guarded(monkeypatch, tmp_path):
    """Run in a scratch directory, with each command's first building or drawing
    step failing the test if it is reached beyond the sizes drawn here."""
    monkeypatch.chdir(tmp_path)

    def guard(module, name, small):
        real = getattr(module, name)

        def checked(*args):
            assert small(*args), f"{name} reached at an oversize input"
            return real(*args)

        monkeypatch.setattr(module, name, checked)

    guard(config_mod, "_grid", lambda points, stop: points <= 5)
    guard(cli_mod, "run_sweep", lambda c: len(c.grid_values) <= 5 and c.repeats <= 3 and c.shots <= 64)
    guard(verify_mod, "_instances", lambda d, trials, rng, *fields: trials <= 3 and d <= 4)
    guard(certify_mod, "_extract_and_compare", lambda coupling, members: len(members) <= 9)
    guard(
        tomography_mod,
        "estimate_pauli",
        lambda rho, shots, rng, confusion=None, repeats=None: (rho.batch or 1) * (repeats or 1) <= 5,
    )


def exit_code(argv, capsys) -> int:
    try:
        code = cli_mod.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert "Traceback" not in capsys.readouterr().err
    return code


@st.composite
def sweep_configs(draw):
    config = {
        "scenario": draw(st.sampled_from(SCENARIOS)),
        "path": draw(st.sampled_from(PATHS)),
        "points": draw(st.integers(2, 5)),
        "repeats": draw(st.integers(1, 3)),
        "shots": draw(st.integers(0, 64)),
        "seed": draw(st.integers(0, 100)),
    }
    if draw(st.booleans()):
        config.update(grid_kind=draw(st.sampled_from(GRID_KINDS)), sweep_target="probe")
    if draw(st.booleans()):
        config["grid_values"] = draw(st.lists(st.sampled_from(GRID_EDGES), min_size=1, max_size=3))
    for field in draw(st.lists(st.sampled_from(SWEEP_FIELDS), min_size=1, max_size=3, unique=True)):
        config[field] = draw(st.sampled_from(MALFORMED + OVER_CAP.get(field, [])))
    return config


@st.composite
def flag_commands(draw):
    command = draw(st.sampled_from(sorted(SMALL_FLAGS)))
    flags = {name: draw(values) for name, values in SMALL_FLAGS[command].items()}
    for name in draw(st.lists(st.sampled_from(sorted(flags) + ["--out"]), min_size=1, max_size=3, unique=True)):
        flags[name] = draw(st.sampled_from(BAD_FLAGS + OVER_CAP_FLAGS.get(name, [])))
    argv = [command]
    for name, value in flags.items():
        argv += [name, *value] if isinstance(value, list) else [name, value]
    return argv


@FUZZ
@given(config=sweep_configs())
def test_malformed_sweep_config_exits_0_or_3(guarded, capsys, config):
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert exit_code(["sweep", "--config", "config.json"], capsys) in (0, 3)


@FUZZ
@given(argv=flag_commands())
def test_malformed_command_flags_exit_0_or_3(guarded, capsys, argv):
    assert exit_code(argv, capsys) in (0, 3)
