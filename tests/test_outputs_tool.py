"""The output-set tool: its run list, its file comparison, and repeatable writes."""

import argparse
import importlib.util
import os

from realmon import cli
from realmon.config import PATHS, SCENARIOS

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "outputs.py")
_spec = importlib.util.spec_from_file_location("outputs", _PATH)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _read_all(directory):
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


def test_the_set_reaches_every_subcommand_preset_and_path():
    argvs = [argv for _, argv, _ in outputs.RUNS]
    commands = set(next(a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)))
    assert {argv[0] for argv in argvs} == commands
    sweeps = {(argv[2], argv[4]) for argv in argvs if argv[0] == "sweep"}
    assert sweeps == {(s, p) for s in SCENARIOS if s != "custom" for p in PATHS}
    assert {"--noisy"} <= {a for argv in argvs if argv[0] == "tomo-sim" for a in argv}
    files = [f for _, _, fs in outputs.RUNS for f in fs]
    assert len(outputs.RUNS) == 26 and len(files) + len(outputs.RUNS) == 82
    assert len(set(files)) == len(files) and len({name for name, _, _ in outputs.RUNS}) == 26


def test_two_writes_of_one_tree_are_byte_identical(tmp_path):
    first = outputs.write(str(tmp_path / "a"))
    second = outputs.write(str(tmp_path / "b"))
    assert len(first) == 82 and first == second
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    # output paths are stripped: nothing names the directory the set was written to
    assert not any(str(tmp_path).encode() in data for data in _read_all(tmp_path / "a").values())


def test_a_last_bit_change_and_a_text_change_are_each_reported(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    csv = "theta_m,S\n0.0,0.9999999999999998\n0.5,1.0\n"
    for d in (base, head):
        (d / "same.csv").write_text(csv)
    (base / "bit.csv").write_text(csv)
    (head / "bit.csv").write_text(csv.replace("0.9999999999999998", "0.9999999999999997"))
    (base / "text.json").write_text('{"state": "plus", "x": 1.0}')
    (head / "text.json").write_text('{"state": "minus", "x": 1.0}')
    (head / "new.svg").write_text("<svg/>")
    identical, differ = outputs.compare_dirs(str(base), str(head))
    assert identical == ["same.csv"]
    assert differ == {
        "bit.csv": "1 numbers differ, max gap 1.11e-16",
        "new.svg": "only in head",
        "text.json": "structure differs",
    }
