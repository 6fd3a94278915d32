"""Write realmon's fixed CLI output set, or compare it with a git revision's.

``write DIR [--root TREE]`` runs the CLI in process, from ``TREE/src``
(default: this checkout), over one fixed list of runs (``RUNS``): the five
figure presets on all three paths with CSV, JSON and SVG, ``verify-cases``
on dims 2 3 4 and 4 5, ``certify-circuits`` at its defaults and at
resolution 3, seed 3, and ``tomo-sim`` for plus, mixed and zero with and
without ``--noisy`` at 200 seeds, plus ``--noisy --seeds 5000``: 26 runs
and 82 files.  Each run's stdout is a file too.  The runs write into DIR
under bare file names, so the paths the sweep JSON records and the
``wrote`` lines print carry no directory: output paths are stripped.

``compare REV`` extracts REV's tree with ``git archive`` into a temporary
directory (no network, and the repository's ``.git`` is left alone),
writes both sets, each in its own process, and lists the identical files.
For every other file it prints how many numbers changed and the largest
absolute gap, or "structure differs" where the text around the numbers
differs.  It exits 0 when every file is identical and 1 otherwise.

    python tools/outputs.py write /tmp/outputs
    python tools/outputs.py compare HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = ("fig1", "fig2", "fig4a", "fig4b", "fig4c")
PATHS = ("analytic", "circuit", "noisy")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _runs():
    """(name, argv, the files it writes) for every run of the set, in order."""
    for preset in PRESETS:
        for path in PATHS:
            stem = f"sweep-{preset}-{path}"
            files = (f"{stem}.csv", f"{stem}.json", f"{stem}.svg")
            argv = ["sweep", "--scenario", preset, "--path", path]
            yield stem, argv + ["--out", files[0], "--json", files[1], "--svg", files[2]], files
    for name, dims in (("verify-dims-2-3-4", ["2", "3", "4"]), ("verify-dims-4-5", ["4", "5"])):
        yield name, ["verify-cases", "--dims", *dims, "--out", f"{name}.json"], (f"{name}.json",)
    for name, extra in (("certify-default", []), ("certify-resolution-3-seed-3", ["--resolution", "3", "--seed", "3"])):
        yield name, ["certify-circuits", *extra, "--out", f"{name}.json"], (f"{name}.json",)
    tomo = [(f"tomo-{state}{noise}", ["--state", state, "--seeds", "200", *flag])
            for state in ("plus", "mixed", "zero") for noise, flag in (("", []), ("-noisy", ["--noisy"]))]
    for name, extra in tomo + [("tomo-noisy-seeds-5000", ["--noisy", "--seeds", "5000"])]:
        yield name, ["tomo-sim", *extra, "--out", f"{name}.json"], (f"{name}.json",)


RUNS = tuple(_runs())


def write(out_dir: str, root: str = ROOT) -> list[str]:
    """Run every entry of ``RUNS`` in process against ``root/src`` and write
    its files and its ``<name>.stdout`` into ``out_dir``; the sorted file names."""
    src = os.path.join(os.path.abspath(root), "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    from realmon.cli import main

    imported = os.path.dirname(os.path.realpath(sys.modules["realmon"].__file__))
    if imported != os.path.realpath(os.path.join(src, "realmon")):
        raise RuntimeError(f"realmon imported from {imported}, not from {src}")
    os.makedirs(out_dir, exist_ok=True)
    here = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, argv, _ in RUNS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            if code:
                print(f"{name}: realmon exited {code}", file=sys.stderr)
            with open(f"{name}.stdout", "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
    finally:
        os.chdir(here)
    return sorted(os.listdir(out_dir))


def compare_file(a: str, b: str) -> str | None:
    """None when the texts are equal; else "N numbers differ, max gap G", or
    "structure differs" where the text around the numbers differs."""
    if a == b:
        return None
    if NUMBER.split(a) != NUMBER.split(b):
        return "structure differs"
    pairs = [(x, y) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)) if x != y]
    gap = max(abs(float(x) - float(y)) for x, y in pairs)
    return f"{len(pairs)} numbers differ, max gap {gap:.3g}"


def compare_dirs(base: str, head: str) -> tuple[list[str], dict[str, str]]:
    """The files identical in both directories, and a verdict for every other file."""
    identical, differ = [], {}
    for name in sorted(set(os.listdir(base)) | set(os.listdir(head))):
        paths = [os.path.join(d, name) for d in (base, head)]
        if not all(os.path.exists(p) for p in paths):
            differ[name] = "only in " + ("head" if os.path.exists(paths[1]) else "base")
            continue
        texts = []
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                texts.append(fh.read())
        verdict = compare_file(*texts)
        if verdict is None:
            identical.append(name)
        else:
            differ[name] = verdict
    return identical, differ


def _write_in_subprocess(out_dir: str, root: str):
    """``write`` in a fresh interpreter, so two trees never share one imported realmon."""
    argv = [sys.executable, os.path.abspath(__file__), "write", out_dir, "--root", root]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="realmon-outputs-") as tmp:
        tree = os.path.join(tmp, "tree")
        os.mkdir(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        base, head = os.path.join(tmp, "base"), os.path.join(tmp, "head")
        _write_in_subprocess(base, tree)
        _write_in_subprocess(head, ROOT)
        identical, differ = compare_dirs(base, head)
    print(f"{len(identical)} identical, {len(differ)} different ({rev} vs the working tree)")
    for name in identical:
        print(f"  identical  {name}")
    for name, verdict in differ.items():
        print(f"  DIFFERENT  {name}: {verdict}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the output set into DIR")
    w.add_argument("dir")
    w.add_argument("--root", default=ROOT, help="the tree whose src/ runs (default: this checkout)")
    c = sub.add_parser("compare", help="compare the working tree's output set with REV's")
    c.add_argument("rev")
    args = parser.parse_args(argv)
    if args.command == "write":
        files = write(args.dir, args.root)
        print(f"wrote {len(RUNS)} runs, {len(files)} files to {args.dir}")
        return 0
    return compare(args.rev)


if __name__ == "__main__":
    sys.exit(main())
