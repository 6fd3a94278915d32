"""Seeded mutation sampler: how many small faults in realmon does tier-1 catch?

Each mutant changes one syntax node of one module, found with the ``ast``
module: a comparison operator (``<`` to ``<=``, ``==`` to ``!=``, ``in`` to
``not in`` and back), an arithmetic operator (``+`` to ``-``, ``*`` to
``/``, a unary minus dropped and back) or a numeric or bool constant (``n``
to ``n + 1``, ``True`` to ``False``).  Sites are drawn from every such node
of the chosen modules with one seeded generator, so a seed names a sample.

The repository is copied to a work directory first, and every mutant is
written and tested there, never in the checkout.  Each mutant runs tier-1
with ``-x`` and counts as killed when pytest exits nonzero (or runs past
``TIMEOUT_S``), and as surviving when every test passes.  A survivor is either a
gap in the tests or an equivalent mutant (one that changes no behaviour);
telling them apart is left to the reader.

    python tools/mutants.py --seed 5 --sites 60 --workdir /tmp/mutants \\
        config channels circuits noise observables
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300  # one tier-1 run takes about 11 s on 2 vCPUs with BLAS on one thread
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.USub: ast.UAdd, ast.UAdd: ast.USub,
}


def _sites(tree: ast.AST):
    """(node index in ``ast.walk`` order, operator index or None, description) of every mutable node."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                yield index, k, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield index, None, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (bool, int, float)):
            new = (not node.value) if isinstance(node.value, bool) else node.value + 1
            yield index, None, f"{node.value!r} -> {new!r}"


def mutate(source: str, index: int, op_index) -> tuple[str, str]:
    """``source`` with node ``index`` mutated, unparsed, and the node's ``line:column``."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[op_index] = SWAPS[type(node.ops[op_index])]()
    elif isinstance(node, ast.Constant):
        node.value = (not node.value) if isinstance(node.value, bool) else node.value + 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="realmon module names, e.g. config channels")
    parser.add_argument("--seed", type=int, required=True, help="seed of the site sample")
    parser.add_argument("--sites", type=int, default=60, help="mutants to run (default 60)")
    parser.add_argument("--workdir", help="directory for the repository copy (default: a new temporary directory)")
    args = parser.parse_args(argv)

    copy = os.path.join(args.workdir or tempfile.mkdtemp(prefix="realmon-mutants-"), "repo")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    sources = {}
    for name in args.modules:
        with open(os.path.join(copy, "src", "realmon", f"{name}.py"), encoding="utf-8") as fh:
            sources[name] = fh.read()
    candidates = [(name, *site) for name, source in sources.items() for site in _sites(ast.parse(source))]
    chosen = random.Random(args.seed).sample(candidates, min(args.sites, len(candidates)))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    killed = 0
    for name, index, op_index, change in chosen:
        path = os.path.join(copy, "src", "realmon", f"{name}.py")
        mutated, where = mutate(sources[name], index, op_index)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutated)
        try:
            code = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
            outcome = "survived" if code == 0 else "killed"
        except subprocess.TimeoutExpired:
            outcome = "killed (timeout)"
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(sources[name])
        killed += outcome != "survived"
        print(f"{name}.py:{where}: {change}: {outcome}", flush=True)
    print(f"killed {killed} of {len(chosen)} ({len(candidates)} sites in {', '.join(args.modules)}, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
