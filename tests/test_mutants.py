"""The mutation sampler's site finder and mutator, on a small source string."""

import ast
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "mutants.py")
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = """\
def f(a, b, c):
    if a < b <= c and a > b >= c and a == b != c:
        return a in b, a not in b, a is b, a is not b
    x = a + b - c * a / b // c % a ** b
    x += -a + (+b)
    return x, 3, 2.5, True, "text"
"""


def test_every_operator_swap_and_constant_step_is_a_site():
    changes = {change for _, _, change in mutants._sites(ast.parse(SOURCE))}
    swaps = {f"{old.__name__} -> {new.__name__}" for old, new in mutants.SWAPS.items()}
    assert swaps | {"3 -> 4", "2.5 -> 3.5", "True -> False"} == changes


@pytest.mark.parametrize(
    "source, where, mutated",
    [
        ("x = 1\ny = a < b\n", "2:4", "x = 1\ny = a <= b"),
        ("x = 1\ny = a < b\n", "1:4", "x = 2\ny = a < b"),
        ("def g(a):\n    return -a * 2\n", "2:11", "def g(a):\n    return -a / 2"),
    ],
)
def test_mutate_reports_the_node_line_and_column(source, where, mutated):
    found = [mutants.mutate(source, index, op) for index, op, _ in mutants._sites(ast.parse(source))]
    assert (mutated, where) in found


def test_every_mutant_parses_and_differs_from_the_source():
    original = ast.unparse(ast.parse(SOURCE))
    sites = list(mutants._sites(ast.parse(SOURCE)))
    assert len(sites) > 20
    for index, op, change in sites:
        mutated, where = mutants.mutate(SOURCE, index, op)
        assert ast.unparse(ast.parse(mutated)) == mutated != original, change
        line, column = map(int, where.split(":"))
        assert 1 <= line <= SOURCE.count("\n") and column >= 0
