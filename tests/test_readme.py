"""README's library quick-start block runs, and gives the values its comments state."""

import ast
import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def quick_start():
    """The block's source, and the value of each of its top-level expressions keyed by its source text."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values[ast.unparse(stmt.value)] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return block, values


@pytest.mark.parametrize(
    "expression, comment, check",
    [
        ("delta_reality_monitored(z, 1.0, plus)", "# 1.0 bit, exactly", lambda v: v == 1.0),
        ("delta_reality_other(z, tilted, 1.0, plus)", "# 0.7896 bits", lambda v: round(v, 4) == 0.7896),
        ("run_circuit_density(circ, plus).matrix", "# [[0.5, 0.25], [0.25, 0.5]]",
         lambda v: np.allclose(v, [[0.5, 0.25], [0.25, 0.5]], rtol=0, atol=1e-12)),
        ("run_circuit_density(noisy, plus).matrix", "# [[0.5, 0.225], [0.225, 0.5]]",
         lambda v: np.allclose(v, [[0.5, 0.225], [0.225, 0.5]], rtol=0, atol=1e-12)),
        ("qubit_spectra((1, 0, 0), (0, 0, 1), (1, 0, 0), 0.5, depolarizing=0.1)", ": [1.0, 0.725, 0.95, 0.7025]",
         lambda v: np.allclose(v, [1.0, 0.725, 0.95, 0.7025], rtol=0, atol=1e-12)),
        ("delta_reality_monitored(xs, rng.random(100), rhos)", "# array of 100 gains", lambda v: v.shape == (100,)),
        ("classify_case(xs, xs, rhos)", "# tuple of 100 labels", lambda v: isinstance(v, tuple) and len(v) == 100),
    ],
    ids=["monitored-gain", "probe-gain", "circuit", "noisy-circuit", "qubit-spectra", "stack-gains", "stack-labels"],
)
def test_quick_start_values_match_their_comments(quick_start, expression, comment, check):
    block, values = quick_start
    assert comment in block
    assert check(values[expression])


def test_report_comment_names_what_the_report_holds(quick_start):
    block, values = quick_start
    report = values["reality_report(tilted, z, 1.0, plus)"]
    assert "case label" not in block and not hasattr(report, "case")
    assert "# irreality, reality, both gains and the four entropies" in block
