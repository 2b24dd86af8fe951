"""The README's worked example runs and returns what its comments say."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_worked_example_runs_as_commented():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README has no python block"
    source = block.group(1)
    lines = source.splitlines()
    namespace = {}
    results = []  # (value, the number its "# -> " comment gives)
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = re.search(r"#\s*->\s*\(?(-?[\d.]+)", lines[stmt.end_lineno - 1])
        results.append((value, float(comment.group(1))))
    assert [want for _, want in results] == [-1.6, -1.6, -4.8]
    (first, _), (second, _), ((closing, state), _) = results
    assert first == second == -1.6
    assert closing == pytest.approx(-4.8, abs=1e-12)
    fst = namespace["fst"]
    assert 0 <= state < fst.num_states and fst.final[state]
