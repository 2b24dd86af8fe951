"""The README's worked example and the walkthrough script print what they say."""

import ast
import re
import runpy
from pathlib import Path

import pytest

from biaslattice.lookahead import WordOutcome

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_worked_example_runs_as_commented():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README has no python block"
    source = block.group(1)
    lines = source.splitlines()
    namespace = {}
    results = []  # (increment, the number its "# -> " comment gives)
    for stmt in ast.parse(source).body:
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        comment = re.search(r"#\s*->\s*(-?[\d.]+)", lines[stmt.end_lineno - 1])
        if comment:
            # A commented step binds its increment first: ``inc, state = ...``.
            increment = namespace[stmt.targets[0].elts[0].id]
            results.append((increment, float(comment.group(1))))
    assert [want for _, want in results] == [-1.6, -1.6, -4.8]
    (first, _), (second, _), (closing, _) = results
    assert first == second == -1.6
    assert closing == pytest.approx(-4.8, abs=1e-12)
    assert namespace["outcome"] is WordOutcome.COMPLETED


def test_walkthrough_prints_the_worked_example(capsys):
    runpy.run_path(str(ROOT / "scripts" / "trace_walkthrough.py"))["main"]()
    out = capsys.readouterr().out
    assert re.findall(r"total: (\S+)", out) == ["-8", "-8", "0"]
    title, tokens, header, *rows, reached = out.strip().split("\n\n")[0].splitlines()
    assert tokens.split() == ["tokens:", "pl", "ay", "er_"]
    # prefix, band, len, longest, ahead, pushed, incr; the last row closes the word
    assert [(row.split()[0], float(row.split()[5])) for row in rows] == [
        ("pl", -1.6), ("play", -3.2), ("player", -8.0), ("player", -8.0)]
    assert reached.split()[:4] == ["word", "state", "reached:", "2"]
