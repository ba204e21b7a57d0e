"""The public surface: every export resolves, and the README's library quick
start runs and gives the values its comments state."""

import ast
from pathlib import Path

import effectalg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_and_appears_once():
    names = effectalg.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(effectalg, name)]
    assert missing == []


def quick_start_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_quick_start_gives_its_commented_values():
    # a bare expression is compared with the first word of its comment;
    # every other line is run as it stands
    env: dict = {}
    checked = []
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        stmt = ast.parse(code.strip()).body[0]
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
            assert repr(value) == comment.split()[0], line
            checked.append(value)
        else:
            exec(code, env)
    assert checked == [9, True, 34, "exhaustive", True]
