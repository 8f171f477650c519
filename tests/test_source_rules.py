"""Rules every module of the package keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import mvpolytopes


def test_no_assert_statements():
    """An ``assert`` vanishes under ``python -O``; invariants must raise."""
    sources = sorted(Path(mvpolytopes.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
