"""Rules every module of the package keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import mvpolytopes

SOURCES = sorted(Path(mvpolytopes.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def test_no_assert_statements():
    """An ``assert`` vanishes under ``python -O``; invariants must raise."""
    assert len(SOURCES) > 10
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_raise_assertion_error():
    """A broken invariant is a RuntimeError that names what broke; an
    AssertionError reads as a failed test and is what ``assert`` would raise."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []


def test_no_nested_function_refers_to_its_own_name():
    """A nested function that calls itself holds its enclosing cell, which holds
    it: a reference cycle that keeps everything it closes over alive until a
    full collection.  Recursion goes in module-level functions."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [
        f"{name}:{inner.lineno} {inner.name}"
        for name, tree in TREES.items()
        for outer in ast.walk(tree)
        if isinstance(outer, funcs)
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, funcs)
        and any(
            isinstance(node, ast.Name) and node.id == inner.name
            for stmt in inner.body
            for node in ast.walk(stmt)
        )
    ]
    assert found == []
