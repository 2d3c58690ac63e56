"""The library keeps only what a caller uses: every public module-level
function or class of ``surfimpute`` is exported from the package root or
referenced by library or benchmark code."""

import ast
from pathlib import Path

import surfimpute

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "surfimpute").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _references(tree):
    """Names, attribute names and string constants (the benchmark's tracer
    names its targets by string) other than docstrings."""
    docstrings = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield node.value


def test_every_public_definition_is_exported_or_referenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{path.stem}.{node.name}" for path in LIBRARY for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in referenced and node.name not in surfimpute.__all__]
    assert unused == []
