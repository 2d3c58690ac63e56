"""The library keeps only what a caller uses: every public module-level
function or class of ``surfimpute`` is referenced, through the module
that defines it, by library or benchmark code (the package root's
imports count, so an exported name passes)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "surfimpute").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _library_module(node):
    """The library module that a ``from ... import`` reads: "" for the
    package itself, None outside the library."""
    if node.level:
        return node.module or ""
    if node.module == "surfimpute" or (node.module or "").startswith("surfimpute."):
        return node.module[len("surfimpute."):]
    return None


def _credits(tree, module=None):
    """The (module, name) pairs a file references: an import from a
    library module, an attribute on a name bound to one, a bare name in
    ``module``'s own file, and a (module, "name") entry of a ``TARGETS``
    list, which the benchmark's tracer wraps by name."""
    bound = {}
    for node in ast.walk(tree):
        source = _library_module(node) if isinstance(node, ast.ImportFrom) else None
        for alias in node.names if source is not None else ():
            if source:
                yield source, alias.name
            else:
                bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
            yield bound[node.value.id], node.attr
        elif isinstance(node, ast.Name) and module is not None:
            yield module, node.id
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            for owner, attr, *_ in (entry.elts for entry in node.value.elts):
                if getattr(owner, "id", None) in bound:
                    yield bound[owner.id], attr.value


def unreferenced(library: dict, callers: list) -> list:
    """``module.name`` of each public def or class in ``library`` (module
    name -> tree) that no library file and no tree of ``callers`` credits."""
    credited = {c for module, tree in library.items() for c in _credits(tree, module)}
    credited.update(c for tree in callers for c in _credits(tree))
    return [f"{module}.{node.name}" for module, tree in library.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and (module, node.name) not in credited]


def test_every_public_definition_is_exported_or_referenced():
    library = {path.stem: ast.parse(path.read_text(), str(path)) for path in LIBRARY}
    bench = [ast.parse(path.read_text(), str(path)) for path in BENCH]
    assert unreferenced(library, bench) == []


@pytest.mark.parametrize("cli, bench, unused", [
    ("def _main(args):\n    return args.posterior\n", "", ["gp.posterior"]),
    ("from . import gp\n\ndef _main(x):\n    return gp.posterior(x)\n", "", []),
    ("from .gp import posterior\n", "", []),
    ("", "from surfimpute import gp\nTARGETS = [(gp, 'posterior', 'gp.post', None)]\n", []),
    ("", "from surfimpute import gp\nNAME = 'posterior'\n", ["gp.posterior"]),
], ids=["unrelated-attribute", "module-attribute", "import", "tracer-target", "bare-string"])
def test_a_reference_counts_only_for_the_module_that_defines_the_name(cli, bench, unused):
    library = {"gp": ast.parse("def posterior(x):\n    return x\n"), "cli": ast.parse(cli)}
    assert unreferenced(library, [ast.parse(bench)]) == unused
