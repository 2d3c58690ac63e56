"""The library keeps only what a caller uses: every public module-level
function or class of ``surfimpute`` is referenced, through the module
that defines it, by library or benchmark code (the package root's
imports count, so an exported name passes), and every name a library
module imports is read in that module (the package root, which imports
to export, aside)."""

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


def unused_imports(tree) -> list:
    """Names that a module's imports bind and its code never reads;
    ``from __future__`` imports set compiler flags and bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_of_a_library_module_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["math"]),
    ("import numpy as np\n\nx = np.zeros(1)\n", []),
    ("import os.path\n\nx = os.path.sep\n", []),
    ("from __future__ import annotations\n", []),
    ("from .optimize import maximize\n", ["maximize"]),
    ("from .optimize import maximize as run\n\ndef fit(f):\n    return run(f)\n", []),
    ("from .gp import ImputationResult\n\ndef f() -> ImputationResult:\n    pass\n", []),
], ids=["unread-module", "module-attribute", "dotted-module", "future", "tracer-only-name",
        "renamed-and-called", "annotation"])
def test_an_import_counts_only_when_its_module_reads_the_name(source, unused):
    # "tracer-only-name": a name that the benchmark's tracer looks up on
    # the module, as it does gsm.maximize, still needs a reader there
    assert unused_imports(ast.parse(source)) == unused


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
