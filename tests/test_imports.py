"""scipy loads at a command's first factorization, not at import: only
``surfimpute._lapack`` names scipy, and every other module calls the
routines through it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from surfimpute import _lapack

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "surfimpute").glob("*.py"))

# modules that only scipy.linalg and xml.sax.saxutils pulled in
HEAVY = ("scipy", "xml.sax", "urllib.request")

LOADED = f"sorted(m for m in sys.modules if m.startswith({HEAVY!r}))"

# a 300-point profile of two sines and noise, masked, filled and scored
# by the commands that factor no matrix, then a short SM fit
COMMANDS = f"""
import sys
import numpy as np
from surfimpute import Profile, make_grid, write_profile_csv
from surfimpute.cli import main

grid = make_grid(0.0, 0.002, 300)
x = grid.points()
z = np.sin(2 * np.pi * x / 0.1) + 0.3 * np.sin(2 * np.pi * x / 0.023)
z = z + 0.02 * np.random.default_rng(1).standard_normal(300)
write_profile_csv(Profile(grid, z, None), "truth.csv")
assert main(["mask", "--method", "dales", "--count", "3", "--in", "truth.csv",
             "--out", "masked.csv"]) == 0
assert main(["impute", "--model", "idw", "--radius", "0.06", "--in", "masked.csv",
             "--out", "idw.csv"]) == 0
assert main(["eval", "--truth", "truth.csv", "--masked", "masked.csv",
             "--imputed", "idw.csv"]) == 0
assert main(["plot", "--in", "masked.csv", "--imputed", "idw.csv", "--truth", "truth.csv",
             "--out", "figure.svg"]) == 0
print("before-fit", {LOADED})
assert main(["impute", "--model", "sm", "--seed", "3", "--max-iterations", "2",
             "--in", "masked.csv", "--out", "sm.csv"]) == 0
print("after-fit", "scipy.linalg" in sys.modules)
"""


def _run(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["surfimpute", "surfimpute.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert _run(f"import sys, {module}; print({LOADED})", tmp_path).strip() == "[]"


def test_commands_that_factor_nothing_load_no_scipy(tmp_path):
    out = _run(COMMANDS, tmp_path)
    assert "before-fit []" in out
    assert "after-fit True" in out
    assert (tmp_path / "sm.csv").is_file()


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "_lapack.py"],
                         ids=lambda p: p.name)
def test_only_the_routine_table_imports_scipy(path):
    tree = ast.parse(path.read_text(), str(path))
    assert [m for m in _imported_modules(tree) if m.partition(".")[0] == "scipy"] == []
    # every routine a module calls through the table has an entry there
    called = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) == "_lapack"}
    assert called <= set(_lapack.HOMES)


@pytest.mark.parametrize("name", sorted(_lapack.HOMES))
def test_each_table_entry_is_the_scipy_routine_it_names(name):
    assert getattr(_lapack, name) is getattr(importlib.import_module(_lapack.HOMES[name]), name)


def test_a_name_outside_the_table_is_an_attribute_error():
    with pytest.raises(AttributeError, match="dgesv"):
        _lapack.dgesv
