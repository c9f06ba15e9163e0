"""Module layering: the solver and the Noether verification are separate
layers, and only the command line front end joins them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracnoether"


def _imported_modules(name: str) -> set[str]:
    """The package modules that `name` imports anywhere, including
    imports nested inside functions."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracnoether."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fracnoether."):
                    found.add(alias.name.split(".")[1])
    return found


# the package `__init__` re-exports every layer and is not a layer itself
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name, forbidden", [
    ("solver", {"noether", "cli"}),
    ("noether", {"solver", "cli"}),
], ids=["solver", "noether"])
def test_layer_does_not_import(name, forbidden):
    assert not _imported_modules(name) & forbidden


def test_only_cli_imports_solver_and_noether():
    both = [name for name in MODULES if {"solver", "noether"} <= _imported_modules(name)]
    assert both == ["cli"]


def test_cli_runs_as_a_module_without_a_runpy_warning():
    # `__init__` imports cli only on first use of its study exports; had
    # the package imported cli already, runpy would warn before running
    # it as __main__, and the warning is an error here
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracnoether.cli", "examples", "list"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "example-momentum", "example-energy", "example-linear-frac", "example-covform"]
