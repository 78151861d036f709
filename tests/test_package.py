"""The package as a whole: what it imports, and what a fresh import of it
leaves behind."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bankworld

PACKAGE = Path(bankworld.__file__).resolve().parent

# Imports the package afresh twice, as `perfbench/run.py:load_package` does,
# and prints the names of the first copy's classes that are still alive.
REIMPORT = """
import gc, importlib, sys, weakref

def load():
    for name in [m for m in sys.modules if m == "bankworld" or m.startswith("bankworld.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("bankworld")
    return {m: importlib.import_module(f"bankworld.{m}") for m in
            ("environment", "planner", "abstraction", "learner", "harness", "cli")}

modules = load()
first = {"GridConfig": weakref.ref(modules["environment"].GridConfig),
         "PickupState": weakref.ref(modules["abstraction"].PickupState)}
del modules
load()
gc.collect()
print(" ".join(sorted(name for name, ref in first.items() if ref() is not None)))
"""


def absolute_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


class TestRuntimeDependencies:
    """The package runs on the standard library alone."""

    def test_every_import_is_stdlib_or_the_package(self):
        modules = sorted(PACKAGE.glob("*.py"))
        assert len(modules) > 1
        foreign = [
            f"{path.name}: {name}"
            for path in modules
            for name in absolute_imports(ast.parse(path.read_text(), str(path)))
            if name.partition(".")[0] not in sys.stdlib_module_names | {"bankworld"}
        ]
        assert not foreign


class TestReimport:
    """A dropped copy of the package is collected once nothing holds it: no
    module-level object is kept by a cache outside the package."""

    def test_first_copy_is_collected(self):
        result = subprocess.run(
            [sys.executable, "-c", REIMPORT], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        )
        assert result.stdout.split() == []
