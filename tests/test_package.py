"""The package as a whole: what it imports, what a fresh import of it
leaves behind, and which of its settings a command sets."""

import ast
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import bankworld
from bankworld import cli, harness
from bankworld.learner import Hyperparams

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

# Imports the CLI, then trains, evaluates, solves and runs `oracle` as a
# process that never compares would, and prints which of the process
# pool's modules it loaded, on its last line.
CLOSURE = """
import sys, tempfile
from bankworld import cli
from bankworld.environment import GridConfig
from bankworld.harness import RunConfig, evaluate, train, value_iteration_oracle
from bankworld.learner import ControllerMode, Hyperparams, Method

cfg = RunConfig(GridConfig(5, 5, 2, 2, 20), ControllerMode(Method.OPTIONS), Hyperparams(seed=1),
                episodes=3, eval_runs=2)
evaluate(train(cfg).tables, cfg)
value_iteration_oracle(GridConfig(3, 3, 1, 1, 20), "pickup")
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["oracle", "--grid", "3x3", "--task", "drop", "--out", f"{tmp}/q.csv"]) == 0
print([m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules])
"""


def fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout


def absolute_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def names_used(node: ast.AST) -> Counter:
    """How often each name is read or written under ``node``, as a bare
    name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def names_defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or a
    class's, or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


class TestNoDeadNames:
    """Every module-level function, class and constant of the package,
    private ones included, is used somewhere in it, outside its own
    statement; `cli.main`, the console entry point, and `__version__` are
    exempt."""

    def test_each_module_level_name_has_a_use(self):
        trees = {path.stem: ast.parse(path.read_text(), str(path))
                 for path in sorted(PACKAGE.glob("*.py"))}
        used = sum((names_used(tree) for tree in trees.values()), Counter())
        unused = [
            f"{module}.{name}"
            for module, tree in trees.items()
            for node in tree.body
            for name in names_defined(node)
            if (module, name) not in (("cli", "main"), ("__init__", "__version__"))
            and used[name] == names_used(node)[name]
        ]
        assert unused == []


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
        assert fresh_python(REIMPORT).split() == []


class TestImportClosure:
    """Only a compare that fans out loads the process pool: a process that
    trains, evaluates or solves never pays for its modules."""

    def test_no_pool_modules_outside_compare(self):
        assert fresh_python(CLOSURE).splitlines()[-1] == "[]"


class TestSettingsReach:
    """Every `Hyperparams` field is a setting a command sets and a Q-table
    header records: none is left that only code can change."""

    def test_each_field_has_one_setting_row_and_a_header_field(self):
        names = [f.name for f in fields(Hyperparams)]
        filled = Counter(name for s in cli._SETTINGS for part, name in s.paths() if part == "hyper")
        assert filled == Counter(names)
        assert set(names) <= set(harness._HEADER_FIELDS)
