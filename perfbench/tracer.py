"""Call-tree tracer installed from outside the bankworld package.

`Tracer` wraps every public function of the given modules and rebinds
the wrapper in every module namespace that holds the original, because
the package imports functions by name (``learner.step_agent``,
``harness.controller_step``, ``cli.evaluate``): patching only the
defining module would miss those calls silently.

Calls are aggregated in memory per call-tree node, a node being one
function reached through one chain of wrapped callers, so millions of
calls cost a few integer additions each and no per-call span is kept.
Each node holds its call count, inclusive time and the time spent in
wrapped children, from which self time follows.

Two observations need more than counts and are built in:
- ``planner.assign`` calls that return their ``current`` argument
  unchanged (the no-op share);
- each ``harness.train`` call, with its config, its `TrainResult` and
  the calls made under it, so traced counts can be checked against the
  program's own counters.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable

ROOT = 0


@dataclass
class TrainCall:
    """One traced ``harness.train`` call and the calls made under it."""

    cfg: Any
    result: Any
    calls: dict[str, int]


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def rebind(namespaces: Iterable[ModuleType], wrappers: dict[int, Callable]) -> list:
    """Replace every binding of a wrapped function, found by identity in
    each namespace, with its wrapper; return what `restore` undoes."""
    saved = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                saved.append((ns, attr, value))
                setattr(ns, attr, wrapper)
    return saved


def restore(saved: list) -> None:
    for ns, attr, original in reversed(saved):
        setattr(ns, attr, original)


class Tracer:
    """Install with ``with Tracer(modules):``; read results after exit."""

    def __init__(self, modules: Iterable[ModuleType]):
        self.modules = list(modules)
        self.names: list[str] = ["<root>"]
        self.parents: list[int] = [-1]
        self.count: list[int] = [0]
        self.total_ns: list[int] = [0]
        self.child_ns: list[int] = [0]
        self.assign_noops = 0
        self.train_calls: list[TrainCall] = []
        self._index: dict[tuple[int, str], int] = {}
        self._stack: list[int] = [ROOT]
        self._saved: list = []

    # ----------------------------- install -----------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{fname}")
        self._saved = rebind(self.modules, wrappers)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._saved)

    def _new_node(self, parent: int, name: str) -> int:
        node = len(self.names)
        self._index[(parent, name)] = node
        self.names.append(name)
        self.parents.append(parent)
        self.count.append(0)
        self.total_ns.append(0)
        self.child_ns.append(0)
        return node

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stack, index, new_node = self._stack, self._index, self._new_node
        count, total_ns, child_ns = self.count, self.total_ns, self.child_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = index.get((parent, name))
            if node is None:
                node = new_node(parent, name)
            stack.append(node)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                count[node] += 1
                total_ns[node] += elapsed
                child_ns[parent] += elapsed

        if name == "planner.assign":
            return functools.update_wrapper(self._observe_assign(wrapper), fn)
        if name == "harness.train":
            return functools.update_wrapper(self._observe_train(wrapper), fn)
        return functools.update_wrapper(wrapper, fn)

    def _observe_assign(self, timed: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            current = args[1] if len(args) > 1 else kwargs["current"]
            if result is current:
                self.assign_noops += 1
            return result

        return wrapper

    def _observe_train(self, timed: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            before = list(self.count)
            result = timed(*args, **kwargs)
            calls: dict[str, int] = {}
            for node, n in enumerate(self.count):
                delta = n - (before[node] if node < len(before) else 0)
                if delta:
                    name = self.names[node]
                    calls[name] = calls.get(name, 0) + delta
            cfg = args[0] if args else kwargs["cfg"]
            self.train_calls.append(TrainCall(cfg, result, calls))
            return result

        return wrapper

    # ----------------------------- results -----------------------------

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """Per function: (calls, inclusive ns, self ns), over all callers."""
        out: dict[str, tuple[int, int, int]] = {}
        for node in range(1, len(self.names)):
            calls, total, self_ns = out.get(self.names[node], (0, 0, 0))
            out[self.names[node]] = (
                calls + self.count[node],
                total + self.total_ns[node],
                self_ns + self.total_ns[node] - self.child_ns[node],
            )
        return out

    def report(self) -> str:
        """The call tree as indented text: calls, inclusive and self ms."""
        children: dict[int, list[int]] = {}
        for node in range(1, len(self.names)):
            children.setdefault(self.parents[node], []).append(node)
        lines = [f"{'calls':>10} {'incl_ms':>10} {'self_ms':>10}  function"]

        def walk(node: int, depth: int) -> None:
            for kid in sorted(children.get(node, ()), key=lambda k: -self.total_ns[k]):
                lines.append(
                    f"{self.count[kid]:>10} {self.total_ns[kid] / 1e6:>10.1f}"
                    f" {(self.total_ns[kid] - self.child_ns[kid]) / 1e6:>10.1f}  "
                    f"{'  ' * depth}{self.names[kid]}"
                )
                walk(kid, depth + 1)

        walk(ROOT, 0)
        return "\n".join(lines)
