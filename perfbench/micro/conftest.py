"""Inputs for the per-call microbenchmarks, recorded from the workloads.

The session fixture trains the desk-fixed ``q`` and ``q-options`` arms
and the random-layout arm at seed 1, exactly as the workloads build
them, and keeps the arguments of every 97th call to each benchmarked
function (at most 400 per function). The microbenchmarks replay those
arguments, so they measure the states the workloads really visit.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from run import MODULES, load_package  # noqa: E402
from tracer import rebind, restore  # noqa: E402
from workloads import build_plan  # noqa: E402

EVERY = 97
KEEP = 400
RECORDED = (
    "environment.step_agent",
    "planner.assign",
    "abstraction.abstract_pickup",
    "abstraction.abstract_drop",
    "abstraction.abstract_flat",
    "abstraction.abstract_no_planner",
    "learner.select_action",
    "learner.td_update",
    "learner.controller_step",
)
SEED = 1


class Recorder:
    """Keep sampled call arguments of the named functions while installed,
    rebinding the recording wrapper wherever the function is bound."""

    def __init__(self, bw, names):
        self.bw = bw
        self.samples = {name: [] for name in names}

    def __enter__(self):
        wrappers = {}
        for name in self.samples:
            module, fname = name.split(".")
            fn = getattr(getattr(self.bw, module), fname)
            wrappers[id(fn)] = self._wrap(fn, self.samples[name])
        self._saved = rebind([getattr(self.bw, m) for m in MODULES], wrappers)
        return self

    def __exit__(self, *exc):
        restore(self._saved)

    @staticmethod
    def _wrap(fn, kept):
        calls = [0]

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if calls[0] % EVERY == 0 and len(kept) < KEEP:
                kept.append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper


@pytest.fixture(scope="session")
def bw():
    return load_package(BENCH_DIR.parent / "src")


@pytest.fixture(scope="session")
def recorded(bw):
    """Sampled arguments per function, plus the trained random-layout
    run (config and tables) for the Q-table persistence benchmarks."""
    desk = dict(build_plan(bw, "desk-fixed", SEED))
    [(_, layout_cfg)] = build_plan(bw, "random-layout", SEED)
    with Recorder(bw, RECORDED) as rec:
        bw.harness.train(desk["q"])
        bw.harness.train(desk["q-options"])
        layout_result = bw.harness.train(layout_cfg)
    for name, kept in rec.samples.items():
        assert kept, f"no calls of {name} were recorded"
    return rec.samples, layout_cfg, layout_result.tables
