"""Per-call cost of each layer, without the tracer's wrapper overhead.

Run from the checkout root:

    python3 -m pytest perfbench/micro -q

Each benchmark replays the recorded arguments of one function in a loop;
divide the reported time per round by ``extra_info['calls_per_round']``
for the cost of one call.
"""

from __future__ import annotations

import pytest

from conftest import RECORDED


def _replay(benchmark, fn, samples):
    benchmark.extra_info["calls_per_round"] = len(samples)

    def run():
        for args, kwargs in samples:
            fn(*args, **kwargs)

    benchmark(run)


@pytest.mark.parametrize("name", RECORDED)
def bench_call(benchmark, bw, recorded, name):
    samples, _, _ = recorded
    module, fname = name.split(".")
    _replay(benchmark, getattr(getattr(bw, module), fname), samples[name])


def bench_value_iteration_oracle_3x3(benchmark, bw):
    grid = bw.environment.GridConfig(width=3, height=3, num_agents=1, num_gems=1, step_limit=50)
    table = benchmark(bw.harness.value_iteration_oracle, grid, "pickup", 0.95)
    assert len(table) == 5 * 9 * 8


def bench_write_qtable(benchmark, bw, recorded, tmp_path):
    _, cfg, tables = recorded
    path = tmp_path / "qtable.csv"
    benchmark.extra_info["rows"] = sum(len(t.rows) for t in tables.values())
    benchmark.pedantic(bw.harness.write_qtable, args=(tables, path, cfg.mode, cfg.hyper),
                       rounds=3, iterations=1)


def bench_read_qtable(benchmark, bw, recorded, tmp_path):
    _, cfg, tables = recorded
    path = tmp_path / "qtable.csv"
    bw.harness.write_qtable(tables, path, cfg.mode, cfg.hyper)
    benchmark.extra_info["rows"] = sum(len(t.rows) for t in tables.values())
    _, _, read = benchmark.pedantic(bw.harness.read_qtable, args=(path,), rounds=3, iterations=1)
    assert read == tables
