"""The benchmark's three workloads and the checks on everything they write.

A workload is built from its seed once (`build_plan`) and then run as a
fixed batch (`run_batch`) as often as the run length allows. Only calls
into bankworld are timed, by phase; the checks run between phases, so
their cost never reaches a metric. See README.md for why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace
from typing import Any

from probe import SpeedProbe

WORKLOADS = ("desk-fixed", "random-layout", "oracle")
ORACLE_GRIDS = (7, 11, 15)
ORACLE_GAMMA = 0.95
_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))


@dataclass
class Checks:
    """Output checks: how many ran and the names of those that failed."""

    total: int = 0
    failed: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Batch:
    """Timings and outputs of one batch of a workload.

    Phase times exclude the speed probe's own time; ``wall_ref_s`` is
    their sum at the reference CPU speed (see probe.py).
    """

    probe: SpeedProbe = field(default_factory=SpeedProbe)
    phase_s: dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    agent_steps: int = 0
    qtable_rows: int = 0
    qtable_bytes: int = 0
    fingerprint: dict[str, Any] = field(default_factory=dict)
    # (grid "WxH", task, seconds, state-action pairs) per exact solve
    solved: list[tuple] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s.values())

    @property
    def wall_ref_s(self) -> float:
        return self.probe.ref_seconds(self.wall_s)

    @contextlib.contextmanager
    def phase(self, name: str):
        wall, cpu, probed = perf_counter(), process_time(), self.probe.probe_s
        try:
            yield
        finally:
            probed = self.probe.probe_s - probed
            self.phase_s[name] = self.phase_s.get(name, 0.0) + perf_counter() - wall - probed
            self.cpu_s += process_time() - cpu - probed


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------ plans ------------------------------


def build_plan(bw: SimpleNamespace, workload: str, seed: int) -> list:
    """The workload's inputs, all derived from ``seed``: run configs for
    the training workloads, grid configs for the oracle."""
    env, learner, harness = bw.environment, bw.learner, bw.harness
    Method, Mode = learner.Method, learner.ControllerMode
    if workload == "desk-fixed":
        grid = env.GridConfig(width=7, height=7, num_agents=2, num_gems=2, step_limit=300)
        arms = (
            ("random", Mode(Method.RANDOM, True)),
            ("q", Mode(Method.FLAT, True)),
            ("q-options", Mode(Method.OPTIONS, True)),
            ("q-options-planner-off", Mode(Method.OPTIONS, False)),
        )
        return [
            (label, harness.RunConfig(grid, mode, learner.Hyperparams(seed=seed), episodes=2000))
            for label, mode in arms
        ]
    if workload == "random-layout":
        grid = env.GridConfig(
            width=11, height=11, num_agents=2, num_gems=3, step_limit=1000,
            layout=env.RandomLayout(),
        )
        mode = Mode(Method.OPTIONS, planner_enabled=False)
        return [("q-options-planner-off",
                 harness.RunConfig(grid, mode, learner.Hyperparams(seed=seed), episodes=400))]
    if workload == "oracle":
        rng = random.Random(seed)
        grids = []
        for size in ORACLE_GRIDS:
            bank = ((size - 1) // 2, (size - 1) // 2)
            cells = [(r, c) for r in range(size) for c in range(size) if (r, c) != bank]
            picked = rng.sample(cells, 5)
            layout = env.FixedLayout(agents=tuple(picked[:2]), gems=tuple(picked[2:]))
            grids.append(env.GridConfig(
                width=size, height=size, num_agents=2, num_gems=3, step_limit=4 * size,
                layout=layout,
            ))
        return grids
    raise ValueError(f"unknown workload {workload!r}")


def run_batch(bw: SimpleNamespace, workload: str, plan: list, workdir: Path,
              checks: Checks) -> Batch:
    """Run the workload's fixed batch of work once, checking every output."""
    # Start every batch from a collected heap; without this, later batches
    # in a process ran a few percent slower than the first.
    gc.collect()
    batch = Batch()
    workdir.mkdir(parents=True)
    try:
        with batch.probe:
            if workload == "oracle":
                _oracle(bw, plan, batch, checks)
            else:
                for label, cfg in plan:
                    _train_arm(bw, workload, label, cfg, workdir / label, batch, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return batch


# ----------------------------- training -----------------------------


def _train_arm(bw, workload, label, cfg, out: Path, batch: Batch, checks: Checks) -> None:
    harness, cli = bw.harness, bw.cli
    out.mkdir(parents=True)
    with batch.phase("train"):
        result = harness.train(cfg)
    with batch.phase("io"):
        cli.write_config_echo(cfg, out / "config.txt")
        harness.write_metrics(result.records, out / "metrics.csv")
        harness.write_qtable(result.tables, out / "qtable.csv", cfg.mode, cfg.hyper)
        mode, hyper, tables = harness.read_qtable(out / "qtable.csv")
    batch.agent_steps += sum(r.steps_used for r in result.records) * cfg.grid.num_agents
    batch.qtable_rows += sum(len(t.rows) for t in result.tables.values())
    batch.qtable_bytes += (out / "qtable.csv").stat().st_size
    where = f"{workload}/{label}"

    _check_training(bw, cfg, result, where, checks)
    checks.expect(read_records(out / "metrics.csv") == _rows(result.records),
                  f"{where}: metrics.csv holds exactly the training records")
    _check_config_echo(cfg, out / "config.txt", where, checks)
    checks.expect((mode, hyper) == (cfg.mode, cfg.hyper), f"{where}: qtable header round trip")
    checks.expect(tables == result.tables, f"{where}: tables read back equal trained tables")
    checks.expect(
        all(math.isfinite(v) for t in tables.values() for _, _, v in t.items()),
        f"{where}: every Q value is finite",
    )

    if workload == "desk-fixed":
        # Greedy replay through the command line, which reads the saved
        # table and config back from disk.
        eval_metrics = out / "eval" / "metrics.csv"
        argv = ["eval", "--qtable", str(out / "qtable.csv"), "--config",
                str(out / "config.txt"), "--out", str(eval_metrics.parent)]
        with batch.phase("eval"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        checks.expect(code == 0, f"{where}: bankworld eval exits 0")
        rows = read_records(eval_metrics)
    else:
        with batch.phase("eval"):
            records = harness.evaluate(tables, cfg)
        eval_metrics = out / "eval_metrics.csv"
        with batch.phase("io"):
            harness.write_metrics(records, eval_metrics)
        rows = _rows(records)
        checks.expect(read_records(eval_metrics) == rows,
                      f"{where}: eval_metrics.csv holds exactly the greedy records")
    _check_evaluation(cfg, rows, where, checks)

    for name in ("config.txt", "metrics.csv", "qtable.csv"):
        batch.fingerprint[f"{label}/{name}"] = sha256(out / name)
    batch.fingerprint[f"{label}/eval_metrics.csv"] = sha256(eval_metrics)


METRICS_HEADER = ["episode", "total_reward", "steps_used", "gems_dropped", "epsilon"]


def _rows(records) -> list[tuple]:
    return [(r.episode, r.total_reward, r.steps_used, r.gems_dropped, r.epsilon) for r in records]


def read_records(path: Path) -> list[tuple] | None:
    """Records of a metrics file as tuples, or None if the header is off."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != METRICS_HEADER:
            return None
        return [(int(e), int(t), int(s), int(g), float(eps)) for e, t, s, g, eps in reader]


def _check_training(bw, cfg, result, where: str, checks: Checks) -> None:
    grid, mode, hyper = cfg.grid, cfg.mode, cfg.hyper
    records = _rows(result.records)
    checks.expect([r[0] for r in records] == list(range(cfg.episodes)),
                  f"{where}: one record per training episode, in order")
    eps = [r[4] for r in records]
    if mode.method is bw.learner.Method.RANDOM:
        eps_ok = all(e == 1.0 for e in eps)
    else:
        eps_ok = eps[0] == hyper.eps_start and eps[-1] == hyper.eps_end and all(
            a >= b for a, b in zip(eps, eps[1:]))
    checks.expect(eps_ok, f"{where}: recorded epsilon anneals from start to end")
    checks.expect(all(_episode_is_consistent(r, grid) for r in records),
                  f"{where}: steps, gems and reward of every episode are within the rules")
    steps = sum(r[2] for r in records) * grid.num_agents
    want_calls = steps if mode.planner_enabled else 0
    checks.expect(result.planner_calls == want_calls,
                  f"{where}: planner consulted once per agent-step iff enabled")
    checks.expect(set(result.tables) == set(mode.table_keys()), f"{where}: table keys match mode")


def _episode_is_consistent(row: tuple, grid) -> bool:
    _, reward, steps, dropped, _ = row
    if not (1 <= steps <= grid.step_limit and 0 <= dropped <= grid.num_gems):
        return False
    if steps < grid.step_limit and dropped != grid.num_gems:
        return False
    # Each gem pays +50 once and +500 once; every other agent-step pays
    # between the illegal-move penalty and 0.
    return -5 * steps * grid.num_agents <= reward <= 550 * grid.num_gems


def _check_evaluation(cfg, rows, where: str, checks: Checks) -> None:
    checks.expect(rows is not None and [r[0] for r in rows] == list(range(cfg.eval_runs)),
                  f"{where}: one greedy record per evaluation run")
    rows = rows or []
    checks.expect(all(_episode_is_consistent(r, cfg.grid) for r in rows),
                  f"{where}: greedy episodes are within the rules")
    if cfg.mode.table_keys():
        checks.expect(all(r[4] == 0.0 for r in rows), f"{where}: greedy epsilon is 0")
        if hasattr(cfg.grid.layout, "agents"):
            checks.expect(len({r[1] for r in rows}) == 1,
                          f"{where}: fixed layout gives identical greedy runs")


def _check_config_echo(cfg, path: Path, where: str, checks: Checks) -> None:
    """The echo names every resolved setting, in the config-file format."""
    values = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    grid, hyper = cfg.grid, cfg.hyper
    want = {
        "method": cfg.mode.method.value,
        "planner": "on" if cfg.mode.planner_enabled else "off",
        "grid": f"{grid.width}x{grid.height}",
        "agents": str(grid.num_agents),
        "gems": str(grid.num_gems),
        "episodes": str(cfg.episodes),
        "steps": str(grid.step_limit),
        "noop-reward": str(grid.noop_reward),
        "alpha": repr(hyper.alpha),
        "gamma": repr(hyper.gamma),
        "eps-start": repr(hyper.eps_start),
        "eps-end": repr(hyper.eps_end),
        "eps-decay-frac": repr(hyper.eps_decay_fraction),
        "seed": str(hyper.seed),
        "runs": str(cfg.eval_runs),
    }
    if hasattr(grid.layout, "agents"):
        want.update({f"agent.{i}": f"{r},{c}"
                     for i, (r, c) in enumerate(grid.layout.agents)})
        want.update({f"gem.{i}": f"{r},{c}" for i, (r, c) in enumerate(grid.layout.gems)})
    else:
        want["random-layout"] = "true"
    checks.expect(values == want, f"{where}: config echo names every setting")


# ------------------------------ oracle ------------------------------


def _oracle(bw, grids, batch: Batch, checks: Checks) -> None:
    harness = bw.harness
    solve = harness.value_iteration_oracle
    solved = []

    def recording_solve(grid, task, *args, **kwargs):
        start = perf_counter()
        table = solve(grid, task, *args, **kwargs)
        solved.append((grid, task, table, perf_counter() - start))
        return table

    # The episode return hides the solved tables; capture them on the way
    # out so every value can be checked against the closed form.
    harness.value_iteration_oracle = recording_solve
    try:
        for grid in grids:
            with batch.phase("solve"):
                ret = harness.oracle_episode_return(grid, ORACLE_GAMMA)
            batch.fingerprint[f"return/{grid.width}x{grid.height}"] = ret
            checks.expect(type(ret) is int, f"oracle/{grid.width}x{grid.height}: integer return")
    finally:
        harness.value_iteration_oracle = solve

    checks.expect(len(solved) == 2 * len(grids), "oracle: two sub-tasks solved per grid")
    for grid, task, table, seconds in solved:
        size = f"{grid.width}x{grid.height}"
        where = f"oracle/{task}/{size}"
        cells = grid.width * grid.height
        states = cells if task == "drop" else cells * (cells - 1)
        checks.expect(len(table) == 5 * states, f"{where}: every state-action pair solved")
        bad = closed_form_mismatches(table, grid, task, ORACLE_GAMMA)
        checks.expect(bad == 0, f"{where}: {bad} values off the closed form")
        batch.solved.append((size, task, seconds, len(table)))


def closed_form_mismatches(table, grid, task: str, gamma: float) -> int:
    """Count solved Q values off the closed form by more than 1e-9.

    With no-op reward 0, the optimal value at Manhattan distance d >= 1
    from the goal is the better of walking there, d - 1 moves at -1 then
    the goal reward, and idling forever at 0. Every action value follows
    from that and the move's cell; states at distance 0 are skipped.
    """
    if grid.noop_reward != 0:
        raise ValueError("closed form assumes a no-op reward of 0")
    goal_reward = 50 if task == "pickup" else 500
    bank = grid.bank
    longest = grid.width + grid.height
    value = [0.0] + [
        max(0.0, -(1 - gamma ** (d - 1)) / (1 - gamma) + gamma ** (d - 1) * goal_reward)
        for d in range(1, longest + 1)
    ]
    bad = 0
    for s, a, q in table.items():
        (r, c) = s.agent_pos
        goal = s.gem_pos if task == "pickup" else bank
        d = abs(r - goal[0]) + abs(c - goal[1])
        if d == 0:
            continue
        dr, dc = _DELTAS[a]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < grid.height and 0 <= nc < grid.width):
            want = -5 + gamma * value[d]
        elif dr == 0 and dc == 0:
            want = gamma * value[d]
        elif (nr, nc) == goal:
            want = goal_reward
        else:
            want = -1 + gamma * value[abs(nr - goal[0]) + abs(nc - goal[1])]
        if abs(q - want) > 1e-9:
            bad += 1
    return bad
