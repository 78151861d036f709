"""Shared desk-scale runs.

The acceptance suite and a few harness tests train at the same desk
scale (7x7, centered bank, 2 agents, 2 gems, 2000 episodes of up to 300
steps, default hyperparameters). Runs are cached per (seed, method,
planner) for the session so each combination trains exactly once. At
first use the fixture trains all of `DESK_KEYS` at once in worker
processes, one per core; on one core it trains each run in-process when
it is first asked for.

`q_value`, `best_value`, `best_action` and `table_row` are the tests' way
of reading and seeding a `QTable`, where a state with no row reads as 0.0
in every action; the program reads rows by reference and needs none of
them. `gem_places` is the shared check of the world state's invariant: every
gem in exactly one place. `is_terminal` and `greedy_subtask_return` are
the tests' own readings of an episode's end and of a sub-task rollout;
the program needs neither. `reference_read_qtable` is the tests' plain
statement of what `read_qtable` reads, `reference_oracle` of what
`value_iteration_oracle` solves, and `reference_states` of the states
`SubtaskMDP.states` lists.
"""

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import pytest

from bankworld import harness
from bankworld.abstraction import AbstractState, parse_state
from bankworld.environment import ACTIONS, Action, GridConfig, WorldState, gems_deposited
from bankworld.harness import ParseError, RunConfig, SubtaskMDP, evaluate, train
from bankworld.learner import ControllerMode, Hyperparams, Method, QTable, select_action


def q_value(q: QTable, s: AbstractState, a: int) -> float:
    """The value of action ``a`` in state ``s``."""
    row = q.rows.get(s)
    return 0.0 if row is None else row[a]


def best_value(q: QTable, s: AbstractState) -> float:
    """The best action value of state ``s``."""
    row = q.rows.get(s)
    return 0.0 if row is None else max(row)


def best_action(q: QTable, s: AbstractState) -> Action:
    """The greedy action in state ``s``, ties to the lowest action, as
    `select_action` chooses with epsilon 0."""
    return select_action(q.rows.get(s), 0.0, None)


def table_row(q: QTable, s: AbstractState) -> list:
    """The row of state ``s``, made all 0.0 if it has none."""
    row = q.rows.get(s)
    if row is None:
        row = q.rows[s] = [0.0] * 5
    return row


def gem_places(state: WorldState, num_gems: int) -> tuple[int, int, int]:
    """How many gems are on the grid, held and deposited, after asserting
    that each gem is in exactly one of those places: a held gem is held by
    one agent and has no cell, and a deposited gem has neither."""
    cells, held = state.gem_cells, [g for g in state.held if g is not None]
    assert len(cells) == num_gems
    assert len(held) == len(set(held)), f"a gem held twice: {state.held}"
    assert all(0 <= g < num_gems and cells[g] is None for g in held), f"held gem on a cell: {state}"
    on_grid = num_gems - cells.count(None)
    deposited = sum(1 for j in range(num_gems) if cells[j] is None and j not in held)
    assert gems_deposited(state) == deposited
    return on_grid, len(held), deposited


def is_terminal(state: WorldState, config: GridConfig) -> bool:
    """True iff every gem is deposited or the step limit is reached."""
    return state.step >= config.step_limit or gems_deposited(state) == len(state.gem_cells)


def greedy_subtask_return(
    q: QTable, mdp: SubtaskMDP, start: AbstractState, gamma: float
) -> float:
    """Discounted return of the greedy rollout from ``start``.

    Accumulated back-to-front so the arithmetic matches the Bellman
    recursion float-for-float; a rollout that fails to finish within the
    state-space diameter's worth of slack returns -inf.
    """
    rewards = []
    s = start
    limit = 5 * (mdp.grid.width * mdp.grid.height + 10)
    for _ in range(limit):
        s, reward, terminal = mdp.step(s, best_action(q, s))
        rewards.append(reward)
        if terminal:
            ret = 0.0
            for r in reversed(rewards):
                ret = r + gamma * ret
            return ret
    return float("-inf")


def reference_read_qtable(path: Path):
    """What `harness.read_qtable` reads, said plainly: the whole text split
    into lines as `str.splitlines` splits it, and every record parsed and
    checked on its own, with `parse_state`, the header parser and the number
    rule of the harness. It returns what the reader returns, or raises the
    `ParseError` it raises."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError(f"{path}:1: missing header line")
    mode, hyper = harness._parse_header(lines[0], path)
    sections: dict[str, dict] = {}  # per table key, the value of each (state, action)
    key = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("# option="):
            key = line.partition("=")[2].strip()
            if key not in mode.table_keys():
                raise ParseError(f"{path}:{lineno}: no {key!r} table in mode {mode.method.value}")
            sections.setdefault(key, {})
            continue
        if key is None:
            raise ParseError(f"{path}:{lineno}: record before any option section")
        try:
            text, action_text, value_text = line.rsplit(",", 2)
            state, kind = parse_state(text), mode.projection(key)
            if type(state) is not kind:
                raise ValueError(f"{text} is not a {kind.__name__}, the rows of {key!r}")
            if action_text not in ("0", "1", "2", "3", "4"):
                raise ValueError(f"action {action_text!r} is not one of 0-4")
            value = harness._number("value", value_text)
            if not math.isfinite(value):
                raise ValueError(f"value {value_text} is not finite")
            if (state, int(action_text)) in sections[key]:
                raise ValueError(f"repeated record for action {action_text} of {text}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        sections[key][state, int(action_text)] = value
    tables = {}
    for key, entries in sections.items():
        table = tables[key] = QTable()
        for (state, action), value in entries.items():
            table.rows.setdefault(state, [0.0] * 5)[action] = value
    return mode, hyper, tables


def reference_oracle(grid: GridConfig, task: str, gamma: float) -> QTable:
    """What `harness.value_iteration_oracle` solves, said plainly: every
    state-action pair stepped through `SubtaskMDP.step`, then in-place
    sweeps in `SubtaskMDP.distances` order that rewrite each row from the
    best values of its successors, the best value of a row set as it is
    written, until a sweep leaves every row equal to what it was."""
    mdp = SubtaskMDP(grid, task)
    q = QTable()
    states = mdp.states()
    rows = q.rows = {s: [0.0] * 5 for s in states}
    order = sorted(rows, key=dict(zip(states, mdp.distances())).__getitem__)
    pairs = {s: [mdp.step(s, a) for a in ACTIONS] for s in order}
    best = dict.fromkeys(order, 0.0)
    changed = True
    while changed:
        changed = False
        for s in order:
            new = [r if terminal else r + gamma * best[s_next] for s_next, r, terminal in pairs[s]]
            changed = changed or new != rows[s]
            rows[s][:] = new
            best[s] = max(new)
    return q


def reference_states(grid: GridConfig, task: str) -> list[AbstractState]:
    """What `SubtaskMDP.states` lists, said plainly: each field of the
    sub-task's state kind over every cell, leftmost outermost, and no gem
    on the bank."""
    kind = ControllerMode(Method.OPTIONS).projection(task)
    cells = [(r, c) for r in range(grid.height) for c in range(grid.width)]
    states = map(kind._make, product(cells, repeat=len(kind._fields)))
    return [s for s in states if getattr(s, "gem_pos", None) != grid.bank]


def desk_grid() -> GridConfig:
    # default_layout(7, 7, 2, 2): agents (0,0),(6,6); gems (0,6),(6,0)
    return GridConfig(width=7, height=7, num_agents=2, num_gems=2, step_limit=300)


def desk_config(seed: int, method: Method, planner: bool) -> RunConfig:
    return RunConfig(
        grid=desk_grid(),
        mode=ControllerMode(method, planner_enabled=planner),
        hyper=Hyperparams(seed=seed),
        episodes=2000,
        eval_runs=10,
    )


SEEDS = (1, 2, 3, 4, 5)
# Every desk run the suite asks for: each method with the planner on, then
# options with the planner off. The slowest arm, random, comes first.
DESK_KEYS = [(seed, method, True) for method in Method for seed in SEEDS] + [
    (seed, Method.OPTIONS, False) for seed in SEEDS
]


def desk_run(key):
    cfg = desk_config(*key)
    result = train(cfg)
    return result, evaluate(result.tables, cfg), cfg


@pytest.fixture(scope="session")
def desk_runs():
    cache = {}
    workers = min(len(DESK_KEYS), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            cache.update(zip(DESK_KEYS, pool.map(desk_run, DESK_KEYS)))

    def get(seed: int, method: Method, planner: bool = True):
        key = (seed, method, planner)
        if key not in cache:
            cache[key] = desk_run(key)
        return cache[key]

    return get
