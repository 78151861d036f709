"""Training and evaluation loops, exact solver, metrics, persistence.

A run is fully determined by its config: every random draw traces back
to the single run seed. Training anneals exploration per the schedule in
`learner.epsilon_at`; evaluation replays greedy episodes with derived
seeds (run seed + run index) and never writes to the tables. The loops
return records and tables: only the file codecs take a path.

`value_iteration_oracle` solves a single sub-task (fetch or deposit)
exactly over its enumerated projected state space, each state known by
its integer key, its index in `SubtaskMDP.states`. `SubtaskMDP` keeps no
dynamics or views of its own: a step is one `step_agent` call projected
by the controller's `learner.project`, made once per agent cell, action
and whether the move enters the goal cell, not once per state-action
pair. `_columns` gathers the steps into sweep columns, and `_solve`, which
reads nothing of the sub-task, sweeps them: transitions are deterministic,
so Bellman sweeps of the state values in order of the goal distance
(`SubtaskMDP.distances`, nearest first) settle nearly every value in the
first pass. It exits at the literal fixed point, certified by the rows
written from the values of the last sweep that changes one, or else by a
sweep that changes none. Equal values in a solved table share one object.
The oracle doubles as the reference for "optimal episode return",
obtained by rolling its greedy policy through a real episode.
"""

from __future__ import annotations

import csv
import gc
import math
import os
import random
import re
import statistics
from dataclasses import dataclass, fields, replace
from functools import partial, wraps
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .abstraction import AbstractState, StateCodec
from .environment import (
    ACTIONS,
    Action,
    ConfigError,
    Event,
    GridConfig,
    Position,
    WorldState,
    gems_deposited,
    reset,
    step_agent,
)
from .learner import (
    PICKUP_TABLE,
    ControllerMode,
    Hyperparams,
    Method,
    QTable,
    controller_step,
    epsilon_at,
    fresh_tables,
    project,
)

ORACLE_PAIR_LIMIT = 1_000_000
THRESHOLD_WINDOW = 50
NOT_REACHED = "not-reached"
# The mode whose sub-tasks the exact solver solves, one per table key.
OPTIONS_MODE = ControllerMode(Method.OPTIONS)
# The solver's worlds skip NamedTuple's Python-level __new__, as `step_agent`'s do.
_new = tuple.__new__
_ACQUIRED, _DROPPED = Event.ACQUIRED, Event.DROPPED


class ParseError(ValueError):
    """Malformed metrics or Q-table file; message carries the line."""


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig
    mode: ControllerMode
    hyper: Hyperparams
    episodes: int
    eval_runs: int = 10

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1", "episodes")
        if self.eval_runs < 1:
            raise ConfigError("eval_runs must be >= 1", "eval_runs")


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    total_reward: int
    steps_used: int
    gems_dropped: int
    epsilon: float


@dataclass
class TrainResult:
    tables: dict[str, QTable]
    records: list[EpisodeRecord]
    planner_calls: int = 0


def _episode_seed(run_seed: int, episode: int) -> int:
    # Mode-independent so all comparison arms see identical resets.
    return run_seed * 1_000_003 + episode


def _run_episode(
    cfg: RunConfig,
    tables: dict[str, QTable],
    epsilon: float,
    rng: random.Random,
    reset_seed: int,
    episode: int,
    learn: bool,
) -> EpisodeRecord:
    grid, mode = cfg.grid, cfg.mode
    state, _, outcomes = controller_step(reset(grid, reset_seed), grid, mode, tables,
                                         (None,) * grid.num_agents, epsilon, cfg.hyper, rng,
                                         learn, grid.step_limit)
    total = sum([outcome.reward for outcome in outcomes])
    recorded_eps = 1.0 if mode.method is Method.RANDOM else epsilon
    return EpisodeRecord(episode, total, state.step, gems_deposited(state), recorded_eps)


def _collector_paused(func):
    """``func`` run with the cyclic collector paused, which is then left as
    it was found, also when ``func`` raises. Training, the exact solver and
    the Q-table codecs build many small tracked objects, none of them garbage,
    and each full collection set off while they are built walks them all,
    and every other live object too."""

    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def train(cfg: RunConfig) -> TrainResult:
    """Run the full training budget and return tables plus the log.

    Random-policy runs learn nothing and return empty tables; their
    records carry epsilon 1.0 (every action is a uniform draw). With the
    planner on, the controller consults it once per agent per step. The
    collector is paused (`_collector_paused`).
    """
    tables = fresh_tables(cfg.mode)
    rng = random.Random(cfg.hyper.seed)
    records = []
    for episode in range(cfg.episodes):
        eps = epsilon_at(episode, cfg.episodes, cfg.hyper)
        seed = _episode_seed(cfg.hyper.seed, episode)
        records.append(_run_episode(cfg, tables, eps, rng, seed, episode, learn=True))
    steps = sum(r.steps_used for r in records) if cfg.mode.planner_enabled else 0
    return TrainResult(tables, records, cfg.grid.num_agents * steps)


def evaluate(tables: dict[str, QTable], cfg: RunConfig) -> list[EpisodeRecord]:
    """Greedy test episodes, one per eval run, seeds seed+0..seed+n-1.

    Tables are read-only here; a mode/table mismatch is rejected.
    """
    if set(tables) != set(cfg.mode.table_keys()):
        raise ConfigError(
            f"tables {sorted(tables)} do not match mode {cfg.mode.method.value}"
        )
    records = []
    for run in range(cfg.eval_runs):
        seed = cfg.hyper.seed + run
        records.append(_run_episode(cfg, tables, 0.0, random.Random(seed), seed, run, learn=False))
    return records


# --------------------------- exact solver ---------------------------


class SubtaskMDP:
    """One option of `OPTIONS_MODE`, named by its table key, as the options
    controller sees it: `environment.step_agent` on a one-agent world, its
    successor projected by `learner.project` into a state of that table's
    kind (`ControllerMode.projection`). The goal event, pickup or deposit,
    ends the sub-task, as it does for the options learner. Cells go by id,
    ``r * width + c``, the order of `GridConfig.moves`. It alone states which
    cells end the sub-task and how they are numbered (`goal_cells`)."""

    def __init__(self, grid: GridConfig, task: str):
        if task not in OPTIONS_MODE.table_keys():
            raise ConfigError(f"unknown sub-task {task!r}")
        self.grid, self.task, self.kind = grid, task, OPTIONS_MODE.projection(task)

    def goal_cells(self) -> list[Position]:
        """The cells whose entry ends the sub-task, by number: to fetch, every
        cell but the bank, where the gem may lie, by id; to deposit, the bank."""
        bank = self.grid.bank
        return [p for p in self.grid.moves if p != bank] if self.task == PICKUP_TABLE else [bank]

    def goal_count(self) -> int:
        """How many cells `goal_cells` lists, counted without listing a cell."""
        return self.grid.width * self.grid.height - 1 if self.task == PICKUP_TABLE else 1

    def states(self) -> list[AbstractState]:
        """Per agent cell by id, the state of each goal cell by number: the
        state at index k has the key k, agent cell id * goals + goal number."""
        rests = [(gem,) for gem in self.goal_cells()] if self.task == PICKUP_TABLE else [()]
        return [_new(self.kind, (agent,) + rest) for agent in self.grid.moves for rest in rests]

    def distances(self) -> list[int]:
        """Per state of `states`, in order, the moves onto its goal cell: the
        Manhattan distance, or 2 (off and back) from the goal cell itself."""
        goals = self.goal_cells()
        return [abs(r - gr) + abs(c - gc) or 2 for r, c in self.grid.moves for gr, gc in goals]

    def step(self, s: AbstractState, a: Action) -> tuple[Optional[AbstractState], int, bool]:
        # One agent and one gem: on its cell to fetch, in the agent's hands to deposit.
        held, cells = ((None,), (s.gem_pos,)) if self.task == PICKUP_TABLE else ((0,), (None,))
        world, outcome = step_agent(_new(WorldState, ((s.agent_pos,), held, cells, 0)),
                                    self.grid, 0, a, 0)
        event = outcome.event
        if event is _ACQUIRED or event is _DROPPED:
            return None, outcome.reward, True
        return project(world, 0, self.kind, (0,), self.grid.bank), outcome.reward, False


def _last_row_holds(sweep: list, values: list, gamma: float) -> bool:
    """Whether the row of the state swept last, written from ``values``, has
    that state's value as its best entry, of the same type. It is the first
    row of the certificate that `_solve` tries after each sweep that changed
    some value, checked before the values are numbered: where a sweep's rows
    did not certify the fixed point, this row failed in every solve tried.
    The arithmetic is the sweep's, written out there for its speed."""
    j0, r0, j1, r1, j2, r2, j3, r3, j4, r4 = (column[-1] for column in sweep)
    v = max(r0 if j0 < 0 else r0 + gamma * values[j0],
            r1 if j1 < 0 else r1 + gamma * values[j1],
            r2 if j2 < 0 else r2 + gamma * values[j2],
            r3 if j3 < 0 else r3 + gamma * values[j3],
            r4 if j4 < 0 else r4 + gamma * values[j4])
    return v == values[-1] and type(v) is type(values[-1])


def _solve(sweep: list, order: Sequence[int], ends: set, goes: set, gamma: float) -> list:
    """The rows, by key, of the exact action values of a deterministic
    five-action task, known only by its pairs: ``sweep`` holds per action a
    column of successor places (-1 where the pair ends the task) and one of
    rewards, both in the order of the keys ``order``; ``ends`` and ``goes``
    hold the rewards of the pairs that end the task and of the rest.
    In-place Bellman sweeps in that order run until one changes no value, or
    until the rows written after one that changed some certify the fixed
    point: each row's best entry is its state's value, type and all, so the
    next sweep would store every value again. Rows that fail are dropped and
    the sweeps go on; they are tried only where the row of the state swept
    last holds (`_last_row_holds`). Each distinct value, (reward, successor
    value) entry and end reward is one object, made once by type and value
    (50 == 50.0 prints otherwise; -0.0 meets 0.0 only added to an int
    reward, which gives the same entry for both), so the certificate tests
    each best entry's identity. Each row is its state's own list."""
    values = [0.0] * len(order)  # values[i] is the best value of the i-th state swept
    while True:
        changed = False
        for i, (j0, r0, j1, r1, j2, r2, j3, r3, j4, r4) in enumerate(zip(*sweep)):
            v = max(r0 if j0 < 0 else r0 + gamma * values[j0],
                    r1 if j1 < 0 else r1 + gamma * values[j1],
                    r2 if j2 < 0 else r2 + gamma * values[j2],
                    r3 if j3 < 0 else r3 + gamma * values[j3],
                    r4 if j4 < 0 else r4 + gamma * values[j4])
            if v != values[i]:
                changed = True
            values[i] = v
        if changed and not _last_row_holds(sweep, values, gamma):
            continue
        number = {}
        numbered = [number.setdefault((type(v), v), len(number)) for v in values]
        del values
        made = {(type(r), r): r for r in ends}
        value = [made.setdefault(key, key[1]) for key in number]
        entry = {r: [made.setdefault((type(e), e), e) for e in (r + gamma * v for v in value)]
                 for r in goes}
        rows = [None] * len(order)
        for k, n, j0, r0, j1, r1, j2, r2, j3, r3, j4, r4 in zip(order, numbered, *sweep):
            row = rows[k] = [r0 if j0 < 0 else entry[r0][numbered[j0]],
                             r1 if j1 < 0 else entry[r1][numbered[j1]],
                             r2 if j2 < 0 else entry[r2][numbered[j2]],
                             r3 if j3 < 0 else entry[r3][numbered[j3]],
                             r4 if j4 < 0 else entry[r4][numbered[j4]]]
            # After a sweep that changed some value, the rows stand only if
            # the next sweep would store every value again, type and all.
            if changed and max(row) is not value[n]:
                break
        else:
            return rows
        del rows, entry
        values = list(map(value.__getitem__, numbered))


def _columns(mdp: SubtaskMDP, states: list, order: list[int]) -> tuple[list, set, set]:
    """``mdp``'s pairs as `_solve` takes them, ``states[order[i]]`` swept
    i-th. A pair's reward depends only on the agent's cell, the action and
    whether the move enters a goal cell from another, which ends the
    sub-task; any other move leads to the state with the agent on the move's
    cell and the same goal, one slice of the places by key. So
    `SubtaskMDP.step` runs once per such case, checked against that state."""
    number = {cell: n for n, cell in enumerate(mdp.goal_cells())}
    goals, width = len(number), mdp.grid.width
    place = [0] * len(states)  # states[k] is swept place[k]-th
    for i, k in enumerate(order):
        place[k] = i
    ends, goes = set(), set()

    def reward(here: int, goal: int, a: int, successor: int) -> int:
        """The reward of action ``a`` from the state keyed by ``here`` and
        ``goal``, stepped after checking its successor's place (-1: none)."""
        s_next, r, _ = mdp.step(states[here * goals + goal], ACTIONS[a])
        assert s_next == (None if successor < 0 else states[order[successor]]), (here, goal, a)
        (goes if successor >= 0 else ends).add(r)
        return r

    sweep, gather = [], itemgetter(*order)
    for a in range(5):
        successors, rewards = [], []  # per key
        for here, (cell, moves) in enumerate(mdp.grid.moves.items()):
            onto = moves[a][0]
            there = onto[0] * width + onto[1]
            entered = number.get(onto) if onto != cell else None  # the goal the move enters
            # Per goal, the successor's place: the agent on `there`, the goal
            # the same, or -1 where the move enters the goal.
            row = place[there * goals:(there + 1) * goals]
            if entered is not None:
                row[entered] = -1
            # Per goal, the reward: stepped from the first state on `here` whose
            # goal the move misses, if any, and from the one whose goal it enters.
            missed = 1 if entered == 0 else 0
            rews = [reward(here, missed, a, row[missed]) if missed < goals else None] * goals
            if entered is not None:
                rews[entered] = reward(here, entered, a, -1)
            successors += row
            rewards += rews
        sweep += gather(successors), gather(rewards)
    return sweep, ends, goes


@_collector_paused
def value_iteration_oracle(grid: GridConfig, task: str, gamma: float = 0.95) -> QTable:
    """Exact action values for one sub-task, `SubtaskMDP(grid, task)`: its
    pairs gathered into columns (`_columns`) in order of the goal distance
    (`SubtaskMDP.distances`, nearest first), so that the first sweep settles
    nearly every value, and solved by `_solve`. The collector is paused
    (`_collector_paused`). Refuses, before it enumerates a state, a gamma
    outside [0, 1] and instances beyond `ORACLE_PAIR_LIMIT` pairs."""
    if not 0 <= gamma <= 1:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}", "gamma")
    mdp = SubtaskMDP(grid, task)
    pairs = 5 * grid.width * grid.height * mdp.goal_count()
    if pairs > ORACLE_PAIR_LIMIT:
        raise ConfigError(
            f"{pairs} state-action pairs exceed the oracle limit of {ORACLE_PAIR_LIMIT}", "width"
        )
    states = mdp.states()
    order = sorted(range(len(states)), key=mdp.distances().__getitem__)
    sweep, ends, goes = _columns(mdp, states, order)
    rows = _solve(sweep, order, ends, goes, gamma)
    del sweep  # before the table is built: the columns and the table never coexist
    q = QTable()
    q.rows = dict(zip(states, rows))
    return q


def oracle_episode_return(grid: GridConfig, gamma: float = 0.95) -> int:
    """Total reward of one greedy episode driven by the exact solver.

    This is the planner-mode optimum used as the basis for the
    learning-speed threshold. It is optimal under the greedy allocation
    only: a joint search over which agent takes which gem, and in what
    order, may beat it on some layouts.
    """
    tables = {key: value_iteration_oracle(grid, key, gamma) for key in OPTIONS_MODE.table_keys()}
    cfg = RunConfig(grid, OPTIONS_MODE, Hyperparams(gamma=gamma), episodes=1)
    return _run_episode(cfg, tables, 0.0, random.Random(0), 0, 0, learn=False).total_reward


# --------------------------- experiment suites ---------------------------


@dataclass(frozen=True)
class SummaryRow:
    method: str
    planner: str
    mean_eval_reward: float
    std_eval_reward: float
    episodes_to_threshold: Optional[int]


def episodes_to_threshold(records: Sequence[EpisodeRecord], threshold: float) -> Optional[int]:
    """First episode whose mean reward over the trailing `THRESHOLD_WINDOW`
    episodes meets the threshold, or None when it never does."""
    running = 0
    for i, record in enumerate(records):
        dropped = records[i - THRESHOLD_WINDOW].total_reward if i >= THRESHOLD_WINDOW else 0
        running += record.total_reward - dropped
        if i >= THRESHOLD_WINDOW - 1 and running / THRESHOLD_WINDOW >= threshold:
            return record.episode
    return None


Records = list[EpisodeRecord]


def _arm_worker(cfg: RunConfig) -> tuple[Records, Records]:
    result = train(cfg)
    return result.records, evaluate(result.tables, cfg)


def _run_arms(configs: list[RunConfig]) -> list[tuple[Records, Records]]:
    workers = min(len(configs), os.cpu_count() or 1)
    if workers == 1:
        return [_arm_worker(cfg) for cfg in configs]
    from concurrent.futures import ProcessPoolExecutor  # here: only a fan-out needs its ~36 modules
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_arm_worker, configs))


def reward_mean_std(records: Sequence[EpisodeRecord]) -> tuple[float, float]:
    """Mean and sample standard deviation of the records' rewards; a lone record's is 0."""
    rewards = [r.total_reward for r in records]
    return statistics.fmean(rewards), statistics.stdev(rewards) if len(rewards) > 1 else 0.0


def _summary_row(
    mode: ControllerMode,
    train_records: Sequence[EpisodeRecord],
    eval_records: Sequence[EpisodeRecord],
    threshold: float,
) -> SummaryRow:
    mean, std = reward_mean_std(eval_records)
    return SummaryRow(
        method=mode.method.value,
        planner="on" if mode.planner_enabled else "off",
        mean_eval_reward=mean, std_eval_reward=std,
        episodes_to_threshold=episodes_to_threshold(train_records, threshold),
    )


def compare(
    base: RunConfig,
    modes: Sequence[ControllerMode],
) -> list[tuple[SummaryRow, Records, Records]]:
    """Train and test each mode under the grid, budget and seed of ``base``.
    Returns, per mode in order, its summary row, its training records and
    its greedy records; the learning-speed threshold is 0.8 times
    `oracle_episode_return`.
    """
    threshold = 0.8 * oracle_episode_return(base.grid, base.hyper.gamma)
    results = _run_arms([replace(base, mode=mode) for mode in modes])
    return [
        (_summary_row(mode, train_recs, eval_recs, threshold), train_recs, eval_recs)
        for mode, (train_recs, eval_recs) in zip(modes, results)
    ]


# --------------------------- persistence ---------------------------

# Each file's columns are the fields of the record it holds, in order.
METRICS_HEADER = [f.name for f in fields(EpisodeRecord)]
SUMMARY_HEADER = [f.name for f in fields(SummaryRow)]


def cell_text(value) -> str:
    """A number as `repr` writes it, a str as it is, None as `NOT_REACHED`:
    a cell of the CSV files and of the printed summary."""
    return NOT_REACHED if value is None else value if isinstance(value, str) else repr(value)


def _write_rows(header: list[str], records: Sequence, path: Path) -> None:
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(header)
        for r in records:
            out.writerow([cell_text(getattr(r, name)) for name in header])


def write_metrics(records: Sequence[EpisodeRecord], path: Path) -> None:
    _write_rows(METRICS_HEADER, records, path)


def write_summary(rows: Sequence[SummaryRow], path: Path) -> None:
    _write_rows(SUMMARY_HEADER, rows, path)


# The settings a Q-table header carries, in the order written: each
# `Hyperparams` field, and `_STEP_SCHEDULE`, always ``none`` since the step
# size is the constant ``alpha``; a reader takes that one absent or ``none``.
_HEADER_FIELDS = tuple(
    "alpha gamma eps_start eps_end eps_decay_fraction alpha_visit_decay seed".split())
_STEP_SCHEDULE = "alpha_visit_decay"


def _hyper_header(mode: ControllerMode, hyper: Hyperparams) -> str:
    planner = "on" if mode.planner_enabled else "off"
    return f"# mode={mode.method.value} planner={planner} " + " ".join(
        f"{key}={'none' if key == _STEP_SCHEDULE else repr(getattr(hyper, key))}"
        for key in _HEADER_FIELDS)


@_collector_paused
def write_qtable(
    tables: dict[str, QTable], path: Path, mode: ControllerMode, hyper: Hyperparams
) -> None:
    """One file for all tables: a header line with the run settings,
    then per-table sections of ``state,action,value`` records, each
    section's body sorted as text for byte-stable output.

    Each row's state is written as text once, through one `StateCodec` for
    the file, which encodes each distinct field value once; the rows are
    sorted by that text, and a row's five records go to the file together,
    so no list of record lines is built. This is the order of the records
    sorted as text: a state's records differ only in the action digit, and
    all states of one table have as many commas (one projection, one gem
    count), so when one state's text is a proper prefix of another's it is
    followed there by a digit, ``:`` or ``_``, each of which sorts after the
    ``,`` that ends the shorter state's text in its records. Every state is
    written as text before the file is opened, so a state that cannot be
    written leaves no file. The collector is paused (`_collector_paused`)."""
    serialize, by_text = StateCodec().serialize, itemgetter(0)
    sections = [(key, sorted(zip(map(serialize, table.rows), table.rows.values()), key=by_text))
                for key, table in sorted(tables.items())]
    with open(path, "w", newline="") as f:
        f.write(_hyper_header(mode, hyper) + "\n")
        for key, rows in sections:
            f.write(f"# option={key}\n")
            for h, (v0, v1, v2, v3, v4) in rows:
                f.write(f"{h},0,{v0!r}\n{h},1,{v1!r}\n{h},2,{v2!r}\n{h},3,{v3!r}\n{h},4,{v4!r}\n")


# A number as `repr` writes an int or a finite float: a minus or no sign, no
# leading zero, then an optional fraction and exponent; ASCII digits only.
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[+-][0-9]+)?")
_ACTION_INDEX = {str(a): a for a in range(5)}
# A row entry no record has set: a NaN, which no record can hold, known by
# its identity, so a repeated record shows.
_UNSET = math.nan


def _number(name: str, text: str, parse=float):
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"{name} {text!r} is not a number as repr writes it")
    return parse(text)


def _parse_header(line: str, path: Path) -> tuple[ControllerMode, Hyperparams]:
    """The settings `_hyper_header` writes, each once and no others, after
    the ``# `` it writes; `_STEP_SCHEDULE` may be absent."""
    pairs = {}
    try:
        if not line.startswith("# mode="):
            raise ValueError("a header starts with '# mode='")
        for token in line[2:].split():
            key, _, value = token.partition("=")
            if key not in ("mode", "planner", *_HEADER_FIELDS) or key in pairs:
                raise ValueError(f"unknown or repeated key {key!r}")
            pairs[key] = value
        if pairs["planner"] not in ("on", "off"):
            raise ValueError(f"planner must be on or off, got {pairs['planner']!r}")
        mode = ControllerMode(Method(pairs["mode"]), pairs["planner"] == "on")
        schedule = pairs.pop(_STEP_SCHEDULE, "none")
        if schedule != "none":
            raise ValueError(f"{_STEP_SCHEDULE} must be none, got {schedule!r}")
        hyper = Hyperparams(**{key: _number(key, pairs[key], int if key == "seed" else float)
                               for key in _HEADER_FIELDS if key != _STEP_SCHEDULE})
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}:1: bad header ({exc})") from None
    return mode, hyper


def _whole_lines(f) -> Iterator[str]:
    """The text of file ``f`` in pieces that end where a line ends: blocks
    cut after their last ``\\n``. In universal newline mode no ``\\r`` is
    left, so every line break is one character, and `str.splitlines` splits
    the pieces into the lines it splits the whole text into."""
    rest = ""
    for block in iter(partial(f.read, 1 << 13), ""):
        cut = block.rfind("\n") + 1
        if cut:
            yield rest + block[:cut]
            rest = block[cut:]
        else:
            rest += block
    yield rest


@_collector_paused
def read_qtable(path: Path) -> tuple[ControllerMode, Hyperparams, dict[str, QTable]]:
    """Read a file written by `write_qtable`. Every section must name a table
    of the header's mode, every state must be of that table's projection
    (`ControllerMode.projection`), every action and value must be written as
    `write_qtable` writes it, every value must be finite and every
    (state, action) record unique; a row's missing actions read as 0.0.

    The file is read in blocks of whole lines, its lines split and numbered
    as `str.splitlines` splits the whole text. A record that continues the run of records
    of the last state read, as `write_qtable` writes them, costs a split, a
    look-up of its action and of its value text, and one test that its entry
    is unset; any other line takes the checks of a blank line, a section
    line or a new state. Each state text is parsed once for its run, through
    one `StateCodec` for the file, which decodes each distinct field text
    once, so equal field values are shared between the rows read, as
    training shares them; each distinct value text is read once too. The
    collector is paused (`_collector_paused`)."""
    tables: dict[str, QTable] = {}
    parse = StateCodec().parse
    with open(path) as f:
        lines = enumerate(chain.from_iterable(map(str.splitlines, _whole_lines(f))), start=1)
        _, first = next(lines, (1, ""))
        if not first.startswith("#"):
            raise ParseError(f"{path}:1: missing header line")
        mode, hyper = _parse_header(first, path)
        current: Optional[QTable] = None
        head = row = None  # the last record's state text and its row in this section
        values: dict[str, float] = {}  # each distinct value text, read once
        for lineno, line in lines:
            record = line.rsplit(",", 2)
            try:
                if record[0] != head:  # a blank line, a section line or a new state
                    if not line.strip():
                        continue
                    if line.startswith("# option="):
                        key = line.partition("=")[2].strip()
                        if key not in mode.table_keys():
                            raise ValueError(f"no {key!r} table in mode {mode.method.value}")
                        current = tables.setdefault(key, QTable())
                        kind, head = mode.projection(key), None
                        continue
                    if current is None:
                        raise ValueError("record before any option section")
                    if len(record) < 3:
                        raise ValueError("expected state,action,value")
                    text = record[0]
                    state = parse(text)
                    if type(state) is not kind:
                        raise ValueError(f"{text} is not a {kind.__name__}, the rows of {key!r}")
                    head, row = text, current.rows.setdefault(state, [_UNSET] * 5)
                _, action_text, value_text = record
                action = _ACTION_INDEX.get(action_text)
                if action is None:
                    raise ValueError(f"action {action_text!r} is not one of 0-4")
                value = values.get(value_text)
                if value is None:
                    value = _number("value", value_text)
                    if not math.isfinite(value):
                        raise ValueError(f"value {value_text} is not finite")
                    values[value_text] = value
                if row[action] is not _UNSET:
                    raise ValueError(f"repeated record for action {action} of {head}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            row[action] = value
    for table in tables.values():
        for row in table.rows.values():
            if _UNSET in row:
                row[:] = [0.0 if value is _UNSET else value for value in row]
    return mode, hyper, tables


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot total reward per episode from {csv_name} (same directory)."""
import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "{csv_name}", newline="") as f:
    rows = list(csv.DictReader(f))
episodes = [int(r["episode"]) for r in rows]
rewards = [float(r["total_reward"]) for r in rows]

fig, ax = plt.subplots(figsize=(8, 4.5))
ax.plot(episodes, rewards, linewidth=0.8)
ax.set_xlabel("episode")
ax.set_ylabel("total reward")
ax.set_title("Reward per episode")
fig.tight_layout()
out = here / "reward_vs_episode.png"
fig.savefig(out, dpi=150)
print(f"wrote {{out}}")
'''


def write_plot_script(metrics_path: Path) -> Path:
    """Drop a standalone plotting script next to a metrics CSV."""
    metrics_path = Path(metrics_path)
    script = metrics_path.parent / "plot_metrics.py"
    with open(script, "w", newline="") as f:
        f.write(_PLOT_TEMPLATE.format(csv_name=metrics_path.name))
    return script
