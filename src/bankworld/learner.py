"""Central controller: Q-tables, action selection, TD updates, dispatch.

All agents read and write the same tables, which `ControllerMode` alone
names: the table each option executes (one per sub-task in options mode,
one for both in flat mode) and each table's row kind, the state
`project` builds. `controller_step` is the episode loop. Each timestep
it walks agents in ascending index: refresh the planner allocation
``alloc`` (``alloc[i]`` is the gem allocated to agent ``i`` or None),
dispatch, choose an action (uniformly for the random baseline, else
epsilon-greedily from the state `project` gives), apply it, and update
the executing table. Then it bumps the step, and it stops after the
timestep that reaches the step limit or the last deposit. A learner's
update bootstraps from the successor of a step that changes the world,
projected and looked up once and kept with its row as the agent's state
at its next turn while what it was projected from is unchanged; a NoOp
or illegal move bootstraps from the state and row it acted from. An
option is named by its options-mode table key, `PICKUP_TABLE` (fetch)
or `DROP_TABLE` (deposit). A sub-task ends the moment its goal event
fires (pickup for fetch, deposit for drop); that transition is updated
with a terminal bootstrap, and a deposit also frees the depositing
agent's slot of ``alloc``.

The dispatch is stated once, in `controller_step`'s agent loop. Under the
planner an agent is parked when its slot is empty and it carries nothing:
it emits NoOp and learns nothing, since a one-action policy has nothing
to learn. The planner keeps ``alloc[i] == held[i]`` while agent ``i``
carries, so ``held`` is read only for an empty slot. An acting agent
executes the deposit option while it carries, else the fetch option; the
carrier is tested first because a carrier's slot is filled too. With the
planner off (``alloc=None``) every agent always acts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import planner as plan
from .abstraction import (
    AbstractState,
    DropState,
    FlatState,
    NoPlannerState,
    PickupState,
    abstract_drop,
    abstract_flat,
    abstract_no_planner,
    abstract_pickup,
)
from .environment import (
    ACTIONS,
    IDLE_OUTCOMES,
    Action,
    ConfigError,
    Event,
    GridConfig,
    Position,
    StepOutcome,
    WorldState,
    gems_deposited,
    step_agent,
)


class Method(Enum):
    RANDOM = "random"
    FLAT = "q"
    OPTIONS = "q-options"


# Q-table keys. Per method, the table each option executes, as (fetch,
# deposit): the flat table serves both, and the random baseline executes
# none. Per table, the kind of its rows with the planner on.
PICKUP_TABLE, DROP_TABLE, FLAT_TABLE = "pickup", "drop", "flat"
_OPTION_TABLES = {Method.OPTIONS: (PICKUP_TABLE, DROP_TABLE),
                  Method.FLAT: (FLAT_TABLE, FLAT_TABLE), Method.RANDOM: ()}
_ROW_KINDS = {PICKUP_TABLE: PickupState, DROP_TABLE: DropState, FLAT_TABLE: FlatState}

# Enum members read once here: each read through the class costs a lookup.
_RANDOM, _OPTIONS = Method.RANDOM, Method.OPTIONS
_ACQUIRED, _DROPPED = Event.ACQUIRED, Event.DROPPED


@dataclass(frozen=True)
class ControllerMode:
    method: Method
    planner_enabled: bool = True

    def table_keys(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(_OPTION_TABLES[self.method]))

    def projection(self, key: str) -> type:
        """The abstract state kind of the rows of table ``key``: the planner-
        off view for every table, else the view of that table's task."""
        return _ROW_KINDS[key] if self.planner_enabled else NoPlannerState


@dataclass(frozen=True)
class Hyperparams:
    """Learning-rate, discount, and exploration settings.

    The step size ``alpha`` is constant. Epsilon anneals linearly from
    ``eps_start`` to ``eps_end`` over the first ``eps_decay_fraction`` of
    training episodes.
    """

    alpha: float = 0.1
    gamma: float = 0.95
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "gamma", "eps_start", "eps_decay_fraction"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}", name)
        if not (0.0 <= self.eps_end <= self.eps_start):
            raise ConfigError(
                f"eps_end must be in [0, eps_start={self.eps_start}], got {self.eps_end}",
                "eps_end",
            )
        if self.seed < 0:
            # random.Random seeds with abs(seed): -5 would replay the run of 5.
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")


def epsilon_at(episode: int, total_episodes: int, h: Hyperparams) -> float:
    """Exploration probability in effect for a 0-based episode index."""
    span = round(total_episodes * h.eps_decay_fraction)
    if episode >= span or span <= 0:
        return h.eps_end
    return h.eps_start + (h.eps_end - h.eps_start) * (episode / span)


class QTable:
    """Sparse state-action value table; unseen rows read as 0.0.

    Rows are 5-long lists indexed by action.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[AbstractState, list[float]] = {}

    def items(self):
        for s, row in self.rows.items():
            for a, value in enumerate(row):
                yield s, a, value

    def __len__(self) -> int:
        return 5 * len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return self.rows == other.rows


def _uniform_action(rng: random.Random) -> Action:
    """``ACTIONS[rng.randrange(5)]``, drawn the way `randrange` draws: three
    bits at a time until they name an action, so the stream is the same."""
    a = rng.getrandbits(3)
    while a >= 5:
        a = rng.getrandbits(3)
    return ACTIONS[a]


def select_action(row: Optional[list[float]], epsilon: float, rng: random.Random) -> Action:
    """Epsilon-greedy over the state's row (None while it has none, which
    reads as all 0.0): uniform with probability epsilon, else the first
    maximal entry's action, so ties go to the lowest action index. The
    compare chain is unrolled: with builtin `max` and `index` a greedy call
    took about 260 ns, with the chain 135 ns (Python 3.11, 2 cores)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return _uniform_action(rng)
    if row is None:
        return Action.UP
    q0, q1, q2, q3, q4 = row
    i = 0
    if q1 > q0: q0 = q1; i = 1
    if q2 > q0: q0 = q2; i = 2
    if q3 > q0: q0 = q3; i = 3
    if q4 > q0: i = 4
    return ACTIONS[i]


def td_update(
    row: list[float],
    a: Action,
    r: float,
    next_row: Optional[list[float]],
    terminal: bool,
    h: Hyperparams,
) -> None:
    """In-place update of ``row[a]`` toward ``r + gamma * max(next_row)``,
    where a successor with no row (None) reads as 0.0; terminal transitions
    bootstrap with 0 and never read ``next_row``. The best entry is taken as builtin `max` takes it, by replacing it only
    with a strictly greater one, so the first maximal entry is kept, type
    included (an exact solver's int goal entry stays an int). The chain is
    unrolled: with builtin `max` a call took about 395 ns, with the chain 250.
    """
    best = 0.0
    if not terminal and next_row is not None:
        best, q1, q2, q3, q4 = next_row
        if q1 > best: best = q1
        if q2 > best: best = q2
        if q3 > best: best = q3
        if q4 > best: best = q4
    target = r if terminal else r + h.gamma * best
    row[a] += h.alpha * (target - row[a])


def project(
    state: WorldState,
    agent: int,
    kind: type,
    alloc: Optional[tuple[Optional[int], ...]],
    bank: Position,
) -> AbstractState:
    """The state of row kind ``kind`` that the executing table sees; with
    the planner off (``alloc=None``) that kind is always the planner-off
    view. The exact solver sees each sub-task through it too."""
    if alloc is None:
        return abstract_no_planner(state, agent)
    if kind is FlatState:
        return abstract_flat(state, agent, alloc, bank)
    if kind is PickupState:
        return abstract_pickup(state, agent, alloc[agent])
    return abstract_drop(state, agent)


def controller_step(
    state: WorldState,
    config: GridConfig,
    mode: ControllerMode,
    tables: dict[str, QTable],
    assignment: tuple[Optional[int], ...],
    epsilon: float,
    h: Hyperparams,
    rng: random.Random,
    learn: bool = True,
    timesteps: int = 1,
) -> tuple[WorldState, tuple[Optional[int], ...], list[StepOutcome]]:
    """Run up to ``timesteps`` timesteps, each advancing every agent once in
    ascending index and then the step; stop after one that ends the episode.

    Returns the new world state, the updated allocation, and one outcome
    per agent-step. ``learn=False`` (evaluation) skips all table writes.
    With the planner on, `planner.assign` runs once per agent-step. A
    learning call makes one projection per acting agent-step that changes
    the world, and one more at an agent's first turn, after its terminal
    update, and where a pickup or a new allocation slot changed what its
    kept successor was projected from. It looks each projection's row up
    once, and a kept successor's row again only if it had none then.

    The dispatch lives here. Under the planner an agent whose slot
    ``alloc[agent]`` is None and who carries nothing is parked (NoOp, no
    learning). ``held`` is read only for such a slot, since the planner
    keeps ``alloc[i] == held[i]`` while agent ``i`` carries; reading it keeps
    a carrier acting under a caller-given allocation that breaks that. A
    learner executes the deposit table if the agent carries, else the fetch
    table: the carrier is tested first, as a carrier's slot is filled too.
    """
    outcomes: list[StepOutcome] = []
    method, bank = mode.method, config.bank
    random_policy = method is _RANDOM
    learning = learn and not random_policy
    alloc = assignment if mode.planner_enabled else None
    parked = IDLE_OUTCOMES[config.noop_reward]
    # The fetch and the deposit option's executing table's rows and row
    # kind; the random baseline executes none.
    fetch, deposit = [(tables[key].rows, mode.projection(key))
                      for key in _OPTION_TABLES[method]] or (None, None)
    # Read per call, not at import, so that rebinding these names takes effect.
    assign, release, move, update = plan.assign, plan.release, step_agent, td_update
    # No timestep reads state.step (step_agent copies it; the projections and
    # assign ignore it), so it and the deposited count are kept here.
    step, deposited, num_gems = state.step, gems_deposited(state), config.num_gems
    agents, step_limit = range(config.num_agents), config.step_limit
    # Per agent, the successor its last update bootstrapped from and its row
    # (None if it had none), with the gem cells and allocation slot it was
    # projected under; None after a terminal update. Under options every
    # pickup and deposit, the only steps that change an agent's table and
    # row kind, is terminal. Besides those two, `project` reads only the
    # bank and the agent's own cell and load, which only its own move
    # changes; so while the two are unchanged at the agent's next turn, the
    # kept state is its state then. Only a pickup replaces the gem cells
    # tuple. A move that returns the state it was given changes none of it
    # and deposits nothing: its successor is the state acted from.
    kept: list[Optional[tuple]] = [None] * config.num_agents

    for _ in range(timesteps):
        for agent in agents:
            if alloc is None:
                gem = None
            else:
                alloc = assign(state, alloc)
                gem = alloc[agent]
                if gem is None and state.held[agent] is None:
                    # Parked: no gem to fetch. Forced NoOp, no learning.
                    outcomes.append(parked)
                    continue
            if random_policy:
                action = _uniform_action(rng)
            else:
                rows, kind = fetch if state.held[agent] is None else deposit
                last = kept[agent]
                if last is not None and last[2] is state.gem_cells and last[3] == gem:
                    s, row = last[0], last[1]
                    if row is None:
                        # Another agent may have made it since.
                        row = rows.get(s)
                else:
                    s = project(state, agent, kind, alloc, bank)
                    row = rows.get(s)
                action = select_action(row, epsilon, rng)
            next_state, outcome = move(state, config, agent, action, gem)
            event = outcome.event

            if event is _DROPPED:
                deposited += 1
                if alloc is not None:
                    alloc = release(alloc, outcome.gem)

            if learning:
                if method is _OPTIONS:
                    terminal = event is _ACQUIRED or event is _DROPPED
                else:
                    terminal = deposited == num_gems
                if row is None:
                    row = rows[s] = [0.0] * 5
                if terminal:
                    next_row = kept[agent] = None
                elif next_state is state:
                    next_row = row
                    kept[agent] = (s, row, state.gem_cells, gem)
                else:
                    s_next = project(next_state, agent, kind, alloc, bank)
                    next_row = rows.get(s_next)
                    kept[agent] = (s_next, next_row, next_state.gem_cells,
                                   None if alloc is None else alloc[agent])
                update(row, action, outcome.reward, next_row, terminal, h)

            state = next_state
            outcomes.append(outcome)
        step += 1
        if step >= step_limit or deposited == num_gems:
            break

    return state._replace(step=step), assignment if alloc is None else alloc, outcomes


def fresh_tables(mode: ControllerMode) -> dict[str, QTable]:
    """Zero-initialized tables for the mode (empty dict for random)."""
    return {key: QTable() for key in mode.table_keys()}
