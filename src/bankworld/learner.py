"""Central controller: Q-tables, action selection, TD updates, dispatch.

All agents read and write the same tables, which `ControllerMode` alone
names: the table each option executes (one per sub-task in options mode,
one for both in flat mode) and each table's row kind, the state
`project` builds. `controller_step` is the episode loop. Each timestep
it walks agents in ascending index: refresh the planner allocation
``alloc`` (``alloc[i]`` is the gem allocated to agent ``i`` or None),
pick the agent's option with `option_for_agent`, choose an action
(uniformly for the random baseline, else epsilon-greedily from the state
`project` gives), apply it, and update the executing table. Then it
bumps the step, and it stops after the timestep that reaches the step
limit or the last deposit. A learner's update bootstraps from the
successor of a step that changes the world, projected and looked up once
and kept with its row as the agent's state at its next turn while what it
was projected from is unchanged; a NoOp or illegal move bootstraps from
the state and row it acted from. An option is named by its options-mode
table key, `PICKUP_TABLE` (fetch) or `DROP_TABLE` (deposit); None is idle.
A sub-task ends the moment its goal event fires (pickup for fetch,
deposit for drop); that transition is updated with a terminal bootstrap,
and a deposit also frees the depositing agent's slot of ``alloc``.

Unallocated agents under the planner are parked: the controller emits
NoOp for them directly and learns nothing, since a one-action policy has
nothing to learn. With the planner off (``alloc=None``) every agent
always acts.
"""

from __future__ import annotations

import math
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

    ``alpha_visit_decay=v`` switches the step size to ``1/(1 + n/v)``
    where n counts prior updates of the entry; None keeps ``alpha``
    constant. Epsilon anneals linearly from ``eps_start`` to ``eps_end``
    over the first ``eps_decay_fraction`` of training episodes.
    """

    alpha: float = 0.1
    gamma: float = 0.95
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.8
    seed: int = 0
    alpha_visit_decay: Optional[float] = None

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
        decay = self.alpha_visit_decay
        if decay is not None and not (0.0 < decay < math.inf):
            raise ConfigError(
                f"alpha_visit_decay must be finite and > 0, got {decay}", "alpha_visit_decay"
            )


def epsilon_at(episode: int, total_episodes: int, h: Hyperparams) -> float:
    """Exploration probability in effect for a 0-based episode index."""
    span = round(total_episodes * h.eps_decay_fraction)
    if episode >= span or span <= 0:
        return h.eps_end
    return h.eps_start + (h.eps_end - h.eps_start) * (episode / span)


class QTable:
    """Sparse state-action value table; unseen rows read as 0.0.

    Rows are 5-long lists indexed by action. ``visits`` counts `td_update`
    calls per entry for the visit-count step-size decay alone
    (``Hyperparams.alpha_visit_decay``), and stays empty under a constant
    step size; it is bookkeeping, not part of value equality or persistence.
    """

    __slots__ = ("rows", "visits")

    def __init__(self):
        self.rows: dict[AbstractState, list[float]] = {}
        self.visits: dict[AbstractState, list[int]] = {}

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

    def __repr__(self) -> str:
        return f"QTable({len(self.rows)} states)"


def _uniform_action(rng: random.Random) -> Action:
    """``ACTIONS[rng.randrange(5)]``, drawn the way `randrange` draws: three
    bits at a time until they name an action, so the stream is the same."""
    a = rng.getrandbits(3)
    while a >= 5:
        a = rng.getrandbits(3)
    return ACTIONS[a]


def select_action(row: Optional[list[float]], epsilon: float, rng: random.Random) -> Action:
    """Epsilon-greedy over the state's row (None while it has none, which
    reads as all 0.0): uniform with probability epsilon, else the argmax
    with ties broken toward the lowest action index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return _uniform_action(rng)
    # index() finds the first maximum: ties go to the lowest action.
    return Action.UP if row is None else ACTIONS[row.index(max(row))]


def td_update(
    row: list[float],
    a: Action,
    r: float,
    next_row: Optional[list[float]],
    terminal: bool,
    h: Hyperparams,
    visits: Optional[list[int]] = None,
) -> None:
    """In-place update of ``row[a]`` toward ``r + gamma * max(next_row)``,
    where a successor with no row (None) reads as 0.0; terminal transitions
    bootstrap with 0 and never read ``next_row``. ``visits``, the state's
    `QTable.visits` row, is read and bumped only under ``alpha_visit_decay``.
    """
    target = r if terminal else r + h.gamma * (0.0 if next_row is None else max(next_row))
    if h.alpha_visit_decay is None:
        alpha = h.alpha
    else:
        alpha = 1.0 / (1.0 + visits[a] / h.alpha_visit_decay)
        visits[a] += 1
    row[a] += alpha * (target - row[a])


def option_for_agent(
    state: WorldState, agent: int, alloc: Optional[tuple[Optional[int], ...]]
) -> Optional[str]:
    """The one dispatch, naming the option by its options-mode table key:
    deposit (`DROP_TABLE`) while carrying, else fetch (`PICKUP_TABLE`)
    while allocated or always with the planner off (``alloc=None``), else
    None: the agent idles."""
    if state.held[agent] is not None:
        return DROP_TABLE
    if alloc is None or alloc[agent] is not None:
        return PICKUP_TABLE
    return None


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
    """
    outcomes: list[StepOutcome] = []
    method, bank = mode.method, config.bank
    random_policy = method is _RANDOM
    learning = learn and not random_policy
    decay = h.alpha_visit_decay
    alloc = assignment if mode.planner_enabled else None
    parked = IDLE_OUTCOMES[config.noop_reward]
    # Each option's executing table, as its rows and visits, and row kind.
    executing = {option: (tables[key].rows, tables[key].visits, mode.projection(key))
                 for option, key in zip((PICKUP_TABLE, DROP_TABLE), _OPTION_TABLES[method])}
    # Read per call, not at import, so that rebinding these names takes effect.
    assign, release, move, update = plan.assign, plan.release, step_agent, td_update
    # No timestep reads state.step (step_agent copies it; the projections and
    # assign ignore it), so it and the deposited count are kept here.
    step, deposited, num_gems = state.step, gems_deposited(state), config.num_gems
    # Per agent, the successor its last update bootstrapped from and its row
    # (None if it had none), with the gem cells, allocation slot and row kind
    # it was projected under; None after a terminal update. Besides those
    # three, `project` reads only the bank and the agent's own cell and load,
    # which only its own move changes; so while the three are unchanged at
    # the agent's next turn, the kept state is its state then. Only a pickup
    # replaces the gem cells tuple. A move that returns the state it was
    # given changes none of it and deposits nothing: its successor is the
    # state acted from.
    kept: list[Optional[tuple]] = [None] * config.num_agents

    for _ in range(timesteps):
        for agent in range(config.num_agents):
            if alloc is not None:
                alloc = assign(state, alloc)
            option = option_for_agent(state, agent, alloc)
            if option is None:
                # Parked: no gem to fetch. Forced NoOp, no learning.
                outcomes.append(parked)
                continue

            # A carrier's allocation is its carried gem until the deposit.
            gem = None if alloc is None else alloc[agent]
            if random_policy:
                action = _uniform_action(rng)
            else:
                rows, visits, kind = executing[option]
                last = kept[agent]
                if last is not None and last[2] is state.gem_cells and last[3] == gem \
                        and last[4] is kind:
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
                    kept[agent] = (s, row, state.gem_cells, gem, kind)
                else:
                    s_next = project(next_state, agent, kind, alloc, bank)
                    next_row = rows.get(s_next)
                    kept[agent] = (s_next, next_row, next_state.gem_cells,
                                   None if alloc is None else alloc[agent], kind)
                update(row, action, outcome.reward, next_row, terminal, h,
                       None if decay is None else visits.setdefault(s, [0] * 5))

            state = next_state
            outcomes.append(outcome)
        step += 1
        if step >= config.step_limit or deposited == num_gems:
            break

    return state._replace(step=step), assignment if alloc is None else alloc, outcomes


def fresh_tables(mode: ControllerMode) -> dict[str, QTable]:
    """Zero-initialized tables for the mode (empty dict for random)."""
    return {key: QTable() for key in mode.table_keys()}
