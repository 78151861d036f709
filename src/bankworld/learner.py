"""Central controller: Q-tables, action selection, TD updates, dispatch.

All agents read and write the same tables. In options mode there is one
table per sub-task (fetch, deposit); flat mode keeps a single table. The
controller walks agents in ascending index each timestep: refresh the
planner allocation, pick the agent's task, project the state, choose an
action, apply it, and update the executing table. A sub-task ends the
moment its goal event fires (pickup for fetch, deposit for drop); that
transition is updated with a terminal bootstrap, and a deposit also
releases the planner allocation.

Unallocated agents under the planner are parked: the controller emits
NoOp for them directly and learns nothing, since a one-action policy has
nothing to learn. With the planner off every agent always acts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import planner as plan
from .abstraction import (
    AbstractState,
    DropState,
    NoPlannerState,
    PickupState,
    abstract_drop,
    abstract_flat,
    abstract_no_planner,
    abstract_pickup,
)
from .environment import (
    ACTIONS,
    Action,
    ConfigError,
    Dropped,
    Event,
    GridConfig,
    StepOutcome,
    WorldState,
    advance_step,
    carried_gem,
    step_agent,
)
from .planner import Assignment


class Method(Enum):
    RANDOM = "random"
    FLAT = "q"
    OPTIONS = "q-options"


class OptionId(Enum):
    PICKUP = "pickup"
    DROP = "drop"
    IDLE = "idle"


# Q-table keys: one per option in options mode, one in flat mode.
PICKUP_TABLE = "pickup"
DROP_TABLE = "drop"
FLAT_TABLE = "flat"


@dataclass(frozen=True)
class ControllerMode:
    method: Method
    planner_enabled: bool = True

    def table_keys(self) -> tuple[str, ...]:
        if self.method is Method.OPTIONS:
            return (PICKUP_TABLE, DROP_TABLE)
        if self.method is Method.FLAT:
            return (FLAT_TABLE,)
        return ()


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
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}", "alpha")
        if not (0.0 <= self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}", "gamma")
        if not (0.0 <= self.eps_start <= 1.0):
            raise ConfigError(f"eps_start must be in [0, 1], got {self.eps_start}", "eps_start")
        if not (0.0 <= self.eps_end <= self.eps_start):
            raise ConfigError(
                f"eps_end must be in [0, eps_start={self.eps_start}], got {self.eps_end}",
                "eps_end",
            )
        if not (0.0 <= self.eps_decay_fraction <= 1.0):
            raise ConfigError("eps_decay_fraction must be in [0, 1]", "eps_decay_fraction")


def epsilon_at(episode: int, total_episodes: int, h: Hyperparams) -> float:
    """Exploration probability in effect for a 0-based episode index."""
    span = round(total_episodes * h.eps_decay_fraction)
    if episode >= span or span <= 0:
        return h.eps_end
    return h.eps_start + (h.eps_end - h.eps_start) * (episode / span)


class QTable:
    """Sparse state-action value table with a default for unseen rows.

    Rows are 5-long lists indexed by action. ``visits`` counts updates
    per entry and feeds the optional visit-count step-size decay; it is
    bookkeeping, not part of value equality or persistence.
    """

    __slots__ = ("rows", "visits", "default")

    def __init__(self, default: float = 0.0):
        self.rows: dict[AbstractState, list[float]] = {}
        self.visits: dict[AbstractState, list[int]] = {}
        self.default = default

    def get(self, s: AbstractState, a: int) -> float:
        row = self.rows.get(s)
        return self.default if row is None else row[a]

    def best_value(self, s: AbstractState) -> float:
        row = self.rows.get(s)
        return self.default if row is None else max(row)

    def best_action(self, s: AbstractState) -> Action:
        row = self.rows.get(s)
        if row is None:
            return Action.UP
        best, best_v = 0, row[0]
        for a in (1, 2, 3, 4):
            if row[a] > best_v:
                best, best_v = a, row[a]
        return ACTIONS[best]

    def row(self, s: AbstractState) -> list[float]:
        row = self.rows.get(s)
        if row is None:
            row = self.rows[s] = [self.default] * 5
            self.visits[s] = [0] * 5
        return row

    def items(self):
        for s, row in self.rows.items():
            for a, value in enumerate(row):
                yield s, a, value

    def copy(self) -> "QTable":
        dup = QTable(self.default)
        dup.rows = {s: list(row) for s, row in self.rows.items()}
        dup.visits = {s: list(v) for s, v in self.visits.items()}
        return dup

    def __len__(self) -> int:
        return 5 * len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return self.default == other.default and self.rows == other.rows

    def __repr__(self) -> str:
        return f"QTable({len(self.rows)} states)"


def select_action(q: QTable, s: AbstractState, epsilon: float, rng: random.Random) -> Action:
    """Epsilon-greedy: uniform with probability epsilon, else the argmax
    with ties broken toward the lowest action index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return ACTIONS[rng.randrange(5)]
    return q.best_action(s)


def td_update(
    q: QTable,
    s: AbstractState,
    a: Action,
    r: float,
    s_next: Optional[AbstractState],
    terminal: bool,
    h: Hyperparams,
) -> QTable:
    """One-step update toward ``r + gamma * max_a' q(s_next, a')``.

    Terminal transitions bootstrap with 0 and never read ``s_next``.
    The table is updated in place and returned.
    """
    target = r if terminal else r + h.gamma * q.best_value(s_next)
    row = q.row(s)
    visits = q.visits[s]
    if h.alpha_visit_decay is not None:
        alpha = 1.0 / (1.0 + visits[a] / h.alpha_visit_decay)
    else:
        alpha = h.alpha
    row[a] += alpha * (target - row[a])
    visits[a] += 1
    return q


def option_for_agent(state: WorldState, agent: int, assignment: Assignment) -> OptionId:
    """Planner-mode dispatch: deposit while carrying, fetch while
    allocated, otherwise idle."""
    if carried_gem(state, agent) is not None:
        return OptionId.DROP
    if agent in assignment.agent_to_gem:
        return OptionId.PICKUP
    return OptionId.IDLE


def greedy_policy(
    tables: dict[str, QTable], mode: ControllerMode
) -> Callable[[AbstractState], Action]:
    """Exploitation-only policy over abstract states.

    The state variant picks the table: fetch states hit the pickup
    table, deposit states the drop table, flat states the single table.
    Planner-off states dispatch on their carrying flag in options mode.
    """

    def policy(s: AbstractState) -> Action:
        if mode.method is Method.FLAT:
            table = tables[FLAT_TABLE]
        elif type(s) is PickupState:
            table = tables[PICKUP_TABLE]
        elif type(s) is DropState:
            table = tables[DROP_TABLE]
        elif type(s) is NoPlannerState:
            table = tables[DROP_TABLE if s.carrying else PICKUP_TABLE]
        else:
            raise ConfigError(f"no table for state {s!r} under {mode}")
        return select_action(table, s, 0.0, None)

    return policy


def controller_step(
    state: WorldState,
    config: GridConfig,
    mode: ControllerMode,
    tables: dict[str, QTable],
    assignment: Assignment,
    epsilon: float,
    h: Hyperparams,
    rng: random.Random,
    learn: bool = True,
    stats: Optional[dict] = None,
) -> tuple[WorldState, Assignment, list[StepOutcome]]:
    """Advance every agent once, in ascending index, then bump the step.

    Returns the new world state, the updated allocation, and one outcome
    per agent. ``learn=False`` (evaluation) skips all table writes.
    ``stats['planner_calls']`` is incremented per planner consultation.
    """
    outcomes: list[StepOutcome] = []
    method = mode.method
    use_planner = mode.planner_enabled
    learning = learn and method is not Method.RANDOM

    for agent in range(config.num_agents):
        gem: Optional[int] = None
        if use_planner:
            assignment = plan.assign(state, assignment)
            if stats is not None:
                stats["planner_calls"] = stats.get("planner_calls", 0) + 1
            holding = carried_gem(state, agent)
            if holding is not None:
                option = OptionId.DROP
                gem = holding
            elif agent in assignment.agent_to_gem:
                option = OptionId.PICKUP
                gem = assignment.agent_to_gem[agent]
            else:
                # Parked: no gem to fetch. Forced NoOp, no learning.
                outcomes.append(StepOutcome(config.noop_reward, Event.IDLE))
                continue
        else:
            option = OptionId.DROP if carried_gem(state, agent) is not None else OptionId.PICKUP

        if method is Method.RANDOM:
            action = ACTIONS[rng.randrange(5)]
            next_state, outcome = step_agent(
                state, config, agent, action, gem if use_planner else None
            )
            state = next_state
            outcomes.append(outcome)
            if outcome.event is Event.DROPPED:
                if use_planner:
                    assignment = plan.release(assignment, outcome.gem)
            continue

        # Project the state for the executing task and table.
        if method is Method.OPTIONS:
            table = tables[PICKUP_TABLE if option is OptionId.PICKUP else DROP_TABLE]
            if not use_planner:
                s = abstract_no_planner(state, agent)
            elif option is OptionId.PICKUP:
                s = abstract_pickup(state, agent, gem)
            else:
                s = abstract_drop(state, agent)
        else:
            table = tables[FLAT_TABLE]
            if use_planner:
                s = abstract_flat(state, agent, assignment, config.bank)
            else:
                s = abstract_no_planner(state, agent)

        action = select_action(table, s, epsilon, rng)
        next_state, outcome = step_agent(
            state, config, agent, action, gem if use_planner else None
        )

        if outcome.event is Event.DROPPED and use_planner:
            assignment = plan.release(assignment, outcome.gem)

        if learning:
            if method is Method.OPTIONS:
                terminal = outcome.event is Event.ACQUIRED or outcome.event is Event.DROPPED
                if terminal:
                    s_next = None
                elif not use_planner:
                    s_next = abstract_no_planner(next_state, agent)
                elif option is OptionId.PICKUP:
                    s_next = abstract_pickup(next_state, agent, gem)
                else:
                    s_next = abstract_drop(next_state, agent)
            else:
                terminal = all(type(g) is Dropped for g in next_state.gems)
                if terminal:
                    s_next = None
                elif use_planner:
                    s_next = abstract_flat(next_state, agent, assignment, config.bank)
                else:
                    s_next = abstract_no_planner(next_state, agent)
            td_update(table, s, action, outcome.reward, s_next, terminal, h)

        state = next_state
        outcomes.append(outcome)

    return advance_step(state), assignment, outcomes


def fresh_tables(mode: ControllerMode) -> dict[str, QTable]:
    """Zero-initialized tables for the mode (empty dict for random)."""
    return {key: QTable() for key in mode.table_keys()}
