"""Grid environment: geometry, multi-agent state, transitions, rewards.

Dynamics
--------
- The grid is ``height x width`` with 0-based ``(row, col)`` cells; the
  bank sits at an interior cell (grid center by default).
- Five primitive actions, indexed 0..4: Up, Down, Left, Right, NoOp.
  Up decreases the row, Down increases it, Left/Right move the column.
- An action that would leave the grid is illegal: the agent stays put
  and receives -5.
- Acquisition and deposit are automatic on cell entry. A legal move onto
  the cell of an eligible on-grid gem while empty-handed picks it up
  (+50); a legal move onto the bank while carrying deposits the gem
  (+500). There is no explicit pickup/drop action, and NoOp never
  triggers either event.
- Every other legal move costs -1; NoOp yields the configured no-op
  reward (0 by default, -1 optional).
- Agents may share cells; there are no collisions. One agent moves per
  `step_agent` call; the episode loop, `learner.controller_step`, advances
  the step counter once per timestep.

Eligibility: when a planner allocation is in effect, `step_agent` is
called with ``assigned_gem=alloc[i]``, the one gem the planner's
per-agent tuple gives agent ``i``, and only that gem can be picked up.
With ``assigned_gem=None`` (planner-off mode) any on-grid gem on the
entered cell is eligible, lowest gem index first.

World state
-----------
`WorldState` records each agent's load on the agent side: ``held[i]`` is
the index of the gem agent ``i`` carries, or None. ``gem_cells[j]`` is
gem ``j``'s cell while it lies on the grid, else None. A gem is in exactly
one place: on its cell, in one agent's ``held``, or deposited, which is
the gem with no cell that no agent holds (`gems_deposited` counts them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional

Position = tuple[int, int]

REWARD_ILLEGAL = -5
REWARD_STEP = -1
REWARD_PICKUP = 50
REWARD_DEPOSIT = 500
NOOP_REWARDS = (0, -1)
# The fields at fault when the agents and gems do not fit off the bank.
_CROWDED = "width num_agents num_gems"


class ConfigError(ValueError):
    """Invalid grid, layout, or run configuration. ``field`` names the
    config field at fault, or several, space-separated, when there is one."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


class Action(IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    NOOP = 4


ACTIONS = tuple(Action)

# (row delta, col delta) per action index
_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))


class Event(Enum):
    ILLEGAL = "illegal"
    ACQUIRED = "acquired"
    DROPPED = "dropped"
    MOVED = "moved"
    IDLE = "idle"


@dataclass(frozen=True)
class FixedLayout:
    """Explicit agent and gem start positions, reused every episode."""

    agents: tuple[Position, ...]
    gems: tuple[Position, ...]


@dataclass(frozen=True)
class RandomLayout:
    """Seeded per-episode placement at distinct non-bank cells."""


Layout = FixedLayout | RandomLayout


class WorldState(NamedTuple):
    agent_positions: tuple[Position, ...]
    held: tuple[Optional[int], ...]
    gem_cells: tuple[Optional[Position], ...]
    step: int


class StepOutcome(NamedTuple):
    reward: int
    event: Event
    gem: Optional[int] = None


# Hot paths build tuples through tuple.__new__, skipping the Python-level
# __new__ that NamedTuple generates.
_new = tuple.__new__
_ACQUIRED, _DROPPED, _MOVED = Event.ACQUIRED, Event.DROPPED, Event.MOVED

# The outcomes that name no gem are shared: one per kind and no-op reward.
_ILLEGAL_OUTCOME = StepOutcome(REWARD_ILLEGAL, Event.ILLEGAL)
_MOVED_OUTCOME = StepOutcome(REWARD_STEP, _MOVED)
IDLE_OUTCOMES = {reward: StepOutcome(reward, Event.IDLE) for reward in NOOP_REWARDS}


def default_layout(
    width: int, height: int, num_agents: int, num_gems: int, bank: Position
) -> FixedLayout:
    """Deterministic placement: agents at corners, gems at the remaining
    corners and edge midpoints, skipping the bank and occupied cells.

    On 11x11 with 2 agents and 3 gems this yields agents (0,0),(10,10)
    and gems (0,10),(10,0),(5,0).
    """
    mid_r, mid_c = (height - 1) // 2, (width - 1) // 2
    agent_candidates = [
        (0, 0), (height - 1, width - 1), (0, width - 1), (height - 1, 0),
    ]
    gem_candidates = [
        (0, width - 1), (height - 1, 0), (mid_r, 0), (0, mid_c),
        (height - 1, mid_c), (mid_r, width - 1),
    ]
    used: set[Position] = {bank}

    def place(count: int, preferred: list[Position]) -> tuple[Position, ...]:
        """The first ``count`` free cells, preferred first, then row by row."""
        free, cells = [], chain(preferred, ((r, c) for r in range(height) for c in range(width)))
        while len(free) < count:
            pos = next(cells, None)
            if pos is None:
                raise ConfigError("grid too small for the requested agents and gems", _CROWDED)
            if pos not in used:
                used.add(pos)
                free.append(pos)
        return tuple(free)

    agents = place(num_agents, agent_candidates)
    return FixedLayout(agents=agents, gems=place(num_gems, gem_candidates))


@dataclass(frozen=True)
class GridConfig:
    """Static description of one problem instance.

    ``bank=None`` resolves to the grid center. ``layout=None`` resolves
    to `default_layout`. ``noop_reward`` must be 0 or -1.
    """

    width: int
    height: int
    num_agents: int
    num_gems: int
    step_limit: int
    bank: Optional[Position] = None
    layout: Optional[Layout] = None
    noop_reward: int = 0

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ConfigError(
                f"grid must be at least 3x3, got {self.width}x{self.height}",
                "width" if self.width < 3 else "height",
            )
        if self.num_agents < 1:
            raise ConfigError("need at least one agent", "num_agents")
        if self.num_gems < 1:
            raise ConfigError("need at least one gem", "num_gems")
        if self.step_limit < 1:
            raise ConfigError("step limit must be positive", "step_limit")
        if self.noop_reward not in NOOP_REWARDS:
            raise ConfigError(f"noop reward must be 0 or -1, got {self.noop_reward}", "noop_reward")
        if self.bank is None:
            object.__setattr__(self, "bank", ((self.height - 1) // 2, (self.width - 1) // 2))
        br, bc = self.bank
        if not (1 <= br < self.height - 1 and 1 <= bc < self.width - 1):
            raise ConfigError(f"bank {self.bank} must be strictly inside the grid", "bank")
        if self.layout is None:
            object.__setattr__(
                self,
                "layout",
                default_layout(self.width, self.height, self.num_agents, self.num_gems, self.bank),
            )
        if isinstance(self.layout, FixedLayout):
            self._check_fixed(self.layout)
        elif isinstance(self.layout, RandomLayout):
            if self.width * self.height - 1 < self.num_agents + self.num_gems:
                raise ConfigError("grid too small for random placement", _CROWDED)

    @cached_property
    def moves(self) -> dict[Position, tuple[tuple[Position, StepOutcome], ...]]:
        """Per cell, row by row, per action index: the cell the agent ends
        in and the outcome unless the move picks up or deposits. An illegal
        move or a NoOp leaves the agent where it is. Built at first use."""
        idle = IDLE_OUTCOMES[self.noop_reward]
        table = {}
        for r in range(self.height):
            for c in range(self.width):
                entries = []
                for dr, dc in _DELTAS:
                    nr, nc = r + dr, c + dc
                    if not (0 <= nr < self.height and 0 <= nc < self.width):
                        entries.append(((r, c), _ILLEGAL_OUTCOME))
                    elif dr == dc == 0:
                        entries.append(((r, c), idle))
                    else:
                        entries.append(((nr, nc), _MOVED_OUTCOME))
                table[(r, c)] = tuple(entries)
        return table

    def _check_fixed(self, layout: FixedLayout) -> None:
        """Each error names the entries at fault as a ``[layout]`` section
        does: ``agent.N`` and ``gem.N``."""
        for kind, cells, want in (("agent", layout.agents, self.num_agents),
                                  ("gem", layout.gems, self.num_gems)):
            if len(cells) != want:
                fault = "missing" if len(cells) < want else "extra"
                raise ConfigError(
                    f"{kind}.{min(len(cells), want)} is {fault}: {kind}s = {want}", "layout"
                )
            for i, (r, c) in enumerate(cells):
                if not (0 <= r < self.height and 0 <= c < self.width):
                    grid = f"{self.width}x{self.height}"
                    raise ConfigError(f"{kind}.{i} = {r},{c} is off the {grid} grid", "layout")
        for j, (r, c) in enumerate(layout.gems):
            if (r, c) == self.bank:
                raise ConfigError(f"gem.{j} = {r},{c} is on the bank", "layout")
            if (r, c) in layout.gems[:j]:
                i = layout.gems.index((r, c))
                raise ConfigError(f"gem.{i} and gem.{j} share the cell {r},{c}", "layout")


def reset(config: GridConfig, seed: int) -> WorldState:
    """Start-of-episode state: per the fixed layout, or seeded distinct
    non-bank cells under `RandomLayout`. Same config and seed always
    produce the same state.
    """
    layout = config.layout
    if isinstance(layout, FixedLayout):
        agents, gem_positions = layout.agents, layout.gems
    else:
        cells = [(r, c) for r in range(config.height) for c in range(config.width)]
        cells.remove(config.bank)
        picked = random.Random(seed).sample(cells, config.num_agents + config.num_gems)
        agents = tuple(picked[: config.num_agents])
        gem_positions = tuple(picked[config.num_agents:])
    return WorldState(tuple(agents), held=(None,) * config.num_agents,
                      gem_cells=tuple(gem_positions), step=0)


def gems_deposited(state: WorldState) -> int:
    """How many gems are deposited: without a cell and held by no agent.
    A held gem has no cell, so that is the cell-less gems less the holders."""
    held = state.held
    return state.gem_cells.count(None) - (len(held) - held.count(None))


def step_agent(
    state: WorldState,
    config: GridConfig,
    agent: int,
    action: Action,
    assigned_gem: Optional[int] = None,
) -> tuple[WorldState, StepOutcome]:
    """Move one agent and settle pickup/deposit per the dynamics above.

    ``assigned_gem`` restricts pickup eligibility to that gem; None means
    planner-off mode where any on-grid gem on the entered cell counts.
    The step counter is untouched; callers advance it once per timestep.
    """
    cells, held = state.gem_cells, state.held
    if assigned_gem is not None and cells[assigned_gem] is None and assigned_gem not in held:
        raise ValueError(f"gem {assigned_gem} is already deposited")
    positions = state.agent_positions
    new_pos, outcome = config.moves[positions[agent]][action]
    # By event, not identity: a config sent to a worker process holds copies.
    if outcome.event is not _MOVED:
        return state, outcome
    moved = list(positions)
    moved[agent] = new_pos
    positions = tuple(moved)

    holding = held[agent]
    if holding is None:
        # The eligible gem: the allocated one, else the lowest-indexed gem on the cell.
        target = cells.index(new_pos) if assigned_gem is None and new_pos in cells else assigned_gem
        if target is not None and cells[target] == new_pos:
            held = held[:agent] + (target,) + held[agent + 1:]
            cells = cells[:target] + (None,) + cells[target + 1:]
            return (
                _new(WorldState, (positions, held, cells, state.step)),
                _new(StepOutcome, (REWARD_PICKUP, _ACQUIRED, target)),
            )
    elif new_pos == config.bank:
        held = held[:agent] + (None,) + held[agent + 1:]
        return (
            _new(WorldState, (positions, held, cells, state.step)),
            _new(StepOutcome, (REWARD_DEPOSIT, _DROPPED, holding)),
        )

    return _new(WorldState, (positions, held, cells, state.step)), _MOVED_OUTCOME
