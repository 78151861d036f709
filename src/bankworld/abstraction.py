"""Per-agent state projections, one per learning variant.

Each projection keeps exactly the facts the task at hand depends on and
nothing else, so experience from different agents, gems, and episodes
lands in shared table rows:

- `PickupState`: own position and the allocated gem's position. Used by
  the fetch option under the planner.
- `DropState`: own position only. The bank is a fixed constant and the
  carried gem's identity does not change the task, so neither appears.
- `FlatState`: own position, a target pointer (allocated gem while
  fetching, bank while carrying, absent while unallocated), and the
  carrying flag. Used by flat Q-learning under the planner.
- `NoPlannerState`: own position, carrying flag, and every gem's cell
  (absent once deposited or carried by another agent; the gem this
  agent carries rides along at its own position). Used by all planner-
  off variants, where nothing narrows attention to a single gem.

States serialize to a canonical text form (`serialize_state` /
`parse_state`) used by the Q-table files: a variant tag plus fields,
e.g. ``P,1,2,4,4`` / ``D,7,3`` / ``F,0,0,3,3,0`` / ``N,1,1,0,0:2,_,_``.
Absent positions render as ``_`` and the round trip is exact.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .environment import CarriedBy, OnGrid, Position, WorldState, carried_gem
from .planner import Assignment


class PickupState(NamedTuple):
    agent_pos: Position
    gem_pos: Position


class DropState(NamedTuple):
    agent_pos: Position


class FlatState(NamedTuple):
    agent_pos: Position
    target_pos: Optional[Position]
    carrying: bool


class NoPlannerState(NamedTuple):
    agent_pos: Position
    carrying: bool
    gem_cells: tuple[Optional[Position], ...]


AbstractState = Union[PickupState, DropState, FlatState, NoPlannerState]


def abstract_pickup(state: WorldState, agent: int, gem: int) -> PickupState:
    """Fetch-task view: (own position, allocated gem position)."""
    status = state.gems[gem]
    if type(status) is not OnGrid:
        raise ValueError(f"gem {gem} is not on the grid")
    if carried_gem(state, agent) is not None:
        raise ValueError(f"agent {agent} is already carrying a gem")
    return PickupState(state.agent_positions[agent], status.pos)


def abstract_drop(state: WorldState, agent: int) -> DropState:
    """Deposit-task view: own position only."""
    if carried_gem(state, agent) is None:
        raise ValueError(f"agent {agent} is not carrying a gem")
    return DropState(state.agent_positions[agent])


def abstract_flat(
    state: WorldState, agent: int, assignment: Assignment, bank: Position
) -> FlatState:
    """Single-table view: position plus a pointer at the current goal."""
    if carried_gem(state, agent) is not None:
        return FlatState(state.agent_positions[agent], bank, True)
    gem = assignment.agent_to_gem.get(agent)
    if gem is not None:
        status = state.gems[gem]
        if type(status) is OnGrid:
            return FlatState(state.agent_positions[agent], status.pos, False)
    return FlatState(state.agent_positions[agent], None, False)


def abstract_no_planner(state: WorldState, agent: int) -> NoPlannerState:
    """Planner-off view: position, carrying flag, and all gem cells."""
    pos = state.agent_positions[agent]
    cells: list[Optional[Position]] = []
    carrying = False
    for status in state.gems:
        kind = type(status)
        if kind is OnGrid:
            cells.append(status.pos)
        elif kind is CarriedBy and status.agent == agent:
            cells.append(pos)
            carrying = True
        else:
            cells.append(None)
    return NoPlannerState(pos, carrying, tuple(cells))


def _cell(pos: Optional[Position]) -> str:
    return "_" if pos is None else f"{pos[0]}:{pos[1]}"


def _parse_cell(text: str) -> Optional[Position]:
    if text == "_":
        return None
    r, c = text.split(":")
    return (int(r), int(c))


def serialize_state(s: AbstractState) -> str:
    kind = type(s)
    if kind is PickupState:
        (ar, ac), (gr, gc) = s.agent_pos, s.gem_pos
        return f"P,{ar},{ac},{gr},{gc}"
    if kind is DropState:
        r, c = s.agent_pos
        return f"D,{r},{c}"
    if kind is FlatState:
        ar, ac = s.agent_pos
        if s.target_pos is None:
            target = "_,_"
        else:
            target = f"{s.target_pos[0]},{s.target_pos[1]}"
        return f"F,{ar},{ac},{target},{int(s.carrying)}"
    if kind is NoPlannerState:
        ar, ac = s.agent_pos
        cells = ",".join(_cell(p) for p in s.gem_cells)
        return f"N,{ar},{ac},{int(s.carrying)},{cells}"
    raise TypeError(f"not an abstract state: {s!r}")


def parse_state(text: str) -> AbstractState:
    fields = text.split(",")
    tag = fields[0]
    if tag == "P" and len(fields) == 5:
        return PickupState(
            (int(fields[1]), int(fields[2])), (int(fields[3]), int(fields[4]))
        )
    if tag == "D" and len(fields) == 3:
        return DropState((int(fields[1]), int(fields[2])))
    if tag == "F" and len(fields) == 6:
        if fields[3] == "_" and fields[4] == "_":
            target = None
        else:
            target = (int(fields[3]), int(fields[4]))
        return FlatState((int(fields[1]), int(fields[2])), target, bool(int(fields[5])))
    if tag == "N" and len(fields) >= 4:
        cells = tuple(_parse_cell(f) for f in fields[4:])
        return NoPlannerState(
            (int(fields[1]), int(fields[2])), bool(int(fields[3])), cells
        )
    raise ValueError(f"unparseable abstract state: {text!r}")
