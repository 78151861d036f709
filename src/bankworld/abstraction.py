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

Q-table files hold each state as canonical text, its tag then its fields
(``P,1,2,4,4``, ``D,7,3``, ``F,0,0,_,_,0``, ``N,1,1,0,0:2,_,_``; ``_`` is
an absent position); `parse_state` reads back only that text.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union, get_args, get_type_hints

from .environment import Position, WorldState


class PickupState(NamedTuple):
    tag = "P"
    agent_pos: Position
    gem_pos: Position


class DropState(NamedTuple):
    tag = "D"
    agent_pos: Position


class FlatState(NamedTuple):
    tag = "F"
    agent_pos: Position
    target_pos: Optional[Position]
    carrying: bool


class NoPlannerState(NamedTuple):
    tag = "N"
    agent_pos: Position
    carrying: bool
    gem_cells: tuple[Optional[Position], ...]


AbstractState = Union[PickupState, DropState, FlatState, NoPlannerState]


# Projections are built through tuple.__new__, skipping the Python-level
# __new__ that NamedTuple generates.
_new = tuple.__new__


def abstract_pickup(state: WorldState, agent: int, gem: int) -> PickupState:
    """Fetch-task view: (own position, allocated gem position)."""
    cell = state.gem_cells[gem]
    if cell is None:
        raise ValueError(f"gem {gem} is not on the grid")
    if state.held[agent] is not None:
        raise ValueError(f"agent {agent} is already carrying a gem")
    return _new(PickupState, (state.agent_positions[agent], cell))


def abstract_drop(state: WorldState, agent: int) -> DropState:
    """Deposit-task view: own position only."""
    if state.held[agent] is None:
        raise ValueError(f"agent {agent} is not carrying a gem")
    return _new(DropState, (state.agent_positions[agent],))


def abstract_flat(
    state: WorldState, agent: int, alloc: tuple[Optional[int], ...], bank: Position
) -> FlatState:
    """Single-table view: position plus a pointer at the current goal."""
    pos = state.agent_positions[agent]
    if state.held[agent] is not None:
        return _new(FlatState, (pos, bank, True))
    gem = alloc[agent]
    target = None if gem is None else state.gem_cells[gem]
    return _new(FlatState, (pos, target, False))


def abstract_no_planner(state: WorldState, agent: int) -> NoPlannerState:
    """Planner-off view: position, carrying flag, and all gem cells."""
    pos = state.agent_positions[agent]
    cells, gem = state.gem_cells, state.held[agent]
    if gem is None:
        return _new(NoPlannerState, (pos, False, cells))
    return _new(NoPlannerState, (pos, True, cells[:gem] + (pos,) + cells[gem + 1:]))


def _pair(text: str, sep: str = ",") -> Position:
    return tuple(map(int, text.split(sep)))


# Per field kind: (encoder, pattern of its canonical text, decoder of that
# text). Canonical integers are ASCII digits with no sign or leading zero.
_INT = "(?:0|[1-9][0-9]*)"
_CELL = f"(?:_|{_INT}:{_INT})"
_KINDS = {
    Position: (lambda p: f"{p[0]},{p[1]}", f"{_INT},{_INT}", _pair),
    Optional[Position]: (
        lambda p: "_,_" if p is None else f"{p[0]},{p[1]}",
        f"_,_|{_INT},{_INT}",
        lambda t: None if t == "_,_" else _pair(t),
    ),
    bool: (lambda b: "1" if b else "0", "[01]", lambda t: t == "1"),
    tuple[Optional[Position], ...]: (
        lambda cells: ",".join("_" if p is None else f"{p[0]}:{p[1]}" for p in cells),
        f"{_CELL}(?:,{_CELL})*",
        lambda t: tuple(None if c == "_" else _pair(c, ":") for c in t.split(",")),
    ),
}


def _codec(cls: type) -> tuple[tuple, re.Pattern, tuple]:
    """Field encoders, whole-text pattern and field decoders of ``cls``."""
    encoders, patterns, decoders = zip(*(_KINDS[k] for k in get_type_hints(cls).values()))
    pattern = ",".join([cls.tag] + [f"({p})" for p in patterns])
    return encoders, re.compile(pattern), decoders


_CODECS = {cls: _codec(cls) for cls in get_args(AbstractState)}
_TAGS = {cls.tag: cls for cls in _CODECS}


def serialize_state(s: AbstractState) -> str:
    codec = _CODECS.get(type(s))
    if codec is None:
        raise TypeError(f"not an abstract state: {s!r}")
    return ",".join([s.tag] + [encode(v) for encode, v in zip(codec[0], s)])


def parse_state(text: str) -> AbstractState:
    """Inverse of `serialize_state`; accepts only the text it writes."""
    cls = _TAGS.get(text.partition(",")[0])
    match = cls and _CODECS[cls][1].fullmatch(text)
    if not match:
        raise ValueError(f"unparseable abstract state: {text!r}")
    return cls(*[decode(f) for decode, f in zip(_CODECS[cls][2], match.groups())])
