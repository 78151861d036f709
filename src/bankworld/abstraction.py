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
an absent position). A `StateCodec` writes that text and reads back only
that text, through one memo per field kind, so each distinct field value
or text of one file is coded once; each file gets a codec of its own.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, get_args, get_type_hints

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


AbstractState = PickupState | DropState | FlatState | NoPlannerState


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
# text). A kind ``tuple[T, ...]`` is a run of one or more elements joined by
# commas, and its entry codes one element. Canonical integers are ASCII
# digits with no sign or leading zero.
_INT = "(?:0|[1-9][0-9]*)"
_KINDS = {
    Position: (lambda p: f"{p[0]},{p[1]}", f"{_INT},{_INT}", _pair),
    Optional[Position]: (
        lambda p: "_,_" if p is None else f"{p[0]},{p[1]}",
        f"_,_|{_INT},{_INT}",
        lambda t: None if t == "_,_" else _pair(t),
    ),
    bool: (lambda b: "1" if b else "0", "[01]", lambda t: t == "1"),
    tuple[Optional[Position], ...]: (
        lambda p: "_" if p is None else f"{p[0]}:{p[1]}",
        f"_|{_INT}:{_INT}",
        lambda t: None if t == "_" else _pair(t, ":"),
    ),
}


def _is_run(kind) -> bool:
    return get_args(kind)[-1:] == (...,)


def _fields(cls: type) -> tuple[tuple, re.Pattern]:
    """The kinds of the fields of ``cls``, and the pattern of its whole
    canonical text."""
    kinds = tuple(get_type_hints(cls).values())
    patterns = [cls.tag]
    for kind in kinds:
        one = _KINDS[kind][1]
        patterns.append(f"((?:{one})(?:,(?:{one}))*)" if _is_run(kind) else f"({one})")
    return kinds, re.compile(",".join(patterns))


_FIELDS = {cls: _fields(cls) for cls in get_args(AbstractState)}


class _Memo(dict):
    """One result per distinct key, made by one call of ``make``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        result = self[key] = self.make(key)
        return result


class StateCodec:
    """Writes and reads the canonical text of the states of one file.

    Each projection's writer and reader are built from `_KINDS`, each field
    kind's encoder and decoder kept behind a `_Memo`, so each distinct field
    value is encoded once, and each distinct field text decoded once, for
    as long as the codec lives. A run field is coded one element at a time,
    and equal runs read go through a `_Memo` too; so equal field values
    read back are one object, and two codecs share none. The whole-text
    pattern alone decides which text is canonical: a field's text reaches
    its decoder only after the pattern has accepted the whole text.
    """

    __slots__ = ("_writers", "_readers")

    def __init__(self):
        coders = {}
        for kind, (encode, _, decode) in _KINDS.items():
            encode, decode = _Memo(encode).__getitem__, _Memo(decode).__getitem__
            if _is_run(kind):
                def encode(run, one=encode):
                    return ",".join(map(one, run))

                def decode(text, one=decode, runs=_Memo(lambda run: run).__getitem__):
                    return runs(tuple(map(one, text.split(","))))
            coders[kind] = encode, decode
        self._writers = {cls: (cls.tag, [coders[k][0] for k in kinds])
                         for cls, (kinds, _) in _FIELDS.items()}
        self._readers = {cls.tag: (cls, pattern, [coders[k][1] for k in kinds])
                         for cls, (kinds, pattern) in _FIELDS.items()}

    def serialize(self, s: AbstractState) -> str:
        writer = self._writers.get(type(s))
        if writer is None:
            raise TypeError(f"not an abstract state: {s!r}")
        tag, encoders = writer
        return ",".join([tag, *[encode(v) for encode, v in zip(encoders, s)]])

    def parse(self, text: str) -> AbstractState:
        """Inverse of `serialize`; accepts only the text it writes."""
        reader = self._readers.get(text[:1])
        match = reader and reader[1].fullmatch(text)
        if not match:
            raise ValueError(f"unparseable abstract state: {text!r}")
        return _new(reader[0], [decode(t) for decode, t in zip(reader[2], match.groups())])

