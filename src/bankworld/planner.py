"""Greedy gem allocation by Manhattan distance.

Free agents are visited in ascending index; each takes the nearest
unallocated on-grid gem, ties going to the lowest gem index. An
allocation sticks while the gem is fetched and carried and is released
only when the gem reaches the bank. Agents left over when gems run out
stay unallocated (the controller parks them on NoOp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .environment import Position, WorldState


def manhattan(a: Position, b: Position) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class Assignment:
    """Injective agent-to-gem allocation with its inverse."""

    agent_to_gem: Mapping[int, int] = field(default_factory=dict)
    gem_to_agent: Mapping[int, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Assignment":
        return cls()


def assign(state: WorldState, current: Assignment) -> Assignment:
    """Allocate every free agent its nearest unallocated on-grid gem.

    Existing allocations are never revoked. Returns ``current`` itself
    when there is nothing to do.
    """
    if len(current.agent_to_gem) == len(state.agent_positions):
        return current
    free = [i for i in range(len(state.agent_positions)) if i not in current.agent_to_gem]
    open_gems = [
        (j, cell)
        for j, cell in enumerate(state.gem_cells)
        if cell is not None and j not in current.gem_to_agent
    ]
    if not open_gems:
        return current
    agent_to_gem = dict(current.agent_to_gem)
    gem_to_agent = dict(current.gem_to_agent)
    for i in free:
        if not open_gems:
            break
        pos = state.agent_positions[i]
        j, _ = min(open_gems, key=lambda item: (manhattan(pos, item[1]), item[0]))
        agent_to_gem[i] = j
        gem_to_agent[j] = i
        open_gems = [item for item in open_gems if item[0] != j]
    return Assignment(agent_to_gem, gem_to_agent)


def release(current: Assignment, gem: int) -> Assignment:
    """Drop the allocation pair for a deposited gem."""
    if gem not in current.gem_to_agent:
        raise ValueError(f"gem {gem} is not assigned")
    agent = current.gem_to_agent[gem]
    agent_to_gem = {a: g for a, g in current.agent_to_gem.items() if a != agent}
    gem_to_agent = {g: a for g, a in current.gem_to_agent.items() if g != gem}
    return Assignment(agent_to_gem, gem_to_agent)
