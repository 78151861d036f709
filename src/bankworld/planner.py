"""Greedy gem allocation by Manhattan distance.

The allocation is a tuple with one slot per agent, like
`WorldState.held`: ``alloc[i]`` is the index of the gem allocated to
agent ``i``, or None. Free agents are visited in ascending index; each
takes the nearest unallocated on-grid gem, ties going to the lowest gem
index. An allocation sticks while the gem is fetched and carried and is
released only when the gem reaches the bank, so ``alloc[i] == held[i]``
while agent ``i`` carries. Agents left over when gems run out stay
unallocated (the controller parks them on NoOp).
"""

from __future__ import annotations

from typing import Optional

from .environment import Position, WorldState


def manhattan(a: Position, b: Position) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def assign(state: WorldState, current: tuple[Optional[int], ...]) -> tuple[Optional[int], ...]:
    """Allocate every free agent its nearest unallocated on-grid gem.

    Existing allocations are never revoked. Returns ``current`` itself
    when there is nothing to do.
    """
    if None not in current:
        return current
    # Every on-grid gem is allocated: as many as the slots held by agents
    # not yet carrying (``alloc[i] == held[i]`` while agent ``i`` carries).
    cells = state.gem_cells
    if len(cells) - cells.count(None) == state.held.count(None) - current.count(None):
        return current
    open_gems = [
        (j, cell)
        for j, cell in enumerate(cells)
        if cell is not None and j not in current
    ]
    alloc = list(current)
    for i, gem in enumerate(current):
        if gem is not None or not open_gems:
            continue
        pos = state.agent_positions[i]
        j, _ = min(open_gems, key=lambda item: (manhattan(pos, item[1]), item[0]))
        alloc[i] = j
        open_gems = [item for item in open_gems if item[0] != j]
    return tuple(alloc)


def release(current: tuple[Optional[int], ...], gem: int) -> tuple[Optional[int], ...]:
    """Free the slot of the agent allocated a deposited gem."""
    if gem not in current:
        raise ValueError(f"gem {gem} is not assigned")
    agent = current.index(gem)
    return current[:agent] + (None,) + current[agent + 1:]
