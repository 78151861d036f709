import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankworld.environment import WorldState
from bankworld.planner import assign, manhattan, release

positions = st.tuples(st.integers(0, 10), st.integers(0, 10))


class TestManhattan:
    def test_identity(self):
        assert manhattan((2, 3), (2, 3)) == 0

    def test_forced_by_definition(self):
        assert manhattan((0, 0), (3, 4)) == 7

    @given(a=positions, b=positions)
    def test_symmetry(self, a, b):
        assert manhattan(a, b) == manhattan(b, a)


def world(agent_positions, gem_cells, held=None):
    if held is None:
        held = [None] * len(agent_positions)
    return WorldState(tuple(agent_positions), tuple(held), tuple(gem_cells), step=0)


def brute_force_nearest(agent_pos, open_gems):
    """Independent check: full enumeration of (distance, index) pairs."""
    return min(open_gems, key=lambda jp: (manhattan(agent_pos, jp[1]), jp[0]))[0]


class TestAssign:
    def test_each_agent_takes_nearest_open_gem(self):
        state = world(
            [(0, 0), (4, 4)],
            [(0, 2), (4, 3), (2, 2)],
        )
        result = assign(state, (None, None))
        # cross-check by brute-force distance enumeration
        assert brute_force_nearest((0, 0), [(0, (0, 2)), (1, (4, 3)), (2, (2, 2))]) == 0
        assert brute_force_nearest((4, 4), [(1, (4, 3)), (2, (2, 2))]) == 1
        assert result == (0, 1)

    def test_distance_tie_takes_lowest_gem_index(self):
        state = world([(2, 2)], [(0, 2), (2, 0)])
        result = assign(state, (None,))
        assert result == (0,)

    def test_agents_beyond_gems_stay_free(self):
        state = world([(0, 0), (1, 1), (2, 2)], [(5, 5)])
        result = assign(state, (None, None, None))
        assert result.count(None) == 2
        assert set(result) - {None} == {0}

    def test_existing_pairs_never_revoked(self):
        state = world([(0, 0), (4, 4)], [(4, 4), (0, 1)])
        # agent 0 already holds gem 0 even though gem 1 is now closer
        current = (0, None)
        result = assign(state, current)
        assert result[0] == 0
        assert result[1] == 1

    def test_idempotent_without_state_change(self):
        state = world([(0, 0), (4, 4)], [(1, 1), (3, 3)])
        once = assign(state, (None, None))
        twice = assign(state, once)
        assert once == twice

    @pytest.mark.parametrize(
        "agent_positions, gem_cells, current",
        [
            ([(0, 0), (4, 4)], [(1, 1), (3, 3)], (1, 0)),  # no free slot
            ([(0, 0), (4, 4)], [(3, 3), None], (None, 0)),  # no open gem
        ],
    )
    def test_nothing_to_do_returns_current_itself(self, agent_positions, gem_cells, current):
        # The benchmark's planner.assign.noop_ratio counts no-ops by identity.
        assert assign(world(agent_positions, gem_cells), current) is current

    @pytest.mark.parametrize(
        "agent_positions, gem_cells, held, current",
        [
            # the partner's gem is still on the grid
            ([(0, 0), (4, 4)], [(3, 3)], [None, None], (None, 0)),
            # the partner carries its gem
            ([(0, 0), (4, 4)], [None], [None, 0], (None, 0)),
            # one gem deposited, one carried, one on the grid and allocated
            ([(0, 0), (4, 4), (2, 2)], [None, None, (3, 3)], [None, 1, None], (None, 1, 2)),
        ],
    )
    def test_parked_slot_returns_current_itself(self, agent_positions, gem_cells, held, current):
        """Every on-grid gem is allocated, so the free slot stays parked."""
        assert assign(world(agent_positions, gem_cells, held), current) is current

    def test_carried_and_dropped_gems_not_assignable(self):
        state = world([(0, 0), (4, 4)], [None, None, (2, 2)], held=[None, 0])
        result = assign(state, (None, 0))
        assert result == (2, 0)


class TestRelease:
    def test_single_pair_drops_to_empty(self):
        result = release((1,), gem=1)
        assert result == (None,)

    def test_other_pairs_survive(self):
        result = release((0, 1), gem=0)
        assert result == (None, 1)

    def test_unassigned_gem_rejected(self):
        with pytest.raises(ValueError):
            release((None, None), gem=2)

    def test_freed_agent_gets_next_gem(self):
        state = world([(0, 0), (4, 4)], [(1, 0), (4, 3)])
        freed = release((0, 1), gem=0)
        result = assign(state, freed)
        assert result[0] == 0


@st.composite
def assignment_scenarios(draw):
    num_agents = draw(st.integers(1, 4))
    num_gems = draw(st.integers(1, 4))
    agent_pos = draw(
        st.lists(positions, min_size=num_agents, max_size=num_agents)
    )
    gem_pos = draw(
        st.lists(positions, min_size=num_gems, max_size=num_gems, unique=True)
    )
    ops = draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    return agent_pos, gem_pos, ops


@st.composite
def allocated_worlds(draw):
    """A world and its allocation as the controller keeps them: a carried
    gem is its carrier's allocation, an allocated gem that is not carried
    lies on the grid, and a deposited gem is nobody's."""
    agent_pos, gem_pos, _ = draw(assignment_scenarios())
    gems = iter(draw(st.permutations(range(len(gem_pos)))))
    cells, held, alloc = list(gem_pos), [], []
    for slot in draw(st.lists(st.sampled_from(["free", "fetch", "carry"]),
                              min_size=len(agent_pos), max_size=len(agent_pos))):
        gem = None if slot == "free" else next(gems, None)
        alloc.append(gem)
        held.append(gem if slot == "carry" else None)
        if held[-1] is not None:
            cells[gem] = None
    for gem in gems:
        if draw(st.booleans()):
            cells[gem] = None  # deposited
    return world(agent_pos, cells, held), tuple(alloc)


class TestProperties:
    @given(scenario=allocated_worlds())
    @settings(max_examples=200, deadline=None)
    def test_free_slots_take_the_nearest_open_gems(self, scenario):
        """Whatever the carried and deposited gems, free slots fill as the
        brute force says, and a call that changes nothing returns
        ``current`` itself."""
        state, current = scenario
        open_gems = [(j, cell) for j, cell in enumerate(state.gem_cells)
                     if cell is not None and j not in current]
        want = list(current)
        for i, gem in enumerate(current):
            if gem is None and open_gems:
                want[i] = brute_force_nearest(state.agent_positions[i], open_gems)
                open_gems = [(j, cell) for j, cell in open_gems if j != want[i]]
        result = assign(state, current)
        assert result == tuple(want)
        if result == current:
            assert result is current

    @given(scenario=allocated_worlds())
    @settings(max_examples=200, deadline=None)
    def test_returns_current_itself_exactly_when_nothing_to_do(self, scenario):
        """The early exits: ``current`` itself comes back exactly when no
        slot is free or every on-grid gem is allocated; any other call
        allocates a gem, so it builds a new tuple."""
        state, current = scenario
        unallocated = [j for j, cell in enumerate(state.gem_cells)
                       if cell is not None and j not in current]
        nothing_to_do = None not in current or not unallocated
        assert (assign(state, current) is current) == nothing_to_do

    @given(scenario=assignment_scenarios(), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_injectivity_under_assign_release_sequences(self, scenario, seed):
        agent_pos, gem_pos, ops = scenario
        rng = random.Random(seed)
        state = world(agent_pos, gem_pos)
        current = (None,) * len(agent_pos)
        for op in ops:
            allocated = [g for g in current if g is not None]
            if op in (0, 1):
                current = assign(state, current)
            elif allocated:
                current = release(current, rng.choice(sorted(allocated)))
            allocated = [g for g in current if g is not None]
            assert len(current) == len(agent_pos)
            assert len(set(allocated)) == len(allocated)

    @pytest.mark.parametrize("partly_filled", [False, True])
    @given(scenario=assignment_scenarios(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_first_free_agent_gets_brute_force_minimum(self, partly_filled, scenario, data):
        """Free slots fill in ascending agent index, each with the nearest
        gem still open; filled slots are kept."""
        agent_pos, gem_pos, _ = scenario
        state = world(agent_pos, gem_pos)
        current = (None,) * len(agent_pos)
        if partly_filled:
            gems = iter(data.draw(st.permutations(range(len(gem_pos)))))
            filled = data.draw(st.lists(st.booleans(), min_size=len(agent_pos),
                                        max_size=len(agent_pos)))
            current = tuple(next(gems, None) if f else None for f in filled)
        result = assign(state, current)
        open_gems = [(j, cell) for j, cell in enumerate(gem_pos) if j not in current]
        for i, gem in enumerate(current):
            if gem is not None:
                assert result[i] == gem
            elif open_gems:
                nearest = brute_force_nearest(agent_pos[i], open_gems)
                assert result[i] == nearest
                open_gems = [(j, cell) for j, cell in open_gems if j != nearest]
            else:
                assert result[i] is None
