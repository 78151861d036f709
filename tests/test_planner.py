import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankworld.environment import WorldState
from bankworld.planner import Assignment, assign, manhattan, release

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
        result = assign(state, Assignment.empty())
        # cross-check by brute-force distance enumeration
        assert brute_force_nearest((0, 0), [(0, (0, 2)), (1, (4, 3)), (2, (2, 2))]) == 0
        assert brute_force_nearest((4, 4), [(1, (4, 3)), (2, (2, 2))]) == 1
        assert result.agent_to_gem == {0: 0, 1: 1}
        assert result.gem_to_agent == {0: 0, 1: 1}

    def test_distance_tie_takes_lowest_gem_index(self):
        state = world([(2, 2)], [(0, 2), (2, 0)])
        result = assign(state, Assignment.empty())
        assert result.agent_to_gem == {0: 0}

    def test_agents_beyond_gems_stay_free(self):
        state = world([(0, 0), (1, 1), (2, 2)], [(5, 5)])
        result = assign(state, Assignment.empty())
        assert len(result.agent_to_gem) == 1
        assert set(result.agent_to_gem.values()) == {0}

    def test_existing_pairs_never_revoked(self):
        state = world([(0, 0), (4, 4)], [(4, 4), (0, 1)])
        # agent 0 already holds gem 0 even though gem 1 is now closer
        current = Assignment({0: 0}, {0: 0})
        result = assign(state, current)
        assert result.agent_to_gem[0] == 0
        assert result.agent_to_gem[1] == 1

    def test_idempotent_without_state_change(self):
        state = world([(0, 0), (4, 4)], [(1, 1), (3, 3)])
        once = assign(state, Assignment.empty())
        twice = assign(state, once)
        assert once == twice

    def test_carried_and_dropped_gems_not_assignable(self):
        state = world([(0, 0), (4, 4)], [None, None, (2, 2)], held=[None, 0])
        result = assign(state, Assignment({1: 0}, {0: 1}))
        assert result.agent_to_gem == {1: 0, 0: 2}


class TestRelease:
    def test_single_pair_drops_to_empty(self):
        result = release(Assignment({0: 1}, {1: 0}), gem=1)
        assert result == Assignment.empty()

    def test_other_pairs_survive(self):
        result = release(Assignment({0: 0, 1: 1}, {0: 0, 1: 1}), gem=0)
        assert result.agent_to_gem == {1: 1}
        assert result.gem_to_agent == {1: 1}

    def test_unassigned_gem_rejected(self):
        with pytest.raises(ValueError):
            release(Assignment.empty(), gem=2)

    def test_freed_agent_gets_next_gem(self):
        state = world([(0, 0), (4, 4)], [(1, 0), (4, 3)])
        freed = release(Assignment({0: 0, 1: 1}, {0: 0, 1: 1}), gem=0)
        result = assign(state, freed)
        assert result.agent_to_gem[0] == 0


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


class TestProperties:
    @given(scenario=assignment_scenarios(), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_injectivity_under_assign_release_sequences(self, scenario, seed):
        agent_pos, gem_pos, ops = scenario
        rng = random.Random(seed)
        state = world(agent_pos, gem_pos)
        current = Assignment.empty()
        for op in ops:
            if op in (0, 1):
                current = assign(state, current)
            elif current.gem_to_agent:
                gem = rng.choice(sorted(current.gem_to_agent))
                current = release(current, gem)
            assert len(set(current.agent_to_gem.values())) == len(current.agent_to_gem)
            assert {g: a for a, g in current.agent_to_gem.items()} == dict(
                current.gem_to_agent
            )

    @given(scenario=assignment_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_first_free_agent_gets_brute_force_minimum(self, scenario):
        agent_pos, gem_pos, _ = scenario
        state = world(agent_pos, gem_pos)
        result = assign(state, Assignment.empty())
        open_gems = list(enumerate(gem_pos))
        assert result.agent_to_gem[0] == brute_force_nearest(agent_pos[0], open_gems)
