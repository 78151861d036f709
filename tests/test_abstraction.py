import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankworld.abstraction import (
    DropState,
    FlatState,
    NoPlannerState,
    PickupState,
    StateCodec,
    abstract_drop,
    abstract_flat,
    abstract_no_planner,
    abstract_pickup,
)
from bankworld.environment import GridConfig, WorldState
from bankworld.environment import RandomLayout, reset
from bankworld.harness import SubtaskMDP
from bankworld.learner import (
    DROP_TABLE,
    PICKUP_TABLE,
    ControllerMode,
    Hyperparams,
    Method,
    controller_step,
    option_for_agent,
)

from conftest import is_terminal

positions = st.tuples(st.integers(0, 10), st.integers(0, 10))


def world(agent_positions, gem_cells, held=None, step=0):
    """Agents at ``agent_positions``, each empty-handed unless ``held`` says
    which gem it carries; a gem without a cell is carried or deposited."""
    if held is None:
        held = [None] * len(agent_positions)
    return WorldState(tuple(agent_positions), tuple(held), tuple(gem_cells), step)


class TestPickupProjection:
    def test_reads_the_two_positions(self):
        state = world([(1, 2)], [(4, 4)])
        assert abstract_pickup(state, 0, 0) == PickupState((1, 2), (4, 4))

    def test_everything_else_invisible(self):
        a = world([(1, 2), (9, 9)], [(4, 4), (0, 0)], step=3)
        b = world([(1, 2), (5, 5)], [(4, 4), None], step=77)
        assert abstract_pickup(a, 0, 0) == abstract_pickup(b, 0, 0)

    def test_space_bounded_by_grid_fourth_power(self):
        grid = GridConfig(11, 11, 1, 1, 100)
        space = SubtaskMDP(grid, PICKUP_TABLE).states()
        assert len(set(space)) == len(space) <= 11**4

    def test_gem_off_grid_rejected(self):
        state = world([(1, 2)], [None], held=[0])
        with pytest.raises(ValueError):
            abstract_pickup(state, 0, 0)

    def test_carrying_agent_rejected(self):
        state = world([(1, 2)], [None, (4, 4)], held=[0])
        with pytest.raises(ValueError):
            abstract_pickup(state, 0, 1)


class TestDropProjection:
    def test_reads_own_position_only(self):
        state = world([(7, 3)], [(1, 1), (2, 2), None], held=[2])
        assert abstract_drop(state, 0) == DropState((7, 3))

    def test_carried_gem_identity_irrelevant(self):
        carrying_g0 = world([(7, 3)], [None, (2, 2), (1, 1)], held=[0])
        carrying_g2 = world([(7, 3)], [(2, 2), (1, 1), None], held=[2])
        assert abstract_drop(carrying_g0, 0) == abstract_drop(carrying_g2, 0)

    def test_space_bounded_by_grid_squared(self):
        grid = GridConfig(11, 11, 1, 1, 100)
        space = SubtaskMDP(grid, DROP_TABLE).states()
        assert len(set(space)) == len(space) <= 11**2

    def test_empty_handed_agent_rejected(self):
        state = world([(7, 3)], [(1, 1)])
        with pytest.raises(ValueError):
            abstract_drop(state, 0)


class TestFlatProjection:
    def test_fetching_points_at_assigned_gem(self):
        state = world([(0, 0)], [(9, 9), (3, 3)])
        assignment = (1,)
        assert abstract_flat(state, 0, assignment, bank=(5, 5)) == FlatState(
            (0, 0), (3, 3), False
        )

    def test_carrying_points_at_bank(self):
        state = world([(2, 2)], [None], held=[0])
        assignment = (0,)
        assert abstract_flat(state, 0, assignment, bank=(5, 5)) == FlatState(
            (2, 2), (5, 5), True
        )

    def test_unassigned_agent_has_no_target(self):
        state = world([(9, 9)], [None])
        assert abstract_flat(state, 0, (None,), bank=(5, 5)) == FlatState(
            (9, 9), None, False
        )


class TestNoPlannerProjection:
    def test_all_gem_cells_listed(self):
        state = world([(1, 1), (4, 4)], [(0, 2), None, None], held=[None, 1])
        assert abstract_no_planner(state, 0) == NoPlannerState(
            (1, 1), False, ((0, 2), None, None)
        )

    def test_all_dropped_all_absent(self):
        state = world([(1, 1)], [None, None])
        assert abstract_no_planner(state, 0) == NoPlannerState((1, 1), False, (None, None))

    def test_other_agent_positions_invisible(self):
        a = world([(1, 1), (0, 0)], [(0, 2)])
        b = world([(1, 1), (9, 9)], [(0, 2)])
        assert abstract_no_planner(a, 0) == abstract_no_planner(b, 0)

    def test_own_carried_gem_rides_along(self):
        state = world([(4, 2)], [None, (0, 2)], held=[0])
        assert abstract_no_planner(state, 0) == NoPlannerState(
            (4, 2), True, ((4, 2), (0, 2))
        )


class TestRelevance:
    """Changing a projected fact must change the projection."""

    def test_pickup_tracks_gem_cell(self):
        a = world([(1, 2)], [(4, 4)])
        b = world([(1, 2)], [(4, 5)])
        assert abstract_pickup(a, 0, 0) != abstract_pickup(b, 0, 0)

    def test_drop_tracks_agent_cell(self):
        a = world([(7, 3)], [None], held=[0])
        b = world([(7, 4)], [None], held=[0])
        assert abstract_drop(a, 0) != abstract_drop(b, 0)

    def test_no_planner_tracks_gem_departure(self):
        a = world([(1, 1), (2, 2)], [(0, 2)])
        b = world([(1, 1), (2, 2)], [None], held=[None, 0])
        assert abstract_no_planner(a, 0) != abstract_no_planner(b, 0)


@st.composite
def world_pairs_agreeing_on_agent0_and_gem0(draw):
    """Two worlds identical in agent 0 and gem 0 but arbitrary elsewhere."""
    agent0 = draw(positions)
    gem0 = draw(positions)
    worlds = []
    for _ in range(2):
        others = draw(st.lists(positions, min_size=0, max_size=3))
        held = [None] * (1 + len(others))
        cells = [gem0]
        for _ in range(draw(st.integers(0, 3))):
            # carriers other than agent 0, so the projected facts stay fixed
            free = [i for i in range(1, len(held)) if held[i] is None]
            place = draw(st.sampled_from(["cell", "deposited"] + (["held"] if free else [])))
            if place == "held":
                held[draw(st.sampled_from(free))] = len(cells)
            cells.append(draw(positions) if place == "cell" else None)
        step = draw(st.integers(0, 500))
        worlds.append(WorldState((agent0, *others), tuple(held), tuple(cells), step))
    return worlds[0], worlds[1]


class TestSoundnessFuzz:
    """Worlds agreeing on the projected facts must project equally."""

    @given(pair=world_pairs_agreeing_on_agent0_and_gem0())
    @settings(max_examples=120, deadline=None)
    def test_pickup_projection_ignores_everything_else(self, pair):
        a, b = pair
        assert abstract_pickup(a, 0, 0) == abstract_pickup(b, 0, 0)

    @given(pair=world_pairs_agreeing_on_agent0_and_gem0())
    @settings(max_examples=120, deadline=None)
    def test_flat_projection_ignores_everything_else(self, pair):
        a, b = pair
        assignment = (0,)  # only agent 0's slot is read
        assert abstract_flat(a, 0, assignment, (5, 5)) == abstract_flat(
            b, 0, assignment, (5, 5)
        )


abstract_states = st.one_of(
    st.builds(PickupState, positions, positions),
    st.builds(DropState, positions),
    st.builds(FlatState, positions, st.one_of(st.none(), positions), st.booleans()),
    st.builds(
        NoPlannerState,
        positions,
        st.booleans(),
        st.lists(st.one_of(st.none(), positions), min_size=1, max_size=4).map(tuple),
    ),
)


@st.composite
def mutated_state_texts(draw):
    """A canonical state text with a span of up to two characters replaced
    by up to two others."""
    text = StateCodec().serialize(draw(abstract_states))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 2)))
    return text[:i] + draw(st.text("0123456789,:_+- PDFN\n\u0663", max_size=2)) + text[j:]


class TestSerialization:
    def test_documented_forms(self):
        serialize = StateCodec().serialize
        assert serialize(PickupState((1, 2), (4, 4))) == "P,1,2,4,4"
        assert serialize(DropState((7, 3))) == "D,7,3"
        assert serialize(FlatState((0, 0), (3, 3), False)) == "F,0,0,3,3,0"
        assert serialize(NoPlannerState((1, 1), False, ((0, 2), None, None))) == "N,1,1,0,0:2,_,_"

    def test_absent_flat_target(self):
        assert StateCodec().serialize(FlatState((9, 9), None, False)) == "F,9,9,_,_,0"

    @given(s=abstract_states)
    @settings(max_examples=200)
    def test_round_trip_exact(self, s):
        codec = StateCodec()
        assert codec.parse(codec.serialize(s)) == s

    def test_garbage_rejected(self):
        parse = StateCodec().parse
        for text in ("", "X,1,2", "P,1,2", "D,a,b", "F,1,2,3"):
            with pytest.raises(ValueError):
                parse(text)
        # Non-canonical: a flag of 2, '_', '+', ' ' or a leading zero in an
        # integer, and no gem cells. None is text that `serialize` writes.
        for text in ("F,0,0,_,_,2", "P,1_0,2,4,4", "D,+1, 2", "D,01,2", "N,1,1,0"):
            with pytest.raises(ValueError):
                parse(text)

    @given(text=mutated_state_texts())
    @settings(max_examples=300)
    def test_only_canonical_text_parses(self, text):
        codec = StateCodec()
        try:
            s = codec.parse(text)
        except ValueError:
            return
        assert codec.serialize(s) == text


class TestCodecMemo:
    """A `StateCodec` shares equal field values between the states it
    reads, and two codecs share nothing."""

    TEXT = "N,1,1,0,0:2,_,_"

    def test_one_codec_reads_equal_fields_as_one_object(self):
        codec = StateCodec()
        first, second = codec.parse(self.TEXT), codec.parse(self.TEXT)
        assert first == second
        assert first.agent_pos is second.agent_pos
        assert first.gem_cells is second.gem_cells
        assert codec.serialize(first) == self.TEXT

    def test_two_codecs_share_nothing(self):
        first, second = StateCodec().parse(self.TEXT), StateCodec().parse(self.TEXT)
        assert first == second
        assert first.agent_pos is not second.agent_pos
        assert first.gem_cells is not second.gem_cells
        assert first.gem_cells[0] is not second.gem_cells[0]

    @pytest.mark.parametrize("value", [(1, 2), ((1, 2),), "P,1,2,4,4", None])
    def test_only_abstract_states_serialize(self, value):
        message = f"^{re.escape(f'not an abstract state: {value!r}')}$"
        with pytest.raises(TypeError, match=message):
            StateCodec().serialize(value)


def projection_lines(size: int, planner: bool, seed: int) -> list[str]:
    """Every projection of every agent at every step of one random-policy
    episode on a ``size`` x ``size`` random layout with 2 agents and 3 gems:
    the planner-off and flat views, plus the fetch view of each gem the
    option allows and the deposit view while carrying."""
    grid = GridConfig(size, size, 2, 3, 12 * size, layout=RandomLayout())
    mode = ControllerMode(Method.RANDOM, planner_enabled=planner)
    h, rng = Hyperparams(seed=seed), random.Random(seed)
    state, assignment = reset(grid, seed), (None,) * grid.num_agents
    serialize, lines = StateCodec().serialize, []
    while True:
        alloc = assignment if planner else None
        for agent in range(grid.num_agents):
            view = abstract_no_planner(state, agent)
            texts = [serialize(view), serialize(abstract_flat(state, agent, assignment, grid.bank))]
            option = option_for_agent(state, agent, alloc)
            if option is DROP_TABLE:
                texts.append(serialize(abstract_drop(state, agent)))
            elif option is PICKUP_TABLE:
                gems = ([alloc[agent]] if planner else
                        [j for j, cell in enumerate(view.gem_cells) if cell is not None])
                texts += [serialize(abstract_pickup(state, agent, j)) for j in gems]
            lines.append(f"{state.step} {agent} {option or 'idle'} " + " ".join(texts))
        if is_terminal(state, grid):
            return lines
        state, assignment, _ = controller_step(state, grid, mode, {}, assignment, 1.0, h, rng)


class TestProjectionsPinned:
    """The projections the learners see along seeded episodes, pinned by
    digest: a change to how the world state is stored must not change a
    single projected byte."""

    DIGEST = "2d1e52a0064113a76159dc73f3b76b1b024b88f841d7808d3bfe532b4ae22ee6"

    def test_projection_text_pinned(self):
        lines = [f"{size} {planner} {seed} {line}"
                 for size in (7, 11) for planner in (True, False) for seed in range(4)
                 for line in projection_lines(size, planner, seed)]
        text = "\n".join(lines)
        # The episodes reach the cases a rewrite could break: a deposit view,
        # a gem held by the other agent, and a deposited gem.
        assert " D," in text
        assert any(" drop " in a and " pickup " in b for a, b in zip(lines[::2], lines[1::2]))
        parse = StateCodec().parse
        views = [parse(t) for t in text.split() if t.startswith("N,")]
        assert any(None in view.gem_cells for view in views)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
