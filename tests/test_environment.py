import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankworld.environment import (
    ACTIONS,
    Action,
    ConfigError,
    Event,
    FixedLayout,
    GridConfig,
    RandomLayout,
    default_layout,
    reset,
    step_agent,
)
from bankworld.learner import ControllerMode, Hyperparams, Method, controller_step

from conftest import gem_places, is_terminal


def grid_11() -> GridConfig:
    return GridConfig(
        width=11,
        height=11,
        num_agents=2,
        num_gems=3,
        step_limit=1000,
        layout=FixedLayout(agents=((0, 0), (10, 10)), gems=((0, 10), (10, 0), (5, 0))),
    )


class TestReset:
    def test_fixed_layout_identity_placement(self):
        state = reset(grid_11(), seed=0)
        assert state.agent_positions == ((0, 0), (10, 10))
        assert state.gem_cells == ((0, 10), (10, 0), (5, 0))
        assert state.held == (None, None)
        assert state.step == 0

    def test_same_seed_same_state(self):
        cfg = GridConfig(5, 5, 2, 3, 100, layout=RandomLayout())
        assert reset(cfg, seed=7) == reset(cfg, seed=7)

    def test_random_layout_distinct_cells_off_bank(self):
        cfg = GridConfig(5, 5, 2, 3, 100, layout=RandomLayout())
        state = reset(cfg, seed=7)
        occupied = list(state.agent_positions) + list(state.gem_cells)
        assert len(set(occupied)) == 5
        assert cfg.bank == (2, 2)
        assert (2, 2) not in occupied
        for r, c in occupied:
            assert 0 <= r < 5 and 0 <= c < 5

    def test_layout_out_of_bounds_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(5, 5, 1, 1, 100,
                       layout=FixedLayout(agents=((0, 0),), gems=((5, 0),)))

    def test_gem_on_bank_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(5, 5, 1, 1, 100,
                       layout=FixedLayout(agents=((0, 0),), gems=((2, 2),)))

    def test_duplicate_gem_cells_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(5, 5, 1, 2, 100,
                       layout=FixedLayout(agents=((0, 0),), gems=((1, 1), (1, 1))))

    def test_bank_centered_by_default(self):
        assert GridConfig(11, 11, 2, 3, 100).bank == (5, 5)
        assert GridConfig(8, 6, 1, 1, 100).bank == (2, 3)

    @pytest.mark.parametrize("bank", [(0, 2), (4, 2), (2, 0), (2, 4), (5, 2), (2, -1)])
    def test_bank_not_strictly_inside_names_the_bank(self, bank):
        with pytest.raises(ConfigError) as info:
            GridConfig(5, 5, 1, 1, 100, bank=bank)
        assert str(info.value) == f"bank {bank} must be strictly inside the grid"
        assert info.value.field == "bank"

    def test_default_layout_scales_past_the_corners(self):
        cfg = GridConfig(5, 5, 6, 4, 100)
        state = reset(cfg, 0)
        occupied = list(state.agent_positions) + list(state.gem_cells)
        assert len(set(occupied)) == 10
        assert cfg.bank not in state.gem_cells

    def test_default_layout_avoids_an_off_centre_bank(self):
        cfg = GridConfig(5, 5, 1, 10, 50, bank=(1, 1))
        assert cfg.bank not in cfg.layout.agents + cfg.layout.gems
        assert len(set(cfg.layout.agents + cfg.layout.gems)) == 11

    @given(width=st.integers(3, 9), height=st.integers(3, 9), agents=st.integers(1, 4),
           gems=st.integers(1, 4), pick=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_default_layout_places_as_listing_every_cell_did(
            self, width, height, agents, gems, pick):
        """The placement of the rule that listed every cell up front: the
        preferred cells, then every cell row by row, repeats dropped, each
        free cell off the bank taken in that order."""
        inner = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
        bank = inner[pick % len(inner)]
        every = [(r, c) for r in range(height) for c in range(width)]
        mid_r, mid_c = (height - 1) // 2, (width - 1) // 2
        used = {bank}

        def place(count, preferred):
            free = [pos for pos in dict.fromkeys(preferred + every) if pos not in used][:count]
            used.update(free)
            return tuple(free)

        corners = [(0, 0), (height - 1, width - 1), (0, width - 1), (height - 1, 0)]
        expected = FixedLayout(
            agents=place(agents, corners),
            gems=place(gems, [(0, width - 1), (height - 1, 0), (mid_r, 0), (0, mid_c),
                              (height - 1, mid_c), (mid_r, width - 1)]))
        assert default_layout(width, height, agents, gems, bank) == expected

    def test_grid_too_small_for_entities_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(3, 3, 5, 4, 100)


def small_world(agents, gems, bank=(3, 3), width=7, height=7, noop_reward=0):
    cfg = GridConfig(width, height, len(agents), len(gems), 100, bank=bank,
                     layout=FixedLayout(agents=tuple(agents), gems=tuple(gems)),
                     noop_reward=noop_reward)
    return cfg, reset(cfg, 0)


class TestStepAgent:
    def test_drop_at_bank_pays_500(self):
        cfg, state = small_world([(3, 3)], [(0, 0)], bank=(3, 4))
        carrying = state._replace(held=(0,), gem_cells=(None,))
        next_state, outcome = step_agent(carrying, cfg, 0, Action.RIGHT, assigned_gem=0)
        assert outcome == (500, Event.DROPPED, 0)
        assert (next_state.held, next_state.gem_cells) == ((None,), (None,))
        assert next_state.agent_positions == ((3, 4),)

    def test_wall_hit_pays_minus_5_and_stays(self):
        cfg, state = small_world([(0, 0)], [(6, 6)])
        next_state, outcome = step_agent(state, cfg, 0, Action.UP)
        assert outcome.reward == -5
        assert outcome.event is Event.ILLEGAL
        assert next_state.agent_positions == ((0, 0),)

    @pytest.mark.parametrize("size, start, action", [
        (7, (0, 3), Action.UP),
        (5, (4, 4), Action.RIGHT),
    ], ids=["off-top-edge", "off-right-edge"])
    def test_move_off_grid_is_illegal_and_changes_nothing(self, size, start, action):
        cfg, state = small_world([start], [(0, 1)], bank=(2, 2), width=size, height=size)
        next_state, outcome = step_agent(state, cfg, 0, action)
        assert outcome == (-5, Event.ILLEGAL, None)
        assert next_state == state

    @pytest.mark.parametrize("size, start, action", [
        (7, (0, 3), Action.NOOP),
        (5, (4, 4), Action.LEFT),
    ], ids=["noop", "left-from-right-edge"])
    def test_noop_and_inward_move_are_legal(self, size, start, action):
        cfg, state = small_world([start], [(0, 1)], bank=(2, 2), width=size, height=size)
        _, outcome = step_agent(state, cfg, 0, action)
        assert outcome.event is not Event.ILLEGAL

    def test_plain_move_pays_minus_1(self):
        cfg, state = small_world([(2, 2)], [(6, 6)])
        next_state, outcome = step_agent(state, cfg, 0, Action.RIGHT, assigned_gem=0)
        assert outcome == (-1, Event.MOVED, None)
        assert next_state.agent_positions == ((2, 3),)

    def test_move_onto_assigned_gem_acquires(self):
        cfg, state = small_world([(1, 1)], [(1, 2)])
        next_state, outcome = step_agent(state, cfg, 0, Action.RIGHT, assigned_gem=0)
        assert outcome == (50, Event.ACQUIRED, 0)
        assert (next_state.held, next_state.gem_cells) == ((0,), (None,))

    def test_unassigned_gem_not_acquired_in_planner_mode(self):
        cfg, state = small_world([(1, 1)], [(1, 2), (5, 5)])
        next_state, outcome = step_agent(state, cfg, 0, Action.RIGHT, assigned_gem=1)
        assert outcome.event is Event.MOVED
        assert next_state.gem_cells[0] == (1, 2)

    def test_any_gem_eligible_without_planner(self):
        cfg, state = small_world([(1, 1)], [(1, 2), (5, 5)])
        _, outcome = step_agent(state, cfg, 0, Action.RIGHT, assigned_gem=None)
        assert outcome == (50, Event.ACQUIRED, 0)

    def test_colocated_gems_tie_breaks_to_lowest_index(self):
        # Unreachable through reset (gems start distinct) but the rule is
        # defined defensively; craft the state by hand.
        cfg, state = small_world([(1, 1)], [(5, 5), (1, 2)])
        rigged = state._replace(gem_cells=((1, 2), (1, 2)))
        _, outcome = step_agent(rigged, cfg, 0, Action.RIGHT)
        assert outcome == (50, Event.ACQUIRED, 0)

    def test_noop_never_acquires(self):
        cfg, state = small_world([(1, 2)], [(1, 2)])
        next_state, outcome = step_agent(state, cfg, 0, Action.NOOP, assigned_gem=0)
        assert outcome == (0, Event.IDLE, None)
        assert next_state.gem_cells == ((1, 2),)

    def test_noop_reward_configurable(self):
        cfg, state = small_world([(2, 2)], [(6, 6)], noop_reward=-1)
        _, outcome = step_agent(state, cfg, 0, Action.NOOP)
        assert outcome == (-1, Event.IDLE, None)

    def test_assigned_gem_already_dropped_rejected(self):
        cfg, state = small_world([(2, 2)], [(6, 6)])
        done = state._replace(gem_cells=(None,))
        with pytest.raises(ValueError):
            step_agent(done, cfg, 0, Action.RIGHT, assigned_gem=0)

    def test_carrier_passes_over_gem_without_pickup(self):
        cfg, state = small_world([(1, 1)], [(1, 2), (4, 4)])
        carrying = state._replace(held=(1,), gem_cells=((1, 2), None))
        next_state, outcome = step_agent(carrying, cfg, 0, Action.RIGHT, assigned_gem=1)
        assert outcome.event is Event.MOVED
        assert next_state.gem_cells[0] == (1, 2)

    def test_pickled_config_steps_alike(self):
        # Worker processes receive the config by pickle, with its move table
        # once a step has built it.
        cfg, state = small_world([(0, 0)], [(0, 1)])
        step_agent(state, cfg, 0, Action.RIGHT)
        copy = pickle.loads(pickle.dumps(cfg))
        assert "moves" in vars(copy) and "moves" not in repr(cfg)
        assert copy == cfg and hash(copy) == hash(cfg)
        for action in ACTIONS:
            for gem in (None, 0):
                assert step_agent(state, copy, 0, action, gem) == step_agent(state, cfg, 0, action, gem)


class TestEpisodeAccounting:
    def test_controller_step_bumps_step_once_per_timestep(self):
        cfg, state = small_world([(0, 0)], [(0, 6)])
        mode, h, rng = ControllerMode(Method.RANDOM), Hyperparams(), random.Random(0)
        once, alloc, _ = controller_step(state, cfg, mode, {}, (None,), 0.0, h, rng)
        assert once.step == 1
        twice, alloc, _ = controller_step(once, cfg, mode, {}, alloc, 0.0, h, rng)
        assert twice.step == 2
        # The gem is six moves from the agent and the bank six more: seven
        # timesteps cannot end the episode, so all five more run.
        later, _, outcomes = controller_step(twice, cfg, mode, {}, alloc, 0.0, h, rng, timesteps=5)
        assert later.step == 7 and len(outcomes) == 5

    def test_step_limit_terminates(self):
        cfg, state = small_world([(0, 0)], [(1, 1)])
        cfg2 = GridConfig(7, 7, 1, 1, 1000, layout=cfg.layout)
        at_999 = state._replace(step=999)
        assert not is_terminal(at_999, cfg2)
        assert is_terminal(at_999._replace(step=at_999.step + 1), cfg2)

    def test_all_dropped_terminates_early(self):
        cfg, state = small_world([(0, 0)], [(1, 1), (2, 1), (4, 5)])
        done = state._replace(gem_cells=(None, None, None), step=412)
        assert is_terminal(done, cfg)

    def test_carried_gem_keeps_episode_alive(self):
        cfg, state = small_world([(0, 0)], [(1, 1)])
        carrying = state._replace(held=(0,), gem_cells=(None,), step=5)
        assert not is_terminal(carrying, cfg)


def _random_rollout(cfg: GridConfig, seed: int, steps: int):
    """Drive raw step_agent with uniform actions; yield every transition."""
    rng = random.Random(seed)
    state = reset(cfg, seed)
    for _ in range(steps):
        agent = rng.randrange(cfg.num_agents)
        action = ACTIONS[rng.randrange(5)]
        next_state, outcome = step_agent(state, cfg, agent, action)
        yield state, agent, action, next_state, outcome
        state = next_state._replace(step=next_state.step + 1)


@st.composite
def fuzz_configs(draw):
    width = draw(st.integers(3, 8))
    height = draw(st.integers(3, 8))
    agents = draw(st.integers(1, 3))
    gems = draw(st.integers(1, min(3, width * height - agents - 1)))
    noop = draw(st.sampled_from([0, -1]))
    return GridConfig(width, height, agents, gems, 500,
                      layout=RandomLayout(), noop_reward=noop)


def _toward_goal(state, cfg: GridConfig, agent: int) -> Action:
    """One step toward the bank while carrying, else toward the lowest gem
    on the grid; NoOp when there is nowhere to go."""
    pos = state.agent_positions[agent]
    if state.held[agent] is not None:
        goal = cfg.bank
    else:
        goal = next((cell for cell in state.gem_cells if cell is not None), pos)
    (r, c), (goal_r, goal_c) = pos, goal
    if r != goal_r:
        return Action.DOWN if goal_r > r else Action.UP
    if c != goal_c:
        return Action.RIGHT if goal_c > c else Action.LEFT
    return Action.NOOP


class TestInvariants:
    @given(cfg=fuzz_configs(), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_trajectory_invariants(self, cfg, seed):
        dropped_so_far = 0
        for state, agent, action, next_state, outcome in _random_rollout(cfg, seed, 120):
            on, carried, dropped = gem_places(next_state, cfg.num_gems)
            assert on + carried + dropped == cfg.num_gems
            carriers = [g for g in next_state.held if g is not None]
            assert len(carriers) == len(set(carriers))
            for r, c in next_state.agent_positions:
                assert 0 <= r < cfg.height and 0 <= c < cfg.width
            assert dropped >= dropped_so_far
            dropped_so_far = dropped
            # reward-event pairing per the reward definition
            assert outcome.reward in {-5, -1, 0, 50, 500}
            assert (outcome.reward == -5) == (outcome.event is Event.ILLEGAL)
            assert (outcome.reward == 50) == (outcome.event is Event.ACQUIRED)
            assert (outcome.reward == 500) == (outcome.event is Event.DROPPED)
            if outcome.event is Event.ILLEGAL:
                assert next_state.agent_positions == state.agent_positions

    @given(cfg=fuzz_configs(), seed=st.integers(0, 10_000),
           moves=st.lists(st.tuples(st.integers(0, 2), st.none() | st.sampled_from(ACTIONS),
                                    st.booleans()), max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_every_gem_in_one_place(self, cfg, seed, moves):
        """Along any action sequence, with or without an allocated gem, every
        gem is on the grid, held by one agent or deposited, and the deposit
        count rises by one on each deposit and at no other step. An action of
        None heads for the agent's goal, so pickups and deposits are common."""
        state = reset(cfg, seed)
        deposited = gem_places(state, cfg.num_gems)[2]
        assert deposited == 0
        for agent, action, allocated in moves:
            agent %= cfg.num_agents
            action = _toward_goal(state, cfg, agent) if action is None else action
            gem = None
            if allocated:
                # the carried gem, else the lowest gem on the grid, as a planner would pick
                gem = state.held[agent]
                if gem is None:
                    cells = state.gem_cells
                    gem = next((j for j, cell in enumerate(cells) if cell is not None), None)
            state, outcome = step_agent(state, cfg, agent, action, gem)
            now = gem_places(state, cfg.num_gems)[2]
            assert now == deposited + (outcome.event is Event.DROPPED)
            deposited = now

    @given(cfg=fuzz_configs(), seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_identical_seeds_identical_trajectories(self, cfg, seed):
        first = list(_random_rollout(cfg, seed, 60))
        second = list(_random_rollout(cfg, seed, 60))
        assert first == second

    def test_single_carry_enforced_by_dynamics(self):
        # An agent already carrying walks over another on-grid gem.
        cfg, state = small_world([(1, 1)], [(1, 2), (3, 1)])
        carrying = state._replace(held=(1,), gem_cells=((1, 2), None))
        next_state, outcome = step_agent(carrying, cfg, 0, Action.RIGHT)
        assert outcome.event is Event.MOVED
        assert next_state.held[0] == 1
