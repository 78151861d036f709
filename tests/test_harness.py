import gc
import hashlib
import math
import os
import random
import statistics
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path
from typing import get_type_hints

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
    abstract_pickup,
)
from bankworld.environment import (
    ACTIONS,
    ConfigError,
    Event,
    FixedLayout,
    GridConfig,
    REWARD_DEPOSIT,
    REWARD_PICKUP,
    RandomLayout,
    WorldState,
    gems_deposited,
    reset,
    step_agent,
)
from bankworld.harness import (
    EpisodeRecord,
    ParseError,
    RunConfig,
    SubtaskMDP,
    SummaryRow,
    compare,
    episodes_to_threshold,
    evaluate,
    oracle_episode_return,
    read_qtable,
    train,
    value_iteration_oracle,
    write_metrics,
    write_qtable,
    write_plot_script,
    write_summary,
)
from bankworld import abstraction, environment, harness, learner, planner
from bankworld.learner import (
    DROP_TABLE,
    PICKUP_TABLE,
    ControllerMode,
    Hyperparams,
    Method,
    QTable,
    controller_step,
    fresh_tables,
)

from conftest import (
    best_value,
    desk_config,
    greedy_subtask_return,
    is_terminal,
    q_value,
    reference_oracle,
    reference_read_qtable,
    reference_states,
    run_of,
    table_row,
)


def tiny_run(method=Method.OPTIONS, planner=True, episodes=30, seed=3, gems=1, agents=1):
    grid = GridConfig(5, 5, agents, gems, 60)
    return RunConfig(
        grid=grid,
        mode=ControllerMode(method, planner),
        hyper=Hyperparams(seed=seed),
        episodes=episodes,
        eval_runs=4,
    )


class TestTrain:
    def test_random_mode_logs_without_learning(self):
        cfg = tiny_run(Method.RANDOM, episodes=10)
        result = train(cfg)
        assert len(result.records) == 10
        assert result.tables == {}
        assert [r.episode for r in result.records] == list(range(10))
        assert all(r.epsilon == 1.0 for r in result.records)

    def test_same_config_bit_identical(self):
        cfg = tiny_run(episodes=20)
        a, b = train(cfg), train(cfg)
        assert a.records == b.records
        assert a.tables == b.tables

    def test_different_seeds_differ(self):
        a = train(tiny_run(seed=1, episodes=20))
        b = train(tiny_run(seed=2, episodes=20))
        assert a.records != b.records

    def test_pooled_desk_run_matches_a_serial_run(self, desk_runs):
        """The `desk_runs` fixture trains in worker processes when there is
        more than one core; the same run trained and evaluated in this
        process gives the same tables, records and planner calls."""
        key = (1, Method.OPTIONS, True)
        pooled, pooled_eval, _ = desk_runs(*key)
        cfg = desk_config(*key)
        serial = train(cfg)
        assert pooled.tables == serial.tables
        assert pooled.records == serial.records
        assert pooled.planner_calls == serial.planner_calls > 0
        assert pooled_eval == evaluate(serial.tables, cfg)

    def test_desk_scale_learning_progress(self, desk_runs):
        # 7x7, 2 agents, 2 gems, 2000 episodes x 300 steps
        result, _, _ = desk_runs(1, Method.OPTIONS)
        first = statistics.fmean(r.total_reward for r in result.records[:100])
        last = statistics.fmean(r.total_reward for r in result.records[-100:])
        assert last > first

    def test_trailing_mean_rises_across_thirds(self, desk_runs):
        result, _, _ = desk_runs(1, Method.OPTIONS)
        rewards = [r.total_reward for r in result.records]
        n = len(rewards)
        thirds = [statistics.fmean(rewards[k * n // 3:(k + 1) * n // 3]) for k in range(3)]
        span = max(rewards) - min(rewards)
        inversions = [a - b for a, b in zip(thirds, thirds[1:]) if b < a]
        assert len(inversions) <= 1
        assert all(gap <= 0.05 * span for gap in inversions)

    def test_episode_accounting_fields(self):
        cfg = tiny_run(episodes=5)
        for record in train(cfg).records:
            assert record.steps_used <= cfg.grid.step_limit
            assert 0 <= record.gems_dropped <= cfg.grid.num_gems


class TestEvaluate:
    def test_tables_untouched_and_run_count(self):
        cfg = tiny_run(episodes=40)
        result = train(cfg)
        rows_before = {k: {s: list(r) for s, r in t.rows.items()} for k, t in result.tables.items()}
        records = evaluate(result.tables, cfg)
        assert len(records) == 4
        assert {k: t.rows for k, t in result.tables.items()} == rows_before

    def test_random_policy_evaluable(self):
        cfg = tiny_run(Method.RANDOM, episodes=1)
        records = evaluate({}, cfg)
        assert len(records) == 4
        # derived seeds make the greedy-free runs differ from one another
        assert len({r.total_reward for r in records}) > 1

    def test_mode_table_mismatch_rejected(self):
        cfg = tiny_run(Method.OPTIONS)
        with pytest.raises(ConfigError):
            evaluate({"flat": QTable()}, cfg)

    def test_oracle_tables_reach_oracle_return(self):
        grid = GridConfig(5, 5, 1, 1, 100,
                          layout=FixedLayout(agents=((0, 0),), gems=((0, 2),)))
        tables = {
            PICKUP_TABLE: value_iteration_oracle(grid, PICKUP_TABLE),
            DROP_TABLE: value_iteration_oracle(grid, DROP_TABLE),
        }
        cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, True), Hyperparams(),
                        episodes=1, eval_runs=3)
        records = evaluate(tables, cfg)
        # d(agent,gem)=2, d(gem,bank)=2: 550 - 1 - 1
        assert [r.total_reward for r in records] == [548, 548, 548]
        assert oracle_episode_return(grid) == 548

    def test_desk_scale_optimum_matches_hand_arithmetic(self):
        # corners: each agent walks 6 to its gem and 6 more to the bank:
        # 2 * (50 + 500 - 5 - 5)
        from conftest import desk_grid
        assert oracle_episode_return(desk_grid()) == 1080

    def test_agent_starting_on_its_gem_steps_off_and_back(self):
        # pickup fires on cell entry only, so the optimal fix is a
        # two-step detour: -1, +50, -1, +500
        grid = GridConfig(5, 5, 1, 1, 100,
                          layout=FixedLayout(agents=((0, 2),), gems=((0, 2),)))
        assert oracle_episode_return(grid) == 548


class TestPoolSize:
    @pytest.mark.parametrize("cpus, arms, workers", [
        (1, 3, None),
        (None, 3, None),
        (2, 3, 2),
        (8, 3, 3),
        (8, 1, None),
    ])
    def test_one_worker_per_arm_up_to_the_cpu_count(self, monkeypatch, cpus, arms, workers):
        """None means the arms run in this process, one after another."""
        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(harness, "_arm_worker", lambda cfg: cfg)
        assert harness._run_arms(list(range(arms))) == list(range(arms))
        assert pools == ([] if workers is None else [workers])


class TestFlatWithoutPlanner:
    def test_trains_on_the_all_gems_projection(self):
        grid = GridConfig(5, 5, 2, 2, 40)
        cfg = RunConfig(grid, ControllerMode(Method.FLAT, planner_enabled=False),
                        Hyperparams(seed=0), episodes=15, eval_runs=2)
        result = train(cfg)
        assert result.planner_calls == 0
        assert set(result.tables) == {"flat"}
        from bankworld.abstraction import NoPlannerState
        assert all(type(s) is NoPlannerState for s in result.tables["flat"].rows)
        assert len(evaluate(result.tables, cfg)) == 2


def three_by_three():
    return GridConfig(3, 3, 1, 1, 50,
                      layout=FixedLayout(agents=((0, 0),), gems=((2, 2),)))


def exact(q: QTable) -> list:
    """Every entry of ``q`` as (state, action, type, repr): two tables give
    the same list only if every value is the same to the bit and type."""
    return [(s, a, type(v), repr(v)) for s, a, v in q.items()]


class CountingGamma(float):
    """A discount that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        self.products += 1
        return float.__mul__(self, other)

    __rmul__ = __mul__


def counted_solve(grid: GridConfig, task: str, gamma: float):
    """The solver's table at ``gamma`` and the products it made, with the
    products of one sweep, one per pair that goes on, and those of writing
    the rows, one per reward of such a pair and distinct state value."""
    mdp = SubtaskMDP(grid, task)
    steps = [mdp.step(s, a) for s in mdp.states() for a in ACTIONS]
    goes = {r for _, r, terminal in steps if not terminal}
    counted = CountingGamma(gamma)
    q = value_iteration_oracle(grid, task, counted)
    values = {(type(v), v) for v in map(max, q.rows.values())}
    sweep = sum(not terminal for _, _, terminal in steps)
    return q, counted.products, sweep, len(goes) * len(values)


# The products of checking one row from the values: at most one per action.
ONE_ROW = 5


class TestOracle:
    def test_one_step_drop_value(self):
        q = value_iteration_oracle(three_by_three(), DROP_TABLE, gamma=0.95)
        assert q_value(q, DropState((1, 0)), 3) == pytest.approx(500.0)  # Right into bank

    def test_two_step_drop_value(self):
        q = value_iteration_oracle(three_by_three(), DROP_TABLE, gamma=0.95)
        assert q_value(q, DropState((0, 0)), 3) == pytest.approx(-1 + 0.95 * 500)

    def test_reflection_symmetry_for_centered_bank(self):
        grid = three_by_three()
        q = value_iteration_oracle(grid, DROP_TABLE, gamma=0.95)
        flip = {0: 1, 1: 0, 2: 3, 3: 2, 4: 4}  # 180-degree rotation swaps actions
        for s in SubtaskMDP(grid, DROP_TABLE).states():
            mirrored = DropState((2 - s.agent_pos[0], 2 - s.agent_pos[1]))
            for a in range(5):
                assert q_value(q, s, a) == pytest.approx(q_value(q, mirrored, flip[a]))

    def test_refuses_oversized_spaces(self):
        with pytest.raises(ConfigError):
            value_iteration_oracle(GridConfig(25, 25, 1, 1, 100), PICKUP_TABLE)

    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    def test_limit_falls_at_the_exact_pair_count(self, task, monkeypatch):
        """Cells x (cells - 1) states to fetch, cells to deposit: the count
        taken from the grid alone is the enumerated count."""
        grid = GridConfig(5, 7, 1, 1, 100, bank=(1, 2))
        pairs = 5 * len(SubtaskMDP(grid, task).states())
        monkeypatch.setattr(harness, "ORACLE_PAIR_LIMIT", pairs)
        assert len(value_iteration_oracle(grid, task)) == pairs
        monkeypatch.setattr(harness, "ORACLE_PAIR_LIMIT", pairs - 1)
        with pytest.raises(ConfigError, match=f"^{pairs} state-action pairs exceed") as info:
            value_iteration_oracle(grid, task)
        assert info.value.field == "width"

    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    def test_refuses_before_enumerating_states(self, task, monkeypatch):
        def enumerate_nothing(mdp):
            raise AssertionError("states enumerated before the size check")

        monkeypatch.setattr(SubtaskMDP, "states", enumerate_nothing)
        monkeypatch.setattr(harness, "ORACLE_PAIR_LIMIT", 5 * 9 - 1)
        with pytest.raises(ConfigError):
            value_iteration_oracle(three_by_three(), task)

    @pytest.mark.parametrize("task, pairs", [
        (PICKUP_TABLE, 5 * 3000 * 3000 * (3000 * 3000 - 1)), (DROP_TABLE, 5 * 3000 * 3000)])
    def test_refuses_a_huge_grid_before_listing_a_cell(self, task, pairs):
        """`SubtaskMDP.goal_count` counts the goal cells without listing
        them, so the grid's per-cell move table is never built."""
        grid = GridConfig(3000, 3000, 1, 1, 100,
                          layout=FixedLayout(agents=((0, 0),), gems=((0, 1),)))
        with pytest.raises(ConfigError, match=f"^{pairs} state-action pairs exceed"):
            value_iteration_oracle(grid, task)
        assert "moves" not in vars(grid)

    @pytest.mark.parametrize("task, pairs", [
        (PICKUP_TABLE, 5 * 3000 * 3000 * (3000 * 3000 - 1)), (DROP_TABLE, 5 * 3000 * 3000)])
    def test_refuses_a_huge_default_layout_grid_before_listing_a_cell(
            self, task, pairs, monkeypatch):
        """`default_layout` finds one agent's and one gem's cell among its
        preferred cells, so the grid it lays out lists no row or column."""
        def bounded_range(*args):
            for n, i in enumerate(range(*args)):
                if n == 16:
                    raise AssertionError(f"the environment listed range{args}")
                yield i

        monkeypatch.setattr(environment, "range", bounded_range, raising=False)
        grid = GridConfig(3000, 3000, 1, 1, 100)
        with pytest.raises(ConfigError, match=f"^{pairs} state-action pairs exceed"):
            value_iteration_oracle(grid, task)
        assert "moves" not in vars(grid)

    @given(
        width=st.integers(3, 7),
        height=st.integers(3, 7),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_distance_is_the_fewest_steps_to_the_goal(self, width, height, pick):
        """The solver's sweep order rests on it: `SubtaskMDP.distances` gives
        each state the fewest `step` calls from it to a terminal transition,
        found here breadth-first over predecessors."""
        inner = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
        grid = GridConfig(width, height, 1, 1, 100, bank=inner[pick % len(inner)])
        for task in (PICKUP_TABLE, DROP_TABLE):
            mdp = SubtaskMDP(grid, task)
            states = mdp.states()
            preds = {s: [] for s in states}
            fewest = {}
            for s in states:
                for a in ACTIONS:
                    s_next, _, terminal = mdp.step(s, a)
                    if terminal:
                        fewest[s] = 1
                    else:
                        preds[s_next].append(s)
            queue = list(fewest)
            for s in queue:
                for p in preds[s]:
                    if p not in fewest:
                        fewest[p] = fewest[s] + 1
                        queue.append(p)
            assert fewest == dict(zip(states, mdp.distances()))

    @given(width=st.integers(3, 9), height=st.integers(3, 9), pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_states_are_listed_by_key(self, width, height, pick):
        """`SubtaskMDP.states` lists the states of `reference_states`, in its
        order, and the state at index k has the key k: its agent's cell id,
        r * width + c, times the number of goal cells, plus its goal's
        number, goals numbered as they first appear (`goal_cells`)."""
        inner = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
        grid = GridConfig(width, height, 1, 1, 100, bank=inner[pick % len(inner)])
        for task in (PICKUP_TABLE, DROP_TABLE):
            mdp = SubtaskMDP(grid, task)
            states = mdp.states()
            assert states == reference_states(grid, task)
            assert {type(s) for s in states} == {mdp.kind}
            goal_of = [getattr(s, "gem_pos", grid.bank) for s in states]
            number = {goal: n for n, goal in enumerate(dict.fromkeys(goal_of))}
            assert list(number) == mdp.goal_cells()
            keys = [(s.agent_pos[0] * width + s.agent_pos[1]) * len(number) + number[goal]
                    for s, goal in zip(states, goal_of)]
            assert keys == list(range(len(states)))

    def test_looping_greedy_rollout_reports_negative_infinity(self):
        grid = three_by_three()
        mdp = SubtaskMDP(grid, DROP_TABLE)
        noop_forever = QTable()
        for s in mdp.states():
            table_row(noop_forever, s)[:] = [0.0, 0.0, 0.0, 0.0, 1.0]
        ret = greedy_subtask_return(noop_forever, mdp, DropState((0, 0)), gamma=0.95)
        assert ret == float("-inf")

    def test_greedy_rollout_matches_value_exactly(self):
        grid = three_by_three()
        for task in (PICKUP_TABLE, DROP_TABLE):
            mdp = SubtaskMDP(grid, task)
            q = value_iteration_oracle(grid, task, gamma=0.95)
            for start in mdp.states():
                ret = greedy_subtask_return(q, mdp, start, gamma=0.95)
                assert ret == best_value(q, start)

    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    def test_values_match_closed_form(self, task):
        """With no-op reward 0, a state's value depends only on the Manhattan
        distance d >= 1 to its goal: d - 1 steps at -1, then the goal reward,
        unless idling forever at 0 is worth more. Every action value follows
        from the cell the action leads to."""
        gamma = 0.95
        grid = GridConfig(5, 7, 1, 1, 100, bank=(1, 2))
        goal_reward = 50 if task == PICKUP_TABLE else 500

        def value(d):
            walk = sum(-(gamma ** k) for k in range(d - 1)) + gamma ** (d - 1) * goal_reward
            return max(0.0, walk)

        moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0)}
        q = value_iteration_oracle(grid, task, gamma)
        assert len(q.rows) == len(SubtaskMDP(grid, task).states())
        for s, a, got in q.items():
            goal = s.gem_pos if task == PICKUP_TABLE else grid.bank
            (r, c), (dr, dc) = s.agent_pos, moves[a]
            d = abs(r - goal[0]) + abs(c - goal[1])
            if d == 0:
                continue
            if not (0 <= r + dr < grid.height and 0 <= c + dc < grid.width):
                want = -5 + gamma * value(d)
            elif (dr, dc) == (0, 0):
                want = gamma * value(d)
            elif (r + dr, c + dc) == goal:
                want = goal_reward
            else:
                want = -1 + gamma * value(abs(r + dr - goal[0]) + abs(c + dc - goal[1]))
            assert got == pytest.approx(want, abs=1e-9), (s, a)

    @given(
        width=st.integers(3, 6),
        height=st.integers(3, 6),
        task=st.sampled_from([PICKUP_TABLE, DROP_TABLE]),
        noop=st.sampled_from([0, -1]),
        pick=st.integers(0, 10**6),
        action=st.sampled_from(list(ACTIONS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_subtask_model_matches_environment(self, width, height, task, noop, pick, action):
        """The solver's transition model, the real environment and the
        options controller must agree transition-for-transition."""
        grid = GridConfig(width, height, 1, 1, 100, noop_reward=noop,
                          layout=FixedLayout(agents=((0, 0),), gems=((0, 1),)))
        mdp = SubtaskMDP(grid, task)
        states = mdp.states()
        s = states[pick % len(states)]
        s_next, reward, terminal = mdp.step(s, action)

        if task == PICKUP_TABLE:
            ground = WorldState((s.agent_pos,), (None,), (s.gem_pos,), 0)
        else:
            ground = WorldState((s.agent_pos,), (0,), (None,), 0)
        ground_next, outcome = step_agent(ground, grid, 0, action, assigned_gem=0)
        assert outcome.reward == reward
        if task == PICKUP_TABLE:
            assert terminal == (outcome.event is Event.ACQUIRED)
            if not terminal:
                assert abstract_pickup(ground_next, 0, 0) == s_next
        else:
            assert terminal == (outcome.event is Event.DROPPED)
            if not terminal:
                assert abstract_drop(ground_next, 0) == s_next

        # The controller, greedy on ``action`` in this state's row, takes the
        # same transition: one TD step on that entry and no other.
        mode, h = ControllerMode(Method.OPTIONS), Hyperparams()
        tables = fresh_tables(mode)
        table_row(tables[task], s)[action] = 1.0
        target = reward if terminal else reward + h.gamma * best_value(tables[task], s_next)
        controller_step(ground, grid, mode, tables, (0,), 0.0, h, random.Random(0), learn=True)
        want = 1.0 + h.alpha * (target - 1.0)
        expected = [want if a == action else 0.0 for a in ACTIONS]
        assert {key: t.rows for key, t in tables.items()} == {
            key: {s: expected} if key == task else {} for key in mode.table_keys()
        }

    @given(
        width=st.integers(3, 7),
        height=st.integers(3, 7),
        task=st.sampled_from([PICKUP_TABLE, DROP_TABLE]),
        noop=st.sampled_from([0, -1]),
        gamma=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_returned_table_is_an_exact_fixed_point(self, width, height, task, noop, gamma, pick):
        """One more Bellman sweep over the returned table changes no float,
        whatever the order the solver swept in, and every goal entry is the
        int goal reward."""
        inner = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
        grid = GridConfig(width, height, 1, 1, 100, noop_reward=noop,
                          bank=inner[pick % len(inner)])
        mdp = SubtaskMDP(grid, task)
        q = value_iteration_oracle(grid, task, gamma)
        goal_reward = REWARD_PICKUP if task == PICKUP_TABLE else REWARD_DEPOSIT
        assert len(q.rows) == len(mdp.states())
        for s, a, value in q.items():
            s_next, reward, terminal = mdp.step(s, ACTIONS[a])
            if terminal:
                assert type(value) is int and value == goal_reward == reward, (s, a)
            else:
                assert value == reward + gamma * max(q.rows[s_next]), (s, a)

    @pytest.mark.parametrize("gamma", [0, 0.0, 0.5, 0.95, 0.99, 1, 1.0])
    @pytest.mark.parametrize("noop", [0, -1])
    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    @given(width=st.integers(3, 8), height=st.integers(3, 8), pick=st.integers(0, 10**6))
    @settings(max_examples=4, deadline=None)
    def test_equals_the_reference_solver_bit_for_bit(self, task, noop, gamma, width, height, pick):
        """The rows of `reference_oracle`, which steps every pair and sweeps
        whole rows: the same states in the same order, and every value the
        same to the bit and of the same type. At gamma 1 with no-op reward 0
        the fixed point is not unique (idling forever keeps any value), so
        the exact-fixed-point test alone would not tell two of them apart.
        The int gammas make int entries beside equal floats (50 and 50.0),
        which a solver sharing equal values by value alone would merge."""
        inner = [(r, c) for r in range(1, height - 1) for c in range(1, width - 1)]
        grid = GridConfig(width, height, 1, 1, 100, noop_reward=noop,
                          bank=inner[pick % len(inner)])

        want = exact(reference_oracle(grid, task, gamma))
        assert exact(value_iteration_oracle(grid, task, gamma)) == want

    @pytest.mark.parametrize("noop, gamma, changing", [(0, 0.95, 1), (-1, 0.5, 7)],
                             ids=["certified", "swept-on"])
    def test_a_certifying_sweep_is_not_run(self, noop, gamma, changing):
        """Counted on a 7x7 fetch by a gamma that counts its products, which
        changes no value: a solve runs only the sweeps that change a value,
        one here at no-op reward 0 and seven at no-op reward -1 and gamma
        0.5, and the rows written after the last of them certify the fixed
        point, so the sweep that would change none is not run (with it, the
        two solves made 23,228 and 92,792 products). Trying the rows costs
        at most one row's products per sweep: the row of the state swept
        last is checked first, from the values."""
        grid = GridConfig(7, 7, 1, 1, 100, noop_reward=noop)
        q, products, sweep, rows = counted_solve(grid, PICKUP_TABLE, gamma)
        assert exact(q) == exact(value_iteration_oracle(grid, PICKUP_TABLE, gamma))
        assert products <= changing * (sweep + ONE_ROW) + rows

    @pytest.mark.parametrize("width, height, bank, noop, gamma, first", [
        (9, 7, (2, 6), 0, 0.99, True),
        (5, 7, (1, 2), -1, 0.5, False),
    ], ids=["certified-after-one-sweep", "swept-on"])
    def test_each_path_equals_the_reference_bit_for_bit(
        self, width, height, bank, noop, gamma, first
    ):
        """The bit-for-bit test draws solves of both kinds; these fetches pin
        one of each, told apart by the products: one certified by the rows
        written after its first sweep, and one whose first sweep's rows do
        not certify it, so it sweeps on. No solve whose rows fail by type
        alone was found to pin: with int gammas 0 and 1, every solve tried
        was certified after its first sweep (every bank of every grid from
        3x3 to 100 cells, six or seven banks of each larger one up to 15x15,
        and three banks each of 16x16 to 21x21, 25x17 and 30x14, both
        tasks, no-op rewards 0 and -1)."""
        grid = GridConfig(width, height, 1, 1, 100, bank=bank, noop_reward=noop)
        q, products, sweep, rows = counted_solve(grid, PICKUP_TABLE, gamma)
        assert (products <= sweep + ONE_ROW + rows) == first
        assert exact(q) == exact(reference_oracle(grid, PICKUP_TABLE, gamma))

    @pytest.mark.parametrize("holds", [True, False], ids=["tried-in-full", "never-tried"])
    @pytest.mark.parametrize("width, height, bank, task, noop, gamma", [
        (9, 7, (2, 6), PICKUP_TABLE, 0, 0.99),
        (5, 7, (1, 2), PICKUP_TABLE, -1, 0.5),
        (9, 7, (2, 6), DROP_TABLE, -1, 0.5),
        (7, 7, (3, 3), DROP_TABLE, 0, 1),
    ])
    def test_the_last_row_check_only_saves_work(
        self, monkeypatch, holds, width, height, bank, task, noop, gamma
    ):
        """`harness._last_row_holds` decides only whether the rows are tried
        as the certificate. Forced to say yes, they are written and checked
        in full after every sweep that changed a value, and where they fail
        they are dropped and the sweeps go on from the same values; forced to
        say no, the solver sweeps until a sweep changes no value. Either way
        it solves as the reference."""
        monkeypatch.setattr(harness, "_last_row_holds", lambda sweep, values, gamma: holds)
        grid = GridConfig(width, height, 1, 1, 100, bank=bank, noop_reward=noop)
        assert exact(value_iteration_oracle(grid, task, gamma)) == exact(
            reference_oracle(grid, task, gamma))

    @pytest.mark.parametrize("gamma", [0, 0.5, 0.95, 1, 1.0])
    @pytest.mark.parametrize("noop", [0, -1])
    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    def test_equal_values_share_one_object_in_rows_of_their_own(self, task, noop, gamma):
        """Within a solve, a value object stands for exactly one (type, repr)
        pair, so equal entries are one object and 50 is never 50.0; yet every
        state has its own row list, and writing into one row changes no
        other."""
        grid = GridConfig(5, 7, 1, 1, 100, bank=(1, 2), noop_reward=noop)
        q = value_iteration_oracle(grid, task, gamma)
        values = [v for _, _, v in q.items()]
        assert len({id(v) for v in values}) == len({(type(v), repr(v)) for v in values})
        rows = list(q.rows.values())
        assert len({id(row) for row in rows}) == len(rows) == len(SubtaskMDP(grid, task).states())
        before = [list(row) for row in rows]
        rows[0][:] = [12345.5] * 5
        assert [list(row) for row in rows[1:]] == before[1:]

    @pytest.mark.parametrize("task, entries, objects", [
        (PICKUP_TABLE, 252_000, 79), (DROP_TABLE, 1_125, 37)])
    def test_a_15x15_solve_shares_its_values_in_few_objects(self, task, entries, objects):
        """At the size README quotes, one value object per (type, repr) pair."""
        q = value_iteration_oracle(GridConfig(15, 15, 1, 1, 100), task, 0.95)
        values = [v for _, _, v in q.items()]
        assert len(values) == entries
        assert len({id(v) for v in values}) == len({(type(v), repr(v)) for v in values}) == objects

    @pytest.mark.parametrize("gamma", [1.5, 2.0, -0.5, math.inf, math.nan])
    def test_refuses_a_gamma_outside_the_unit_interval(self, gamma, monkeypatch):
        """Before it enumerates a state: past 1 the values grow without
        bound (or to inf), and below 0 the discount means nothing. The ends,
        0, 1, 0.0 and 1.0, solve in the bit-for-bit test."""
        def enumerate_nothing(mdp):
            raise AssertionError("states enumerated before the gamma check")

        monkeypatch.setattr(SubtaskMDP, "states", enumerate_nothing)
        with pytest.raises(ConfigError, match="gamma must be in") as info:
            value_iteration_oracle(three_by_three(), DROP_TABLE, gamma)
        assert info.value.field == "gamma"

    @pytest.mark.parametrize("task", [PICKUP_TABLE, DROP_TABLE])
    @pytest.mark.parametrize("width, height, bank", [(5, 7, (1, 2)), (15, 15, None)],
                             ids=["5x7", "15x15"])
    def test_steps_each_cell_action_and_goal_entry_once(
        self, task, width, height, bank, monkeypatch
    ):
        """`SubtaskMDP.step` runs once per case a pair's reward depends on:
        the agent's cell, the action, and whether the move enters the goal
        cell. That is one call per cell and action, and to fetch one more
        per move onto a cell that is not the bank, where stepping every
        pair would make 5 x cells x (cells - 1) calls; to deposit, the one
        state on each cell steps each action once, onto the bank or not."""
        grid = GridConfig(width, height, 1, 1, 100, bank=bank)
        mdp = SubtaskMDP(grid, task)
        step, calls = SubtaskMDP.step, []

        def spy(self, s, a):
            calls.append((s, a))
            return step(self, s, a)

        monkeypatch.setattr(SubtaskMDP, "step", spy)
        value_iteration_oracle(grid, task)

        def case(s, a):
            there = grid.moves[s.agent_pos][a][0]
            goal = s.gem_pos if task == PICKUP_TABLE else grid.bank
            return s.agent_pos, a, there != s.agent_pos and there == goal

        cells = width * height
        stepped = [case(s, a) for s, a in calls]
        assert len(set(stepped)) == len(stepped) <= 2 * 5 * cells
        assert set(stepped) == {case(s, a) for s in mdp.states() for a in ACTIONS}
        if task == PICKUP_TABLE:
            onto_gems = sum(there not in (pos, grid.bank)
                            for pos, moves in grid.moves.items() for there, _ in moves)
            assert len(calls) == 5 * cells + onto_gems
        else:
            assert len(calls) == 5 * cells

    @pytest.mark.parametrize("task", ["flat", "fetch", ""])
    def test_refuses_an_unknown_sub_task(self, task):
        with pytest.raises(ConfigError, match=f"^unknown sub-task {task!r}$"):
            value_iteration_oracle(three_by_three(), task)

    def test_an_11x11_fetch_peaks_under_70_bytes_a_pair(self):
        """Traced by `tracemalloc`, the solve peaks at 66.6 bytes a pair; the
        bound is set from the 67.3 (4.89 MB for 72,600 pairs) of the solver
        written as one function, and keeping the sweep columns alive while
        the table is built reads 77.0 (Python 3.10 to 3.13 alike)."""
        grid = GridConfig(11, 11, 1, 1, 100)
        tracemalloc.start()
        try:
            q = value_iteration_oracle(grid, PICKUP_TABLE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(q) == 72_600
        assert peak < 70 * len(q)


def corridor_pair(key: int, action: int) -> tuple:
    """A corridor of six cells keyed 0-5 from the left, with the grid's five
    actions: up and down hit a wall (-5) and stay, left and right move (-1)
    or leave by an end, worth 10 at the left and 20 at the right, and the
    NoOp loops back to its own cell at 0. Gives the successor's key (None
    where the pair leaves) and the reward."""
    if action in (0, 1):
        return key, -5
    if action == 4:
        return key, 0
    there = key + (-1 if action == 2 else 1)
    return (there, -1) if 0 <= there < 6 else (None, 10 if there < 0 else 20)


def plain_value_iteration(pairs: dict, order: list, gamma: float) -> list:
    """Value iteration said plainly, as `reference_oracle` says it: in-place
    sweeps in ``order`` that rewrite each row from the best values of its
    successors until a sweep leaves every row equal to what it was."""
    rows = {k: [0.0] * 5 for k in order}
    best = dict.fromkeys(order, 0.0)
    changed = True
    while changed:
        changed = False
        for k in order:
            new = [r if s is None else r + gamma * best[s] for s, r in pairs[k]]
            changed = changed or new != rows[k]
            rows[k], best[k] = new, max(new)
    return [rows[k] for k in sorted(rows)]


class TestSolve:
    """`harness._solve` on a hand-built task that is neither fetch nor
    deposit: it is given only the sweep columns, the sweep order and the
    two reward sets."""

    @pytest.mark.parametrize("gamma", [0, 0.5, 0.9, 1, 1.0])
    @pytest.mark.parametrize("order", [[0, 5, 1, 4, 2, 3], [3, 2, 4, 1, 5, 0]],
                             ids=["nearest-end-first", "farthest-first"])
    def test_a_corridor_solves_as_plain_value_iteration(self, order, gamma):
        """To the bit and the type; the int gammas make int values (at 1 the
        NoOp ties with every value), and the farthest-first order takes
        several sweeps."""
        pairs = {k: [corridor_pair(k, a) for a in range(5)] for k in range(6)}
        place = {k: i for i, k in enumerate(order)}
        sweep = []
        for a in range(5):
            sweep.append([-1 if pairs[k][a][0] is None else place[pairs[k][a][0]] for k in order])
            sweep.append([pairs[k][a][1] for k in order])
        ends = {r for k in order for s, r in pairs[k] if s is None}
        goes = {r for k in order for s, r in pairs[k] if s is not None}
        assert (ends, goes) == ({10, 20}, {-5, -1, 0})
        rows = harness._solve(sweep, order, ends, goes, gamma)
        want = plain_value_iteration(pairs, order, gamma)
        assert [[(type(v), repr(v)) for v in row] for row in rows] == [
            [(type(v), repr(v)) for v in row] for row in want]
        assert rows[0][2] == 10 and rows[5][3] == 20


def oracle_cases():
    """The 84 solves whose digests `oracle_digests.txt` pins."""
    grids = ((5, 7, (1, 2)), (7, 7, None), (9, 7, (2, 6)), (13, 9, (1, 1)))
    for (width, height, bank), task, noop, gamma in product(
            grids, (PICKUP_TABLE, DROP_TABLE), (0, -1), (0.0, 0.5, 0.95, 0.99, 1.0)):
        yield GridConfig(width, height, 1, 1, 100, bank=bank, noop_reward=noop), task, gamma
    for size, task in product((11, 15), (PICKUP_TABLE, DROP_TABLE)):
        yield GridConfig(size, size, 1, 1, 100), task, 0.95


def oracle_label(grid: GridConfig, task: str, gamma: float) -> str:
    bank = "%d,%d" % grid.bank
    return f"{grid.width}x{grid.height}/bank={bank}/{task}/noop={grid.noop_reward}/gamma={gamma!r}"


def oracle_digest(q: QTable) -> str:
    """sha256 over each entry's `StateCodec` text, action, value type and repr."""
    serialize = StateCodec().serialize
    text = "".join(f"{serialize(s)},{a},{type(v).__name__},{v!r}\n" for s, a, v in q.items())
    return hashlib.sha256(text.encode()).hexdigest()


class TestOracleDigests:
    """Every case of `oracle_cases` solves to the digest pinned in
    `oracle_digests.txt`: the exact solver's Q maps, value types and reprs
    to the byte, on grids, banks, no-op rewards and gammas that
    `TestOracleGoldenBytes` does not reach."""

    def test_every_case_solves_to_its_pinned_digest(self):
        pinned_file = Path(__file__).resolve().parent / "oracle_digests.txt"
        pinned = dict(line.split() for line in pinned_file.read_text().splitlines())
        solved = {oracle_label(grid, task, gamma):
                  oracle_digest(value_iteration_oracle(grid, task, gamma))
                  for grid, task, gamma in oracle_cases()}
        assert len(solved) == 84
        mismatches = [f"{label}: pinned {pinned.get(label)}, solved {solved.get(label)}"
                      for label in sorted(pinned.keys() | solved.keys())
                      if pinned.get(label) != solved.get(label)]
        assert not mismatches, "\n".join(mismatches)


class TestThreshold:
    def rec(self, episode, reward):
        return EpisodeRecord(episode, reward, 10, 1, 0.5)

    def test_first_crossing_reported(self):
        records = [self.rec(i, 0) for i in range(60)] + [self.rec(60 + i, 100) for i in range(60)]
        # the window ending at 99 holds 40 high + 10 low episodes: mean 80
        assert episodes_to_threshold(records, 80.0) == 99
        assert episodes_to_threshold(records, 80.1) == 100

    def test_first_window_meeting_the_threshold_is_its_last_episode(self):
        records = [self.rec(100 + i, 80) for i in range(60)]
        assert episodes_to_threshold(records, 80.0) == 149
        assert episodes_to_threshold(records[:50], 80.0) == 149
        assert episodes_to_threshold(records, 80.5) is None

    def test_not_reached_is_none(self):
        records = [self.rec(i, 0) for i in range(100)]
        assert episodes_to_threshold(records, 1.0) is None

    def test_short_logs_never_reach(self):
        records = [self.rec(i, 1000) for i in range(49)]
        assert episodes_to_threshold(records, 1.0) is None


def method_arms(planner=True):
    return [ControllerMode(m, planner) for m in Method]


PLANNER_ARMS = [ControllerMode(Method.OPTIONS, True), ControllerMode(Method.OPTIONS, False)]


class TestCompare:
    def test_three_rows_one_per_method(self):
        rows = [row for row, _, _ in compare(tiny_run(episodes=8), method_arms())]
        assert [row.method for row in rows] == ["random", "q", "q-options"]
        assert all(row.planner == "on" for row in rows)

    def test_planner_rows_and_ablation_hygiene(self):
        results = compare(tiny_run(episodes=8, gems=2), PLANNER_ARMS)
        rows = [row for row, _, _ in results]
        assert [row.planner for row in rows] == ["on", "off"]
        assert all(row.episodes_to_threshold is None for row in rows)

    def test_parallel_and_serial_execution_agree(self, monkeypatch):
        cfg = tiny_run(episodes=8)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = compare(cfg, method_arms())
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        parallel = compare(cfg, method_arms())
        assert serial == parallel

    def test_arms_share_resets(self):
        cfg = tiny_run(episodes=6)
        flat = train(RunConfig(cfg.grid, ControllerMode(Method.FLAT, True), cfg.hyper, 6))
        rand = train(RunConfig(cfg.grid, ControllerMode(Method.RANDOM, True), cfg.hyper, 6))
        # same (seed, episode) derivation: fixed layouts trivially agree;
        # the point is the record stream length and indices line up
        assert [r.episode for r in flat.records] == [r.episode for r in rand.records]


def stepwise_episode(cfg, tables, epsilon, rng, reset_seed, episode, learn):
    """`harness._run_episode` driven one timestep per `controller_step` call
    until `is_terminal`: the reference the episode loop must equal."""
    grid = cfg.grid
    state, alloc, total = reset(grid, reset_seed), (None,) * grid.num_agents, 0
    while not is_terminal(state, grid):
        state, alloc, outcomes = controller_step(
            state, grid, cfg.mode, tables, alloc, epsilon, cfg.hyper, rng, learn, timesteps=1
        )
        assert len(outcomes) == grid.num_agents
        total += sum(outcome.reward for outcome in outcomes)
    recorded_eps = 1.0 if cfg.mode.method is Method.RANDOM else epsilon
    return EpisodeRecord(episode, total, state.step, gems_deposited(state), recorded_eps)


class TestEpisodeLoop:
    """`_run_episode` runs a whole episode in one `controller_step` call. It
    must give the record, tables and random stream of one timestep per call."""

    agents = gems = 2
    alpha = 0.1  # the default step size

    @pytest.mark.parametrize("step_limit, ends_by", [(10, "limit"), (400, "deposit")])
    @pytest.mark.parametrize("layout", [None, RandomLayout()], ids=["fixed", "random"])
    @pytest.mark.parametrize("planner_on", [True, False])
    @pytest.mark.parametrize("method", list(Method))
    def test_one_call_equals_one_timestep_at_a_time(
        self, method, planner_on, layout, step_limit, ends_by
    ):
        gems = self.gems
        grid = GridConfig(5, 5, self.agents, gems, step_limit, layout=layout)
        hyper = Hyperparams(seed=3, alpha=self.alpha)
        cfg = RunConfig(grid, ControllerMode(method, planner_on), hyper, episodes=1)
        runs = []
        for run in (harness._run_episode, stepwise_episode):
            tables, rng, records = fresh_tables(cfg.mode), random.Random(3), []
            for episode in range(4):
                learn = episode < 3  # the last episode replays greedily
                eps = 0.3 if learn else 0.0
                records.append(run(cfg, tables, eps, rng, 40 + episode, episode, learn))
            state = {key: t.rows for key, t in tables.items()}
            runs.append((records, state, rng.getstate()))
        assert runs[0] == runs[1]
        records = runs[0][0]
        if ends_by == "limit":
            assert any(r.steps_used == step_limit and r.gems_dropped < gems for r in records)
        else:
            assert any(r.gems_dropped == gems and r.steps_used < step_limit for r in records)


class TestEpisodeLoopUnitStep(TestEpisodeLoop):
    """The same with step size 1, the one the 3x3 oracle-equivalence test
    trains with: each update overwrites its entry with the target, so a
    row's greedy action turns over within an episode far more often, and
    a greedy entry carried between updates must follow every turn."""

    alpha = 1.0


class TestEpisodeLoopThreeAgents(TestEpisodeLoop):
    """The same with three agents and three gems: the other agents' pickups
    often change the gem cells between an agent's turns, which a successor
    kept for that agent's next turn must see. The one-timestep side keeps
    nothing between calls."""

    agents = gems = 3


class TestEpisodeLoopMoreGems(TestEpisodeLoop):
    """The same with two agents and three gems: with the planner on, an
    agent that deposits is then allocated the gem left over, so its
    allocation slot changes between its turns, which a successor kept for
    that turn must see too."""

    gems = 3


class TestEpisodeLoopStart:
    """A call that starts mid-episode counts its timesteps from the state's
    step. Nothing inherits this class, so its test runs once."""

    def test_a_later_start_stops_at_the_step_limit(self):
        # Three timesteps remain, and no gem can be fetched in three moves.
        grid = GridConfig(5, 5, 2, 2, 10)
        state = reset(grid, 0)._replace(step=7)
        end, _, outcomes = controller_step(state, grid, ControllerMode(Method.RANDOM), {},
                                           (None, None), 0.0, Hyperparams(), random.Random(0),
                                           timesteps=50)
        assert end.step == 10 and len(outcomes) == 3 * 2


class TestPlannerCalls:
    """The planner is consulted once per agent per step when it is on, as
    `TrainResult.planner_calls` reports, and never when it is off. Each
    acting agent-step is one `step_agent` call and, for a learner, one
    `td_update`."""

    @pytest.mark.parametrize("agents", [1, 2])
    @pytest.mark.parametrize("planner_on", [True, False])
    @pytest.mark.parametrize("method", list(Method))
    def test_full_call_contract(self, monkeypatch, method, planner_on, agents):
        calls = {}

        def spy(module, name):
            original = getattr(module, name)
            calls[name] = 0

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        spy(planner, "assign")
        spy(learner, "step_agent")
        spy(learner, "td_update")
        result = train(tiny_run(method, planner_on, episodes=10, gems=2, agents=agents))
        steps = sum(r.steps_used for r in result.records) * agents
        assert calls["assign"] == result.planner_calls == (steps if planner_on else 0)
        if method is Method.RANDOM:
            assert calls["td_update"] == 0
        else:
            assert calls["td_update"] == calls["step_agent"] > 0
        if planner_on and agents == 2:
            # The agent whose gem is deposited first parks and takes no step.
            assert 0 < calls["step_agent"] < steps
        else:
            assert calls["step_agent"] == steps

    @pytest.mark.parametrize("method", list(Method))
    def test_spy_counts_the_reported_calls(self, monkeypatch, method):
        calls = []
        assign = planner.assign

        def spy(*args):
            calls.append(args)
            return assign(*args)

        monkeypatch.setattr(planner, "assign", spy)
        result = train(tiny_run(method, episodes=10, gems=2))
        assert len(calls) == result.planner_calls > 0

    @pytest.mark.parametrize("planner_on", [True, False])
    @pytest.mark.parametrize("method", [Method.FLAT, Method.OPTIONS])
    def test_one_projection_per_acting_agent_step(self, monkeypatch, method, planner_on):
        """A learner's update bootstraps from the agent's state at its next
        turn, so it projects once per acting agent-step, and again only where
        that state may have moved: once per agent at each episode start and
        at each pickup or deposit."""
        calls = Counter()
        project, step = learner.project, learner.step_agent

        def counting_project(*args):
            calls["project"] += 1
            return project(*args)

        def counting_step(*args):
            world, outcome = step(*args)
            calls["step_agent"] += 1
            calls[outcome.event] += 1
            return world, outcome

        monkeypatch.setattr(learner, "project", counting_project)
        monkeypatch.setattr(learner, "step_agent", counting_step)
        agents, episodes = 3, 20
        grid = GridConfig(7, 7, agents, 3, 100, layout=RandomLayout())
        train(RunConfig(grid, ControllerMode(method, planner_on), Hyperparams(seed=2), episodes))
        events = calls[Event.ACQUIRED] + calls[Event.DROPPED]
        assert events > 0
        assert calls["project"] <= calls["step_agent"] + agents * (episodes + events)

    @pytest.mark.parametrize("method, planner_on",
                             [(Method.FLAT, True), (Method.OPTIONS, True), (Method.OPTIONS, False)])
    def test_rows_are_read_once_per_projection(self, monkeypatch, method, planner_on):
        """A move that returns the state it was given projects no successor,
        and the rows are read once per projection, plus once per successor
        kept without a row, which another agent may have made since."""
        events, reads = [], Counter()

        class CountingRows(dict):
            def get(self, key, default=None):
                reads["rows"] += 1
                return super().get(key, default)

            def __getitem__(self, key):
                reads["rows"] += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                reads["rows"] += 1
                return super().__contains__(key)

        project, step, update = learner.project, learner.step_agent, learner.td_update

        def counting_project(*args):
            events.append("project")
            return project(*args)

        def counting_step(world, *args):
            after, outcome = step(world, *args)
            events.append("same" if after is world else "moved")
            return after, outcome

        def counting_update(row, a, r, next_row, terminal, *args):
            events.append("update")
            reads["rowless"] += next_row is None and not terminal
            return update(row, a, r, next_row, terminal, *args)

        monkeypatch.setattr(learner, "project", counting_project)
        monkeypatch.setattr(learner, "step_agent", counting_step)
        monkeypatch.setattr(learner, "td_update", counting_update)
        cfg = desk_config(1, method, planner_on)
        tables = fresh_tables(cfg.mode)
        for table in tables.values():
            table.rows = CountingRows()
        rng = random.Random(1)
        for episode in range(3):
            harness._run_episode(cfg, tables, 0.5, rng, episode, episode, learn=True)
        # A projection between a move and its update is that move's successor.
        successors, window = Counter(), None
        for event in events:
            if event == "update":
                successors[tuple(window)] += 1
                window = None
            elif event != "project":
                window = [event, 0]
            elif window is not None:
                window[1] += 1
        assert successors[("same", 0)] > 0 and successors[("moved", 1)] > 0
        assert set(successors) <= {("same", 0), ("moved", 0), ("moved", 1)}
        projections = events.count("project")
        assert projections <= reads["rows"] <= projections + reads["rowless"]

    @pytest.mark.parametrize("method", list(Method))
    def test_planner_off_never_calls_the_planner(self, monkeypatch, method):
        def refuse(*args):
            raise AssertionError("planner called with the planner off")

        monkeypatch.setattr(planner, "assign", refuse)
        monkeypatch.setattr(planner, "release", refuse)
        cfg = tiny_run(method, planner=False, episodes=10, gems=2)
        result = train(cfg)
        assert len(evaluate(result.tables, cfg)) == cfg.eval_runs
        assert result.planner_calls == 0


class TestPersistence:
    def test_empty_metrics_is_header_only(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics([], path)
        assert path.read_bytes() == b"episode,total_reward,steps_used,gems_dropped,epsilon\n"

    def test_three_records_four_lines(self, tmp_path):
        path = tmp_path / "metrics.csv"
        records = [EpisodeRecord(i, -10 * i, 5, 0, 0.5) for i in range(3)]
        write_metrics(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1] == "0,0,5,0,0.5"
        assert "\r" not in path.read_text()

    def test_qtable_round_trip_identity(self, tmp_path):
        cfg = tiny_run(episodes=25, gems=2)
        result = train(cfg)
        path = tmp_path / "qtable.csv"
        write_qtable(result.tables, path, cfg.mode, cfg.hyper)
        mode, hyper, tables = read_qtable(path)
        assert mode == cfg.mode
        assert hyper == cfg.hyper
        assert tables == result.tables

    @pytest.mark.parametrize("method, planner, digest", [
        (Method.FLAT, True, "d9ab12ec57d3765dd5bbd3f27d015127417bec9fa888ff58be9695f3cfb64e51"),
        (Method.OPTIONS, False, "abe15d29b8f2539779f3c575d01f81d68ce4972777934ef870645037aa00ccbd"),
    ])
    def test_trained_qtable_bytes_pinned(self, tmp_path, method, planner, digest):
        """Trained tables of the flat (``F``) and planner-off (``N``) forms,
        pinned to the byte, as `TestOracleGoldenBytes` pins ``P`` and ``D``."""
        cfg = tiny_run(method, planner, episodes=40, gems=2)
        result = train(cfg)
        path = tmp_path / "qtable.csv"
        write_qtable(result.tables, path, cfg.mode, cfg.hyper)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert read_qtable(path)[2] == result.tables

    def test_qtable_file_is_sorted_and_stable(self, tmp_path):
        cfg = tiny_run(episodes=10)
        result = train(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_qtable(result.tables, a, cfg.mode, cfg.hyper)
        write_qtable(result.tables, b, cfg.mode, cfg.hyper)
        assert a.read_bytes() == b.read_bytes()
        body = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        sections = a.read_text().splitlines()
        assert sections[1] == "# option=drop"
        assert body == sorted(body)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# mode=q-options planner=on alpha=0.1 gamma=0.95 eps_start=1.0"
            " eps_end=0.05 eps_decay_fraction=0.8 alpha_visit_decay=none seed=0\n"
            "# option=pickup\n"
            "P,0,0,1,1,9,3.5\n"
        )
        with pytest.raises(ParseError, match=r"bad.csv:3"):
            read_qtable(path)

    @pytest.mark.parametrize("records, line", [
        ("P,0,0,1,1,0,nan\n", 3),
        ("P,0,0,1,1,0,inf\n", 3),
        ("P,0,0,1,1,0,-inf\n", 3),
        ("P,0,0,1,1,0,3.5\nP,0,0,1,1,1,2.0\nP,0,0,1,1,0,4.5\n", 5),
        # Only the text write_qtable writes: one ASCII digit 0-4, a repr number.
        ("P,0,0,1,1,+3,1.0\n", 3),
        ("P,0,0,1,1, 3,1.0\n", 3),
        ("P,0,0,1,1,03,1.0\n", 3),
        ("P,0,0,1,1,\u0663,1.0\n", 3),
        ("P,0,0,1,1,5,1.0\n", 3),
        ("P,0,0,1,1,3,1_0.5\n", 3),
        ("P,0,0,1,1,3,+1.0\n", 3),
        ("P,0,0,1,1,3, 1.0\n", 3),
        ("P,0,0,1,1,3,01.0\n", 3),
        ("P,0,0,1,1,3,1.\n", 3),
        ("P,0,0,1,1,3,1E+16\n", 3),
        ("P,0,0,1,1,3,\u0661.0\n", 3),
        ("P,0,0,1,1,3,1e999\n", 3),
    ])
    def test_non_finite_and_repeated_records_rejected(self, tmp_path, records, line):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# mode=q-options planner=on alpha=0.1 gamma=0.95 eps_start=1.0"
            " eps_end=0.05 eps_decay_fraction=0.8 alpha_visit_decay=none seed=0\n"
            "# option=pickup\n" + records
        )
        with pytest.raises(ParseError, match=rf"bad.csv:{line}:"):
            read_qtable(path)

    @pytest.mark.parametrize("text", ["1e+999", "-1e+999"])
    def test_a_value_in_repr_form_that_parses_to_inf_names_its_line(self, tmp_path, text):
        """It has the form `repr` writes, unlike ``1e999`` (repr signs the
        exponent), so the pattern passes it; its value is not finite."""
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.HEADER}\n# option=pickup\nP,0,0,1,1,0,3.5\nP,0,0,1,1,1,{text}\n")
        assert outcome(read_qtable, path) == f"{path}:4: value {text} is not finite"

    def test_missing_actions_are_refused(self, tmp_path):
        """A row the writer writes has all five records; a lone record of
        action 3 is refused on its line, where action 0 was due."""
        path = tmp_path / "partial.csv"
        path.write_text(
            "# mode=q-options planner=on alpha=0.1 gamma=0.95 eps_start=1.0"
            " eps_end=0.05 eps_decay_fraction=0.8 alpha_visit_decay=none seed=0\n"
            "# option=pickup\n"
            "P,0,0,1,1,3,2.5\n"
        )
        assert outcome(read_qtable, path) == f"{path}:3: expected action 0 of P,0,0,1,1"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("P,0,0,1,1,0,3.5\n")
        with pytest.raises(ParseError, match=":1"):
            read_qtable(path)

    HEADER = (
        "# mode=q-options planner=on alpha=0.1 gamma=0.95 eps_start=1.0"
        " eps_end=0.05 eps_decay_fraction=0.8 alpha_visit_decay=none seed=0"
    )

    @pytest.mark.parametrize("header", [
        HEADER.replace("planner=on", "planner=maybe"),
        HEADER + " alpha=0.5",
        HEADER + " colour=blue",
        HEADER.replace("seed=0", "seed=+7"),
        HEADER.replace("seed=0", "seed=07"),
        HEADER.replace("seed=0", "seed=7.0"),
        HEADER.replace("seed=0", "seed=1_0"),
        HEADER.replace("alpha=0.1", "alpha=+0.1"),
        HEADER.replace("alpha=0.1", "alpha=.1"),
        HEADER.replace("gamma=0.95", "gamma=0_0.95"),
        HEADER.replace("gamma=0.95", "gamma=\u0660.95"),
        # Only the "# " that write_qtable writes before the settings.
        HEADER.replace("# mode=", "#mode="),
        HEADER.replace("# mode=", "### mode="),
        HEADER.replace("# mode=", "#  mode="),
    ], ids=["planner-word", "repeated-key", "unknown-key", "seed-plus", "seed-leading-zero",
            "seed-fraction", "seed-underscore", "alpha-plus", "alpha-bare-fraction",
            "gamma-underscore", "gamma-arabic-indic", "no-space", "three-hashes", "two-spaces"])
    def test_malformed_header_names_line_1(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n# option=pickup\nP,0,0,1,1,0,3.5\n")
        with pytest.raises(ParseError, match=r"bad.csv:1: bad header \("):
            read_qtable(path)

    @pytest.mark.parametrize("decay", ["0.0", "-1.0", "nan", "inf", "100.0"])
    def test_bad_visit_decay_names_line_1(self, tmp_path, decay):
        path = tmp_path / "bad.csv"
        header = self.HEADER.replace("alpha_visit_decay=none", f"alpha_visit_decay={decay}")
        path.write_text(header + "\n# option=pickup\nP,0,0,1,1,0,3.5\n")
        with pytest.raises(ParseError, match=r"bad.csv:1: bad header .*alpha_visit_decay"):
            read_qtable(path)

    def test_negative_seed_names_line_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = self.HEADER.replace("seed=0", "seed=-5")
        path.write_text(header + "\n# option=pickup\nP,0,0,1,1,0,3.5\n")
        with pytest.raises(ParseError, match=r"bad.csv:1: bad header .*seed"):
            read_qtable(path)

    @pytest.mark.parametrize("header, section, record", [
        (HEADER, "drop", "P,0,0,1,1"),
        (HEADER, "pickup", "D,0,0"),
        (HEADER, "pickup", "F,0,0,_,_,0"),
        (HEADER, "pickup", "N,0,0,0,1:1"),
        (HEADER.replace("planner=on", "planner=off"), "pickup", "P,0,0,1,1"),
        (HEADER.replace("mode=q-options", "mode=q"), "flat", "P,0,0,1,1"),
    ])
    def test_record_must_hold_its_tables_projection(self, tmp_path, header, section, record):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n# option={section}\n{record},0,1.0\n")
        with pytest.raises(ParseError, match=rf"bad.csv:3: {record} is not a"):
            read_qtable(path)

    @pytest.mark.parametrize("planner_on", [True, False])
    @pytest.mark.parametrize("method", [Method.FLAT, Method.OPTIONS])
    def test_projection_names_the_kind_the_controller_writes(self, method, planner_on):
        cfg = tiny_run(method, planner_on, episodes=10, gems=2, agents=2)
        tables = train(cfg).tables
        assert tables and all(
            type(s) is cfg.mode.projection(key) for key, t in tables.items() for s in t.rows
        )

    @pytest.mark.parametrize("section", ["bogus", "flat"])
    def test_section_must_name_a_table_of_the_mode(self, tmp_path, section):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{self.HEADER}\n# option=pickup\n{run_of('P,0,0,1,1')}# option={section}\n"
            f"{run_of('D,0,0')}"
        )
        with pytest.raises(ParseError, match=rf"bad.csv:8: no '{section}' table"):
            read_qtable(path)

    def test_header_without_visit_decay_and_a_lone_section(self, tmp_path):
        # The form an older file takes, holding one table as the oracle writes it.
        path = tmp_path / "old.csv"
        header = self.HEADER.replace(" alpha_visit_decay=none", "")
        path.write_text(header + "\n# option=drop\n" + run_of("D,0,0"))
        mode, hyper, tables = read_qtable(path)
        assert hyper == Hyperparams() and mode == ControllerMode(Method.OPTIONS, True)
        assert set(tables) == {"drop"}

    def test_readme_example_header_is_the_one_written(self):
        """README's Q-table section shows the header of an options run with
        the planner off, default settings and seed 3, as written and read."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        [line] = [line for line in readme.read_text().splitlines() if line.startswith("# mode=")]
        mode, hyper = ControllerMode(Method.OPTIONS, False), Hyperparams(seed=3)
        assert line == harness._hyper_header(mode, hyper)
        assert harness._parse_header(line, readme) == (mode, hyper)

    def test_readme_example_states_are_the_ones_written(self):
        """README's state table shows one state of each projection; each
        reads with a fresh codec and is written back as the same text."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [line.split("|") for line in readme.read_text().splitlines()
                if line.startswith("| `") and line.count("|") == 5]
        examples = [cells[4].strip().strip("`") for cells in rows]
        assert examples == ["P,1,2,4,4", "D,7,3", "F,0,0,_,_,0", "N,1,1,0,0:2,_,_"]
        for text in examples:
            codec = StateCodec()
            assert codec.serialize(codec.parse(text)) == text

    def test_summary_not_reached_sentinel(self, tmp_path):
        rows = [SummaryRow("q-options", "off", 12.5, 3.25, None)]
        path = tmp_path / "summary.csv"
        write_summary(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "method,planner,mean_eval_reward,std_eval_reward,episodes_to_threshold"
        assert text[1] == "q-options,off,12.5,3.25,not-reached"

    def test_plot_script_compiles_and_references_csv(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        write_metrics([], metrics)
        script = write_plot_script(metrics)
        text = script.read_text()
        compile(text, str(script), "exec")
        assert 'here / "metrics.csv"' in text

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=5, max_size=5,
        ),
        row=st.integers(0, 4),
        col=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact_for_arbitrary_floats(self, tmp_path_factory, values, row, col):
        q = QTable()
        table_row(q, PickupState((row, col), (1, 1)))[:] = values
        tables = {PICKUP_TABLE: q}
        path = tmp_path_factory.mktemp("qt") / "q.csv"
        write_qtable(tables, path, ControllerMode(Method.OPTIONS, True), Hyperparams())
        _, _, loaded = read_qtable(path)
        assert loaded[PICKUP_TABLE].rows == q.rows


# Coordinates 0-12, so that "1" is a prefix of "10"-"12" in a state's text.
COORD = st.integers(0, 12)
CELL = st.tuples(COORD, COORD)
ROW = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5)


def states_of(kind, gems):
    """States of one projection kind; absent targets and gem cells included."""
    if kind is PickupState:
        return st.builds(PickupState, CELL, CELL)
    if kind is DropState:
        return st.builds(DropState, CELL)
    if kind is FlatState:
        return st.builds(FlatState, CELL, st.none() | CELL, st.booleans())
    return st.builds(NoPlannerState, CELL, st.booleans(), st.tuples(*[st.none() | CELL] * gems))


def outcome(read, path):
    """What ``read`` returns for ``path``, or the text of its ParseError."""
    try:
        return read(path)
    except ParseError as exc:
        return str(exc)


BAD_ACTIONS = ["5", "9", "03", "+1", " 1", "", "\u0663"]
BAD_VALUES = ["nan", "inf", "-inf", "1e999", "+1.0", "01.0", "1.", ".5", "1_0.5", " 1.0", "x", ""]
OTHER_STATES = ["P,0,0,1,1", "D,0,0", "F,0,0,_,_,0", "N,0,0,0,1:1", "N,1,1,1,_,2:2", "X,1,2",
                "P,00,1,1,1"]
BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"]


def mutate(data, lines: list[str]) -> None:
    """Change one line of a Q-table file in place: a blank line, a section
    line, a repeated, swapped or dropped line, a dropped record, two records
    swapped, a bad action or value, a state of another kind, a record before
    any section, or a line break inside a line."""
    i = data.draw(st.integers(0, len(lines) - 1)) if lines else 0
    line = lines[i] if lines else ""
    records = [k for k, text in enumerate(lines) if text and not text.startswith("#")]
    op = data.draw(st.sampled_from(
        ["blank", "section", "repeat", "swap", "drop", "drop-record", "swap-records", "action",
         "value", "state", "before", "break"]))
    record = line.rsplit(",", 2) if line.count(",") >= 2 else [line, "0", "1.0"]
    if op == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", "  ", "\t"])))
    elif op == "section":
        key = data.draw(st.sampled_from(["pickup", "drop", "flat", "bogus"]))
        lines.insert(i, f"# option={key}")
    elif op == "repeat":
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    elif op == "swap" and lines:
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "drop" and lines:
        del lines[i]
    elif op == "drop-record" and records:
        del lines[data.draw(st.sampled_from(records))]
    elif op == "swap-records" and len(records) > 1:
        j = data.draw(st.integers(0, len(records) - 2))
        a, b = records[j], records[j + 1]  # next to each other, as in a run
        lines[a], lines[b] = lines[b], lines[a]
    elif op == "action":
        lines[i:i + 1] = [f"{record[0]},{data.draw(st.sampled_from(BAD_ACTIONS))},{record[2]}"]
    elif op == "value":
        lines[i:i + 1] = [f"{record[0]},{record[1]},{data.draw(st.sampled_from(BAD_VALUES))}"]
    elif op == "state":
        lines[i:i + 1] = [f"{data.draw(st.sampled_from(OTHER_STATES))},{record[1]},{record[2]}"]
    elif op == "before":
        lines.insert(min(1, len(lines)), ",".join(record))
    elif op == "break":
        at = data.draw(st.integers(0, len(line)))
        lines[i:i + 1] = [line[:at] + data.draw(st.sampled_from(BREAKS)) + line[at:]]


class CountedPattern:
    """A compiled pattern that counts its ``fullmatch`` calls in ``counts``."""

    def __init__(self, pattern, counts: Counter):
        self.pattern, self.counts = pattern, counts

    def fullmatch(self, text):
        self.counts[self.pattern.pattern] += 1
        return self.pattern.fullmatch(text)


class TestQTableCodec:
    """`write_qtable` writes each row's five records together and
    `read_qtable` reads them back line by line; the bytes are those of
    sorting every record line as text."""

    HEADER = TestPersistence.HEADER
    RECORDS = "# option=pickup\n" + run_of("P,0,0,1,1", "3.5") + run_of("P,2,3,1,1", "-1.25")
    RUN = run_of("P,0,0,1,1").splitlines(keepends=True)

    @pytest.mark.parametrize("mode", [
        ControllerMode(Method.OPTIONS, True),
        ControllerMode(Method.FLAT, True),
        ControllerMode(Method.OPTIONS, False),
    ], ids=["pickup-drop", "flat", "no-planner"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_written_in_record_text_order(self, tmp_path_factory, mode, data):
        gems = data.draw(st.integers(1, 3))  # one gem count for the whole file
        tables = {key: QTable() for key in mode.table_keys()}
        for key, table in tables.items():
            for state in data.draw(st.lists(states_of(mode.projection(key), gems), max_size=40)):
                table.rows[state] = data.draw(ROW)
        path = tmp_path_factory.mktemp("order") / "q.csv"
        hyper = Hyperparams()
        write_qtable(tables, path, mode, hyper)
        for section in path.read_text().split("# option=")[1:]:
            body = section.splitlines()[1:]
            assert body == sorted(body)
        # Every record line of every section sorted as text, then joined.
        lines = [harness._hyper_header(mode, hyper)]
        serialize = StateCodec().serialize
        for key in sorted(tables):
            lines.append(f"# option={key}")
            lines.extend(sorted(f"{serialize(s)},{a},{v!r}"
                                for s, row in tables[key].rows.items() for a, v in enumerate(row)))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert read_qtable(path)[2] == tables

    def test_traced_peaks_stay_near_the_file_size(self, tmp_path):
        # A planner-off table of about 6,600 rows (an 829 kB file).
        grid = GridConfig(9, 9, 2, 3, 200, layout=RandomLayout())
        cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, False), Hyperparams(seed=1), 70)
        trained = train(cfg).tables
        assert sum(len(t.rows) for t in trained.values()) > 5000
        path = tmp_path / "qtable.csv"
        tracemalloc.start()
        try:
            write_qtable(trained, path, cfg.mode, cfg.hyper)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            _, _, tables = read_qtable(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert write_peak < 2 * size
        assert read_peak < 5 * size
        assert tables == trained
        # Equal field values read back are one object, as training shares them.
        for field in zip(*[s for t in tables.values() for s in t.rows]):
            assert len(set(map(id, field))) == len(set(field))

    def test_a_state_that_cannot_be_written_leaves_no_file(self, tmp_path):
        q = QTable()
        table_row(q, PickupState((0, 0), (1, 1)))
        table_row(q, ("not", "a state"))
        path = tmp_path / "q.csv"
        with pytest.raises(TypeError, match="not an abstract state"):
            write_qtable({PICKUP_TABLE: q}, path, ControllerMode(Method.OPTIONS), Hyperparams())
        assert not path.exists()

    @pytest.mark.parametrize("end", ["\n", ""], ids=["ended", "open"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_each_line_end_reads_as_lf(self, tmp_path, newline, end):
        """A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; the last one may
        end at the end of the file instead."""
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        text = f"{self.HEADER}\n{self.RECORDS}"
        lf.write_bytes(text.encode())
        other.write_bytes((text[:-1].replace("\n", newline) + end).encode())
        assert read_qtable(other) == read_qtable(lf)
        assert len(read_qtable(lf)[2][PICKUP_TABLE].rows) == 2

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
                             ids=["vt", "ff", "fs", "nel", "ls"])
    def test_no_other_character_ends_a_line(self, tmp_path, char):
        """`str.splitlines` splits at these too; the reader keeps them in
        the line, so the value before one is no number, and is named."""
        path = tmp_path / "q.csv"
        text = f"{self.HEADER}\n{self.RECORDS}".replace("3.5\n", f"3.5{char}\n", 1)
        path.write_bytes(text.encode())
        assert outcome(read_qtable, path) == (
            f"{path}:3: value {'3.5' + char!r} is not a number as repr writes it")

    def test_blank_lines_are_skipped_and_later_lines_keep_their_numbers(self, tmp_path):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text(f"{self.HEADER}\n{self.RECORDS}")
        spaced.write_text(f"{self.HEADER}\n# option=pickup\n{run_of('P,0,0,1,1', '3.5')}\n  \n"
                          f"{run_of('P,2,3,1,1', '-1.25')}")
        assert read_qtable(spaced) == read_qtable(plain)
        # Header, section, a run, two blank lines, a run, then line 15.
        with open(spaced, "a") as f:
            f.write("P,4,4,1,1,9,1.0\n")
        with pytest.raises(ParseError, match=r"spaced.csv:15: expected action 0 of P,4,4,1,1$"):
            read_qtable(spaced)

    @pytest.mark.parametrize("line", ["garbage", "1,2"])
    def test_a_record_short_of_two_commas_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.HEADER}\n{self.RECORDS}{line}\n")
        with pytest.raises(ParseError, match=r"^\S*bad.csv:13: expected state,action,value$"):
            read_qtable(path)

    @pytest.mark.parametrize("records, error", [
        (RUN[0] + RUN[2], "4: expected action 1 of P,0,0,1,1"),
        (RUN[0] + RUN[1] + run_of("P,2,3,1,1"), "5: expected action 2 of P,0,0,1,1"),
        (RUN[0] + RUN[1] + "# option=drop\n" + run_of("D,0,0"),
         "5: expected action 2 of P,0,0,1,1"),
        (RUN[0] + RUN[1] + "\n" + "".join(RUN[2:]), "5: expected action 2 of P,0,0,1,1"),
        ("".join(RUN[:4]), "7: expected action 4 of P,0,0,1,1"),
        ("".join(RUN) + run_of("P,2,3,1,1") + "".join(RUN), "13: a second run of P,0,0,1,1"),
    ], ids=["skipped-action", "cut-by-a-state", "cut-by-a-section", "cut-by-a-blank-line",
            "cut-by-the-end", "second-run"])
    def test_a_run_not_as_written_names_its_line(self, tmp_path, records, error):
        """A state's five records stand on consecutive lines, actions 0 to 4
        in order, once per table; the end of the file is the line after the
        last."""
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.HEADER}\n# option=pickup\n{records}")
        assert outcome(read_qtable, path) == outcome(reference_read_qtable, path) == (
            f"{path}:{error}")

    @pytest.mark.parametrize("text", [
        "",
        "P,0,0,1,1,0,3.5\n",
        HEADER.replace("seed=0", "seed=x") + "\n",
        HEADER + "\nP,0,0,1,1,0,3.5\n",
        HEADER + "\n# option=pickup\nP,0,0,1,1,0,nan\n",
    ], ids=["empty", "no-header", "bad-header", "no-section", "bad-record"])
    def test_parse_error_leaves_no_file_open(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                read_qtable(path)
            except ParseError:
                pass
            else:
                pytest.fail("no ParseError")
            gc.collect()  # a file still open is closed here, with a ResourceWarning
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("mode", [
        ControllerMode(Method.OPTIONS, True),
        ControllerMode(Method.FLAT, True),
        ControllerMode(Method.OPTIONS, False),
    ], ids=["pickup-drop", "flat", "no-planner"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_reader_agrees_with_the_reference(self, tmp_path_factory, mode, data):
        """A written file with up to three lines changed reads as the plain
        reference reads it: equal tables, or the same error on the same line."""
        gems = data.draw(st.integers(1, 3))
        tables = {key: QTable() for key in mode.table_keys()}
        for key, table in tables.items():
            for state in data.draw(st.lists(states_of(mode.projection(key), gems), max_size=5)):
                table.rows[state] = data.draw(ROW)
        path = tmp_path_factory.mktemp("diff") / "q.csv"
        write_qtable(tables, path, mode, Hyperparams())
        lines = path.read_text().splitlines()
        for _ in range(data.draw(st.integers(0, 3))):
            mutate(data, lines)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        end = data.draw(st.sampled_from([newline, ""]))
        path.write_bytes((newline.join(lines) + end).encode())
        assert outcome(read_qtable, path) == outcome(reference_read_qtable, path)

    @pytest.mark.parametrize("extra", ["", "\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028", "\n\n"],
                             ids=["none", "lf", "crlf", "cr", "vt", "ff", "ls", "blank"])
    @pytest.mark.parametrize("at", ["run-start", "in-state", "before-action", "in-value",
                                    "mid-run", "file-end"])
    def test_a_line_break_anywhere_in_a_run(self, tmp_path, extra, at):
        """A break put into the second run of a written table, or after its
        last line, reads as the reference reads it."""
        q = QTable()
        for r, c in product(range(2), range(2)):
            q.rows[PickupState((r, c), (c, r))] = [0.5 * r, -1.25, 0.0, float(c), 1e-3]
        path = tmp_path / "q.csv"
        write_qtable({PICKUP_TABLE: q}, path, ControllerMode(Method.OPTIONS), Hyperparams())
        text = path.read_text()
        head = "P,0,1,1,0"
        start = text.index(f"\n{head},0,") + 1
        cut = {"run-start": start, "in-state": start + 3, "before-action": start + len(head) + 1,
               "in-value": start + len(head) + 4, "mid-run": text.index(f"{head},2,"),
               "file-end": len(text)}[at]
        path.write_bytes((text[:cut] + extra + text[cut:]).encode())
        got = outcome(read_qtable, path)
        assert got == outcome(reference_read_qtable, path)
        if not extra:
            assert got[2] == {PICKUP_TABLE: q}

    def test_field_texts_decoded_once_and_rows_matched_once(self, tmp_path, monkeypatch):
        """On a planner-off table, each field decoder runs once per distinct
        text (per distinct element text for the gem cells), and the state
        pattern runs once per row, not once per record."""
        grid = GridConfig(9, 9, 2, 3, 200, layout=RandomLayout())
        cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, False), Hyperparams(seed=1), 30)
        trained = train(cfg).tables
        path = tmp_path / "qtable.csv"
        write_qtable(trained, path, cfg.mode, cfg.hyper)
        field_kinds = list(get_type_hints(NoPlannerState).values())
        pattern = abstraction._FIELDS[NoPlannerState][1]
        decoded, matched = Counter(), Counter()
        for kind, (encode, text_pattern, decode) in list(abstraction._KINDS.items()):
            def counted(text, kind=kind, decode=decode):
                decoded[kind, text] += 1
                return decode(text)
            monkeypatch.setitem(abstraction._KINDS, kind, (encode, text_pattern, counted))
        for cls, (kinds, cls_pattern) in list(abstraction._FIELDS.items()):
            counted_pattern = CountedPattern(cls_pattern, matched)
            monkeypatch.setitem(abstraction._FIELDS, cls, (kinds, counted_pattern))
        assert read_qtable(path)[2] == trained
        rows = [line.rsplit(",", 2)[0] for line in path.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 5 * sum(len(t.rows) for t in trained.values())
        assert sum(matched.values()) == len(set(rows)) == len(rows) // 5
        texts = Counter()
        for text in set(rows):
            *scalars, cells = pattern.fullmatch(text).groups()
            texts.update(zip(field_kinds, scalars))
            texts.update((field_kinds[2], cell) for cell in cells.split(","))
        assert max(texts.values()) > 100  # the memo has work to do
        assert set(decoded) == set(texts) and set(decoded.values()) == {1}

    def test_field_values_encoded_once(self, tmp_path, monkeypatch):
        """The writer's twin of the test above: on the same planner-off
        table, each field encoder runs once per distinct value (per distinct
        cell for the gem cells)."""
        grid = GridConfig(9, 9, 2, 3, 200, layout=RandomLayout())
        cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, False), Hyperparams(seed=1), 30)
        trained = train(cfg).tables
        encoded = Counter()
        for kind, (encode, text_pattern, decode) in list(abstraction._KINDS.items()):
            def counted(value, kind=kind, encode=encode):
                encoded[kind, value] += 1
                return encode(value)
            monkeypatch.setitem(abstraction._KINDS, kind, (counted, text_pattern, decode))
        path = tmp_path / "qtable.csv"
        write_qtable(trained, path, cfg.mode, cfg.hyper)
        assert read_qtable(path)[2] == trained
        states = [state for table in trained.values() for state in table.rows]
        assert {type(state) for state in states} == {NoPlannerState}
        field_kinds = list(get_type_hints(NoPlannerState).values())
        values = Counter()
        for *scalars, cells in states:
            values.update(zip(field_kinds, scalars))
            values.update((field_kinds[2], cell) for cell in cells)
        assert max(values.values()) > 100  # the memo has work to do
        assert set(encoded) == set(values) and set(encoded.values()) == {1}


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.usefixtures("restore_collector")
class TestOraclePausesTheCollector:
    """`value_iteration_oracle` solves with the cyclic collector paused, and
    leaves the collector as it found it, also when it refuses an instance."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_left_as_found(self, enabled):
        (gc.enable if enabled else gc.disable)()
        assert len(value_iteration_oracle(three_by_three(), PICKUP_TABLE)) == 5 * 9 * 8
        assert gc.isenabled() is enabled

    def test_enabled_collector_stays_enabled_after_a_refused_instance(self, monkeypatch):
        monkeypatch.setattr(harness, "ORACLE_PAIR_LIMIT", 5 * 9 - 1)
        gc.enable()
        with pytest.raises(ConfigError, match="exceed the oracle limit"):
            value_iteration_oracle(three_by_three(), DROP_TABLE)
        assert gc.isenabled()

    def test_paused_while_the_pairs_are_stepped(self, monkeypatch):
        seen, step = [], SubtaskMDP.step

        def spy(self, s, a):
            seen.append(gc.isenabled())
            return step(self, s, a)

        monkeypatch.setattr(SubtaskMDP, "step", spy)
        gc.enable()
        value_iteration_oracle(three_by_three(), DROP_TABLE)
        assert seen and not any(seen) and gc.isenabled()


@pytest.mark.usefixtures("restore_collector")
class TestTrainPausesTheCollector:
    """`train` runs with the cyclic collector paused, and leaves the
    collector as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_left_as_found(self, enabled):
        (gc.enable if enabled else gc.disable)()
        assert len(train(tiny_run(episodes=3)).records) == 3
        assert gc.isenabled() is enabled

    def test_paused_during_every_step(self, monkeypatch):
        seen, step = [], learner.step_agent

        def spy(*args):
            seen.append(gc.isenabled())
            return step(*args)

        monkeypatch.setattr(learner, "step_agent", spy)
        gc.enable()
        train(tiny_run(episodes=3))
        assert seen and not any(seen) and gc.isenabled()


@pytest.mark.usefixtures("restore_collector")
class TestReadPausesTheCollector:
    """`read_qtable` builds its rows with the cyclic collector paused, and
    leaves the collector as it found it, also when it refuses the file."""

    def path(self, tmp_path, value="3.5"):
        path = tmp_path / "q.csv"
        path.write_text(f"{TestPersistence.HEADER}\n# option=pickup\n{run_of('P,0,0,1,1', value)}")
        return path

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_left_as_found(self, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        assert len(read_qtable(self.path(tmp_path))[2][PICKUP_TABLE].rows) == 1
        assert gc.isenabled() is enabled

    def test_enabled_collector_stays_enabled_after_a_parse_error(self, tmp_path):
        gc.enable()
        with pytest.raises(ParseError, match=r"q.csv:3: value "):
            read_qtable(self.path(tmp_path, "nan"))
        assert gc.isenabled()

    def test_paused_while_the_rows_are_built(self, tmp_path, monkeypatch):
        seen = []

        class Codec(abstraction.StateCodec):
            def parse(self, text):
                seen.append(gc.isenabled())
                return super().parse(text)

        monkeypatch.setattr(harness, "StateCodec", Codec)
        gc.enable()
        read_qtable(self.path(tmp_path))
        assert seen == [False] and gc.isenabled()


@pytest.mark.usefixtures("restore_collector")
class TestWritePausesTheCollector:
    """`write_qtable` writes with the cyclic collector paused, and leaves the
    collector as it found it, also when it refuses a table."""

    def write(self, tmp_path, *states):
        q = QTable()
        for s in states:
            table_row(q, s)
        path = tmp_path / "q.csv"
        write_qtable({PICKUP_TABLE: q}, path, ControllerMode(Method.OPTIONS), Hyperparams())
        return path

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_left_as_found(self, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        path = self.write(tmp_path, PickupState((0, 0), (1, 1)))
        assert len(read_qtable(path)[2][PICKUP_TABLE].rows) == 1
        assert gc.isenabled() is enabled

    def test_enabled_collector_stays_enabled_after_a_refused_state(self, tmp_path):
        gc.enable()
        with pytest.raises(TypeError, match="not an abstract state"):
            self.write(tmp_path, PickupState((0, 0), (1, 1)), ("not", "a state"))
        assert gc.isenabled()

    def test_paused_while_the_rows_are_written_as_text(self, tmp_path, monkeypatch):
        seen = []

        class Codec(abstraction.StateCodec):
            def serialize(self, s):
                seen.append(gc.isenabled())
                return super().serialize(s)

        monkeypatch.setattr(harness, "StateCodec", Codec)
        gc.enable()
        self.write(tmp_path, PickupState((0, 0), (1, 1)), PickupState((2, 0), (1, 1)))
        assert seen == [False, False] and gc.isenabled()
