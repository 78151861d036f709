import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bankworld.abstraction import DropState, FlatState, NoPlannerState, PickupState
from bankworld.environment import (
    ACTIONS,
    Action,
    ConfigError,
    Event,
    FixedLayout,
    GridConfig,
    WorldState,
    reset,
)
from bankworld.learner import (
    DROP_TABLE,
    PICKUP_TABLE,
    ControllerMode,
    Hyperparams,
    Method,
    QTable,
    controller_step,
    epsilon_at,
    fresh_tables,
    select_action,
    td_update,
)
from bankworld import learner, planner
from bankworld.cli import main

from conftest import best_action, q_value, table_row


def table_with(s, values):
    q = QTable()
    table_row(q, s)[:] = values
    return q


S = PickupState((0, 0), (1, 1))
S2 = PickupState((0, 1), (1, 1))


class TestQTableEquality:
    def test_a_table_equals_only_a_table_with_the_same_rows(self):
        """Against anything but a table `__eq__` gives NotImplemented, so
        ``table == None`` is False where reading ``None.rows`` would raise."""
        q = table_with(S, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert q == table_with(S, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert q != QTable()
        assert q.__eq__(None) is NotImplemented
        assert (q == None) is False  # noqa: E711
        assert q != q.rows and q != object()


class TestSelectAction:
    def test_argmax(self):
        q = table_with(S, [0.1, 0.5, 0.2, 0.0, 0.0])
        assert select_action(q.rows[S], 0.0, None) is Action.DOWN
        f = FlatState((0, 0), (1, 1), False)
        row = [0.5, 1.25, 7.5, 2.0, 3.0]
        # a unique maximizer, kept under positive scaling
        for values in ([0.0, 1.0, 7.0, 2.0, 3.0], row, [12.0 * v for v in row]):
            assert select_action(table_with(f, values).rows[f], 0.0, None) is Action.LEFT

    def test_fresh_table_ties_to_up(self):
        assert select_action(QTable().rows.get(S), 0.0, None) is Action.UP
        for s in (PickupState((0, 0), (4, 4)), DropState((3, 3))):
            assert select_action(QTable().rows.get(s), 0.0, None) is Action.UP
        assert select_action(table_with(S, [2.0] * 5).rows[S], 0.0, None) is Action.UP

    def test_uniform_when_epsilon_one(self):
        rng = random.Random(123)
        counts = [0] * 5
        q = QTable()
        for _ in range(100_000):
            counts[select_action(q.rows.get(S), 1.0, rng)] += 1
        sigma = math.sqrt(0.2 * 0.8 / 100_000)
        for count in counts:
            assert abs(count / 100_000 - 0.2) <= 3 * sigma

    def test_best_action_is_the_greedy_choice(self):
        for values in ([0.1, 0.5, 0.2, 0.0, 0.0], [2.0] * 5, [0.0, 1.0, 7.0, 7.0, 3.0]):
            q = table_with(S, values)
            assert best_action(q, S) is select_action(q.rows[S], 0.0, None)
        assert best_action(QTable(), S) is Action.UP


class TestTdUpdate:
    def test_bootstrapped_target(self):
        h = Hyperparams(alpha=0.5, gamma=0.9)
        q = QTable()
        table_row(q, S2)[:] = [10.0, 1.0, 0.0, 0.0, 0.0]
        td_update(table_row(q, S), Action.UP, -1, q.rows[S2], terminal=False, h=h)
        assert q_value(q, S, Action.UP) == pytest.approx(4.0)

    def test_successor_without_a_row_bootstraps_from_zero(self):
        h = Hyperparams(alpha=0.5, gamma=0.9)
        q = table_with(S, [2.0, 0.0, 0.0, 0.0, 0.0])
        td_update(q.rows[S], Action.UP, -1, q.rows.get(S2), terminal=False, h=h)
        assert q_value(q, S, Action.UP) == pytest.approx(2.0 + 0.5 * (-1 + 0.9 * 0.0 - 2.0))

    def test_terminal_target(self):
        h = Hyperparams(alpha=0.1)
        q = table_with(S, [2.0, 0.0, 0.0, 0.0, 0.0])
        td_update(q.rows[S], Action.UP, 500, None, terminal=True, h=h)
        assert q_value(q, S, Action.UP) == pytest.approx(51.8)

    def test_zero_alpha_freezes_table(self):
        h = Hyperparams(alpha=0.0)
        q = table_with(S, [2.0, 3.0, 4.0, 5.0, 6.0])
        td_update(q.rows[S], Action.LEFT, 500, q.rows.get(S2), terminal=False, h=h)
        assert q.rows[S] == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_terminal_never_reads_next_state(self):
        h = Hyperparams(alpha=0.1, gamma=0.95)
        poisoned = table_with(S2, [float("nan")] * 5)
        td_update(table_row(poisoned, S), Action.UP, 50, poisoned.rows[S2], terminal=True, h=h)
        assert q_value(poisoned, S, Action.UP) == pytest.approx(5.0)


# Ties, signed zeros and equal int/float pairs, as an exact solver's table
# holds them: entries that compare equal but print differently.
POOL = (0, 0.0, -0.0, 50, 50.0, 500, 500.0, -1.0, 2.5)
ROWS = st.lists(st.sampled_from(POOL), min_size=5, max_size=5)


class TestFirstMaximum:
    """Greedy selection and the TD bootstrap take a row's first maximal
    entry, as builtin `max` takes it."""

    @given(ROWS)
    def test_greedy_action_is_the_first_maximum(self, row):
        assert select_action(row, 0.0, None) is ACTIONS[row.index(max(row))]

    @given(row=ROWS, a=st.sampled_from(ACTIONS), r=st.sampled_from(POOL + (-1, 1)),
           next_row=st.none() | ROWS, terminal=st.booleans(),
           alpha=st.sampled_from((0, 0.1, 1, 1.0)), gamma=st.sampled_from((0, 0.95, 1, 1.0)))
    def test_update_matches_a_builtin_max_update_to_the_type(
        self, row, a, r, next_row, terminal, alpha, gamma
    ):
        expected = list(row)
        target = r if terminal else r + gamma * (0.0 if next_row is None else max(next_row))
        expected[a] += alpha * (target - expected[a])
        td_update(row, a, r, next_row, terminal, Hyperparams(alpha=alpha, gamma=gamma))
        assert (type(row[a]), repr(row[a])) == (type(expected[a]), repr(expected[a]))

    @given(ROWS)
    def test_update_bootstraps_from_the_first_maximum_type_included(self, next_row):
        # With r = 0 and integer alpha = gamma = 1, row[0] becomes the best
        # entry itself: 50 and 50.0 tie, and only the first one is right.
        row = [0] * 5
        td_update(row, Action.UP, 0, next_row, False, Hyperparams(alpha=1, gamma=1))
        best = max(next_row)
        assert (type(row[0]), row[0]) == (type(best), best)


class TestEpsilonSchedule:
    def test_linear_anneal(self):
        h = Hyperparams(eps_start=1.0, eps_end=0.05, eps_decay_fraction=0.8)
        assert epsilon_at(0, 2000, h) == 1.0
        assert epsilon_at(800, 2000, h) == pytest.approx(1.0 - 0.95 / 2)
        assert epsilon_at(1600, 2000, h) == 0.05
        assert epsilon_at(1999, 2000, h) == 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            Hyperparams(eps_start=0.1, eps_end=0.5)
        with pytest.raises(ConfigError):
            Hyperparams(alpha=1.5)

    @pytest.mark.parametrize("kwargs, field", [
        ({"eps_start": 1.5}, "eps_start"),
        ({"eps_start": -0.1, "eps_end": -0.2}, "eps_start"),
        ({"eps_start": 0.1, "eps_end": 0.5}, "eps_end"),
        ({"eps_end": -0.1}, "eps_end"),
    ])
    def test_each_epsilon_bound_names_its_field(self, kwargs, field):
        with pytest.raises(ConfigError) as info:
            Hyperparams(**kwargs)
        assert info.value.field == field

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed), so -5 would train the run of 5.
        with pytest.raises(ConfigError) as info:
            Hyperparams(seed=-5)
        assert info.value.field == "seed"
        assert Hyperparams(seed=0).seed == 0

    @pytest.mark.parametrize("argv", [["--seed", "-5"], ["--seed=-5"]])
    def test_negative_seed_flag_exits_2_naming_it(self, argv, tmp_path, capsys):
        assert main(["train", *argv, "--out", str(tmp_path / "r")]) == 2
        assert "error: --seed:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def world(agent_positions, gem_cells, held=None):
    if held is None:
        held = [None] * len(agent_positions)
    return WorldState(tuple(agent_positions), tuple(held), tuple(gem_cells), step=0)


class TestUniformAction:
    @given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=200))
    def test_draws_the_stream_of_randrange(self, seed, draws):
        fast, reference = random.Random(seed), random.Random(seed)
        assert [learner._uniform_action(fast) for _ in range(draws)] == [
            ACTIONS[reference.randrange(5)] for _ in range(draws)
        ]
        assert fast.getstate() == reference.getstate()


def one_timestep(state, planner, assignment):
    """The events of one timestep of an options learner from ``state``, and
    the keys of the tables it wrote a row in. With fresh tables and epsilon
    0 a learner moves Up, so only a parked agent's event is IDLE."""
    n, m = len(state.agent_positions), len(state.gem_cells)
    cfg = GridConfig(7, 7, n, m, 50, bank=(3, 3), layout=FixedLayout(
        agents=tuple((0, c) for c in range(n)), gems=tuple((6, c) for c in range(m))))
    mode = ControllerMode(Method.OPTIONS, planner_enabled=planner)
    tables = fresh_tables(mode)
    _, _, outcomes = controller_step(state, cfg, mode, tables, assignment, 0.0,
                                     Hyperparams(), random.Random(0))
    return [o.event for o in outcomes], [key for key, q in tables.items() if q.rows]


class TestOptionDispatch:
    """The dispatch as `controller_step` states it: a parked agent emits the
    idle outcome and writes no row; an acting one writes a row in the
    deposit table while it carries, else in the fetch table."""

    def test_carrying_means_drop(self):
        state = world([(1, 1)], [None], held=[0])
        assert one_timestep(state, True, (0,)) == ([Event.MOVED], [DROP_TABLE])

    def test_assigned_means_pickup(self):
        state = world([(1, 1)], [(4, 4)])
        assert one_timestep(state, True, (0,)) == ([Event.MOVED], [PICKUP_TABLE])

    def test_unassigned_means_idle(self):
        # The one gem is carried by agent 0, so agent 1 stays unallocated.
        state = world([(1, 1), (2, 2)], [None], held=[0, None])
        assert one_timestep(state, True, (0, None)) == ([Event.MOVED, Event.IDLE], [DROP_TABLE])
        assert one_timestep(world([(1, 1)], [None]), True, (None,)) == ([Event.IDLE], [])

    @pytest.mark.parametrize("slot", [None, 1])
    def test_carrier_under_a_slot_without_its_gem_is_refused(self, slot):
        """An assignment that breaks ``alloc[i] == held[i]`` is refused."""
        state = world([(1, 1)], [None, (4, 4)], held=[0])
        with pytest.raises(ValueError, match=f"agent 0 carries gem 0 but its slot holds {slot}"):
            one_timestep(state, True, (slot,))

    def test_carrier_beside_the_bank_under_an_empty_slot_is_refused_at_entry(self):
        """A carrier one Up move from the bank would deposit a gem its slot
        does not hold; the call refuses before any draw or table write."""
        cfg, mode, tables, state = options_setup([(4, 3)], [(5, 5)])
        carrying = state._replace(held=(0,), gem_cells=(None,))
        rng = random.Random(0)
        before = rng.getstate()
        with pytest.raises(ValueError, match="agent 0 carries gem 0 but its slot holds None"):
            controller_step(carrying, cfg, mode, tables, (None,), 0.0, Hyperparams(), rng)
        assert rng.getstate() == before
        assert not any(q.rows for q in tables.values())

    def test_planner_off_carrying_means_drop(self):
        # Agent 0 fetches, so the deposit table's row is agent 1's.
        state = world([(1, 1), (2, 2)], [(4, 4), None], held=[None, 1])
        assert one_timestep(state, False, (None, None)) == (
            [Event.MOVED, Event.MOVED], [PICKUP_TABLE, DROP_TABLE])

    def test_planner_off_empty_handed_means_pickup(self):
        # No allocation exists, yet nobody idles: every free agent fetches.
        assert one_timestep(world([(1, 1)], [None]), False, (None,)) == (
            [Event.MOVED], [PICKUP_TABLE])


def options_setup(agents, gems, bank=(3, 3)):
    cfg = GridConfig(7, 7, len(agents), len(gems), 50, bank=bank,
                     layout=FixedLayout(agents=tuple(agents), gems=tuple(gems)))
    mode = ControllerMode(Method.OPTIONS, planner_enabled=True)
    return cfg, mode, fresh_tables(mode), reset(cfg, 0)


class TestControllerStep:
    def test_adjacent_pickup_gets_terminal_update(self):
        # Gem directly above the agent: the fresh-table argmax is Up.
        cfg, mode, tables, state = options_setup([(2, 3)], [(1, 3)])
        h = Hyperparams(alpha=0.1)
        next_state, assignment, outcomes = controller_step(
            state, cfg, mode, tables, (None,), 0.0, h, random.Random(0)
        )
        assert outcomes[0].event is Event.ACQUIRED
        assert (next_state.held, next_state.gem_cells) == ((0,), (None,))
        s = PickupState((2, 3), (1, 3))
        assert q_value(tables[PICKUP_TABLE], s, Action.UP) == pytest.approx(0.1 * 50)
        assert assignment == (0,)  # kept while carrying

    def test_drop_releases_assignment(self):
        cfg, mode, tables, state = options_setup([(2, 3)], [(5, 5)], bank=(1, 3))
        carrying = state._replace(held=(0,), gem_cells=(None,))
        next_state, assignment, outcomes = controller_step(
            carrying, cfg, mode, tables, (0,), 0.0,
            Hyperparams(), random.Random(0)
        )
        assert outcomes[0].event is Event.DROPPED
        assert assignment == (None,)
        s = DropState((2, 3))
        assert q_value(tables[DROP_TABLE], s, Action.UP) == pytest.approx(0.1 * 500)

    def test_random_mode_is_repeatable_and_learns_nothing(self):
        cfg = GridConfig(7, 7, 2, 2, 50)
        mode = ControllerMode(Method.RANDOM, planner_enabled=True)
        runs = []
        for _ in range(2):
            rng = random.Random(42)
            state, assignment = reset(cfg, 0), (None, None)
            trace = []
            for _ in range(20):
                state, assignment, outcomes = controller_step(
                    state, cfg, mode, {}, assignment, 0.0, Hyperparams(), rng
                )
                trace.append((state, tuple(outcomes)))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_extra_agent_idles_without_learning(self):
        cfg, mode, tables, state = options_setup([(2, 3), (6, 6)], [(1, 3)])
        h = Hyperparams()
        next_state, _, outcomes = controller_step(
            state, cfg, mode, tables, (None, None), 0.0, h, random.Random(0)
        )
        assert outcomes[0].event is Event.ACQUIRED
        assert outcomes[1] == (0, Event.IDLE, None)
        assert next_state.agent_positions[1] == (6, 6)
        # only agent 0's pickup experience was recorded
        assert len(tables[PICKUP_TABLE].rows) == 1
        assert len(tables[DROP_TABLE].rows) == 0

    def test_only_executing_option_table_changes(self):
        cfg, mode, tables, state = options_setup([(2, 3)], [(5, 5)])
        drop_before = {s: list(row) for s, row in tables[DROP_TABLE].rows.items()}
        controller_step(
            state, cfg, mode, tables, (None,), 0.3, Hyperparams(),
            random.Random(1)
        )
        assert tables[DROP_TABLE].rows == drop_before
        assert len(tables[PICKUP_TABLE].rows) == 1

    def test_learn_false_never_writes(self):
        cfg, mode, tables, state = options_setup([(2, 3)], [(5, 5)])
        controller_step(
            state, cfg, mode, tables, (None,), 0.0, Hyperparams(),
            random.Random(1), learn=False,
        )
        assert len(tables[PICKUP_TABLE].rows) == 0

    def test_planner_calls_counted(self, monkeypatch):
        cfg, mode, tables, state = options_setup([(2, 3), (6, 6)], [(1, 3)])
        calls = []
        assign = planner.assign
        monkeypatch.setattr(planner, "assign", lambda *args: calls.append(args) or assign(*args))
        controller_step(
            state, cfg, mode, tables, (None, None), 0.0, Hyperparams(),
            random.Random(0),
        )
        assert len(calls) == 2

    def test_no_planner_mode_everyone_acts(self):
        cfg = GridConfig(7, 7, 2, 1, 50,
                         layout=FixedLayout(agents=((2, 3), (6, 6)), gems=((1, 3),)))
        mode = ControllerMode(Method.OPTIONS, planner_enabled=False)
        tables = fresh_tables(mode)
        _, assignment, outcomes = controller_step(
            reset(cfg, 0), cfg, mode, tables, (None, None), 0.0,
            Hyperparams(), random.Random(0),
        )
        assert assignment == (None, None)
        assert all(o.event is not Event.IDLE or o.reward == 0 for o in outcomes)
        # both agents acted from the all-gems projection
        keys = list(tables[PICKUP_TABLE].rows)
        assert all(type(s) is NoPlannerState for s in keys)
        assert len(keys) == 2

    def test_no_planner_options_dispatch_on_carrying(self):
        cfg = GridConfig(7, 7, 2, 2, 50,
                         layout=FixedLayout(agents=((5, 5), (6, 6)), gems=((0, 6), (0, 0))))
        mode = ControllerMode(Method.OPTIONS, planner_enabled=False)
        tables = fresh_tables(mode)
        carrying = reset(cfg, 0)._replace(held=(0, None), gem_cells=(None, (0, 0)))
        controller_step(carrying, cfg, mode, tables, (None, None), 0.0,
                        Hyperparams(), random.Random(0))
        # agent 0 carries gem 0, which rides along at its cell; agent 1 sees
        # gem 0 as absent because someone else holds it
        assert list(tables[DROP_TABLE].rows) == [
            NoPlannerState((5, 5), True, ((5, 5), (0, 0)))
        ]
        assert list(tables[PICKUP_TABLE].rows) == [
            NoPlannerState((6, 6), False, (None, (0, 0)))
        ]


def spy_on(monkeypatch, name, seen):
    """Record the arguments of each call of learner function ``name``."""
    original = getattr(learner, name)

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(learner, name, spy)


class TestRowsByReference:
    """The controller hands rows to `select_action` and `td_update`. A move
    that returns the state it was given changes nothing a projection reads:
    its update bootstraps from the row acted from, with no projection of the
    successor and no lookup of its row. A successor kept without a row is
    looked up again at the agent's next turn."""

    def test_bootstraps_from_the_existing_row(self, monkeypatch):
        cfg, mode, tables, state = options_setup([(0, 3)], [(5, 5)])
        s, h = PickupState((0, 3), (5, 5)), Hyperparams(alpha=0.1, gamma=0.95)
        table_row(tables[PICKUP_TABLE], s)[:] = [0.0, 0.0, 0.0, 0.0, 2.0]
        projected = []
        spy_on(monkeypatch, "project", projected)
        end, _, outcomes = controller_step(state, cfg, mode, tables, (None,), 0.0, h,
                                           random.Random(0))
        assert outcomes[0].event is Event.IDLE and end.agent_positions == ((0, 3),)
        target = outcomes[0].reward + 0.95 * 2.0
        assert tables[PICKUP_TABLE].rows == {s: [0.0, 0.0, 0.0, 0.0, 2.0 + 0.1 * (target - 2.0)]}
        assert len(projected) == 1  # the state acted from, not its successor

    def test_a_new_row_bootstraps_from_zero_and_is_acted_from_next(self, monkeypatch):
        # A fresh table's argmax is Up, which is illegal on the top row.
        cfg, mode, tables, state = options_setup([(0, 3)], [(5, 5)])
        s, h = PickupState((0, 3), (5, 5)), Hyperparams(alpha=0.1, gamma=0.95)
        projected, selected = [], []
        spy_on(monkeypatch, "project", projected)
        spy_on(monkeypatch, "select_action", selected)
        end, _, outcomes = controller_step(state, cfg, mode, tables, (None,), 0.0, h,
                                           random.Random(0), timesteps=2)
        assert [o.event for o in outcomes] == [Event.ILLEGAL, Event.MOVED]
        row = tables[PICKUP_TABLE].rows[s]
        # -5 + 0.95 * 0.0, then the second turn moves Down from the same row.
        assert row == [0.1 * -5, 0.1 * -1, 0.0, 0.0, 0.0]
        assert selected[0][0] is None and selected[1][0] is row
        # The first state, then the successor of the second move only.
        assert [args[0].agent_positions for args in projected] == [((0, 3),), ((1, 3),)]

    def test_a_row_another_agent_made_is_read_at_the_next_turn(self, monkeypatch):
        cfg = GridConfig(7, 7, 2, 1, 50,
                         layout=FixedLayout(agents=((1, 1), (1, 2)), gems=((5, 5),)))
        mode = ControllerMode(Method.OPTIONS, planner_enabled=False)
        tables = fresh_tables(mode)
        start = NoPlannerState((1, 1), False, ((5, 5),))
        shared = NoPlannerState((1, 2), False, ((5, 5),))
        table_row(tables[PICKUP_TABLE], start)[Action.RIGHT] = 1.0
        selected = []
        spy_on(monkeypatch, "select_action", selected)
        end, _, outcomes = controller_step(reset(cfg, 0), cfg, mode, tables, (None, None),
                                           0.0, Hyperparams(), random.Random(0), timesteps=2)
        # Agent 0 moves Right onto agent 1's cell, whose state has no row yet;
        # agent 1 then makes that row by acting Up from it, and agent 0 acts
        # from that row (Down) at its next turn, not from the None it kept.
        row = tables[PICKUP_TABLE].rows[shared]
        assert row[Action.UP] < 0.0
        assert selected[1][0] is None and selected[2][0] is row
        assert end.agent_positions[0] == (2, 2)


class TestQTableBounds:
    def test_values_bounded_during_random_training(self):
        cfg = GridConfig(5, 5, 2, 2, 60)
        mode = ControllerMode(Method.OPTIONS, planner_enabled=True)
        tables = fresh_tables(mode)
        h = Hyperparams(alpha=0.3, gamma=0.9)
        rng = random.Random(7)
        lo, hi = -5 / (1 - h.gamma), 500 / (1 - h.gamma)
        for episode in range(30):
            state, assignment = reset(cfg, episode), (None, None)
            from conftest import is_terminal
            while not is_terminal(state, cfg):
                state, assignment, _ = controller_step(
                    state, cfg, mode, tables, assignment, 1.0, h, rng
                )
        for table in tables.values():
            for _, _, value in table.items():
                assert lo <= value <= hi
