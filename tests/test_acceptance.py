"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line. Desk scale is
7x7 with a centered bank, 2 agents, 2 gems, fixed corner layout, 2000
episodes of up to 300 steps, default hyperparameters, seeds 1..5 (see
conftest.desk_config).
"""

import random
import statistics

from bankworld import learner
from bankworld.abstraction import NoPlannerState, PickupState
from bankworld.environment import (
    ACTIONS,
    Action,
    Event,
    GridConfig,
    RandomLayout,
    reset,
    step_agent,
)
from bankworld.harness import (
    RunConfig,
    SubtaskMDP,
    episodes_to_threshold,
    evaluate,
    oracle_episode_return,
    train,
    value_iteration_oracle,
)
from bankworld.learner import (
    DROP_TABLE,
    PICKUP_TABLE,
    ControllerMode,
    Hyperparams,
    Method,
    controller_step,
    fresh_tables,
    td_update,
)

from conftest import (
    SEEDS,
    best_action,
    best_value,
    desk_grid,
    gem_places,
    greedy_subtask_return,
    is_terminal,
    q_value,
)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def eval_mean(eval_records) -> float:
    return statistics.fmean(r.total_reward for r in eval_records)


def ordering_failures(opts: float, flat: float, rand: float, optimum: int) -> list[str]:
    """The method-ordering predicate for one seed: the conditions that
    fail, empty when the seed passes."""
    failures = []
    if opts != optimum:
        failures.append(f"options {opts:.1f} is not the planner optimum {optimum}")
    if not rand < flat <= opts:
        failures.append(
            f"expected random < flat <= options,"
            f" got {rand:.1f} / {flat:.1f} / {opts:.1f}"
        )
    if opts - rand < 300:
        failures.append(f"options {opts:.1f} leads random {rand:.1f} by less than 300")
    return failures


class TestMethodOrdering:
    def test_options_beat_flat_beat_random(self, desk_runs):
        """Options reach the planner optimum, flat does no better, and both
        beat random.

        The top of the ordering is non-strict on purpose. Options change
        what is learned and how fast (Sutton, Precup & Singh 1999); they
        do not raise the optimum of the underlying MDP. At desk scale that
        optimum is `oracle_episode_return(desk_grid())` = 1080, and no
        policy scores above it. With gems equal to agents the planner
        binds each agent to one gem, so the flat state carries the same
        facts as the pickup and drop projections, and flat reaches 1080
        as well. A strict options > flat then has no satisfying learner.
        Learning speed, where the two may differ, is reported on the
        ACCEPTANCE line and not gated.
        """
        optimum = oracle_episode_return(desk_grid())
        threshold = 0.8 * optimum
        failures = []
        lines = []
        for seed in SEEDS:
            means = {}
            to_threshold = {}
            for method in (Method.RANDOM, Method.FLAT, Method.OPTIONS):
                result, eval_records, _ = desk_runs(seed, method)
                means[method] = eval_mean(eval_records)
                to_threshold[method] = episodes_to_threshold(result.records, threshold)
            rand = means[Method.RANDOM]
            flat = means[Method.FLAT]
            opts = means[Method.OPTIONS]
            failures += [
                f"seed {seed}: {f}" for f in ordering_failures(opts, flat, rand, optimum)
            ]
            lines.append(
                f"seed {seed}: options {opts:.1f}, flat {flat:.1f}, random {rand:.1f},"
                f" to-threshold options {to_threshold[Method.OPTIONS]}"
                f" / flat {to_threshold[Method.FLAT]}"
            )
        detail = (
            f"optimum {optimum}, threshold {threshold:.1f}; " + "; ".join(lines)
            + " (episodes to threshold reported, not gated)"
        )
        report("method-ordering", not failures, detail)
        assert not failures, "; ".join(failures)


class TestPlannerAblation:
    def test_planner_reaches_threshold_sooner(self, desk_runs):
        threshold = 0.8 * oracle_episode_return(desk_grid())
        wins = 0
        lines = []
        for seed in SEEDS:
            on_result, _, _ = desk_runs(seed, Method.OPTIONS, planner=True)
            off_result, _, _ = desk_runs(seed, Method.OPTIONS, planner=False)
            assert off_result.planner_calls == 0
            on = episodes_to_threshold(on_result.records, threshold)
            off = episodes_to_threshold(off_result.records, threshold)
            assert on is not None, f"seed {seed}: planner-on never reached {threshold}"
            if off is not None:
                assert off <= 4 * on, f"seed {seed}: planner-off needed {off} > 4x{on}"
            if off is None or on < off:
                wins += 1
            lines.append(f"seed {seed}: on {on}, off {'not-reached' if off is None else off}")
        detail = f"threshold {threshold:.1f}; " + "; ".join(lines)
        report("planner-ablation", wins >= 4, detail)
        assert wins >= 4, detail


def train_subtasks_to_convergence(grid: GridConfig, total_steps: int):
    """Persistent-exploration training on the 3x3 instance: epsilon 0.2,
    step size 1, planner on, options tables. A one-gem sub-task here is
    deterministic, each action giving one reward and one successor, so an
    update with step size 1 sets its entry to its exact target, and the
    updates repeated over 200,000 steps are value iteration run on the
    visited pairs."""
    mode = ControllerMode(Method.OPTIONS, planner_enabled=True)
    tables = fresh_tables(mode)
    h = Hyperparams(alpha=1.0, eps_start=0.2, eps_end=0.2, seed=0)
    rng = random.Random(0)
    steps = 0
    episode = 0
    while steps < total_steps:
        state = reset(grid, episode)
        assignment = (None,) * grid.num_agents
        while not is_terminal(state, grid) and steps < total_steps:
            state, assignment, _ = controller_step(
                state, grid, mode, tables, assignment, 0.2, h, rng
            )
            steps += grid.num_agents
        episode += 1
    return tables


class TestOracleEquivalence:
    def test_q_learning_matches_exact_solver(self, monkeypatch):
        grid = GridConfig(3, 3, 1, 1, 100, layout=RandomLayout())
        gamma = 0.95
        updated = set()  # (row identity, action) of every update

        def spy(row, a, *rest):
            updated.add((id(row), a))
            td_update(row, a, *rest)

        monkeypatch.setattr(learner, "td_update", spy)  # controller_step reads it per call
        tables = train_subtasks_to_convergence(grid, total_steps=200_000)
        oracles = {
            PICKUP_TABLE: value_iteration_oracle(grid, PICKUP_TABLE, gamma),
            DROP_TABLE: value_iteration_oracle(grid, DROP_TABLE, gamma),
        }

        worst = 0.0
        checked = 0
        for key in (PICKUP_TABLE, DROP_TABLE):
            for s, row in tables[key].rows.items():
                for a, value in enumerate(row):
                    if (id(row), a) in updated:
                        worst = max(worst, abs(value - q_value(oracles[key], s, a)))
                        checked += 1
        # every decision state must actually have been visited
        bank = grid.bank
        cells = [(r, c) for r in range(3) for c in range(3)]
        expected_pickup = {
            PickupState(p, g) for p in cells for g in cells if g != bank and p != g
        }
        assert expected_pickup <= set(tables[PICKUP_TABLE].rows)
        assert len(tables[DROP_TABLE].rows) >= len(cells) - 1
        assert checked >= 300

        rollout_ok = True
        for key in (PICKUP_TABLE, DROP_TABLE):
            mdp = SubtaskMDP(grid, key)
            for start in list(tables[key].rows)[:20]:
                learned = greedy_subtask_return(tables[key], mdp, start, gamma)
                rollout_ok = rollout_ok and learned == best_value(oracles[key], start)

        passed = worst <= 1e-2 and rollout_ok
        report(
            "oracle-equivalence",
            passed,
            f"max |q - q*| {worst:.2e} over {checked} visited pairs; exact rollouts {rollout_ok}",
        )
        assert worst <= 1e-2
        assert rollout_ok


class TestRewardConformance:
    def test_fuzzed_trajectories_stay_in_reward_alphabet(self):
        grid = GridConfig(5, 5, 2, 3, 80, layout=RandomLayout())
        rng = random.Random(2024)
        allowed = {-5, -1, 0, 50, 500}
        seen = set()
        steps = 0
        episode = 0
        while steps < 100_000:
            state = reset(grid, episode)
            episode += 1
            while not is_terminal(state, grid) and steps < 100_000:
                agent = rng.randrange(grid.num_agents)
                action = ACTIONS[rng.randrange(5)]
                next_state, outcome = step_agent(state, grid, agent, action)
                steps += 1
                seen.add(outcome.reward)
                assert outcome.reward in allowed
                assert (outcome.reward == -5) == (outcome.event is Event.ILLEGAL)
                assert (outcome.reward == 50) == (outcome.event is Event.ACQUIRED)
                assert (outcome.reward == 500) == (outcome.event is Event.DROPPED)
                if outcome.event is Event.ILLEGAL:
                    assert next_state.agent_positions == state.agent_positions
                state = next_state._replace(step=next_state.step + 1)
        report(
            "reward-conformance",
            True,
            f"{steps} fuzzed steps; rewards observed {sorted(seen)}",
        )
        assert {-5, -1, 50, 500} <= seen


def fuzz_config(rng: random.Random) -> RunConfig:
    width = rng.randint(3, 8)
    height = rng.randint(3, 8)
    agents = rng.randint(1, 3)
    gems = rng.randint(1, min(3, width * height - agents - 1))
    method = rng.choice([Method.RANDOM, Method.FLAT, Method.OPTIONS])
    planner = rng.random() < 0.7
    layout = RandomLayout() if rng.random() < 0.7 else None
    grid = GridConfig(width, height, agents, gems, rng.randint(15, 40),
                      layout=layout, noop_reward=rng.choice([0, -1]))
    hyper = Hyperparams(seed=rng.randint(0, 10_000))
    return RunConfig(grid, ControllerMode(method, planner), hyper,
                     episodes=2, eval_runs=2)


def run_checked_training(cfg: RunConfig):
    """Training loop that validates state and allocation invariants after
    every controller step; returns (records-ish trace, tables)."""
    tables = fresh_tables(cfg.mode)
    rng = random.Random(cfg.hyper.seed)
    trace = []
    for episode in range(cfg.episodes):
        state = reset(cfg.grid, cfg.hyper.seed * 1_000_003 + episode)
        assignment = (None,) * cfg.grid.num_agents
        while not is_terminal(state, cfg.grid):
            state, assignment, outcomes = controller_step(
                state, cfg.grid, cfg.mode, tables, assignment, 0.5,
                cfg.hyper, rng,
            )
            assert sum(gem_places(state, cfg.grid.num_gems)) == cfg.grid.num_gems
            carriers = [g for g in state.held if g is not None]
            assert len(carriers) == len(set(carriers))
            allocated = [g for g in assignment if g is not None]
            assert len(set(allocated)) == len(allocated)
            if cfg.mode.planner_enabled:
                # a carrier's allocation is the gem it carries
                assert all(g is None or assignment[i] == g for i, g in enumerate(state.held))
            else:
                assert assignment == (None,) * cfg.grid.num_agents
            for agent, gem in enumerate(assignment):
                if gem is not None:
                    # never deposited: on its cell or carried by its own agent
                    assert state.gem_cells[gem] is not None or state.held[agent] == gem
            trace.append((state, tuple(outcomes)))
    return trace, tables


class TestInvariantSuite:
    def test_hundred_fuzzed_configurations(self):
        rng = random.Random(99)
        for case in range(100):
            cfg = fuzz_config(rng)
            trace_a, tables_a = run_checked_training(cfg)
            trace_b, tables_b = run_checked_training(cfg)
            assert trace_a == trace_b, f"case {case}: nondeterministic trajectories"
            assert tables_a == tables_b, f"case {case}: nondeterministic tables"
            rows_before = {k: {s: list(r) for s, r in t.rows.items()} for k, t in tables_a.items()}
            evaluate(tables_a, cfg)
            assert {k: t.rows for k, t in tables_a.items()} == rows_before, (
                f"case {case}: evaluation mutated tables"
            )
        report("invariant-suite", True, "100 fuzzed configurations green")


class TestNoOpEconomics:
    def test_spare_agent_parks_on_noop(self):
        grid = GridConfig(7, 7, 3, 2, 300, noop_reward=0)
        cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, True),
                        Hyperparams(seed=1), episodes=600, eval_runs=1)
        result = train(cfg)

        state = reset(grid, 0)
        assignment = (None,) * grid.num_agents
        rng = random.Random(0)
        idle_steps = 0
        forced_noops = 0
        while not is_terminal(state, grid):
            before = state
            idle_agents = [
                i for i in range(grid.num_agents)
                if before.held[i] is None and assignment[i] is None
            ]
            state, assignment, outcomes = controller_step(
                state, grid, cfg.mode, result.tables, assignment, 0.0,
                cfg.hyper, rng, learn=False,
            )
            # agents idle *after* the in-step allocation refresh
            still_idle = [i for i in idle_agents if assignment[i] is None
                          and state.held[i] is None]
            for i in still_idle:
                idle_steps += 1
                if (outcomes[i].event is Event.IDLE
                        and state.agent_positions[i] == before.agent_positions[i]):
                    forced_noops += 1
        assert idle_steps > 0
        passed = forced_noops == idle_steps

        # Reported, not gated: with no planner, greedy action at visited
        # nothing-left-to-do states should mostly settle on NoOp.
        off_cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, False),
                            Hyperparams(seed=1), episodes=600, eval_runs=1)
        off = train(off_cfg)
        idle_states = [
            s for s in off.tables[PICKUP_TABLE].rows
            if isinstance(s, NoPlannerState) and not s.carrying
            and all(cell is None for cell in s.gem_cells)
        ]
        noop_share = (
            sum(1 for s in idle_states
                if best_action(off.tables[PICKUP_TABLE], s) is Action.NOOP)
            / len(idle_states)
            if idle_states else float("nan")
        )
        report(
            "noop-economics",
            passed,
            f"{forced_noops}/{idle_steps} idle steps were forced NoOp;"
            f" no-planner greedy NoOp share at exhausted states: {noop_share:.0%}"
            f" of {len(idle_states)} visited (reported, not gated)",
        )
        assert passed
