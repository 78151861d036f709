import hashlib
import os
from pathlib import Path

import pytest

from bankworld.cli import (
    _build_parser,
    _print_summary,
    main,
    parse_args,
    read_config_file,
    write_config_echo,
)
from bankworld.environment import FixedLayout, GridConfig, RandomLayout
from bankworld.harness import (
    ParseError,
    SummaryRow,
    read_qtable,
    value_iteration_oracle,
    write_qtable,
)
from bankworld.learner import ControllerMode, Hyperparams, Method


class TestParsing:
    def test_full_scale_train_command(self):
        cmd = parse_args(
            "train --method q-options --planner on --grid 11x11 --agents 2 --gems 3"
            " --episodes 6000 --steps 1000 --seed 42 --out runs/a".split()
        )
        assert cmd.args.command == "train"
        run = cmd.run
        assert (run.grid.width, run.grid.height) == (11, 11)
        assert run.grid.num_agents == 2 and run.grid.num_gems == 3
        assert run.grid.step_limit == 1000
        assert run.episodes == 6000
        assert run.mode.method is Method.OPTIONS and run.mode.planner_enabled
        assert run.hyper.seed == 42
        assert Path(cmd.args.out) == Path("runs/a")

    def test_eval_command(self):
        cmd = parse_args("eval --qtable runs/a/q.csv --runs 10 --seed 7 --out runs/e".split())
        assert cmd.args.command == "eval"
        assert Path(cmd.args.qtable) == Path("runs/a/q.csv")
        assert cmd.run.eval_runs == 10
        assert "seed" in cmd.given and cmd.run.hyper.seed == 7

    def test_defaults_reproduce_full_scale(self):
        cmd = parse_args("train --out runs/x".split())
        run = cmd.run
        assert (run.grid.width, run.grid.height) == (11, 11)
        assert run.episodes == 6000 and run.grid.step_limit == 1000
        assert run.grid.num_agents == 2 and run.grid.num_gems == 3
        assert run.hyper.alpha == 0.1 and run.hyper.gamma == 0.95
        assert run.hyper.eps_start == 1.0 and run.hyper.eps_end == 0.05
        assert run.grid.noop_reward == 0

    def test_compare_subcommands(self):
        assert parse_args("compare-methods --out r".split()).args.command == "compare-methods"
        assert parse_args("compare-planner --out r".split()).args.command == "compare-planner"

    def test_oracle_command(self):
        cmd = parse_args("oracle --grid 5x5 --task drop --gamma 0.9 --out q.csv".split())
        assert cmd.args.command == "oracle"
        assert cmd.args.task == "drop" and cmd.run.hyper.gamma == 0.9
        assert (cmd.run.grid.width, cmd.run.grid.height) == (5, 5)

    def test_random_layout_flag(self):
        cmd = parse_args("train --random-layout --out r".split())
        assert isinstance(cmd.run.grid.layout, RandomLayout)


class TestUsageErrors:
    def run_main(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_degenerate_grid_names_flag(self, capsys):
        code, err = self.run_main("train --grid 4x0 --out r".split(), capsys)
        assert code == 2
        assert "--grid" in err

    def test_zero_gems_names_flag(self, capsys):
        code, err = self.run_main("train --gems 0 --out r".split(), capsys)
        assert code == 2
        assert "--gems" in err

    def test_epsilon_above_one_names_flag(self, capsys):
        code, err = self.run_main("train --eps-start 2.0 --out r".split(), capsys)
        assert code == 2
        assert "--eps-start" in err

    def test_unknown_flag_rejected(self, capsys):
        assert main("train --frobnicate 3 --out r".split()) == 2

    def test_planner_compare_rejects_flat(self, capsys):
        code, err = self.run_main(
            "compare-planner --method q --out r".split(), capsys
        )
        assert code == 2
        assert "--method" in err

    def test_bare_invocation_demands_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_qtable_file_is_runtime_error(self, capsys, tmp_path):
        code, err = self.run_main(
            f"eval --qtable {tmp_path}/absent.csv --out {tmp_path}/e".split(), capsys
        )
        assert code == 1
        assert "absent.csv" in err


class TestConfigFile:
    def write_config(self, tmp_path):
        text = """
# desk-scale run
method = q
planner = on
grid = 5x5
agents = 1
gems = 1
episodes = 12
steps = 40
seed = 9

[layout]
agent.0 = 0,0
gem.0 = 0,2
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_file_values_used(self, tmp_path):
        path = self.write_config(tmp_path)
        cmd = parse_args(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert cmd.run.mode.method is Method.FLAT
        assert cmd.run.episodes == 12
        assert cmd.run.grid.layout == FixedLayout(agents=((0, 0),), gems=((0, 2),))

    def test_flags_override_file(self, tmp_path):
        path = self.write_config(tmp_path)
        cmd = parse_args(
            ["train", "--config", str(path), "--episodes", "30", "--out", str(tmp_path / "o")]
        )
        assert cmd.run.episodes == 30
        assert cmd.run.hyper.seed == 9

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("method = q\nbogus = 3\n")
        with pytest.raises(Exception, match=r"bad.cfg:2"):
            read_config_file(path)

    def test_echo_round_trips(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        recycled = parse_args(
            ["train", "--config", str(out / "config.txt"), "--out", str(tmp_path / "o2")]
        )
        first = parse_args(["train", "--config", str(path), "--out", "x"])
        assert recycled.run.grid == first.run.grid
        assert recycled.run.hyper == first.run.hyper
        assert recycled.run.episodes == first.run.episodes


class TestSummaryPrint:
    def test_threshold_column_reached_and_missed(self, capsys):
        # The CSV files' rule for a missing value: None prints as not-reached.
        _print_summary([SummaryRow("q-options", "on", 1606.0, 3.25, 917),
                        SummaryRow("random", "off", -412.75, 12.0, None)])
        assert capsys.readouterr().out.splitlines() == [
            "method      planner  mean_eval  std_eval  episodes_to_threshold",
            "q-options   on          1606.0       3.2  917",
            "random      off         -412.8      12.0  not-reached",
        ]


class TestEndToEnd:
    def test_train_writes_exact_file_set(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = (
            f"train --grid 5x5 --agents 1 --gems 1 --episodes 15 --steps 40"
            f" --seed 3 --out {out}"
        ).split()
        assert main(argv) == 0
        assert {p.name for p in out.iterdir()} == {
            "config.txt", "metrics.csv", "qtable.csv", "plot_metrics.py",
        }
        assert len((out / "metrics.csv").read_text().splitlines()) == 16

    def test_eval_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            f"train --grid 5x5 --agents 1 --gems 1 --episodes 60 --steps 40"
            f" --seed 3 --out {out}".split()
        )
        eval_out = tmp_path / "eval"
        code = main(
            f"eval --qtable {out / 'qtable.csv'} --runs 5 --seed 7 --grid 5x5"
            f" --agents 1 --gems 1 --steps 40 --out {eval_out}".split()
        )
        assert code == 0
        assert {p.name for p in eval_out.iterdir()} == {
            "config.txt", "metrics.csv", "plot_metrics.py",
        }
        assert len((eval_out / "metrics.csv").read_text().splitlines()) == 6

    def test_eval_method_mismatch_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            f"train --method q --grid 5x5 --agents 1 --gems 1 --episodes 5"
            f" --steps 40 --out {out}".split()
        )
        code = main(
            f"eval --qtable {out / 'qtable.csv'} --method q-options"
            f" --grid 5x5 --agents 1 --gems 1 --steps 40 --out {tmp_path}/e".split()
        )
        assert code == 1
        assert "method" in capsys.readouterr().err

    @pytest.mark.parametrize("sections, missing", [
        ("# option=pickup\nP,0,0,1,1,0,3.5\n", "'# option=drop'"),
        ("# option=drop\nD,0,0,0,1.0\n", "'# option=pickup'"),
        ("", "'# option=pickup' or '# option=drop'"),
    ], ids=["pickup-only", "drop-only", "header-only"])
    def test_eval_rejects_a_missing_section_before_writing(self, tmp_path, capsys,
                                                           sections, missing):
        path = tmp_path / "partial.csv"
        path.write_text(
            "# mode=q-options planner=on alpha=0.1 gamma=0.95 eps_start=1.0 eps_end=0.05"
            " eps_decay_fraction=0.8 alpha_visit_decay=none seed=0\n" + sections
        )
        out = tmp_path / "e"
        code = main(f"eval --qtable {path} --grid 5x5 --agents 1 --gems 1 --out {out}".split())
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: no {missing} section, which mode q-options needs\n")
        assert not out.exists()

    def test_compare_methods_writes_summary_and_arms(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out = tmp_path / "cmp"
        code = main(
            f"compare-methods --grid 5x5 --agents 1 --gems 1 --episodes 10"
            f" --steps 40 --seed 2 --out {out}".split()
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        for arm in ("random", "q", "q-options"):
            assert (out / arm / "metrics.csv").exists()
            assert (out / arm / "eval_metrics.csv").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_oracle_writes_readable_qmap(self, tmp_path, capsys):
        path = tmp_path / "oracle.csv"
        code = main(f"oracle --grid 5x5 --task drop --out {path}".split())
        assert code == 0
        _, _, tables = read_qtable(path)
        assert set(tables) == {"drop"}
        assert len(tables["drop"].rows) == 25

    def test_random_policy_tables_round_trip_through_eval(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            f"train --method random --grid 5x5 --agents 1 --gems 1 --episodes 3"
            f" --steps 30 --out {out}".split()
        )
        code = main(
            f"eval --qtable {out / 'qtable.csv'} --runs 3 --seed 1"
            f" --grid 5x5 --agents 1 --gems 1 --steps 30 --out {tmp_path}/e".split()
        )
        assert code == 0
        lines = (tmp_path / "e" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4  # uniform-random actions, one row per run


PLOT = "cd2458aaaead13d5e83a7b26c36f06feb8aca018ee9fee98e8c2d35b0e36678e"
CONFIG = "6816ec5967cc44a63bcf65ece53dcb60e31b81f23c9b0d7da20589ec4b43a3cd"
LEARNED = {  # with one agent and one gem, every learning arm trains and replays alike
    "metrics.csv": "3fbaa751a41095f81b0a77de9376b3d63f0dcf5f9d5758be181e8d6ca09036e6",
    "eval_metrics.csv": "07e9e36f89d7ba17b1b1fe89582205e925a1bf1139d3f2e34c78d43e3fa3d3f9",
    "plot_metrics.py": PLOT,
}
RANDOM = {
    "metrics.csv": "89860be66e590e898bdf5b5042759ef739f22fd2fcfe814e888411da9763c602",
    "eval_metrics.csv": "e64d2210fee3ec495b6ee27d34705e6d5071543e72a63eccf6cbdadc1cbed5fe",
    "plot_metrics.py": PLOT,
}


def arm_files(arms):
    return {f"{label}/{name}": digest for label, files in arms.items()
            for name, digest in files.items()}


def tree(root):
    """Every file under ``root`` by relative path, with its sha256."""
    return {p.relative_to(root).as_posix(): sha256(p) for p in root.rglob("*") if p.is_file()}


class TestOutputTreesPinned:
    """Each command's whole output tree: the exact file set of every
    directory and the sha256 of every file."""

    SMALL = "--grid 5x5 --agents 1 --gems 1 --steps 40 --seed 5"

    def run(self, command, out, extra="--episodes 10"):
        assert main(f"{command} {self.SMALL} {extra} --out {out}".split()) == 0

    def test_train(self, tmp_path, capsys):
        self.run("train", tmp_path)
        assert tree(tmp_path) == {
            "config.txt": CONFIG,
            "metrics.csv": LEARNED["metrics.csv"],
            "qtable.csv": "71bd278a93a5605d8ca21eda6f017fcc53144e25d4a895065589b47edf870529",
            "plot_metrics.py": PLOT,
        }

    def test_eval(self, tmp_path, capsys):
        self.run("train", tmp_path / "train")
        self.run("eval", tmp_path / "eval", f"--qtable {tmp_path / 'train' / 'qtable.csv'} --runs 3")
        assert tree(tmp_path / "eval") == {
            "config.txt": "937e65904be81105cdc7504e5a58849f5142669a6c799637eb67993390dcfda2",
            "metrics.csv": "272202b8e6b3d7d44e58f60f82a6a83d8503781c6ba69c59e632b8a0b3e22230",
            "plot_metrics.py": PLOT,
        }

    def test_compare_methods(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self.run("compare-methods", tmp_path)
        assert tree(tmp_path) == {
            "config.txt": CONFIG,
            "summary.csv": "25150377e6ae61fd895debc3e3f37cd6dac5114f58c1f581ec4e35edf02fff31",
            **arm_files({"random": RANDOM, "q": LEARNED, "q-options": LEARNED}),
        }

    def test_compare_planner(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self.run("compare-planner", tmp_path)
        assert tree(tmp_path) == {
            "config.txt": CONFIG,
            "summary.csv": "343c07702538648bd0e720d41f30edf7d051f7383b06455caada36e5cae616d7",
            **arm_files({"planner-on": LEARNED, "planner-off": LEARNED}),
        }

    # Two agents and two gems: after the first deposit the planner releases
    # that agent's allocation and, with no gem left to fetch, parks it.
    PAIR = "--grid 7x7 --agents 2 --gems 2 --steps 80 --seed 5 --episodes 150"
    PAIR_CONFIG = "d97781d71c9aeccbedb3ad6ce98c86ff25cd0c01340719e9ea7803524d0f1059"
    PAIR_LEARNED = {  # at this budget flat and options train and replay alike
        "metrics.csv": "5ea41d505183ed5a13429e77d7720a6965d49edbf4d70fcf141794c813135a13",
        "eval_metrics.csv": "4ec07bba4b696a77ae4bf1b872c16b40f832179589d33c5f062c123617c923e2",
        "plot_metrics.py": PLOT,
    }

    def test_two_agent_compare_methods(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(f"compare-methods {self.PAIR} --out {tmp_path}".split()) == 0
        assert tree(tmp_path) == {
            "config.txt": self.PAIR_CONFIG,
            "summary.csv": "b57263313f21d656a2cbaa83b899d9840e6175d632a299f1d7260dd7afce0aae",
            **arm_files({
                "random": {
                    "metrics.csv": "5897bf42e6f3ce2de0fca649ebb8e4262b4a7dfe93c712368a9ac61422be2186",
                    "eval_metrics.csv":
                        "8c7624e3efe31f9003d408d502638cc27112d7ebe17474df0323101818c42b00",
                    "plot_metrics.py": PLOT,
                },
                "q": self.PAIR_LEARNED,
                "q-options": self.PAIR_LEARNED,
            }),
        }

    def test_two_agent_compare_planner(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(f"compare-planner {self.PAIR} --out {tmp_path}".split()) == 0
        assert tree(tmp_path) == {
            "config.txt": self.PAIR_CONFIG,
            "summary.csv": "34515f8582293f828a54c45189de5528d6482408c5e80363fcbc13e8a3160f8e",
            **arm_files({
                "planner-on": self.PAIR_LEARNED,
                "planner-off": {
                    "metrics.csv": "dd70365b6224ec311993f147bcff385a429163ee9eafbed0c9e46b3e62538813",
                    "eval_metrics.csv": self.PAIR_LEARNED["eval_metrics.csv"],
                    "plot_metrics.py": PLOT,
                },
            }),
        }


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestExitCodeRule:
    """Unreadable or unparsable files exit 1 naming file:line; an
    out-of-range value exits 2 naming its flag, from a flag or a file."""

    def test_malformed_config_file_exits_1_naming_line(self, tmp_path, capsys):
        path = write_text(tmp_path, "bad.cfg", "method = q\nbogus = 3\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_repeated_layout_section_exits_1_naming_line(self, tmp_path, capsys):
        path = write_text(tmp_path, "bad.cfg", "grid = 5x5\nagents = 1\ngems = 1\n[layout]\n"
                          "agent.0 = 0,0\n[layout]\ngem.0 = 4,4\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--episodes", "1", "--out", str(out)]) == 1
        assert "bad.cfg:6: repeated [layout] section" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_file_value_exits_2_naming_flag(self, tmp_path, capsys):
        path = write_text(tmp_path, "run.cfg", "gems = 0\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "--gems" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        ("--grid 2x5", "--grid"),
        ("--grid 5x2", "--grid"),
        ("--grid five", "--grid"),
        ("--agents 0", "--agents"),
        ("--episodes 0", "--episodes"),
        ("--steps 0", "--steps"),
        ("--runs 0", "--runs"),
        ("--noop-reward 5", "--noop-reward"),
        ("--alpha 1.5", "--alpha"),
        ("--gamma -0.5", "--gamma"),
        ("--eps-start 1.5", "--eps-start"),
        ("--eps-start 0.2 --eps-end 0.5", "--eps-end"),
        ("--eps-decay-frac 2", "--eps-decay-frac"),
        ("--planner maybe", "--planner"),
        ("--method sarsa", "--method"),
        # Numbers are plain ASCII: no "+", no "_", no other scripts' digits.
        ("--agents +1_0", "--agents"),
        ("--agents +2", "--agents"),
        ("--episodes 1_000", "--episodes"),
        ("--steps \uff15\uff10", "--steps"),
        ("--seed \u0663", "--seed"),
        ("--grid \u0665x5", "--grid"),
        ("--grid 5x\u0665", "--grid"),
        ("--alpha 1_0e-1", "--alpha"),
        ("--alpha +0.5", "--alpha"),
        ("--gamma 0.\u0669", "--gamma"),
    ])
    def test_bad_flag_value_names_flag(self, args, flag, capsys):
        assert main(f"train {args} --out r".split()) == 2
        assert f"error: {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["", " --random-layout"])
    def test_grid_too_small_names_grid_agents_and_gems(self, layout, capsys):
        assert main(f"train --grid 3x3 --agents 5 --gems 4{layout} --out r".split()) == 2
        assert capsys.readouterr().err.startswith("error: --grid, --agents, --gems: grid too small")

    @pytest.mark.parametrize("line", [
        "agents = +1", "agents = 1_0", "seed = \u0663", "alpha = 1_0e-1", "gamma = +0.5",
        "grid = \u0665x5", "[layout]\nagent.0 = +1,0", "[layout]\nagent.0 = 0_1,0",
        "[layout]\nagent.0 = \u0661,0",
    ])
    def test_non_plain_file_number_exits_1_naming_line(self, tmp_path, capsys, line):
        path = write_text(tmp_path, "bad.cfg", f"method = q\n{line}\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"bad.cfg:{line.count(chr(10)) + 2}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("task, grid", [("pickup", "40x40"), ("drop", "448x448")])
    def test_oversized_oracle_grid_exits_2_naming_grid(self, tmp_path, capsys, task, grid):
        out = tmp_path / "q.csv"
        assert main(["oracle", "--grid", grid, "--task", task, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --grid: ") and "exceed the oracle limit" in err
        assert not out.exists()

    def test_zero_alpha_parses(self):
        assert parse_args("train --alpha 0 --out r".split()).run.hyper.alpha == 0.0

    def test_plain_number_forms_parse(self):
        run = parse_args("train --alpha .5 --gamma 1e-1 --eps-start 1. --seed 07 --out r".split()).run
        assert (run.hyper.alpha, run.hyper.gamma, run.hyper.eps_start) == (0.5, 0.1, 1.0)
        assert run.hyper.seed == 7


class TestConfigFileStrictness:
    LAYOUT = "[layout]\nagent.0 = 0,0\ngem.0 = 0,2\n"

    @pytest.mark.parametrize("word", ["1", "true", "yes", "on", "TRUE"])
    def test_true_words_select_random_layout(self, tmp_path, word):
        path = write_text(tmp_path, "run.cfg", f"random-layout = {word}\n")
        cmd = parse_args(["train", "--config", str(path), "--out", "o"])
        assert isinstance(cmd.run.grid.layout, RandomLayout)

    @pytest.mark.parametrize("word", ["0", "false", "no", "off"])
    def test_false_words_keep_fixed_layout(self, tmp_path, word):
        path = write_text(tmp_path, "run.cfg", f"random-layout = {word}\n")
        cmd = parse_args(["train", "--config", str(path), "--out", "o"])
        assert isinstance(cmd.run.grid.layout, FixedLayout)

    def test_repeated_key_rejected_with_line(self, tmp_path):
        path = write_text(tmp_path, "bad.cfg", "alpha = 0.1\nseed = 2\nalpha = 0.5\n")
        with pytest.raises(ParseError, match=r"bad.cfg:3"):
            read_config_file(path)

    def test_unknown_switch_word_rejected_with_line(self, tmp_path):
        path = write_text(tmp_path, "bad.cfg", "seed = 1\nrandom-layout = maybe\n")
        with pytest.raises(ParseError, match=r"bad.cfg:2"):
            read_config_file(path)

    @pytest.mark.parametrize("entries, line", [
        ("agent.0 = 0,0\nagent.5 = 1,1\n", 3),
        ("agent.0 = 0,0\nagent.0 = 1,1\n", 3),
        ("agent.1 = 0,0\n", 2),
        ("robot.0 = 0,0\n", 2),
    ])
    def test_layout_indices_run_from_zero(self, tmp_path, entries, line):
        path = write_text(tmp_path, "bad.cfg", "[layout]\n" + entries + "gem.0 = 0,2\n")
        with pytest.raises(ParseError, match=rf"bad.cfg:{line}:"):
            read_config_file(path)

    def test_layout_section_conflicts_with_random_layout_in_file(self, tmp_path):
        path = write_text(tmp_path, "bad.cfg", "random-layout = true\n" + self.LAYOUT)
        with pytest.raises(ParseError, match=r"bad.cfg:2"):
            read_config_file(path)

    @pytest.mark.parametrize("text, message", [
        ("gems = 1\n[layout]\nagent.0 = 9,9\nagent.1 = 4,4\ngem.0 = 0,1\n",
         "agent.0 = 9,9 is off the 5x5 grid"),
        ("gems = 2\n[layout]\nagent.0 = 0,0\nagent.1 = 4,4\ngem.0 = 1,1\ngem.1 = 1,1\n",
         "gem.0 and gem.1 share the cell 1,1"),
        ("gems = 1\n[layout]\nagent.0 = 0,0\ngem.0 = 0,1\n", "agent.1 is missing: agents = 2"),
        ("gems = 1\n[layout]\nagent.0 = 0,0\nagent.1 = 4,4\ngem.0 = 2,2\n",
         "gem.0 = 2,2 is on the bank"),
    ], ids=["out-of-bounds", "repeated-gem", "short-list", "gem-on-bank"])
    def test_bad_layout_names_file_section_and_entry(self, tmp_path, capsys, text, message):
        path = write_text(tmp_path, "run.cfg", "grid = 5x5\nagents = 2\n" + text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path} [layout]: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_layout_section_conflicts_with_random_layout_flag(self, tmp_path, capsys):
        path = write_text(tmp_path, "run.cfg", "agents = 1\ngems = 1\n" + self.LAYOUT)
        argv = ["train", "--config", str(path), "--random-layout", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "--random-layout" in capsys.readouterr().err


class TestSettingsTable:
    SHARED = {
        "--config", "--method", "--planner", "--grid", "--agents", "--gems", "--episodes",
        "--steps", "--noop-reward", "--alpha", "--gamma", "--eps-start", "--eps-end",
        "--eps-decay-frac", "--seed", "--runs", "--random-layout", "--out",
    }

    # A comparison has no flag for what it compares, and eval none for how
    # the saved table was trained.
    FIXED = {
        "compare-methods": {"--method"},
        "compare-planner": {"--method", "--planner"},
        "eval": {"--alpha", "--gamma", "--eps-start", "--eps-end", "--eps-decay-frac",
                 "--episodes"},
    }

    @pytest.mark.parametrize("command, extra", [
        ("train", set()),
        ("eval", {"--qtable"}),
        ("compare-methods", set()),
        ("compare-planner", set()),
    ])
    def test_learning_commands_keep_their_flags(self, command, extra):
        assert option_strings(command) == self.SHARED - self.FIXED.get(command, set()) | extra

    def test_oracle_keeps_its_flags(self):
        assert option_strings("oracle") == {
            "--config", "--grid", "--noop-reward", "--gamma", "--task", "--out",
        }

    @pytest.mark.parametrize("flags", [
        "--grid 7x9 --agents 3 --gems 2 --alpha 0.3 --eps-end 0.01 --noop-reward -1",
        "--random-layout --method q --planner off --seed 4 --runs 3",
    ])
    def test_echo_through_config_is_byte_identical(self, tmp_path, flags):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_config_echo(parse_args(["train", *flags.split(), "--out", "o"]).run, first)
        recycled = parse_args(["train", "--config", str(first), "--out", "o"])
        write_config_echo(recycled.run, second)
        assert second.read_bytes() == first.read_bytes()


class TestEvalConfigFile:
    """A method, planner or seed from --config acts on eval exactly like the flag."""

    def trained(self, tmp_path, method):
        out = tmp_path / method
        argv = f"train --method {method} --grid 5x5 --agents 1 --gems 1 --episodes 5 --steps 40"
        assert main(f"{argv} --seed 3 --out {out}".split()) == 0
        return out / "qtable.csv"

    def evaluate(self, table, out, *extra):
        argv = f"eval --qtable {table} --grid 5x5 --agents 1 --gems 1 --steps 40 --out {out}"
        return main([*argv.split(), *extra])

    @pytest.mark.parametrize("lines, setting", [
        ("method = q-options", "method"),
        ("planner = off", "planner"),
        ("method = q-options\nplanner = off\nseed = 9", "method"),
    ])
    def test_file_mismatch_exits_1_naming_setting(self, tmp_path, capsys, lines, setting):
        table = self.trained(tmp_path, "q")
        path = write_text(tmp_path, "eval.cfg", lines + "\n")
        assert self.evaluate(table, tmp_path / "e", "--config", str(path)) == 1
        assert setting in capsys.readouterr().err

    def test_file_seed_acts_like_flag(self, tmp_path, capsys):
        # A random-policy table: every eval action is drawn from the seed.
        table = self.trained(tmp_path, "random")
        path = write_text(tmp_path, "eval.cfg", "seed = 9\n")
        assert self.evaluate(table, tmp_path / "file", "--config", str(path)) == 0
        assert self.evaluate(table, tmp_path / "flag", "--seed", "9") == 0
        assert self.evaluate(table, tmp_path / "header") == 0
        file, flag, header = (tmp_path / name for name in ("file", "flag", "header"))
        for name in ("config.txt", "metrics.csv"):
            assert (file / name).read_bytes() == (flag / name).read_bytes()
        assert "seed = 9" in (file / "config.txt").read_text().splitlines()
        assert (file / "metrics.csv").read_bytes() != (header / "metrics.csv").read_bytes()


class TestEvalTakesNoTrainingSettings:
    """Greedy replay trains nothing, so eval has no flag for a training
    setting and ignores its key in a --config file."""

    TRAINING = ["--alpha 0.7", "--gamma 0.2", "--eps-start 0.5", "--eps-end 0.01",
                "--eps-decay-frac 0.3", "--episodes 99"]

    @pytest.mark.parametrize("flag", TRAINING)
    def test_flag_exits_2(self, tmp_path, capsys, flag):
        argv = ["eval", "--qtable", str(tmp_path / "q.csv"), *flag.split(), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert flag.split()[0] in capsys.readouterr().err

    def test_file_keys_leave_the_run_unchanged(self, tmp_path, capsys):
        runs = TestEvalConfigFile()
        table = runs.trained(tmp_path, "q")
        text = "".join(f"{flag[2:]} = {value}\n" for flag, value in map(str.split, self.TRAINING))
        path = write_text(tmp_path, "eval.cfg", text)
        file, bare = tmp_path / "file", tmp_path / "bare"
        assert runs.evaluate(table, file, "--config", str(path)) == 0
        assert runs.evaluate(table, bare) == 0
        for name in ("config.txt", "metrics.csv"):
            assert (file / name).read_bytes() == (bare / name).read_bytes()


def option_strings(command):
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    actions = subparsers.choices[command]._actions
    return {o for a in actions for o in a.option_strings} - {"-h", "--help"}


class TestCommandsReadOnlyWhatTheyTake:
    """A command has no flag for a setting it does not take and ignores that
    key in a --config file, so config.txt cannot report a setting that did
    not act."""

    ORACLE = ["oracle", "--grid", "3x3", "--task", "drop", "--out"]

    @pytest.mark.parametrize("text", [
        "agents = 0\n",
        "steps = 0\n",
        # A gem on the 3x3 bank, which GridConfig rejects.
        "agents = 1\ngems = 1\n[layout]\nagent.0 = 0,0\ngem.0 = 1,1\n",
    ], ids=["agents", "steps", "layout"])
    def test_oracle_ignores_file_keys_it_does_not_take(self, tmp_path, capsys, text):
        path = write_text(tmp_path, "oracle.cfg", text)
        assert main([*self.ORACLE, str(tmp_path / "bare.csv")]) == 0
        assert main([*self.ORACLE, str(tmp_path / "file.csv"), "--config", str(path)]) == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()

    def test_oracle_file_keys_it_takes_act_like_flags(self, tmp_path, capsys):
        path = write_text(tmp_path, "oracle.cfg", "grid = 4x3\ngamma = 0.5\nnoop-reward = -1\n")
        argv = ["oracle", "--task", "pickup", "--out"]
        assert main([*argv, str(tmp_path / "file.csv"), "--config", str(path)]) == 0
        flags = ["--grid", "4x3", "--gamma", "0.5", "--noop-reward", "-1"]
        assert main([*argv, str(tmp_path / "flag.csv"), *flags]) == 0
        assert main([*argv, str(tmp_path / "bare.csv")]) == 0
        file = (tmp_path / "file.csv").read_bytes()
        assert file == (tmp_path / "flag.csv").read_bytes() != (tmp_path / "bare.csv").read_bytes()

    def test_oracle_unparsable_file_text_exits_1_naming_line(self, tmp_path, capsys):
        path = write_text(tmp_path, "oracle.cfg", "gamma = 0.9\nagents = many\n")
        assert main([*self.ORACLE, str(tmp_path / "q.csv"), "--config", str(path)]) == 1
        assert "oracle.cfg:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        ("compare-methods --method random", "--method"),
        ("compare-planner --planner off", "--planner"),
    ])
    def test_compare_rejects_a_flag_for_what_it_fixes(self, tmp_path, capsys, argv, flag):
        small = "--grid 5x5 --agents 1 --gems 1 --episodes 2 --steps 5"
        assert main([*argv.split(), *small.split(), "--out", str(tmp_path / "r")]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, arms", [
        ("compare-methods", "method = random\n",
         {"random": "random,on", "q": "q,on", "q-options": "q-options,on"}),
        ("compare-planner", "method = q\nplanner = off\n",
         {"planner-on": "q-options,on", "planner-off": "q-options,off"}),
    ])
    def test_compare_ignores_file_keys_for_what_it_fixes(
        self, tmp_path, capsys, monkeypatch, command, text, arms
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        path = write_text(tmp_path, "run.cfg", text)
        argv = f"{command} --grid 5x5 --agents 1 --gems 1 --episodes 10 --steps 40 --seed 2"
        file, bare = tmp_path / "file", tmp_path / "bare"
        assert main([*argv.split(), "--config", str(path), "--out", str(file)]) == 0
        assert main([*argv.split(), "--out", str(bare)]) == 0
        for name in ("config.txt", "summary.csv"):
            assert (file / name).read_bytes() == (bare / name).read_bytes()
        assert {p.name for p in file.iterdir() if p.is_dir()} == set(arms)
        rows = (file / "summary.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 3)[0] for row in rows] == list(arms.values())


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOracleGoldenBytes:
    """The exact solver's Q maps, pinned to the byte. Any change to the
    solver's order of work must leave every written value unchanged."""

    @pytest.mark.parametrize("task, noop, digest", [
        ("pickup", "0", "d9acb27d985c4e465837f9d27ce81a70fdbabffcc52c1df6347982f6436156d7"),
        ("pickup", "-1", "fc839df081b6cbb0568baa04413e20318828ddd472e0ac7e95248884e2cb7980"),
        ("drop", "0", "57ecefea2b3f3e288fe94696bfdb79fe582968d2e0fdfab034295e29bd58428e"),
        ("drop", "-1", "6a6338e6cbb8010012bedd6fa91f9f6ffde3977658e08e1d698b3d22496ecc31"),
    ])
    def test_oracle_command_7x7(self, tmp_path, capsys, task, noop, digest):
        path = tmp_path / "q.csv"
        argv = ["oracle", "--grid", "7x7", "--task", task, "--noop-reward", noop]
        assert main([*argv, "--out", str(path)]) == 0
        assert sha256(path) == digest

    @pytest.mark.parametrize("task, digest", [
        ("pickup", "72b6d0af70e1424dc2d43105d195dc65ec52e8ff9b6cb002393ef49aac27ffa3"),
        ("drop", "18f8a7fbe7b8888cf3164de0ce05a33b424fa2abe73584938e2e49f05c5434a0"),
    ])
    def test_off_centre_bank(self, tmp_path, task, digest):
        grid = GridConfig(5, 7, 1, 1, 100, bank=(1, 2))
        path = tmp_path / "q.csv"
        write_qtable(
            {task: value_iteration_oracle(grid, task, 0.95)}, path,
            ControllerMode(Method.OPTIONS, planner_enabled=True), Hyperparams(gamma=0.95),
        )
        assert sha256(path) == digest

    @pytest.mark.parametrize("size, bank, task, noop, gamma, digest", [
        # A no-op reward of -1 at gamma 0.5 takes 3 to 11 sweeps.
        ((5, 7), (1, 2), "pickup", -1, 0.5,
         "8f9d00da80faa86e167e7c8f9fc578159d22de38c84cf3a359c0ab50d4eae8a7"),
        ((5, 7), (1, 2), "drop", -1, 0.5,
         "c0aca289dd82ec0929b66b8f05616deb8755454a1a7180d0ed3622f759c52095"),
        ((9, 7), (2, 6), "pickup", -1, 0.5,
         "633656ec19ebf6d23d9073c228c73b3435125495de893ea70d270ef4b2a09ace"),
        ((9, 7), (2, 6), "drop", -1, 0.5,
         "18a5f06c98e815dbeeba2d7388f33012eaa1a582041ad461e04f57b6a35b681b"),
        # The edges of the discount: gamma 0 (2 sweeps) and gamma 1, undiscounted (3).
        ((5, 7), (1, 2), "pickup", 0, 0.0,
         "ff3821b818d7328df8705fbdd85544690bdd3a463c6b35c1d91df87c5821f4d8"),
        ((5, 7), (1, 2), "pickup", -1, 0.0,
         "d12ddf97a77aa5112af8f581f0c3f25379a5bbdd0e974410a1369d0d43cabb84"),
        ((5, 7), (1, 2), "drop", 0, 0.0,
         "d6d3b0eca0c1b7473df520456a0ab17d58bb7e06319b84d3ada738aa4f61c539"),
        ((5, 7), (1, 2), "drop", -1, 0.0,
         "3b1f1db07b22e7a7b8847b49a66f5c9d4d1be7862c993e03b47ccee8646da0a3"),
        ((5, 7), (1, 2), "pickup", 0, 1.0,
         "93c34c43c4b33d1d307ee29a48bfe8477c061317d878c2ab7ee9fdfc1686641e"),
        ((5, 7), (1, 2), "pickup", -1, 1.0,
         "211a5675c2002109699ddade552fcc03f7489f7823173da7f41f261f9c775b68"),
        ((5, 7), (1, 2), "drop", 0, 1.0,
         "303f6142173a6c769157a457f79cca67ea89d9cf152f2bf66e99a84ded613d71"),
        ((5, 7), (1, 2), "drop", -1, 1.0,
         "23e57bed717c708e56c398eb26f515a47439fddefcc0de7bda5f2fb62246a4cc"),
    ])
    def test_multi_sweep_and_discount_edges(self, tmp_path, size, bank, task, noop, gamma, digest):
        grid = GridConfig(*size, 1, 1, 100, bank=bank, noop_reward=noop)
        path = tmp_path / "q.csv"
        write_qtable(
            {task: value_iteration_oracle(grid, task, gamma)}, path,
            ControllerMode(Method.OPTIONS, planner_enabled=True), Hyperparams(gamma=gamma),
        )
        assert sha256(path) == digest

    def test_oracle_command_11x11_pickup(self, tmp_path, capsys):
        path = tmp_path / "q.csv"
        assert main(["oracle", "--grid", "11x11", "--task", "pickup", "--out", str(path)]) == 0
        assert sha256(path) == "900c4137f3317eadf0ceef9113aeacdc905319e671a5d4ea21b4026f1aa47095"
