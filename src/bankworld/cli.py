"""Command-line entry point.

Subcommands: ``train``, ``eval``, ``compare-methods``, ``compare-planner``,
``oracle``. Each setting is one row of ``_SETTINGS``, whose key is the flag,
the config-file key and the config-echo label. Values resolve in three
layers, each parsed from text by the row's converter: the row default, a
``--config`` file of ``key = value`` lines (plus an optional ``[layout]``
section of ``agent.N = r,c`` and ``gem.N = r,c``, N counting from 0), then
flags. `GridConfig`, `Hyperparams` and `RunConfig` check the ranges. Every
run echoes its resolved settings to ``config.txt`` in the config format.

Exit codes: 0 on success; 1 when a file cannot be read or parsed (the
message names ``file:line``) or the run fails; 2 for usage errors, such as
an out-of-range value from a flag or the config file (the flag is named).
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from .environment import ConfigError, FixedLayout, GridConfig, Position, RandomLayout
from .harness import (
    NOT_REACHED,
    ParseError,
    RunConfig,
    compare_methods,
    compare_planner,
    evaluate,
    read_qtable,
    run_and_save,
    value_iteration_oracle,
    write_metrics,
    write_plot_script,
    write_qtable,
    write_summary,
)
from .learner import ControllerMode, Hyperparams, Method


class UsageError(ValueError):
    """Bad flag or flag combination; message names the culprit."""


def _switch(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected on/off, true/false, yes/no or 1/0, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _grid_size(text: str) -> tuple[int, int]:
    width, x, height = text.partition("x")
    if not (x and width.isdigit() and height.isdigit()):
        raise ValueError(f"expected WxH, got {text!r}")
    return int(width), int(height)


class Setting(NamedTuple):
    key: str  # the flag without "--", the config-file key and the echo label
    parse: Callable[[str], Any]  # flag or file text -> field value
    default: str  # in config-file text
    field: str  # RunConfig field(s) filled: "part.name", or "name" on RunConfig itself
    show: Callable[[Any], Optional[str]]  # field value -> echo text; None writes no line
    oracle: bool  # the oracle command takes it
    help: Optional[str] = None

    def paths(self) -> list[tuple[str, str]]:
        return [tuple(path.rpartition(".")[::2]) for path in self.field.split()]


_SETTINGS = (
    Setting("method", Method, "q-options", "mode.method", lambda m: m.value, False,
            "random, q or q-options"),
    Setting("planner", _switch, "on", "mode.planner_enabled", lambda on: "on" if on else "off",
            False, "on or off"),
    Setting("grid", _grid_size, "11x11", "grid.width grid.height", "{0[0]}x{0[1]}".format,
            True, "grid size as WxH, e.g. 11x11"),
    Setting("agents", int, "2", "grid.num_agents", str, False),
    Setting("gems", int, "3", "grid.num_gems", str, False),
    Setting("episodes", int, "6000", "episodes", str, False),
    Setting("steps", int, "1000", "grid.step_limit", str, False, "step limit per episode"),
    Setting("noop-reward", int, "0", "grid.noop_reward", str, True, "0 or -1"),
    Setting("alpha", float, "0.1", "hyper.alpha", repr, False),
    Setting("gamma", float, "0.95", "hyper.gamma", repr, True),
    Setting("eps-start", float, "1.0", "hyper.eps_start", repr, False),
    Setting("eps-end", float, "0.05", "hyper.eps_end", repr, False),
    Setting("eps-decay-frac", float, "0.8", "hyper.eps_decay_fraction", repr, False),
    Setting("seed", int, "0", "hyper.seed", str, False),
    Setting("runs", int, "10", "eval_runs", str, False, "greedy evaluation runs"),
    Setting("random-layout", lambda text: RandomLayout() if _switch(text) else None, "false",
            "grid.layout", lambda layout: "true" if isinstance(layout, RandomLayout) else None,
            False, "fresh seeded start cells every episode"),
)
_BY_KEY = {s.key: s for s in _SETTINGS}
_FLAGS = {name: f"--{s.key}" for s in _SETTINGS for _, name in s.paths()}
_LAYOUT = next(s for s in _SETTINGS if s.field == "grid.layout")


@dataclass
class TrainCmd:
    run: RunConfig


@dataclass
class EvalCmd:
    """Each ``*_flag`` holds the value a flag or the config file gave, else None."""

    qtable: Path
    run: RunConfig
    method_flag: Optional[Method]
    planner_flag: Optional[bool]
    seed_flag: Optional[int]


@dataclass
class CompareMethodsCmd:
    run: RunConfig


@dataclass
class ComparePlannerCmd:
    run: RunConfig


@dataclass
class OracleCmd:
    grid: GridConfig
    task: str
    gamma: float
    out: Path


CliCommand = Union[TrainCmd, EvalCmd, CompareMethodsCmd, ComparePlannerCmd, OracleCmd]


def _parse_position(text: str) -> Position:
    r, _, c = text.partition(",")
    return (int(r.strip()), int(c.strip()))


def read_config_file(path: Path) -> tuple[dict, Optional[FixedLayout]]:
    """Parse the flat key=value format with its [layout] section into
    values by key and the layout, if the file has one."""
    values: dict = {}
    cells: dict[str, list[Position]] = {"agent": [], "gem": []}
    in_layout = False
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line == "[layout]":
                    if values.get(_LAYOUT.key) is not None:
                        raise ValueError(f"[layout] conflicts with {_LAYOUT.key} = true")
                    in_layout = True
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                if not sep:
                    raise ValueError("expected key = value")
                if in_layout:
                    kind, _, index = key.partition(".")
                    if kind not in cells or index != str(len(cells[kind])):
                        raise ValueError(f"expected agent.N or gem.N, N = 0, 1, ..., got {key!r}")
                    cells[kind].append(_parse_position(value))
                elif key in _BY_KEY and key not in values:
                    values[key] = _BY_KEY[key].parse(value)
                else:
                    raise ValueError(f"unknown or repeated setting {key!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    layout = FixedLayout(tuple(cells["agent"]), tuple(cells["gem"])) if in_layout else None
    return values, layout


def _resolve(args) -> tuple[dict, set]:
    """Defaults, then the config file, then explicit flags; plus the keys those two gave."""
    values = {s.key: s.parse(s.default) for s in _SETTINGS}
    given = set()
    if args.config is not None:
        file_values, layout = read_config_file(Path(args.config))
        values.update(file_values)
        given.update(file_values)
        if layout is not None:
            values[_LAYOUT.key] = layout
    for s in _SETTINGS:
        text = getattr(args, s.key.replace("-", "_"), None)
        if text is None:
            continue
        if isinstance(values[s.key], FixedLayout):
            raise UsageError(f"--{s.key}: {args.config} has a [layout] section")
        try:
            values[s.key] = s.parse(text)
        except ValueError as exc:
            raise UsageError(f"--{s.key}: {exc}") from None
        given.add(s.key)
    return values, given


def _build_run_config(values: dict, out: Optional[str]) -> RunConfig:
    parts: dict[str, dict] = {"grid": {}, "hyper": {}, "mode": {}, "": {}}
    for s in _SETTINGS:
        paths = s.paths()
        split = values[s.key] if len(paths) > 1 else (values[s.key],)
        for (part, name), value in zip(paths, split):
            parts[part][name] = value
    try:
        return RunConfig(
            grid=GridConfig(**parts["grid"]),
            mode=ControllerMode(**parts["mode"]),
            hyper=Hyperparams(**parts["hyper"]),
            output_dir=Path(out) if out is not None else None,
            **parts[""],
        )
    except ConfigError as exc:
        flag = _FLAGS.get(exc.field)
        raise UsageError(str(exc) if flag is None else f"{flag}: {exc}") from None


def write_config_echo(cfg: RunConfig, path: Path) -> None:
    lines = []
    for s in _SETTINGS:
        value = [getattr(getattr(cfg, part) if part else cfg, name) for part, name in s.paths()]
        text = s.show(tuple(value) if len(value) > 1 else value[0])
        if text is not None:
            lines.append(f"{s.key} = {text}")
    layout = cfg.grid.layout
    if isinstance(layout, FixedLayout):
        lines += ["", "[layout]"]
        lines += [f"agent.{i} = {r},{c}" for i, (r, c) in enumerate(layout.agents)]
        lines += [f"gem.{i} = {r},{c}" for i, (r, c) in enumerate(layout.gems)]
    path.write_text("\n".join(lines) + "\n")


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="bankworld",
        description="Multi-agent gem-collection gridworld: train and compare tabular learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": "train one method and save its tables",
        "eval": "replay greedy episodes from saved tables",
        "compare-methods": "random vs flat vs options under one seed",
        "compare-planner": "options learning with planner on vs off",
        "oracle": "solve one sub-task exactly and save its Q map",
    }
    for command, summary in commands.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="config file; flags override its values")
        for s in _SETTINGS:
            if command == "oracle" and not s.oracle:
                continue
            if s is _LAYOUT:
                p.add_argument(f"--{s.key}", action="store_const", const="true", help=s.help)
            else:
                p.add_argument(f"--{s.key}", help=s.help)
        if command == "eval":
            p.add_argument("--qtable", required=True, help="q-table file written by train")
        if command == "oracle":
            p.add_argument("--task", required=True, choices=["pickup", "drop"])
        where = "file for the Q map" if command == "oracle" else "directory for run artifacts"
        p.add_argument("--out", required=True, help=f"output {where}")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> CliCommand:
    """Resolve argv (plus any config file) into a validated command."""
    args = _build_parser().parse_args(argv)
    values, given = _resolve(args)
    run = _build_run_config(values, None if args.command == "oracle" else args.out)
    if args.command == "train":
        return TrainCmd(run)
    if args.command == "eval":
        return EvalCmd(
            Path(args.qtable),
            run,
            run.mode.method if "method" in given else None,
            run.mode.planner_enabled if "planner" in given else None,
            run.hyper.seed if "seed" in given else None,
        )
    if args.command == "compare-methods":
        return CompareMethodsCmd(run)
    if args.command == "compare-planner":
        if run.mode.method is not Method.OPTIONS:
            raise UsageError(f"{_FLAGS['method']}: planner comparison requires q-options")
        return ComparePlannerCmd(run)
    return OracleCmd(run.grid, args.task, run.hyper.gamma, Path(args.out))


def _final_mean(records, window=100) -> float:
    tail = records[-window:]
    return statistics.fmean(r.total_reward for r in tail)


def _run_train(cmd: TrainCmd) -> None:
    out = Path(cmd.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config_echo(cmd.run, out / "config.txt")
    result = run_and_save(cmd.run)
    print(
        f"trained {cmd.run.mode.method.value} for {cmd.run.episodes} episodes;"
        f" trailing mean reward {_final_mean(result.records):.1f}; artifacts in {out}"
    )


def _run_eval(cmd: EvalCmd) -> None:
    mode, hyper, tables = read_qtable(cmd.qtable)
    if cmd.method_flag is not None and cmd.method_flag is not mode.method:
        raise ConfigError(
            f"q-table was trained with method {mode.method.value}, not {cmd.method_flag.value}"
        )
    if cmd.planner_flag is not None and cmd.planner_flag != mode.planner_enabled:
        raise ConfigError(f"q-table planner setting does not match {_FLAGS['planner_enabled']}")
    if cmd.seed_flag is not None:
        hyper = replace(hyper, seed=cmd.seed_flag)
    cfg = replace(cmd.run, mode=mode, hyper=hyper)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config_echo(cfg, out / "config.txt")
    records = evaluate(tables, cfg)
    write_metrics(records, out / "metrics.csv")
    write_plot_script(out / "metrics.csv")
    rewards = [r.total_reward for r in records]
    std = statistics.stdev(rewards) if len(rewards) > 1 else 0.0
    print(
        f"eval {mode.method.value}: mean reward {statistics.fmean(rewards):.1f}"
        f" (std {std:.1f}) over {len(records)} greedy runs; artifacts in {out}"
    )


def _print_summary(rows) -> None:
    print("method      planner  mean_eval  std_eval  episodes_to_threshold")
    for row in rows:
        reached = NOT_REACHED if row.episodes_to_threshold is None else row.episodes_to_threshold
        print(
            f"{row.method:<11} {row.planner:<8} {row.mean_eval_reward:>9.1f}"
            f" {row.std_eval_reward:>9.1f}  {reached}"
        )


def _run_compare(cmd, compare) -> None:
    out = Path(cmd.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config_echo(cmd.run, out / "config.txt")
    rows = compare(cmd.run, out_dir=out)
    write_summary(rows, out / "summary.csv")
    _print_summary(rows)
    print(f"summary written to {out / 'summary.csv'}")


def _run_oracle(cmd: OracleCmd) -> None:
    table = value_iteration_oracle(cmd.grid, cmd.task, cmd.gamma)
    cmd.out.parent.mkdir(parents=True, exist_ok=True)
    write_qtable(
        {cmd.task: table},
        cmd.out,
        ControllerMode(Method.OPTIONS, planner_enabled=True),
        Hyperparams(gamma=cmd.gamma),
    )
    print(f"exact {cmd.task} Q map ({len(table)} entries) written to {cmd.out}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command = parse_args(argv)
        if isinstance(command, TrainCmd):
            _run_train(command)
        elif isinstance(command, EvalCmd):
            _run_eval(command)
        elif isinstance(command, CompareMethodsCmd):
            _run_compare(command, compare_methods)
        elif isinstance(command, ComparePlannerCmd):
            _run_compare(command, compare_planner)
        else:
            _run_oracle(command)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
