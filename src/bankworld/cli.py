"""Command-line entry point.

Each subcommand is one row of ``_COMMANDS``: its help, its runner and the
setting keys it takes. It has flags only for those and ignores other keys
in a config file. Each setting is one row of ``_SETTINGS``, whose key is the
flag, the config-file key and the config-echo label. Values resolve in three
layers, each parsed from text by the row's converter: the row default, a
``--config`` file of ``key = value`` lines (plus an optional ``[layout]``
section of ``agent.N = r,c`` and ``gem.N = r,c``, N counting from 0), then
flags. `GridConfig`, `Hyperparams` and `RunConfig` check the ranges. The
runners alone create output directories and write a run's files; each but
``oracle`` echoes its resolved settings to ``config.txt`` in the config format.

Exit codes: 0 on success; 1 when a file cannot be read or parsed (the
message names ``file:line``) or the run fails; 2 for usage errors, such as
an out-of-range value from a flag or the config file (the flag is named).
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .environment import ConfigError, FixedLayout, GridConfig, Position, RandomLayout
from .harness import (
    OPTIONS_MODE,
    ParseError,
    RunConfig,
    cell_text,
    compare,
    evaluate,
    read_qtable,
    reward_mean_std,
    train,
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


def _int(text: str) -> int:
    """int() of plain text, an optional minus then ASCII digits: no "+", "_" or padding."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    """float() of plain text, in ASCII digits: no "+" in front, no "_" or padding."""
    if not re.fullmatch(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?", text):
        raise ValueError(f"expected a decimal number, got {text!r}")
    return float(text)


def _grid_size(text: str) -> tuple[int, int]:
    width, x, height = text.partition("x")
    if not (x and text.isascii() and width.isdigit() and height.isdigit()):
        raise ValueError(f"expected WxH, got {text!r}")
    return int(width), int(height)


class Setting(NamedTuple):
    key: str  # the flag without "--", the config-file key and the echo label
    parse: Callable[[str], Any]  # flag or file text -> field value
    default: str  # in config-file text
    field: str  # RunConfig field(s) filled: "part.name", or "name" on RunConfig itself
    show: Callable[[Any], Optional[str]]  # field value -> echo text; None writes no line
    help: Optional[str] = None

    def paths(self) -> list[tuple[str, str]]:
        return [tuple(path.rpartition(".")[::2]) for path in self.field.split()]


_SETTINGS = (
    Setting("method", Method, "q-options", "mode.method", lambda m: m.value,
            "random, q or q-options"),
    Setting("planner", _switch, "on", "mode.planner_enabled", lambda on: "on" if on else "off",
            "on or off"),
    Setting("grid", _grid_size, "11x11", "grid.width grid.height", "{0[0]}x{0[1]}".format,
            "grid size as WxH, e.g. 11x11"),
    Setting("agents", _int, "2", "grid.num_agents", str),
    Setting("gems", _int, "3", "grid.num_gems", str),
    Setting("episodes", _int, "6000", "episodes", str),
    Setting("steps", _int, "1000", "grid.step_limit", str, "step limit per episode"),
    Setting("noop-reward", _int, "0", "grid.noop_reward", str, "0 or -1"),
    Setting("alpha", _float, "0.1", "hyper.alpha", repr),
    Setting("gamma", _float, "0.95", "hyper.gamma", repr),
    Setting("eps-start", _float, "1.0", "hyper.eps_start", repr),
    Setting("eps-end", _float, "0.05", "hyper.eps_end", repr),
    Setting("eps-decay-frac", _float, "0.8", "hyper.eps_decay_fraction", repr),
    Setting("seed", _int, "0", "hyper.seed", str),
    Setting("runs", _int, "10", "eval_runs", str, "greedy evaluation runs"),
    Setting("random-layout", lambda text: RandomLayout() if _switch(text) else None, "false",
            "grid.layout", lambda layout: "true" if isinstance(layout, RandomLayout) else None,
            "fresh seeded start cells every episode"),
)
_BY_KEY = {s.key: s for s in _SETTINGS}
_FLAGS = {name: f"--{s.key}" for s in _SETTINGS for _, name in s.paths()}
_LAYOUT = next(s for s in _SETTINGS if s.field == "grid.layout")


def _parse_position(text: str) -> Position:
    r, _, c = text.partition(",")
    return (_int(r.strip()), _int(c.strip()))


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
                    if in_layout:
                        raise ValueError("repeated [layout] section")
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


def _resolve(args, takes: frozenset) -> tuple[dict, frozenset]:
    """Defaults, then the config file, then explicit flags; plus the keys those two gave.
    Config-file keys outside ``takes``, and a [layout] section unless it takes
    ``random-layout``, are ignored: the command has no flag for them."""
    values = {s.key: s.parse(s.default) for s in _SETTINGS}
    given = set()
    if args.config is not None:
        file_values, layout = read_config_file(Path(args.config))
        given.update(takes & file_values.keys())
        values.update((key, file_values[key]) for key in given)
        if layout is not None and _LAYOUT.key in takes:
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
    return values, frozenset(given)


def _build_run_config(values: dict, config: Optional[str]) -> RunConfig:
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
            **parts[""],
        )
    except ConfigError as exc:
        # A fixed layout comes only from the [layout] section of the config file.
        flags = dict.fromkeys(_FLAGS.get(name) for name in (exc.field or "").split())
        where = f"{config} [layout]" if exc.field == "layout" else ", ".join(filter(None, flags))
        raise UsageError(f"{where}: {exc}" if where else str(exc)) from None


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bankworld",
        description="Multi-agent gem-collection gridworld: train and compare tabular learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="config file; flags override its values")
        for s in _SETTINGS:
            if s.key not in command.takes:
                continue
            if s is _LAYOUT:
                p.add_argument(f"--{s.key}", action="store_const", const="true", help=s.help)
            else:
                p.add_argument(f"--{s.key}", help=s.help)
        for flag, options in command.extra.items():
            p.add_argument(flag, **options)
        p.add_argument("--out", required=True, help=f"output {command.out}")
    return parser


class Parsed(NamedTuple):
    args: argparse.Namespace  # as argparse parsed it; ``args.command`` keys `_COMMANDS`
    run: RunConfig  # a setting the command does not take holds its default
    given: frozenset  # the setting keys a flag or the config file set


def parse_args(argv: Optional[Sequence[str]] = None) -> Parsed:
    """Resolve argv (plus any config file) into a validated run config."""
    args = _build_parser().parse_args(argv)
    values, given = _resolve(args, _COMMANDS[args.command].takes)
    return Parsed(args, _build_run_config(values, args.config), given)


_FINAL_WINDOW = 100  # episodes in the trailing mean reward that `train` prints


def _final_mean(records) -> float:
    return statistics.fmean(r.total_reward for r in records[-_FINAL_WINDOW:])


def _run_dir(out: str, run: RunConfig) -> Path:
    """Create a run's output directory and echo its settings into it."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    write_config_echo(run, path / "config.txt")
    return path


def _write_curve(records, path: Path) -> None:
    """A metrics file and the plot script that reads it."""
    write_metrics(records, path)
    write_plot_script(path)


def _run_train(args, run: RunConfig, given) -> None:
    out = _run_dir(args.out, run)
    result = train(run)
    _write_curve(result.records, out / "metrics.csv")
    write_qtable(result.tables, out / "qtable.csv", run.mode, run.hyper)
    print(
        f"trained {run.mode.method.value} for {run.episodes} episodes;"
        f" trailing mean reward {_final_mean(result.records):.1f}; artifacts in {out}"
    )


def _run_eval(args, run: RunConfig, given) -> None:
    path = Path(args.qtable)
    mode, hyper, tables = read_qtable(path)
    missing = [f"'# option={key}'" for key in mode.table_keys() if key not in tables]
    if missing:
        raise ConfigError(
            f"{path}: no {' or '.join(missing)} section, which mode {mode.method.value} needs")
    if "method" in given and run.mode.method is not mode.method:
        raise ConfigError(
            f"q-table was trained with method {mode.method.value}, not {run.mode.method.value}"
        )
    if "planner" in given and run.mode.planner_enabled != mode.planner_enabled:
        raise ConfigError(f"q-table planner setting does not match {_FLAGS['planner_enabled']}")
    if "seed" in given:
        hyper = replace(hyper, seed=run.hyper.seed)
    cfg = replace(run, mode=mode, hyper=hyper)
    out = _run_dir(args.out, cfg)
    records = evaluate(tables, cfg)
    _write_curve(records, out / "metrics.csv")
    mean, std = reward_mean_std(records)
    print(
        f"eval {mode.method.value}: mean reward {mean:.1f}"
        f" (std {std:.1f}) over {len(records)} greedy runs; artifacts in {out}"
    )


def _print_summary(rows) -> None:
    print("method      planner  mean_eval  std_eval  episodes_to_threshold")
    for row in rows:
        print(
            f"{row.method:<11} {row.planner:<8} {row.mean_eval_reward:>9.1f}"
            f" {row.std_eval_reward:>9.1f}  {cell_text(row.episodes_to_threshold)}"
        )


def _run_compare(args, run: RunConfig, arms: list[tuple[str, ControllerMode]]) -> None:
    out = _run_dir(args.out, run)
    results = compare(run, [mode for _, mode in arms])
    for (label, _), (_, train_records, eval_records) in zip(arms, results):
        (out / label).mkdir(exist_ok=True)
        _write_curve(train_records, out / label / "metrics.csv")
        write_metrics(eval_records, out / label / "eval_metrics.csv")
    rows = [row for row, _, _ in results]
    write_summary(rows, out / "summary.csv")
    _print_summary(rows)
    print(f"summary written to {out / 'summary.csv'}")


def _run_compare_methods(args, run: RunConfig, given) -> None:
    _run_compare(args, run, [(m.value, replace(run.mode, method=m)) for m in Method])


def _run_compare_planner(args, run: RunConfig, given) -> None:
    _run_compare(args, run, [("planner-on", ControllerMode(Method.OPTIONS, True)),
                             ("planner-off", ControllerMode(Method.OPTIONS, False))])


def _run_oracle(args, run: RunConfig, given) -> None:
    try:
        table = value_iteration_oracle(run.grid, args.task, run.hyper.gamma)
    except ConfigError as exc:  # the grid is too large to solve
        raise UsageError(f"{_FLAGS[exc.field]}: {exc}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_qtable({args.task: table}, out, OPTIONS_MODE, Hyperparams(gamma=run.hyper.gamma))
    print(f"exact {args.task} Q map ({len(table)} entries) written to {out}")


class Command(NamedTuple):
    help: str
    runner: Callable[[argparse.Namespace, RunConfig, frozenset], None]
    takes: frozenset  # the setting keys it has flags for and reads from a config file
    extra: dict = {}  # flag -> add_argument keywords, beyond --config, the settings and --out
    out: str = "directory for run artifacts"


_EVERY = frozenset(_BY_KEY)
_COMMANDS = {
    "train": Command("train one method and save its tables", _run_train, _EVERY),
    # Greedy replay trains nothing; the table's header holds how it was trained.
    "eval": Command("replay greedy episodes from saved tables", _run_eval,
                    _EVERY - {"alpha", "gamma", "eps-start", "eps-end", "eps-decay-frac",
                              "episodes"},
                    {"--qtable": dict(required=True, help="q-table file written by train")}),
    # A comparison fixes what it compares: the method, or the method and the planner.
    "compare-methods": Command("random vs flat vs options under one seed",
                               _run_compare_methods, _EVERY - {"method"}),
    "compare-planner": Command("options learning with planner on vs off",
                               _run_compare_planner, _EVERY - {"method", "planner"}),
    # The exact Q map depends only on the grid size, the no-op reward and gamma.
    "oracle": Command("solve one sub-task exactly and save its Q map", _run_oracle,
                      frozenset({"grid", "noop-reward", "gamma"}),
                      {"--task": dict(required=True, choices=OPTIONS_MODE.table_keys())},
                      "file for the Q map"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parsed = parse_args(argv)
        _COMMANDS[parsed.args.command].runner(*parsed)
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
