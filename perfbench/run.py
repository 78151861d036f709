#!/usr/bin/env python3
"""Benchmark for bankworld: one workload per run, metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk-fixed --seed 1 --seconds 35 --trace 0

The package is imported from the checkout's ``src/`` and nowhere else;
without it the run fails. ``--trace 0`` repeats the workload's fixed
batch for as long as ``--seconds`` allows, at least once, and reports the end-to-end metrics
as medians over the batches. ``--trace 1`` runs one untraced batch and
then one batch under `tracer.Tracer`, checks that tracing changed no
output and that traced counts equal the program's own counters, and
reports the per-layer metrics. Everything runs in this one process.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
where attempted and failed count output checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Batch, Checks, build_plan, run_batch  # noqa: E402

MODULES = ("environment", "planner", "abstraction", "learner", "harness", "cli")
SETUP_REPEATS = 25
LOCK_FILE = HERE / "lock.json"


def load_package(src: Path) -> SimpleNamespace:
    """Import bankworld afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "bankworld" or m.startswith("bankworld.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("bankworld")
    if Path(package.__file__).resolve().parent != src / "bankworld":
        raise ImportError(f"bankworld imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"bankworld.{m}") for m in MODULES})


def child_pids() -> list[int]:
    """Live child processes of this process, from /proc where present."""
    pids = []
    for task in Path("/proc/self/task").glob("*"):
        children = task / "children"
        if children.is_file():
            pids.extend(int(p) for p in children.read_text().split())
    return pids


def check_lock(workload: str, seed: int, batch: Batch, checks: Checks) -> None:
    """Compare outputs against the recorded ones, when this seed has any."""
    print(f"lock-observed {json.dumps({workload: {str(seed): batch.fingerprint}}, sort_keys=True)}",
          file=sys.stderr)
    recorded = json.loads(LOCK_FILE.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return
    checks.expect(set(recorded) == set(batch.fingerprint), f"lock: same outputs as recorded for seed {seed}")
    for name, value in sorted(recorded.items()):
        checks.expect(batch.fingerprint.get(name) == value, f"lock: {workload} seed {seed} {name}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def set_up(src: Path, workload: str, seed: int):
    """Import the package and build the workload's inputs, SETUP_REPEATS
    times under a fast speed probe. Returns the last package and plan,
    the median set-up time at reference speed and the raw times."""
    raw = []
    with SpeedProbe(interval_s=0.01) as probe:
        for _ in range(SETUP_REPEATS):
            start, probed = perf_counter(), probe.probe_s
            bw = load_package(src)
            plan = build_plan(bw, workload, seed)
            raw.append(perf_counter() - start - (probe.probe_s - probed))
    return bw, plan, probe.ref_seconds(statistics.median(raw)), raw


def end_to_end(batches: list[Batch], setup_ref_s: float) -> dict:
    """The gated metrics: times at the reference CPU speed (probe.py)."""
    return {
        "setup_s": metric(setup_ref_s, "s"),
        "wall_ref_s": metric(statistics.median(b.wall_ref_s for b in batches), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def as_measured(batches: list[Batch], setup_raw_s: list[float]) -> dict:
    """Raw wall-clock figures, and those only some workloads have:
    printed for reading, not gated, as they swing with the machine."""
    median = statistics.median
    out = {
        "setup_raw_s": metric(median(setup_raw_s), "s"),
        "wall_s": metric(median(b.wall_s for b in batches), "s"),
        "cpu_s": metric(median(b.cpu_s for b in batches), "s"),
    }
    if any("train" in b.phase_s for b in batches):
        out["train_s"] = metric(median(b.phase_s["train"] for b in batches), "s")
        out["agent_steps_per_s"] = metric(
            median(b.agent_steps / b.phase_s["train"] for b in batches), "1/s")
    if any("io" in b.phase_s for b in batches):
        out["io_s"] = metric(median(b.phase_s["io"] for b in batches), "s")
    return out


def per_layer(tracer: Tracer, batch: Batch, overhead_s: float) -> dict:
    calls = tracer.by_name()

    def count(name: str) -> int:
        return calls.get(name, (0, 0, 0))[0]

    def ns_per_call(name: str, index: int = 1) -> float:
        n = count(name)
        return calls[name][index] / n if n else 0.0

    def seconds(name: str) -> float:
        return calls.get(name, (0, 0, 0))[1] / 1e9

    out = {
        "environment.step_agent.calls": metric(count("environment.step_agent"), "count"),
        "environment.step_agent.ns": metric(ns_per_call("environment.step_agent"), "ns"),
        "environment.carried_gem.per_step": metric(
            count("environment.carried_gem") / max(1, count("environment.step_agent")), "calls/step"),
        "environment.reset.ns": metric(ns_per_call("environment.reset"), "ns"),
        "planner.assign.calls": metric(count("planner.assign"), "count"),
        "planner.assign.ns": metric(ns_per_call("planner.assign"), "ns"),
        "planner.assign.noop_ratio": metric(
            tracer.assign_noops / max(1, count("planner.assign")), "ratio"),
        "planner.release.calls": metric(count("planner.release"), "count"),
    }
    for kind in ("pickup", "drop", "flat", "no_planner"):
        name = f"abstraction.abstract_{kind}"
        out[f"{name}.calls"] = metric(count(name), "count")
        out[f"{name}.ns"] = metric(ns_per_call(name), "ns")
    out.update({
        "learner.controller_step.calls": metric(count("learner.controller_step"), "count"),
        "learner.controller_step.self_ns": metric(ns_per_call("learner.controller_step", 2), "ns"),
        "learner.select_action.calls": metric(count("learner.select_action"), "count"),
        "learner.select_action.ns": metric(ns_per_call("learner.select_action"), "ns"),
        "learner.td_update.calls": metric(count("learner.td_update"), "count"),
        "learner.td_update.ns": metric(ns_per_call("learner.td_update"), "ns"),
        "learner.qtable_rows": metric(batch.qtable_rows, "count"),
    })
    solved = {(size, task): (s, pairs) for size, task, s, pairs in batch.solved}
    for task in ("pickup", "drop"):
        for size in (7, 11, 15):
            grid = f"{size}x{size}"
            s, pairs = solved.get((grid, task), (0.0, 0))
            name = f"harness.value_iteration_oracle.{task}.{grid}"
            out[f"{name}.s"] = metric(s, "s")
            out[f"{name}.ns_per_pair"] = metric(s * 1e9 / pairs if pairs else 0.0, "ns/pair")
    out.update({
        "harness.write_qtable.s": metric(seconds("harness.write_qtable"), "s"),
        "harness.write_qtable.bytes": metric(batch.qtable_bytes, "bytes"),
        "harness.read_qtable.s": metric(seconds("harness.read_qtable"), "s"),
        "abstraction.serialize_state.ns": metric(ns_per_call("abstraction.serialize_state"), "ns"),
        "abstraction.parse_state.ns": metric(ns_per_call("abstraction.parse_state"), "ns"),
        "harness.train.s": metric(seconds("harness.train"), "s"),
        "harness.evaluate.s": metric(seconds("harness.evaluate"), "s"),
        "cli.main.s": metric(seconds("cli.main"), "s"),
        "trace.overhead_s": metric(overhead_s, "s"),
    })
    return out


def check_trace(bw, tracer: Tracer, reference: Batch, traced: Batch, checks: Checks) -> None:
    """Tracing must change no output, and its counts must equal the
    program's own counters for every training run."""
    checks.expect(traced.fingerprint == reference.fingerprint,
                  "trace: outputs identical to the untraced batch")
    Method = bw.learner.Method
    for call in tracer.train_calls:
        cfg, result, calls = call.cfg, call.result, call.calls
        where = f"trace/{cfg.mode.method.value}/planner-{'on' if cfg.mode.planner_enabled else 'off'}"
        checks.expect(calls.get("planner.assign", 0) == result.planner_calls,
                      f"{where}: planner.assign calls equal TrainResult.planner_calls")
        acted = calls.get("environment.step_agent", 0)
        learned = calls.get("learner.td_update", 0)
        if cfg.mode.method is Method.RANDOM:
            checks.expect(learned == 0, f"{where}: random arm makes no TD updates")
        else:
            checks.expect(learned == acted, f"{where}: one TD update per acting agent-step")
        if not cfg.mode.planner_enabled:
            steps = sum(r.steps_used for r in result.records) * cfg.grid.num_agents
            checks.expect(acted == steps, f"{where}: every agent acts on every step without planner")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "bankworld" / "__init__.py").is_file():
        print(f"perfbench: no bankworld package under {src}", file=sys.stderr)
        return 2
    # Comparison arms would otherwise fan out to one process each.
    os.environ["MACOPT_THREADS"] = "1"
    sys.path.insert(0, str(src))

    bw, plan, setup_ref_s, setup_raw_s = set_up(src, args.workload, args.seed)

    # Termination still removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checks = Checks()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    batches: list[Batch] = []

    def batch(tag: str) -> Batch:
        result = run_batch(bw, args.workload, plan, workdir / tag, checks)
        checks.expect(not child_pids(), "no child processes")
        print(f"batch {tag}: wall {result.wall_s:.4f} s, cpu {result.cpu_s:.4f} s,"
              f" {result.wall_ref_s:.4f} ref s, {len(result.probe.samples)} probes,"
              f" agent_steps {result.agent_steps},"
              f" phases {({k: round(v, 4) for k, v in result.phase_s.items()})}", file=sys.stderr)
        check_lock(args.workload, args.seed, result, checks)
        return result

    try:
        started = perf_counter()
        batches.append(batch("0"))
        if args.trace:
            with Tracer([getattr(bw, m) for m in MODULES]) as tracer:
                traced = batch("traced")
            check_trace(bw, tracer, batches[0], traced, checks)
            print(tracer.report(), file=sys.stderr)
            metrics = per_layer(tracer, traced, traced.wall_ref_s - batches[0].wall_ref_s)
        else:
            # Start another batch only if it should end within the run length.
            while (perf_counter() - started) * (len(batches) + 1) / len(batches) <= args.seconds:
                batches.append(batch(str(len(batches))))
            metrics = end_to_end(batches, setup_ref_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} batches={len(batches)}"
          f" nproc={os.cpu_count()} python={platform.python_version()}")
    shown = dict(metrics)
    if not args.trace:
        shown.update(as_measured(batches, setup_raw_s))
    for name, m in shown.items():
        print(f"  {name:<52} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'checks_failed':<52} {len(checks.failed):>16d} of checks_total {checks.total}")
    for failure in checks.failed:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.total,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
