#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a changed checkout.

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
on one workload in each checkout, ``--pairs`` times, with ``--trace 0``.
The first run of a pair is the parent's in even pairs and the change's in
odd ones, so a drift of the machine weighs on both alike. For each
end-to-end metric it then prints the parent's and the change's median
with their first and third quartiles, the change's median shift, in how
many pairs the change did better, and whether that shows a gain: the
change did better in at least nine pairs of ten, and its median is
better than the parent's by more than the parent's interquartile range.
A metric is marked unresolved when the parent's interquartile range,
over its median, exceeds the metric's bound, unless every change run did
better than every parent run: its runs then spread too widely to tell a
shift within the bound. A median shift for the worse beyond the bound is
marked as such.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload desk-fixed --pairs 10 --seed 7 --seconds 35

The bounds and the command are read from the parent's ``BENCHMARK.json``.
Each run's failed output checks are counted and printed; a run that
exits non-zero stops the script. Runs go one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str], args) -> dict:
    """One benchmark run in ``checkout``: its last stdout line, as JSON."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(argv)} exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"--workload: not a workload of {args.parent / 'BENCHMARK.json'}")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], bench["command"], args)
            runs[side].append(result)
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(f"pair {pair} {side}: failed checks {result['failed']} of {result['attempted']},"
                  f" {shown}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, --seconds {args.seconds:g}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {side}: {failed} of {attempted} output checks failed")
    for spec in bench["end_to_end"]:
        name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        shift = (cm - pm) / pm
        gain = 10 * wins >= 9 * args.pairs and (pm - cm if lower else cm - pm) > p3 - p1
        apart = max(change) < min(parent) if lower else min(change) > max(parent)
        notes = [f"gain {'shown' if gain else 'not shown'}"]
        if (p3 - p1) / pm > bound and not apart:
            notes.append("unresolved: parent spread exceeds bound")
        if (shift if lower else -shift) > bound:
            notes.append("worse beyond bound")
        print(f"  {name} ({spec['unit']}, bound {bound:.0%}): parent {pm:.4f} [{p1:.4f}, {p3:.4f}]"
              f", change {cm:.4f} [{c1:.4f}, {c3:.4f}], shift {shift:+.1%},"
              f" change better in {wins} of {args.pairs}; {'; '.join(notes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
