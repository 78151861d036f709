#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as a JSON file.

Usage, from the root of a source checkout:

    python3 perfbench/record.py --out perfbench/trajectory/BENCH_2.json

Runs every workload untraced once per seed and traced once (first
seed), one run at a time, and writes for each printed metric the
median, quartiles and every value, plus the per-layer metrics, the
check counts, and the machine's core count and Python version. It also
times one run of the tier-1 test suite, which is too long to repeat in
the benchmark itself.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its JSON result, every printed metric)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            printed[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
    return json.loads(lines[-1]), printed


def tier1() -> dict:
    """Wall time and summary line of one tier-1 test run."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=HERE.parent, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start,
            "summary": done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""}


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "unit": unit, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()

    point = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        metrics: dict[str, list] = {}
        checks = [0, 0]
        for seed in args.seeds:
            result, printed = run(workload, seed, args.seconds, 0)
            checks[0] += result["failed"]
            checks[1] += result["attempted"]
            for name, m in printed.items():
                metrics.setdefault(name, [m["unit"], []])[1].append(m["value"])
        traced, _ = run(workload, args.seeds[0], args.seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": {name: summary(values, unit) for name, (unit, values) in metrics.items()},
            "checks_failed": checks[0] + traced["failed"],
            "checks_total": checks[1] + traced["attempted"],
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: done", file=sys.stderr)
    point["tier1"] = tier1()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
