#!/usr/bin/env python3
"""Time the Q-table codec on one trained random-layout table.

Trains the planner-off options learner once on an 11x11 random layout
with 2 agents and 3 gems for 400 episodes (the benchmark's random-layout
arm) at the given seed, then times `write_qtable` and `read_qtable` K
times each, alternating, in one process. It prints the median seconds
of each with its first and third quartiles, the file's rows, records and
bytes, and its sha256, so running it on two trees shows the speed, its
spread, and that the bytes are the same. Beside each it prints the same
for the seconds the cyclic collector ran inside those calls, timed
through `gc.callbacks`, and how many collections, and full ones, it made:

    PYTHONPATH=src python3 scripts/qtable_codec_timing.py --seed 1 --repeats 7

Every read is checked against the trained tables. Training takes a few
seconds; each write and read well under one.
"""

import argparse
import gc
import hashlib
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bankworld.environment import GridConfig, RandomLayout
from bankworld.harness import RunConfig, read_qtable, train, write_qtable
from bankworld.learner import ControllerMode, Hyperparams, Method


def spread(seconds: list[float]) -> str:
    """The median of ``seconds`` with its first and third quartiles."""
    if len(seconds) == 1:
        seconds = seconds * 2
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return f"median {median:.3f} s [Q1 {q1:.3f}, Q3 {q3:.3f}]"


class Timer:
    """Times calls of one function, and the cyclic collector inside them
    through `gc.callbacks`: seconds per call, and collections in all."""

    def __init__(self):
        self.seconds, self.collector = [], []  # per call
        self.collections = self.full = 0
        self._in_call = self._started = 0.0

    def _clock(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self._in_call += perf_counter() - self._started
            self.collections += 1
            self.full += info["generation"] == 2

    def __call__(self, call):
        self._in_call = 0.0
        gc.callbacks.append(self._clock)
        start = perf_counter()
        try:
            return call()
        finally:
            self.seconds.append(perf_counter() - start)
            gc.callbacks.remove(self._clock)
            self.collector.append(self._in_call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7, help="timed writes and reads (K)")
    args = parser.parse_args(argv)

    grid = GridConfig(11, 11, 2, 3, 1000, layout=RandomLayout())
    cfg = RunConfig(grid, ControllerMode(Method.OPTIONS, planner_enabled=False),
                    Hyperparams(seed=args.seed), episodes=400)
    tables = train(cfg).tables
    writes, reads = Timer(), Timer()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "qtable.csv"
        for _ in range(args.repeats):
            writes(lambda: write_qtable(tables, path, cfg.mode, cfg.hyper))
            read = reads(lambda: read_qtable(path))[2]
            if read != tables:
                print("error: the tables read back differ from the trained ones", file=sys.stderr)
                return 1
            del read
        data = path.read_bytes()
    rows = sum(len(t.rows) for t in tables.values())
    records = sum(1 for line in data.splitlines() if line and not line.startswith(b"#"))
    print(f"seed {args.seed}, {args.repeats} repeats")
    for name, timer in (("write_qtable", writes), ("read_qtable", reads)):
        print(f"{name} {spread(timer.seconds)}; collector {spread(timer.collector)},"
              f" {timer.collections} collections ({timer.full} full)")
    print(f"rows {rows} records {records} bytes {len(data)}")
    print(f"sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
