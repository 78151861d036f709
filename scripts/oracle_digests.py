#!/usr/bin/env python3
"""Fingerprint the exact solver's Q maps over a fixed list of cases.

Each case is one `value_iteration_oracle` solve. The script prints one
line per case: the case, the sha256 over every
``(state text, a, type(v).__name__, repr(v))`` in ``q.items()`` order
(the state text as a `StateCodec` writes it), the median seconds of
three solves, and the number of distinct value objects in the solved
table, which shows how far equal values share one object. The median
keeps one slow solve on a shared machine from hiding or faking a change
of a case's time:

    PYTHONPATH=src python3 scripts/oracle_digests.py

The first two columns of every case are pinned in
``tests/oracle_digests.txt``, which the test suite checks through
`cases`, `label` and `digest` here.

The cases are four grids (5x7 with the bank at 1,2; 7x7; 9x7 with the
bank at 2,6; 13x9 with the bank at 1,1), both sub-tasks, no-op rewards 0
and -1 and gammas 0, 0.5, 0.95, 0.99 and 1, then 11x11 and 15x15 at
gamma 0.95 with no-op reward 0. The slowest cases are the 13x9 pickup
at no-op reward -1 and gamma 0.5, which sweeps 16 times, and the 15x15
pickup.
"""

import hashlib
import statistics
import sys
from itertools import product
from time import perf_counter

from bankworld.abstraction import StateCodec
from bankworld.environment import GridConfig
from bankworld.harness import value_iteration_oracle

GRIDS = ((5, 7, (1, 2)), (7, 7, None), (9, 7, (2, 6)), (13, 9, (1, 1)))
TASKS = ("pickup", "drop")
GAMMAS = (0.0, 0.5, 0.95, 0.99, 1.0)


def cases():
    for (width, height, bank), task, noop, gamma in product(GRIDS, TASKS, (0, -1), GAMMAS):
        yield GridConfig(width, height, 1, 1, 100, bank=bank, noop_reward=noop), task, gamma
    for size, task in product((11, 15), TASKS):
        yield GridConfig(size, size, 1, 1, 100), task, 0.95


def label(grid: GridConfig, task: str, gamma: float) -> str:
    bank = "%d,%d" % grid.bank
    return f"{grid.width}x{grid.height}/bank={bank}/{task}/noop={grid.noop_reward}/gamma={gamma!r}"


def digest(q) -> str:
    serialize = StateCodec().serialize
    text = "".join(f"{serialize(s)},{a},{type(v).__name__},{v!r}\n" for s, a, v in q.items())
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    for grid, task, gamma in cases():
        times = []
        for _ in range(3):
            start = perf_counter()
            q = value_iteration_oracle(grid, task, gamma)
            times.append(perf_counter() - start)
        seconds = statistics.median(times)
        objects = len({id(v) for _, _, v in q.items()})
        print(f"{label(grid, task, gamma)} {digest(q)} {seconds:.3f} {objects}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
