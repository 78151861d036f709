#!/usr/bin/env python3
"""Desk-scale experiment suite: method comparison and planner ablation.

7x7 grid, centered bank, 2 agents, 2 gems, 2000 episodes of up to 300
steps. Runs in about 2.3 seconds on 2 cores with Python 3.11 and writes
summaries, per-arm metrics, and plot scripts under runs/.
"""

import sys

from bankworld.cli import main

DESK = "--grid 7x7 --agents 2 --gems 2 --episodes 2000 --steps 300"


def run(seed: int = 1) -> int:
    code = main(
        f"compare-methods {DESK} --seed {seed} --out runs/desk-methods-s{seed}".split()
    )
    if code != 0:
        return code
    return main(
        f"compare-planner {DESK} --seed {seed} --out runs/desk-planner-s{seed}".split()
    )


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    sys.exit(run(seed))
