#!/usr/bin/env python3
"""The paper's two comparisons at one scale: the methods (random,
Q-learning, Q-learning with options), then the planner on against off.

    PYTHONPATH=src python3 scripts/run_experiments.py {desk,full} [seed]

desk: 7x7, 2 agents, 2 gems, 2000 episodes of up to 300 steps, seed 1 by
default. full: 11x11, 2 agents, 3 gems, 6000 episodes of up to 1000
steps, seed 0 by default.
Writes runs/<scale>-{methods,planner}-s<seed>. A failed methods
comparison returns its exit code before the planner comparison runs.
"""

import argparse
import sys

from bankworld.cli import main

# Per scale, the flags of both comparisons and the default seed.
SCALES = {
    "desk": ("--grid 7x7 --agents 2 --gems 2 --episodes 2000 --steps 300", 1),
    "full": ("--grid 11x11 --agents 2 --gems 3 --episodes 6000 --steps 1000", 0),
}


def run(scale: str, seed: int | None = None) -> int:
    flags, default = SCALES[scale]
    seed = default if seed is None else seed
    for comparison in ("methods", "planner"):
        code = main(f"compare-{comparison} {flags} --seed {seed}"
                    f" --out runs/{scale}-{comparison}-s{seed}".split())
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="The method and planner comparisons at one scale.")
    parser.add_argument("scale", choices=SCALES)
    parser.add_argument("seed", type=int, nargs="?")
    args = parser.parse_args()
    sys.exit(run(args.scale, args.seed))
