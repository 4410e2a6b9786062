#!/usr/bin/env python3
"""Squeezed-state experiment: nonclassicality versus squeezing strength.

Produces the CSV behind the squeezing figure: the measure of a squeezed
state versus its squeezing strength r in [0, 2].  It is E_N = r at every
displacement and squeezing angle: the fixed-angle column (angle 0) and the
angle-optimized one hold the same value.
Plot with any external tool, e.g.

    python scripts/fig_squeezed_sweep.py --output data/squeezed_sweep.csv
"""

import argparse
import sys

from nonclassicality.cli import main as cli_main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="squeezed_sweep.csv")
    parser.add_argument("--steps", type=int, default=41)
    parser.add_argument("--r-max", type=float, default=2.0)
    args = parser.parse_args()
    sys.exit(
        cli_main(
            [
                "squeezed-sweep",
                "--r-min", "0",
                "--r-max", str(args.r_max),
                "--steps", str(args.steps),
                "--output", args.output,
            ]
        )
    )
