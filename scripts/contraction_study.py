#!/usr/bin/env python3
"""Energy-decay study for the bundled presets.

For each preset and size the script runs `hypermodes simulate`: it
decomposes the system, synthesizes boundary conditions, integrates random
admissible initial data to two domain crossings, and prints the growth
rate omega from the data, the worst per-step energy increase over
e^(omega dt) and the verdict. Each run writes its
norms.csv and energy.txt to OUTDIR/<preset>_<n>/. The exit status is the
worst one of the runs.
"""

import argparse
import sys
from pathlib import Path

from hypermodes import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[32, 64])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()

    worst = 0
    for name in cli.PRESET_DEFAULTS:
        for n in args.sizes:
            print(f"{name:6s} {n:4d}x{n:<4d} ", end="", flush=True)
            status = cli.main(["simulate", f"preset={name}", f"nx={n}",
                               f"ny={n}", f"seed={args.seed}",
                               f"outdir={args.outdir / f'{name}_{n}'}"])
            if status == 1:  # input error: the CLI printed no summary
                print()
            worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
