#!/usr/bin/env python3
"""Energy-decay study for the bundled presets.

For each preset the script decomposes the system, synthesizes boundary
conditions, integrates random admissible initial data to two domain
crossings, and reports the fitted growth rate plus the worst per-step
energy increase. Norm trajectories land in results/ as CSV.
"""

import argparse
from pathlib import Path

from hypermodes.apps import (SWEParams, SWMHDParams, WaveParams, preset_swe,
                             preset_swmhd, preset_wave)
from hypermodes.certify import admissible_field, default_t_end
from hypermodes.congruence import simultaneous_diagonalize
from hypermodes.modes import assemble_system_bcs
from hypermodes.operators import RectGrid
from hypermodes.solver import IVPConfig, run

PRESETS = {
    "swe": preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5)),
    "swmhd": preset_swmhd(SWMHDParams(u0=2.0, v0=2.0, b10=0.5, b20=0.3,
                                      phi0=1.0, g=1.0)),
    "wave": preset_wave(WaveParams(alpha=0.6, beta=0.8)),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[32, 64])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, pair in PRESETS.items():
        decomp = simultaneous_diagonalize(pair)
        bcs = assemble_system_bcs(decomp)
        for n in args.sizes:
            grid = RectGrid(1.0, 1.0, n, n)
            u0 = admissible_field(grid, decomp, bcs, args.seed)
            cfg = IVPConfig(grid=grid, u0=u0,
                            t_end=default_t_end(pair, grid.L1), pair=pair,
                            decomp=decomp, bcs=bcs)
            _, report = run(cfg)
            csv = args.outdir / f"norms_{name}_{n}.csv"
            with open(csv, "w") as fh:
                fh.write("t,norm\n")
                for t, nn in zip(report.times, report.norms):
                    fh.write(f"{t:.17g},{nn:.17g}\n")
            print(f"{name:6s} {n:4d}x{n:<4d} {report.summary()}")


if __name__ == "__main__":
    main()
