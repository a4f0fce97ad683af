"""Baseline layer sweep: single layers timed at the sizes of the ROADMAP
baseline table, printed beside that table's figures.

    python3 bench/run.py --sweep

Not one of the checked workloads: nothing is verified here, and each row is
the median of a few calls. `SpatialOperator.apply` and `step` use the swe
preset (order 3); `elliptic_steady_solve` the manufactured solution of
workloads.py; `variable_coeff_setup` the planted sampler of the
variable-coeff workload with seed 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hypermodes import apps, operators, solver
from hypermodes.congruence import simultaneous_diagonalize
from hypermodes.modes import Side, assemble_system_bcs, synthesize_bc_type2
from hypermodes.operators import RectGrid, StateField

import workloads

# (layer, size) -> milliseconds in the ROADMAP baseline table
ROADMAP_MS = {
    ("apply", 65): 0.26, ("apply", 129): 0.93, ("apply", 257): 4.41,
    ("step", 65): 1.32, ("step", 129): 5.05, ("step", 257): 23.1,
    ("elliptic_steady_solve", 65): 150.0,
    ("elliptic_steady_solve", 129): 1050.0,
    ("elliptic_steady_solve", 257): 11400.0,
    ("variable_coeff_setup", 17): 260.0, ("variable_coeff_setup", 33): 820.0,
    ("variable_coeff_setup", 65): 3160.0,
}


def _median_ms(fn, budget_s: float, max_calls: int = 200) -> tuple[float, int]:
    times = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < budget_s
                        and len(times) < max_calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), len(times)


def _swe_operator(n: int):
    pair = apps.preset_swe(apps.SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0,
                                          f_cor=0.5))
    decomp = simultaneous_diagonalize(pair)
    bcs = assemble_system_bcs(decomp)
    grid = RectGrid(1.0, 1.0, n, n)
    rng = np.random.default_rng(0)
    bump = operators.side_vanishing_factor(grid, list(Side))
    u0 = StateField(grid, np.stack([bump * operators.smooth_random_field(grid, rng)
                                    for _ in range(pair.order)]))
    cfg = solver.IVPConfig(grid=grid, u0=u0, t_end=1.0, pair=pair,
                           decomp=decomp, bcs=bcs)
    return solver.SpatialOperator(cfg), u0.values


def run_sweep() -> list[dict]:
    rows = []

    def row(layer, n, fn, budget_s):
        ms, calls = _median_ms(fn, budget_s)
        ref = ROADMAP_MS[(layer, n)]
        rows.append({"layer": layer, "size": f"{n}x{n}", "ms": ms,
                     "calls": calls, "roadmap_ms": ref, "ratio": ms / ref})
        print(f"{layer:24s} {n:4d}^2  {ms:10.3f} ms  (ROADMAP {ref:9.2f} ms, "
              f"x{ms / ref:.2f}, {calls} calls)", flush=True)

    for n in (65, 129, 257):
        op, u = _swe_operator(n)
        row("apply", n, lambda: op.apply(0.0, u), 1.0)
        row("step", n, lambda: solver.step(op, u, 0.0, op.dt_max), 2.0)
    conditions = synthesize_bc_type2(workloads.MMS_MODE).conditions
    for n in (65, 129, 257):
        grid = RectGrid(1.0, 1.0, n, n)
        psi = StateField(grid, workloads.manufactured(grid)[1])
        row("elliptic_steady_solve", n,
            lambda: operators.elliptic_steady_solve(workloads.MMS_MODE, psi,
                                                    grid, conditions), 3.0)
    for n in (17, 33, 65):
        grid = RectGrid(1.0, 1.0, n, n)
        sampler = workloads.planted_sampler(0, grid)
        row("variable_coeff_setup", n,
            lambda: solver.variable_coeff_setup(sampler, grid), 3.0)
    return rows
