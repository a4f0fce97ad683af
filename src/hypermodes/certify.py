"""The battery of discrete certificates for one decomposed system, and
the seeded admissible initial data and run length it simulates with."""

from __future__ import annotations

import numpy as np

from .congruence import ModeDecomposition, SymmetricPair, TypeIIMode, TypeIMode
from .modes import EllipticModeBC, ScalarModeBC, Side, check_rank2
from .operators import (CertReport, RectGrid, StateField,
                        cross_term_residual, elliptic_uniqueness,
                        integration_by_parts_residual,
                        positivity_residual_type1, positivity_residual_type2,
                        random_elliptic_bc_field, random_scalar_bc_field,
                        side_vanishing_factor, smooth_random_field)
from .solver import IVPConfig, run


def admissible_field(grid: RectGrid, decomp: ModeDecomposition, bcs,
                     seed: int) -> StateField:
    """Seeded random field compatible with the synthesized conditions,
    built mode by mode in the mode variables."""
    rng = np.random.default_rng(seed)
    ubar = np.zeros((decomp.order, grid.nx, grid.ny))
    for bc, sl in zip(bcs, decomp.mode_slices()):
        if isinstance(bc, ScalarModeBC):
            ubar[sl.start] = random_scalar_bc_field(grid, bc.sides, rng).values[0]
        else:
            ubar[sl] = random_elliptic_bc_field(grid, bc.conditions, rng).values
    u = np.einsum("ab,bij->aij", decomp.p, ubar)
    return StateField(grid, u)


def default_t_end(pair: SymmetricPair, L1: float) -> float:
    """Time for the fastest wave to cross the domain twice in x."""
    speed = max(np.abs(np.linalg.eigvalsh(pair.a1)).max(),
                np.abs(np.linalg.eigvalsh(pair.a2)).max())
    return 2.0 * L1 / speed


def fit_rate(residuals, grids) -> float:
    """Log-log slope of residuals against grid spacing."""
    res = np.asarray(residuals, dtype=float)
    hs = np.array([g.h for g in grids])
    if np.any(res <= 0):
        return np.inf  # residual hit exact zero; treat as converged
    return float(np.polyfit(np.log(hs), np.log(res), 1)[0])


def certification_suite(pair: SymmetricPair, grid: RectGrid,
                        decomp: ModeDecomposition, bcs, *, seed: int,
                        trials: int, t_end: float | None,
                        cfl: float) -> list[CertReport]:
    """The full battery of discrete certificates for one system.

    `seed` fixes every random field, `trials` is the number of fields per
    positivity sweep, and `t_end` (None: `default_t_end`) and `cfl` set
    the simulated run.
    """
    # built first, so that a bad run setting (cfl, t_end) is an input
    # error before any certificate runs
    ivp = IVPConfig(grid=grid, u0=admissible_field(grid, decomp, bcs, seed),
                    t_end=t_end or default_t_end(pair, grid.L1), pair=pair,
                    decomp=decomp, bcs=bcs, cfl=cfl)
    rows: list[CertReport] = []
    label = grid.label()
    h = grid.h

    rows.append(CertReport("decomposition_reconstruction", label,
                           decomp.residuals.reconstruction, 1e-9))

    elliptic = [(k, m) for k, m in enumerate(decomp.modes)
                if isinstance(m, TypeIIMode)]
    if elliptic:
        worst = max(abs(m.determinant_condition - 1.0) for _, m in elliptic)
        rows.append(CertReport("determinant_condition", label, worst, 1e-10))

    rank_ok = all(check_rank2(bc.conditions) for bc in bcs
                  if isinstance(bc, EllipticModeBC))
    rows.append(CertReport("bc_rank", label, 0.0 if rank_ok else 1.0, 0.5))

    # positivity sweeps, one row per mode
    for (k, mode), bc in zip(enumerate(decomp.modes), bcs):
        rng = np.random.default_rng(seed + 1000 + k)
        worst = np.inf
        for _ in range(trials):
            if isinstance(mode, TypeIMode):
                u = random_scalar_bc_field(grid, bc.sides, rng)
                val = positivity_residual_type1(mode.c, mode.d, u,
                                                sides=bc.sides)
            else:
                u = random_elliptic_bc_field(grid, bc.conditions, rng)
                val = positivity_residual_type2(mode, u, bc.conditions)
            worst = min(worst, val / max(u.norm() ** 2, 1e-300))
        name = ("positivity_type1" if isinstance(mode, TypeIMode)
                else "positivity_type2") + f"_mode{k}"
        rows.append(CertReport(name, label, max(0.0, -worst), 5.0 * h))

    # duality residual refinement rates; the cross-term identity is tested
    # with u1 - u2 = 0 traces so boundary stencils contribute a genuine
    # O(h^2) defect (fields vanishing on all sides make it exactly zero)
    rate_grids = [RectGrid(grid.L1, grid.L2, n, n) for n in (17, 33, 65)]
    conds = {s: (1.0, -1.0) for s in Side}
    cross_res, ibp_res = [], []
    for g in rate_grids:
        rng = np.random.default_rng(seed + 2000)
        shared = smooth_random_field(g, rng)
        bump = side_vanishing_factor(g, list(Side))
        vals = np.stack([shared, shared + bump * smooth_random_field(g, rng)])
        cross_res.append(cross_term_residual(StateField(g, vals), conds))
        rng = np.random.default_rng(seed + 3000)
        theta, gf = (StateField(g, np.stack([smooth_random_field(g, rng)
                                             for _ in range(pair.order)]))
                     for _ in range(2))
        ibp_res.append(integration_by_parts_residual(theta, gf,
                                                     pair.a1, pair.a2))
    for name, res in (("crossterm_rate", cross_res), ("ibp_rate", ibp_res)):
        rate = fit_rate(res, rate_grids)
        rows.append(CertReport(name, rate_grids[-1].label(),
                               max(0.0, 1.0 - rate), 0.0, rate=rate))

    for k, mode in elliptic:
        _, rep = elliptic_uniqueness(mode, grid, bcs[k].conditions)
        rows.append(CertReport(f"elliptic_uniqueness_mode{k}", label,
                               rep.residual, rep.tolerance))

    _, report = run(ivp)
    rows.append(CertReport("energy_monotonic", label,
                           report.max_step_increase
                           / max(report.norms[0], 1e-300), 1e-10))
    return rows
