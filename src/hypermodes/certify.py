"""The battery of discrete certificates for one decomposed system, and
the seeded admissible initial data and run length it simulates with.

The identity rows difference with the summation-by-parts (SBP) operator
D = H^-1 Q of the trapezoid norm H (Kreiss & Scherer 1974; Strand, JCP
110, 1994): <Df, g>_H + <f, Dg>_H = [fg] to roundoff, so the identities
are exact, and <(A1 Dx + A2 Dy)u, u>_H is half the side rows' boundary forms.
"""

from __future__ import annotations

import numpy as np

from .congruence import ModeDecomposition, SymmetricPair, TypeIIMode
from .modes import EllipticModeBC, ScalarModeBC, Side, check_rank2
from .operators import (CertReport, RectGrid, StateField, _duality_terms,
                        elliptic_uniqueness, inner, random_elliptic_bc_field,
                        random_scalar_bc_field, side_vanishing_factor,
                        smooth_random_field)
from .solver import IVPConfig, _max_speed, _side_maps, run

EXACT_RTOL = 1e-12  # tolerance of the identity and boundary-form rows


def _sbp_dx(values: np.ndarray, grid: RectGrid) -> np.ndarray:
    return np.gradient(values, grid.hx, axis=-2, edge_order=1)

def _sbp_dy(values: np.ndarray, grid: RectGrid) -> np.ndarray:
    return np.gradient(values, grid.hy, axis=-1, edge_order=1)


def _defect(*terms: float) -> float:
    """|sum of the terms| relative to the largest of them."""
    return abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300)


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
    return 2.0 * L1 / _max_speed(pair.a1, pair.a2)


def simulation_config(pair: SymmetricPair, grid: RectGrid,
                      decomp: ModeDecomposition, bcs, *, seed: int,
                      t_end: float | None, cfl: float) -> IVPConfig:
    """The run `simulate` and `verify` make: from the seeded
    `admissible_field` to `t_end` (None: `default_t_end`) at `cfl`."""
    if t_end is None:
        t_end = default_t_end(pair, grid.L1)
    return IVPConfig(grid=grid, u0=admissible_field(grid, decomp, bcs, seed),
                     t_end=t_end, pair=pair, decomp=decomp, bcs=bcs, cfl=cfl)


def certification_suite(pair: SymmetricPair, grid: RectGrid,
                        decomp: ModeDecomposition, bcs, *, seed: int,
                        t_end: float | None, cfl: float) -> list[CertReport]:
    """The full battery of discrete certificates for one system, every
    row closed-form on `grid`: the decomposition, one boundary form per
    side, the SBP identities, elliptic uniqueness and the energy verdict.

    `seed` fixes every field; `t_end` (None: `default_t_end`) and `cfl`
    set the simulated run.
    """
    # built first, so that a bad run setting (cfl, t_end) is an input
    # error before any certificate runs
    ivp = simulation_config(pair, grid, decomp, bcs, seed=seed, t_end=t_end,
                            cfl=cfl)
    rows: list[CertReport] = []
    label = grid.label()

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

    # -lambda_min(sym(S^T (nu.A) S)) over the side maps S the stepper
    # imposes, built as SpatialOperator builds them: 0 iff dissipative
    side_map = _side_maps(dict.fromkeys(Side, [decomp]), bcs)
    speed = _max_speed(pair.a1, pair.a2)
    for side in Side:
        S = side_map[side][0]
        form = side.sign * S.T @ (pair.a1, pair.a2)[side.axis] @ S
        least = np.linalg.eigvalsh(0.5 * (form + form.T))[0]
        rows.append(CertReport(f"boundary_form_{side}", label,
                               max(0.0, -least) / speed, EXACT_RTOL))

    # u1 = u2 on every side: the cross terms' boundary parts cancel
    rng = np.random.default_rng(seed + 2000)
    shared = smooth_random_field(grid, rng)
    bump = side_vanishing_factor(grid, list(Side))
    u1, u2 = shared, shared + bump * smooth_random_field(grid, rng)
    i1 = inner(grid, _sbp_dx(u2, grid)[None], _sbp_dy(u1, grid)[None])
    i2 = inner(grid, _sbp_dx(u1, grid)[None], _sbp_dy(u2, grid)[None])
    rows.append(CertReport("crossterm_identity", label, _defect(i1, -i2),
                           EXACT_RTOL))

    rng = np.random.default_rng(seed + 3000)
    theta, gf = (StateField(grid, np.stack([smooth_random_field(grid, rng)
                                            for _ in range(pair.order)]))
                 for _ in range(2))
    terms = _duality_terms(theta, gf, pair.a1, pair.a2, _sbp_dx, _sbp_dy)
    rows.append(CertReport("ibp_identity", label, _defect(*terms), EXACT_RTOL))

    for k, mode in elliptic:
        _, rep = elliptic_uniqueness(mode, grid, bcs[k].conditions)
        rows.append(CertReport(f"elliptic_uniqueness_mode{k}", label,
                               rep.residual, rep.tolerance))

    _, report = run(ivp)
    rows.append(CertReport("energy_monotonic", label,
                           report.max_step_increase
                           / max(report.norms[0], 1e-300), 1e-10))
    return rows
