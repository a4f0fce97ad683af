"""The battery of discrete certificates for one decomposed system, and
the seeded admissible initial data and run length it simulates with.
Every row is computed from the input system and its conditions. The
summation-by-parts identities of the differences hold for any pair, so
they are unit tests (`tests/test_certify.py`), not rows."""

from __future__ import annotations

import numpy as np

from .congruence import (DECOMPOSITION_RTOL, ModeDecomposition,
                         SymmetricPair, TypeIIMode)
from .modes import ScalarModeBC, Side
from .operators import (CertReport, RectGrid, StateField,
                        elliptic_uniqueness, random_elliptic_bc_field,
                        random_scalar_bc_field)
from .solver import (STEP_INCREASE_RTOL, IVPConfig, SpatialOperator,
                     max_speed)

EXACT_RTOL = 1e-12  # tolerance of the boundary-form rows


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
    return 2.0 * L1 / max_speed(np.linalg.eigvalsh([pair.a1, pair.a2]))


def simulation_config(pair: SymmetricPair, grid: RectGrid,
                      decomp: ModeDecomposition, bcs, *, seed: int,
                      t_end: float | None, cfl: float) -> IVPConfig:
    """The run `simulate` and `verify` make: from the seeded
    `admissible_field` to `t_end` (None: `default_t_end`) at `cfl`."""
    if t_end is None:
        t_end = default_t_end(pair, grid.L1)
    return IVPConfig(grid=grid, u0=admissible_field(grid, decomp, bcs, seed),
                     t_end=t_end, pair=pair, decomp=decomp, bcs=bcs, cfl=cfl)


def certification_suite(config: IVPConfig) -> list[CertReport]:
    """The full battery of discrete certificates for the constant pair of
    `config` (`simulation_config`) and its decomposition and conditions,
    every row closed-form on its grid: the decomposition, one boundary form
    per side, elliptic uniqueness and the energy verdict of one run of the
    operator that the boundary rows read.
    """
    pair, decomp, bcs, grid = (config.pair, config.decomp, config.bcs,
                               config.grid)
    if pair is None or decomp is None or bcs is None:
        raise ValueError("certification_suite certifies constant pairs: "
                         "give pair, decomp and bcs")
    op = SpatialOperator(config)
    rows: list[CertReport] = []
    label = grid.label()

    rows.append(CertReport("decomposition_reconstruction", label,
                           decomp.residuals.reconstruction,
                           DECOMPOSITION_RTOL))

    elliptic = [(k, m) for k, m in enumerate(decomp.modes)
                if isinstance(m, TypeIIMode)]
    if elliptic:
        worst = max(abs(m.determinant_condition - 1.0) for _, m in elliptic)
        rows.append(CertReport("determinant_condition", label, worst, 1e-10))

    # -lambda_min(sym(S^T (nu.A) S)), S = I - Q, with Q the orthogonal
    # projector of the operator that the run steps, so that S maps onto the
    # traces that the conditions admit: 0 iff the conditions are
    # dissipative. With the SAT weight alpha >= lambda_max(nu.A) / 2 this
    # row is exactly the stepper's boundary stability condition
    for side in Side:
        S = np.eye(op.n) - op.constrained[side][0]
        form = side.sign * S.T @ (pair.a1, pair.a2)[side.axis] @ S
        least = np.linalg.eigvalsh(0.5 * (form + form.T))[0]
        rows.append(CertReport(f"boundary_form_{side}", label,
                               max(0.0, -least) / op.max_speed, EXACT_RTOL))

    for k, mode in elliptic:
        _, rep = elliptic_uniqueness(mode, grid, bcs[k].conditions)
        rows.append(CertReport(f"elliptic_uniqueness_mode{k}", label,
                               rep.residual, rep.tolerance))

    _, report = op.run()
    increase = report.max_step_increase / max(report.norms[0], 1e-300)
    rows.append(CertReport("energy_monotonic", label, increase,
                           STEP_INCREASE_RTOL))
    return rows
