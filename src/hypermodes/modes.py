"""Boundary-condition synthesis for decomposed modes.

Scalar (hyperbolic) modes get homogeneous data on their two inflow sides,
decided by the signs of the pair (c, d). Elliptic modes split the two
components over complementary pairs of contiguous sides, decided by the
signs of (alpha1, alpha2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .congruence import ModeDecomposition, SymmetricPair, TypeIIMode, TypeIMode
from .errors import (AssumptionViolated, BlockMatchingFailure,
                     IllConditionedBasis, ZeroCoefficient)
from .linalg import DEFAULT_CONDITION_CAP, defect_tol, eigen_keys

if TYPE_CHECKING:  # operators imports this module
    from .operators import RectGrid

SIGN_TOL = 1e-12


class Side(enum.Enum):
    """The four sides of the rectangle (0, L1) x (0, L2).

    Each side carries its layout, set once below: `axis` (0 for x, 1 for
    y), `sign` of the outward normal along it, and `edge`, the index of
    the side's nodes in any (..., nx, ny) array. The definition order W,
    E, S, N is the one side order: iterating `Side` gives it.
    """

    W = "W"  # x = 0
    E = "E"  # x = L1
    S = "S"  # y = 0
    N = "N"  # y = L2

    def __str__(self):
        return self.value


for _side, _axis, _sign in ((Side.W, 0, -1),
                            (Side.E, 0, 1),
                            (Side.S, 1, -1),
                            (Side.N, 1, 1)):
    _row = 0 if _sign < 0 else -1
    _side.axis, _side.sign = _axis, _sign
    _side.edge = (..., _row, slice(None)) if _axis == 0 else (..., _row)


@dataclass(frozen=True)
class ScalarModeBC:
    """Homogeneous condition for one scalar mode variable on two sides."""

    mode_index: int
    sides: frozenset[Side]

    def lines(self) -> list[str]:
        names = ",".join(s.value for s in Side if s in self.sides)
        return [f"mode {self.mode_index}: TypeI inflow={names}"]


@dataclass(frozen=True)
class EllipticModeBC:
    """Per-side linear condition a*u1 + b*u2 = 0 for one elliptic mode, on
    all four sides, each passing `condition_rows`. `elliptic_steady_solve`
    rejects a rank below 2, and `elliptic_uniqueness` measures it."""

    mode_index: int
    conditions: Mapping[Side, tuple[float, float]]

    def __post_init__(self):
        conds = dict(self.conditions)
        if set(conds) != set(Side):
            raise ValueError("conditions must cover all four sides")
        condition_rows(conds)
        object.__setattr__(self, "conditions", conds)

    def lines(self) -> list[str]:
        return [
            f"mode {self.mode_index}: TypeII side={s.value} "
            f"cond=({self.conditions[s][0]:.17g},{self.conditions[s][1]:.17g})"
            for s in Side
        ]


BCAssignment = ScalarModeBC | EllipticModeBC


def format_assignments(assignments) -> str:
    lines = []
    for bc in assignments:
        lines.extend(bc.lines())
    return "\n".join(lines) + "\n"


def synthesize_bc_type1(c: float, d: float) -> frozenset[Side]:
    """Two contiguous inflow sides for the scalar mode with speeds (c, d)."""
    if c == 0 or d == 0:
        raise ZeroCoefficient(f"scalar mode speeds must be non-zero, got ({c}, {d})")
    x_side = Side.W if c > 0 else Side.E
    y_side = Side.S if d > 0 else Side.N
    return frozenset({x_side, y_side})


def synthesize_bc_type2(mode: TypeIIMode) -> EllipticModeBC:
    """Default component split for an elliptic mode by the signs of
    (alpha1, alpha2); alpha counts as >= 0 when above -SIGN_TOL*scale."""
    scale = max(abs(mode.alpha1), abs(mode.beta1),
                abs(mode.alpha2), abs(mode.beta2), 1e-300)
    a1_nonneg = mode.alpha1 > -SIGN_TOL * scale
    a2_nonneg = mode.alpha2 > -SIGN_TOL * scale
    u1 = (1.0, 0.0)
    u2 = (0.0, 1.0)
    conditions = {
        Side.W: u1 if a1_nonneg else u2,
        Side.E: u2 if a1_nonneg else u1,
        Side.S: u1 if a2_nonneg else u2,
        Side.N: u2 if a2_nonneg else u1,
    }
    return EllipticModeBC(mode_index=0, conditions=conditions)


def condition_rows(conditions: Mapping[Side, tuple[float, float]],
                   ) -> np.ndarray:
    """The side conditions (a, b) as rows (4, 2) in `Side`'s order. A NaN or
    infinite entry, or a zero row, is a ValueError naming its side."""
    rows = np.array([conditions[s] for s in Side], dtype=float)
    for side, (a, b) in zip(Side, rows.tolist()):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"side {side} condition ({a}, {b}) is not finite")
        if a == 0 and b == 0:
            raise ValueError(f"side {side} condition is zero")
    return rows


def check_rank2(conditions: Mapping[Side, tuple[float, float]]) -> bool:
    rows = condition_rows(conditions)
    return np.linalg.matrix_rank(rows, tol=1e-10 * max(np.abs(rows).max(), 1e-300)) == 2


def assemble_system_bcs(decomp: ModeDecomposition) -> list[BCAssignment]:
    """One boundary assignment per mode, by its signs: the sign-case
    defaults. Other elliptic conditions are an EllipticModeBC that the
    caller builds and passes to a run as its `bcs`."""
    return [ScalarModeBC(k, synthesize_bc_type1(mode.c, mode.d))
            if isinstance(mode, TypeIMode)
            else replace(synthesize_bc_type2(mode), mode_index=k)
            for k, mode in enumerate(decomp.modes)]


# --- variable-coefficient standing assumptions ------------------------------


@dataclass
class VariableCoefficientSetup:
    """The coefficient samples on `grid`, one node each (or one that stands
    for all: a constant pair), with their eigenvalues and growth rate
    omega0 (`growth_rate`), each taken once, here."""

    grid: RectGrid
    a1: np.ndarray            # (nx, ny, n, n)
    a2: np.ndarray
    b: np.ndarray             # (nx, ny, n, n), zero where the sampler has none
    eigenvalues: tuple = field(init=False)   # eigvalsh of a1, of a2
    omega0: float = field(init=False)

    def __post_init__(self):
        self.eigenvalues = (np.linalg.eigvalsh(self.a1),
                            np.linalg.eigvalsh(self.a2))
        self.omega0 = growth_rate(self.a1, self.a2, self.b, self.grid.hx,
                                  self.grid.hy)


def variable_coeff_setup(sampler: Callable[[float, float], SymmetricPair],
                         grid: RectGrid) -> VariableCoefficientSetup:
    """The one sampling loop: call `sampler` once per node, x outer, and
    stack the pairs. It checks nothing; `check_variable_coeff_assumptions`
    samples through it and returns the setup it admitted."""
    pairs = [sampler(float(x), float(y)) for x in grid.x() for y in grid.y()]
    shape = (grid.nx, grid.ny) + pairs[0].a1.shape
    a1 = np.array([p.a1 for p in pairs]).reshape(shape)
    a2 = np.array([p.a2 for p in pairs]).reshape(shape)
    b = np.array([p.b for p in pairs]).reshape(shape)
    return VariableCoefficientSetup(grid=grid, a1=a1, a2=a2, b=b)


def _raise_first(checks):
    """Raise for the first failing node in raster order, and there for the
    first failing check: `checks` is an ordered list of (fail mask over the
    nodes, error factory taking the node)."""
    fails = np.stack([mask for mask, _ in checks])
    flat = fails.reshape(len(checks), -1)
    hit = flat.any(axis=0)
    if hit.any():
        node = int(np.argmax(hit))
        where = tuple(int(v) for v in np.unravel_index(node, fails.shape[1:]))
        raise checks[int(np.argmax(flat[:, node]))][1](where)


def check_variable_coeff_assumptions(sampler: Callable[[float, float], SymmetricPair],
                                     grid) -> VariableCoefficientSetup:
    """The one admission check of a sampler on the grid, from one batched
    eig of a1^-1 a2: (b) the eigenvalues of a1 and a2, and (c) the real ones
    of a1^-1 a2, keep their signs; (d) its multiplicity pattern is
    constant, its eigenbasis condition number at most
    DEFAULT_CONDITION_CAP, and its branches continue those of the
    neighbour (i-1, j), or (0, j-1) on the first column, with no swap and
    no merge of branches apart at (0, 0). Each sample is a SymmetricPair,
    whose `pair_errors` keeps a1 and a2, and so a1^-1 a2, non-singular.

    Samples each node once, through `variable_coeff_setup`. Raises
    AssumptionViolated, IllConditionedBasis or BlockMatchingFailure at the
    first failing node in raster order; returns the admitted setup
    otherwise, with its eigenvalues and omega0, which a run can step
    without sampling again.
    """
    setup = variable_coeff_setup(sampler, grid)
    checks = []
    for name, ev in zip(("a1", "a2"), setup.eigenvalues):
        signs = np.sign(ev)
        checks.append((np.any(signs != signs[0, 0], axis=-1),
                       lambda node, name=name: AssumptionViolated(
                           "b", node, f"{name} eigenvalue changed sign")))

    M = np.linalg.solve(setup.a1, setup.a2)
    ev, vecs = np.linalg.eig(M)
    cond = np.linalg.cond(vecs)
    # kind 0 keys are TypeI ratios d/c, kind 1 TypeII keys mu1 + i mu2
    keys, kind = eigen_keys(ev, defect_tol(M))
    real, cplx = kind == 0, kind == 1
    nreal, ncplx = real.sum(axis=-1), cplx.sum(axis=-1)
    # real keys lead, so a padded sign row compares like the sign tuple
    signs = np.where(real, np.sign(keys.real), 2.0)
    has_real = nreal > 0
    ref_signs = signs[np.unravel_index(np.argmax(has_real), has_real.shape)]
    # a pair collapsing to real shows up as a multiplicity-pattern change
    pattern = (nreal != nreal[0, 0]) | (ncplx != ncplx[0, 0])

    # branch continuity. (0, 0) is its own neighbour, which passes. Kind
    # sequences are fixed by the pattern, so up to the first node that
    # fails (d) each node's kinds are its neighbour's.
    prev = keys.copy()
    prev[1:], prev[0, 1:] = keys[:-1], keys[0, :-1]
    live = kind < 2
    dist = np.where((kind[..., :, None] == kind[..., None, :])
                    & live[..., :, None],
                    np.abs(keys[..., :, None] - prev[..., None, :]), np.inf)
    own = np.diagonal(dist, axis1=-2, axis2=-1)
    # exact ties (repeated eigenvalues of constant multiplicity) are fine; a
    # strictly closer foreign branch signals a swap mid-cell
    swapped = np.any(live & (own > dist.min(axis=-1)
                             + 1e-12 * (1.0 + np.abs(keys.real))), axis=-1)
    # branch pairs separated at the reference node must stay apart
    k0, t0 = keys[0, 0], kind[0, 0]
    merged = {(i, j): np.where(kind[..., i] == kind[..., j],
                               np.abs(keys[..., i] - keys[..., j]), np.inf)
              < max(1e-8, 1e-3 * abs(k0[i] - k0[j]))
              for i in range(len(k0)) for j in range(i + 1, len(k0))
              if t0[i] == t0[j] < 2 and abs(k0[i] - k0[j]) > 1e-7}
    merge = np.logical_or.reduce([np.zeros_like(swapped), *merged.values()])

    checks += [
        (has_real & np.any(signs != ref_signs, axis=-1), lambda node:
         AssumptionViolated("c", node, "real eigenvalue of a1^-1 a2 changed sign")),
        (pattern, lambda node: AssumptionViolated(
            "d", node, f"eigenvalue multiplicity pattern changed from "
            f"{(int(nreal[0, 0]), int(ncplx[0, 0]))} to "
            f"{(int(nreal[node]), int(ncplx[node]))}")),
        (~(cond <= DEFAULT_CONDITION_CAP), lambda node: IllConditionedBasis(
            f"eigenvector basis condition number {cond[node]:.3e} exceeds "
            f"{DEFAULT_CONDITION_CAP:.1e} at node {node}: a1^-1 a2 is "
            "(nearly) defective there")),
        (swapped, lambda node: BlockMatchingFailure(
            f"eigenvalue branch ordering could not be continued at node "
            f"{node}; branches likely cross nearby")),
        (merge, lambda node: BlockMatchingFailure(
            "eigenvalue branches {} and {} merge at node {}".format(
                *next(ij for ij, m in merged.items() if m[node]), node)))]
    _raise_first(checks)
    return setup


def growth_rate(a1, a2, b, hx: float, hy: float) -> float:
    """omega of the energy identity d/dt |u|^2 <= 2 omega |u|^2 inside,
    for (nx, ny, n, n) coefficient stacks: half the largest eigenvalue of
    sym(d/dx a1 + d/dy a2 - 2 b) over the nodes, floored at 0. A stack of
    one node stands for constant coefficients and has no derivative term,
    so there omega = max(0, -lambda_min(sym b))."""
    rate = -2.0 * b
    if a1.shape[:2] != (1, 1):
        rate = (np.gradient(a1, hx, axis=0, edge_order=2)
                + np.gradient(a2, hy, axis=1, edge_order=2) + rate)
    lam_max = np.linalg.eigvalsh(0.5 * (rate + np.swapaxes(rate, -1, -2))).max()
    return 0.5 * max(0.0, float(lam_max))
