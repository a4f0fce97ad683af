"""Boundary-condition synthesis for decomposed modes.

Scalar (hyperbolic) modes get homogeneous data on their two inflow sides,
decided by the signs of the pair (c, d). Elliptic modes split the two
components over complementary pairs of contiguous sides, decided by the
signs of (alpha1, alpha2); a rotation of the mode variables generates the
infinitely many equivalent condition sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .congruence import ModeDecomposition, SymmetricPair, TypeIIMode, TypeIMode
from .errors import (AssumptionViolated, BlockMatchingFailure,
                     IllConditionedBasis, RankDeficientOverride,
                     ZeroCoefficient, ZeroKappa)
from .linalg import DEFAULT_CONDITION_CAP

SIGN_TOL = 1e-12


class Side(enum.Enum):
    """The four sides of the rectangle (0, L1) x (0, L2).

    Each side carries its layout, set once below: `axis` (0 for x, 1 for
    y), `sign` of the outward normal along it, `edge`, the index of the
    side's nodes in any (..., nx, ny) array, and the `opposite` side.
    """

    W = "W"  # x = 0
    E = "E"  # x = L1
    S = "S"  # y = 0
    N = "N"  # y = L2

    def __str__(self):
        return self.value


for _side, _axis, _sign, _opposite in ((Side.W, 0, -1, Side.E),
                                       (Side.E, 0, 1, Side.W),
                                       (Side.S, 1, -1, Side.N),
                                       (Side.N, 1, 1, Side.S)):
    _row = 0 if _sign < 0 else -1
    _side.axis, _side.sign, _side.opposite = _axis, _sign, _opposite
    _side.edge = (..., _row, slice(None)) if _axis == 0 else (..., _row)

SIDE_ORDER = (Side.W, Side.E, Side.S, Side.N)


@dataclass(frozen=True)
class ScalarModeBC:
    """Homogeneous condition for one scalar mode variable on two sides."""

    mode_index: int
    sides: frozenset[Side]

    def lines(self) -> list[str]:
        names = ",".join(s.value for s in SIDE_ORDER if s in self.sides)
        return [f"mode {self.mode_index}: TypeI inflow={names}"]


@dataclass(frozen=True)
class EllipticModeBC:
    """Per-side linear condition a*u1 + b*u2 = 0 for one elliptic mode."""

    mode_index: int
    conditions: Mapping[Side, tuple[float, float]]

    def __post_init__(self):
        conds = dict(self.conditions)
        if set(conds) != set(Side):
            raise ValueError("conditions must cover all four sides")
        for side, (a, b) in conds.items():
            if a == 0 and b == 0:
                raise ValueError(f"condition on {side} is identically zero")
        object.__setattr__(self, "conditions", conds)

    def condition_matrix(self) -> np.ndarray:
        return np.array([self.conditions[s] for s in SIDE_ORDER])

    def lines(self) -> list[str]:
        return [
            f"mode {self.mode_index}: TypeII side={s.value} "
            f"cond=({self.conditions[s][0]:.17g},{self.conditions[s][1]:.17g})"
            for s in SIDE_ORDER
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


def rotate_type2(mode: TypeIIMode, kappa: float) -> TypeIIMode:
    """Transform the mode coefficients under the orthogonal change of
    variables v = Q(kappa) u; preserves the determinant condition."""
    if kappa == 0:
        raise ZeroKappa("kappa must be non-zero")
    k2 = kappa * kappa
    den = 1.0 + k2
    a1 = ((k2 - 1.0) * mode.alpha1 - 2.0 * kappa * mode.beta1) / den
    a2 = ((k2 - 1.0) * mode.alpha2 - 2.0 * kappa * mode.beta2) / den
    b1 = ((k2 - 1.0) * mode.beta1 + 2.0 * kappa * mode.alpha1) / den
    b2 = ((k2 - 1.0) * mode.beta2 + 2.0 * kappa * mode.alpha2) / den
    return TypeIIMode(a1, b1, a2, b2)


def rotation_matrix(kappa: float) -> np.ndarray:
    """Q(kappa), the orthogonal map sending u to the rotated mode variables."""
    if kappa == 0:
        raise ZeroKappa("kappa must be non-zero")
    return np.array([[kappa, -1.0], [1.0, kappa]]) / np.sqrt(1.0 + kappa * kappa)


def check_rank2(conditions: Mapping[Side, tuple[float, float]]) -> bool:
    rows = np.array([conditions[s] for s in SIDE_ORDER], dtype=float)
    return np.linalg.matrix_rank(rows, tol=1e-10 * max(np.abs(rows).max(), 1e-300)) == 2


def assemble_system_bcs(decomp: ModeDecomposition,
                        overrides: Mapping[int, Mapping[Side, tuple[float, float]]]
                        | None = None) -> list[BCAssignment]:
    """One boundary assignment per mode: the sign-case defaults, with
    optional per-mode override condition sets for elliptic modes."""
    overrides = dict(overrides or {})
    out: list[BCAssignment] = []
    for k, mode in enumerate(decomp.modes):
        if isinstance(mode, TypeIMode):
            if k in overrides:
                raise RankDeficientOverride(
                    f"mode {k} is scalar; overrides apply to elliptic modes")
            out.append(ScalarModeBC(mode_index=k,
                                    sides=synthesize_bc_type1(mode.c, mode.d)))
        else:
            if k in overrides:
                conds = dict(overrides[k])
                if not check_rank2(conds):
                    raise RankDeficientOverride(
                        f"override for mode {k}: side-condition matrix has "
                        "rank < 2, uniqueness is lost")
                out.append(EllipticModeBC(mode_index=k, conditions=conds))
            else:
                bc = synthesize_bc_type2(mode)
                out.append(EllipticModeBC(mode_index=k, conditions=bc.conditions))
    return out


# --- variable-coefficient standing assumptions ------------------------------


@dataclass(frozen=True)
class VariableCoeffReport:
    """Grid-sampled verdicts for the variable-coefficient assumptions.

    Margins are minima over the sample nodes. The C1 norm is a
    finite-difference proxy; Holder regularity itself is taken on trust.
    omega0 is the pointwise growth rate of the energy identity.
    """

    c1_norm_estimate: float
    coeff_eig_margin: float
    real_eig_margin: float
    imag_eig_margin: float
    omega0: float


def sample_coefficients(sampler: Callable[[float, float], SymmetricPair], grid):
    """Call `sampler` once per node, x outer, and stack the pairs into
    (a1, a2, b), each (nx, ny, n, n); b is zero where the sampler has none."""
    pairs = [sampler(float(x), float(y)) for x in grid.x() for y in grid.y()]
    shape = (grid.nx, grid.ny) + pairs[0].a1.shape
    a1 = np.array([p.a1 for p in pairs]).reshape(shape)
    a2 = np.array([p.a2 for p in pairs]).reshape(shape)
    b = np.array([np.zeros_like(p.a1) if p.b is None else p.b
                  for p in pairs]).reshape(shape)
    return a1, a2, b


def _mode_keys(ev: np.ndarray, scale: np.ndarray):
    """Sorted mode keys of eigenvalue stacks ev (..., n) of a1^-1 a2.

    Eigenvalues within 1e-8*scale of the real axis are TypeI keys (the
    ratio d/c), sorted ascending; the im > 0 member of each complex pair is
    a TypeII key (mu1 + i mu2), sorted by (mu1, mu2) after them; the slots
    the conjugates leave are padding at the end. Returns (keys, kind) with
    kind 0 for TypeI, 1 for TypeII and 2 for padding.
    """
    thresh = 1e-8 * scale[..., None]
    kind = np.where(np.abs(ev.imag) <= thresh, 0, np.where(ev.imag > 0, 1, 2))
    keys = np.where(kind == 0, ev.real + 0j, ev)
    order = np.lexsort((keys.imag, keys.real, kind), axis=-1)
    return (np.take_along_axis(keys, order, -1),
            np.take_along_axis(kind, order, -1))


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
                                     grid) -> VariableCoeffReport:
    """The one admission check of a sampler on the grid, from one batched
    eig of a1^-1 a2: (b) the eigenvalues of a1 and a2, and (c) the real ones
    of a1^-1 a2, stay one-signed away from zero; (d) its multiplicity
    pattern is constant, its eigenbasis condition number at most
    DEFAULT_CONDITION_CAP, and its branches continue those of the
    neighbour (i-1, j), or (0, j-1) on the first column, with no swap and
    no merge of branches apart at (0, 0).

    Raises AssumptionViolated, IllConditionedBasis or BlockMatchingFailure
    at the first failing node in raster order; returns the margin report
    otherwise, with omega0 from `growth_rate`. `variable_coeff_setup`
    assumes a sampler this check admits.
    """
    a1, a2, b = sample_coefficients(sampler, grid)
    checks = []
    coeff_margin = np.inf
    for name, A in (("a1", a1), ("a2", a2)):
        ev = np.linalg.eigvalsh(A)
        signs = np.sign(ev)
        checks += [(np.any(ev == 0, axis=-1), lambda node, name=name:
                     AssumptionViolated("b", node, f"{name} eigenvalue hits zero")),
                   (np.any(signs != signs[0, 0], axis=-1), lambda node, name=name:
                    AssumptionViolated("b", node, f"{name} eigenvalue changed sign"))]
        coeff_margin = min(coeff_margin, float(np.abs(ev).min()))

    M = np.linalg.solve(a1, a2)
    ev, vecs = np.linalg.eig(M)
    cond = np.linalg.cond(vecs)
    keys, kind = _mode_keys(
        ev, np.maximum(np.linalg.norm(M, 2, axis=(-2, -1)), 1e-300))
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
        (np.any(real & (keys.real == 0), axis=-1), lambda node: AssumptionViolated(
            "c", node, "real eigenvalue of a1^-1 a2 hits zero")),
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

    # C1 proxy
    grads = [np.gradient(a, h, axis=axis, edge_order=2)
             for a in (a1, a2) for axis, h in ((0, grid.hx), (1, grid.hy))]
    c1_norm = float(max(np.abs(m).max() for m in (*grads, a1, a2)))

    return VariableCoeffReport(
        c1_norm_estimate=c1_norm,
        coeff_eig_margin=coeff_margin,
        real_eig_margin=float(np.abs(keys.real[real]).min(initial=np.inf)),
        imag_eig_margin=float(keys.imag[cplx].min(initial=np.inf)),
        omega0=growth_rate(a1, a2, b, grid.hx, grid.hy),
    )


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
