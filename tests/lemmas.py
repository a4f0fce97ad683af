"""Quadrature checks of the paper's continuum lemmas, closed-form
oracles, and the mode rotation, the one-pair mode scaling and the
congruence transform that only the tests use. Second-order centered differences (`np.gradient(edge_order=2)`)
and trapezoid quadrature back every residual, so smooth-field residuals
shrink at first or second order under refinement, as the acceptance suite
and `test_operators.py` measure.
`hypermodes` runs none of this code."""

import numpy as np

from hypermodes.apps import SWEParams, SWMHDParams
from hypermodes.congruence import SYMMETRY_RTOL, TypeIIMode, _standardize
from hypermodes.errors import HypermodesError
from hypermodes.modes import Side
from hypermodes.operators import (RectGrid, StateField, _coeff_grid,
                                  _type2_coeff_grids)

BC_TRACE_RTOL = 1e-10
# each side's opposite across the rectangle
OPPOSITE = {Side.W: Side.E, Side.E: Side.W, Side.S: Side.N, Side.N: Side.S}


class BCViolated(HypermodesError):
    """A field given to a lemma check breaks its side conditions."""


class ZeroKappa(HypermodesError):
    """A mode rotation was asked for with kappa = 0."""


class DimensionMismatch(HypermodesError):
    """A congruence transform was given matrices of mismatched shapes."""


def ddx(values: np.ndarray, grid: RectGrid) -> np.ndarray:
    return np.gradient(values, grid.hx, axis=-2, edge_order=2)

def ddy(values: np.ndarray, grid: RectGrid) -> np.ndarray:
    return np.gradient(values, grid.hy, axis=-1, edge_order=2)


def inner(grid: RectGrid, f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoid L2 inner product of (n, nx, ny) arrays."""
    w = grid.quad_weights()
    return float(np.sum(w * np.sum(f * g, axis=0)))


def _check_trace_zero(u: StateField, side: Side, rows: np.ndarray, what: str):
    scale = max(np.abs(u.values).max(), 1e-300)
    worst = np.abs(rows).max()
    if worst > BC_TRACE_RTOL * scale:
        raise BCViolated(
            f"{what} on side {side}: max trace {worst:.3e} "
            f"(relative tolerance {BC_TRACE_RTOL:.1e})")


def positivity_residual_type1(c, d, u: StateField,
                              sides: frozenset[Side]) -> float:
    """Quadrature estimate of <c u_x + d u_y, u> for a scalar mode field
    vanishing on its two inflow sides.

    c, d may be constants or (nx, ny) samples with one-signed values; for
    smooth u the result is bounded below by -C*h (constant coefficients)
    or -(omega0 + C*h)*||u||^2 (variable).
    """
    grid = u.grid
    cg = _coeff_grid(c, grid)
    dg = _coeff_grid(d, grid)
    for side in sides:
        _check_trace_zero(u, side, u.values[side.edge], "scalar mode trace")
    v = u.values[0]
    flux = cg * ddx(v, grid) + dg * ddy(v, grid)
    return inner(grid, flux[None], v[None])


def apply_type2(mode, u: StateField) -> np.ndarray:
    """T1 u_x + T2 u_y for the trace-free coefficient pair of the mode."""
    grid = u.grid
    a1, b1, a2, b2 = _type2_coeff_grids(mode, grid)
    u1, u2 = u.values[0], u.values[1]
    u1x, u2x = ddx(u1, grid), ddx(u2, grid)
    u1y, u2y = ddy(u1, grid), ddy(u2, grid)
    return np.stack([
        a1 * u1x + b1 * u2x + a2 * u1y + b2 * u2y,
        b1 * u1x - a1 * u2x + b2 * u1y - a2 * u2y,
    ])


def check_conditions(u: StateField, conditions, what="elliptic mode trace"):
    for side in Side:
        a, b = conditions[side]
        tr = u.values[side.edge]
        _check_trace_zero(u, side, a * tr[0] + b * tr[1], what)


def positivity_residual_type2(mode, u: StateField, conditions) -> float:
    """Quadrature estimate of <T1 u_x + T2 u_y, u> for a two-component field
    satisfying the elliptic-mode side conditions."""
    if u.components != 2:
        raise ValueError("elliptic mode fields have two components")
    check_conditions(u, conditions)
    return inner(u.grid, apply_type2(mode, u), u.values)


def cross_term_residual(u: StateField, conditions) -> float:
    """|integral(u2_x u1_y) - integral(u1_x u2_y)| for fields satisfying
    a_j u1 + b_j u2 = 0 on each side; vanishes in the continuum."""
    if u.components != 2:
        raise ValueError("cross-term fields have two components")
    check_conditions(u, conditions, "cross-term side condition")
    grid = u.grid
    u1, u2 = u.values[0], u.values[1]
    i1 = inner(grid, ddx(u2, grid)[None], ddy(u1, grid)[None])
    i2 = inner(grid, ddx(u1, grid)[None], ddy(u2, grid)[None])
    return abs(i1 - i2)


def _coeff_field_apply(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply an (m, m) or (nx, ny, m, m) coefficient to an (m, nx, ny) field."""
    if T.ndim == 2:
        return np.einsum("ab,bij->aij", T, v)
    return np.einsum("ijab,bij->aij", T, v)


def _line_integral(vals: np.ndarray, h: float) -> float:
    w = np.full(vals.shape[-1], h)
    w[0] = w[-1] = 0.5 * h
    return float(np.sum(w * vals))


def integration_by_parts_residual(theta: StateField, g: StateField,
                                  T1, T2) -> float:
    """Discrete defect of the duality identity

        <(T1 th)_x + (T2 th)_y, g> + <T1 g_x + T2 g_y, th> = <gamma_nu th, g>

    with the co-normal trace gamma_nu th equal to the outward normal's sign
    times T1 th on the W and E sides, T2 th on the S and N sides. Decays at
    least at O(h) for smooth data.
    """
    if theta.components != g.components:
        raise ValueError("theta and g must have the same component count")
    grid = theta.grid
    T1 = np.asarray(T1, dtype=float)
    T2 = np.asarray(T2, dtype=float)
    th, gv = theta.values, g.values
    T1th = _coeff_field_apply(T1, th)
    T2th = _coeff_field_apply(T2, th)
    vol1 = inner(grid, ddx(T1th, grid) + ddy(T2th, grid), gv)
    vol2 = inner(grid, _coeff_field_apply(T1, ddx(gv, grid))
                 + _coeff_field_apply(T2, ddy(gv, grid)), th)
    Tth, h_along = (T1th, T2th), (grid.hy, grid.hx)
    boundary = 0.0
    for side in (Side.E, Side.W, Side.N, Side.S):
        flux = np.sum(Tth[side.axis][side.edge] * gv[side.edge], axis=0)
        boundary += side.sign * _line_integral(flux, h_along[side.axis])
    return abs(vol1 + vol2 - boundary)


def _bump(t, a, b):
    """C^2 bump supported on (a, b): ((t-a)(b-t))^3, else 0."""
    s = (t - a) * (b - t)
    return np.where((t > a) & (t < b), s ** 3, 0.0)


def _bump_prime(t, a, b):
    s = (t - a) * (b - t)
    return np.where((t > a) & (t < b), 3.0 * s ** 2 * (a + b - 2.0 * t), 0.0)


def manufactured_elliptic(grid: RectGrid, mode_coeffs):
    """Compactly supported exact solution and its forcing for the
    first-order mode system T1 u_x + T2 u_y = psi.

    mode_coeffs = (alpha1, beta1, alpha2, beta2), scalars or (nx, ny) arrays.
    Returns (u_star values, psi values), both (2, nx, ny).
    """
    X, Y = grid.meshgrid()
    ax, bx = 0.15 * grid.L1, 0.85 * grid.L1
    ay, by = 0.15 * grid.L2, 0.85 * grid.L2
    scale = 1.0 / (_bump(0.5 * (ax + bx), ax, bx)
                   * _bump(0.5 * (ay + by), ay, by))
    ex, exp_ = _bump(X, ax, bx), _bump_prime(X, ax, bx)
    ey, eyp = _bump(Y, ay, by), _bump_prime(Y, ay, by)

    s1, c1 = np.sin(3 * X + Y), np.cos(3 * X + Y)
    s2, c2 = np.sin(X - 2 * Y), np.cos(X - 2 * Y)
    u1 = scale * ex * ey * s1
    u2 = scale * ex * ey * c2
    u1x = scale * (exp_ * ey * s1 + ex * ey * 3 * c1)
    u1y = scale * (ex * eyp * s1 + ex * ey * c1)
    u2x = scale * (exp_ * ey * c2 - ex * ey * s2)
    u2y = scale * (ex * eyp * c2 + ex * ey * 2 * s2)

    a1, b1, a2, b2 = (np.asarray(v, dtype=float) for v in mode_coeffs)
    psi1 = a1 * u1x + b1 * u2x + a2 * u1y + b2 * u2y
    psi2 = b1 * u1x - a1 * u2x + b2 * u1y - a2 * u2y
    return np.stack([u1, u2]), np.stack([psi1, psi2])


def rotation_matrix(kappa: float) -> np.ndarray:
    """Q(kappa), the orthogonal map sending u to the rotated mode variables."""
    if kappa == 0:
        raise ZeroKappa("kappa must be non-zero")
    return np.array([[kappa, -1.0], [1.0, kappa]]) / np.sqrt(1.0 + kappa * kappa)


def rotate_type2(mode: TypeIIMode, kappa: float) -> TypeIIMode:
    """Transform the mode coefficients under the orthogonal change of
    variables v = Q(kappa) u; preserves the determinant condition. The
    rotated conditions are the infinitely many equivalent condition sets
    of an elliptic mode."""
    if kappa == 0:
        raise ZeroKappa("kappa must be non-zero")
    k2 = kappa * kappa
    den = 1.0 + k2
    a1 = ((k2 - 1.0) * mode.alpha1 - 2.0 * kappa * mode.beta1) / den
    a2 = ((k2 - 1.0) * mode.alpha2 - 2.0 * kappa * mode.beta2) / den
    b1 = ((k2 - 1.0) * mode.beta1 + 2.0 * kappa * mode.alpha1) / den
    b2 = ((k2 - 1.0) * mode.beta2 + 2.0 * kappa * mode.alpha2) / den
    return TypeIIMode(a1, b1, a2, b2)


def standardize_type2(C, D):
    """Scale a trace-free 2x2 pair so the determinant condition equals 1.

    Returns (V, mode) with V = kappa0 * I, kappa0 the inverse fourth root
    of alpha2*beta1 - alpha1*beta2 (equivalently mu2*(alpha1^2 + beta1^2)).
    """
    kappa0, params = _standardize(np.asarray(C, dtype=float)[None],
                                  np.asarray(D, dtype=float)[None])
    return np.diag([kappa0[0], kappa0[0]]), TypeIIMode(*(p[0] for p in params))


def congruence_transform(A, P) -> np.ndarray:
    """P^t A P, explicitly symmetrized by averaging with its transpose."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if P.ndim != 2 or P.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"P rows ({P.shape[0]}) must match A order ({A.shape[0]})")
    assert np.linalg.norm(A - A.T) <= SYMMETRY_RTOL * np.linalg.norm(A), \
        "A must be symmetric"
    out = P.T @ A @ P
    return 0.5 * (out + out.T)


def swe_eigenvalues(p: SWEParams) -> np.ndarray:
    """Closed-form spectrum of E1^-1 E2: two gravity branches through
    kappa0 = sqrt(g (u0^2 + v0^2 - g phi0) / phi0) and the advective v0/u0.
    Complex values are returned when kappa0^2 < 0."""
    kappa0_sq = p.g * (p.u0 ** 2 + p.v0 ** 2 - p.g * p.phi0) / p.phi0
    kappa0 = np.sqrt(complex(kappa0_sq, 0.0))
    den = p.u0 ** 2 - p.g * p.phi0
    lam1 = (p.u0 * p.v0 + p.phi0 * kappa0) / den
    lam2 = (p.u0 * p.v0 - p.phi0 * kappa0) / den
    lam3 = complex(p.v0 / p.u0, 0.0)
    return np.array([lam1, lam2, lam3])


def swmhd_eigenvalues(p: SWMHDParams) -> np.ndarray:
    """The five displayed branches: two Alfven ratios (b20 +/- v0) over
    (b10 +/- u0), the advective v0/u0, and the magneto-gravity pair from
    the discriminant expression (complex when the discriminant is negative)."""
    lam1 = complex((p.b20 + p.v0) / (p.b10 + p.u0), 0.0)
    lam2 = complex((p.b20 - p.v0) / (p.b10 - p.u0), 0.0)
    lam5 = complex(p.v0 / p.u0, 0.0)
    den = p.b10 ** 2 - p.u0 ** 2 + p.g * p.phi0
    cross = p.b10 * p.b20 - p.u0 * p.v0
    disc = cross ** 2 - den * (p.b20 ** 2 - p.v0 ** 2 + p.g * p.phi0)
    root = np.sqrt(complex(disc, 0.0))
    lam3 = (cross + root) / den
    lam4 = (cross - root) / den
    return np.array([lam1, lam2, lam3, lam4, lam5])
