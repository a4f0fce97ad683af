"""Discrete certification operators on the rectangle.

Second-order centered differences (one-sided at the boundary) and trapezoid
quadrature back every residual here, so smooth-field residuals shrink at
first or second order under refinement: the acceptance suite and
`scripts/convergence_study.py` measure those rates, while `verify` checks
the identities exactly (`certify`). The elliptic solve is a sparse
least-squares discretization of the first-order mode system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .congruence import TypeIIMode
from .errors import BCViolated, EllipticityLost, RankDeficientBC
from .modes import SIDE_ORDER, Side, check_rank2

if TYPE_CHECKING:  # scipy is imported by the elliptic solve's functions only
    import scipy.sparse as sp

BC_TRACE_RTOL = 1e-10
ELLIPTICITY_MIN = 1e-10  # c0, the floor of alpha2*beta1 - alpha1*beta2
# LOBPCG stopping rule of the sigma_min estimate
UNIQUENESS_TOL, UNIQUENESS_MAXITER = 1e-10, 60


@dataclass(frozen=True)
class RectGrid:
    """Uniform node-centered grid on (0, L1) x (0, L2), boundaries included."""

    L1: float
    L2: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.L1 <= 0 or self.L2 <= 0:
            raise ValueError("domain lengths must be positive")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("node counts must be at least 8")

    @property
    def hx(self) -> float:
        return self.L1 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.L2 / (self.ny - 1)

    @property
    def h(self) -> float:
        return max(self.hx, self.hy)

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L1, self.nx)

    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.L2, self.ny)

    def meshgrid(self):
        return np.meshgrid(self.x(), self.y(), indexing="ij")

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights, shape (nx, ny)."""
        wx = np.full(self.nx, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return wx[:, None] * wy[None, :]

    def label(self) -> str:
        return f"{self.nx}x{self.ny}"


@dataclass(frozen=True)
class StateField:
    """n-component grid function; values indexed (component, i, j)."""

    grid: RectGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[None]
        if v.shape[1:] != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        w = self.grid.quad_weights()
        return float(np.sqrt(np.sum(w * np.sum(self.values ** 2, axis=0))))

    def side_trace(self, side: Side) -> np.ndarray:
        return self.values[side.edge]


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


def _coeff_grid(value, grid: RectGrid) -> np.ndarray:
    """Promote a scalar coefficient to an (nx, ny) array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full((grid.nx, grid.ny), float(arr))
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError(f"coefficient shape {arr.shape} does not match grid")
    return arr


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
        _check_trace_zero(u, side, u.side_trace(side), "scalar mode trace")
    v = u.values[0]
    flux = cg * ddx(v, grid) + dg * ddy(v, grid)
    return inner(grid, flux[None], v[None])


def _type2_coeff_grids(mode, grid: RectGrid):
    if isinstance(mode, TypeIIMode):
        vals = (mode.alpha1, mode.beta1, mode.alpha2, mode.beta2)
    else:
        vals = mode  # (alpha1, beta1, alpha2, beta2), scalars or arrays
    return tuple(_coeff_grid(v, grid) for v in vals)


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


def check_conditions(u: StateField,
                     conditions: Mapping[Side, tuple[float, float]],
                     what: str = "elliptic mode trace") -> None:
    for side in SIDE_ORDER:
        a, b = conditions[side]
        tr = u.side_trace(side)
        _check_trace_zero(u, side, a * tr[0] + b * tr[1], what)


def positivity_residual_type2(mode, u: StateField,
                              conditions: Mapping[Side, tuple[float, float]],
                              ) -> float:
    """Quadrature estimate of <T1 u_x + T2 u_y, u> for a two-component field
    satisfying the elliptic-mode side conditions."""
    if u.components != 2:
        raise ValueError("elliptic mode fields have two components")
    check_conditions(u, conditions)
    return inner(u.grid, apply_type2(mode, u), u.values)


def cross_term_residual(u: StateField,
                        conditions: Mapping[Side, tuple[float, float]]) -> float:
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


def _duality_terms(theta: StateField, g: StateField, T1, T2, dx, dy):
    """The terms (volume 1, volume 2, -boundary) of the duality identity
    below, which sum to 0, with the differences `dx`, `dy` for d/dx, d/dy."""
    if theta.components != g.components:
        raise ValueError("theta and g must have the same component count")
    grid = theta.grid
    T1 = np.asarray(T1, dtype=float)
    T2 = np.asarray(T2, dtype=float)
    th, gv = theta.values, g.values
    T1th = _coeff_field_apply(T1, th)
    T2th = _coeff_field_apply(T2, th)
    vol1 = inner(grid, dx(T1th, grid) + dy(T2th, grid), gv)
    vol2 = inner(grid, _coeff_field_apply(T1, dx(gv, grid))
                 + _coeff_field_apply(T2, dy(gv, grid)), th)
    Tth, h_along = (T1th, T2th), (grid.hy, grid.hx)
    boundary = 0.0
    for side in (Side.E, Side.W, Side.N, Side.S):
        flux = np.sum(Tth[side.axis][side.edge] * gv[side.edge], axis=0)
        boundary += side.sign * _line_integral(flux, h_along[side.axis])
    return vol1, vol2, -boundary


def integration_by_parts_residual(theta: StateField, g: StateField,
                                  T1, T2) -> float:
    """Discrete defect of the duality identity

        <(T1 th)_x + (T2 th)_y, g> + <T1 g_x + T2 g_y, th> = <gamma_nu th, g>

    with the co-normal trace gamma_nu th equal to the outward normal's sign
    times T1 th on the W and E sides, T2 th on the S and N sides. Decays at
    least at O(h) for smooth data.
    """
    return abs(sum(_duality_terms(theta, g, T1, T2, ddx, ddy)))


# --- first-order elliptic solve ------------------------------------------------


@dataclass(frozen=True)
class CertReport:
    """One certification verdict: pass iff residual <= tolerance."""

    name: str
    grid_label: str
    residual: float
    tolerance: float

    @property
    def verdict(self) -> bool:
        return self.residual <= self.tolerance

    def csv_row(self) -> str:
        verdict = "pass" if self.verdict else "fail"
        return (f"{self.name},{self.grid_label},{self.residual:.17g},"
                f"{self.tolerance:.17g},{verdict}")


def _gradient_matrix(npts: int, h: float) -> sp.csr_matrix:
    """Matrix form of np.gradient: centered interior, one-sided 2nd order ends."""
    import scipy.sparse as sp

    inner = np.arange(1, npts - 1)
    rows = np.concatenate([np.repeat(inner, 2), [0, 0, 0], [npts - 1] * 3])
    cols = np.concatenate([np.stack([inner - 1, inner + 1], 1).ravel(),
                           [0, 1, 2], [npts - 1, npts - 2, npts - 3]])
    data = np.concatenate([np.tile([-0.5 / h, 0.5 / h], npts - 2),
                           [-1.5 / h, 2.0 / h, -0.5 / h],
                           [1.5 / h, -2.0 / h, 0.5 / h]])
    return sp.csr_matrix((data, (rows, cols)), shape=(npts, npts))


def _difference_matrices(grid: RectGrid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(Dx, Dy) acting on node-major flattened (nx, ny) fields: the matrix
    forms of `ddx` and `ddy`."""
    import scipy.sparse as sp

    Dx = sp.kron(_gradient_matrix(grid.nx, grid.hx), sp.identity(grid.ny),
                 format="csr")
    Dy = sp.kron(sp.identity(grid.nx), _gradient_matrix(grid.ny, grid.hy),
                 format="csr")
    return Dx, Dy


def compact_support_mask(grid: RectGrid) -> np.ndarray:
    """1 except on the two node layers nearest each side."""
    mask = np.zeros((grid.nx, grid.ny))
    mask[2:-2, 2:-2] = 1.0
    return mask


def _least_squares_matrix(mode, grid: RectGrid,
                          conditions: Mapping[Side, tuple[float, float]],
                          ) -> sp.csr_matrix:
    """F = [T1 Dx + T2 Dy; weighted side rows] on the unknowns (u1, u2),
    each flattened node-major: 2 * nx * ny equation rows, then one row
    a u1 + b u2 (normalized, weight 10 / min(hx, hy)) per side node."""
    import scipy.sparse as sp

    a1, b1, a2, b2 = _type2_coeff_grids(mode, grid)
    nx, ny = grid.nx, grid.ny
    N = nx * ny
    Dx, Dy = _difference_matrices(grid)

    def dia(v):
        return sp.diags(v.ravel())

    # rows: [T1 u_x + T2 u_y]_1, [T1 u_x + T2 u_y]_2 at every node
    A = sp.bmat([
        [dia(a1) @ Dx + dia(a2) @ Dy, dia(b1) @ Dx + dia(b2) @ Dy],
        [dia(b1) @ Dx + dia(b2) @ Dy, -(dia(a1) @ Dx + dia(a2) @ Dy)],
    ], format="csr")

    node = np.arange(N).reshape(nx, ny)
    weight = 10.0 / min(grid.hx, grid.hy)
    nodes = np.concatenate([node[side.edge] for side in SIDE_ORDER])
    coeffs = []
    for side in SIDE_ORDER:
        a, bb = conditions[side]
        nrm = float(np.hypot(a, bb))
        coeffs.append(np.tile([weight * a / nrm, weight * bb / nrm],
                              (len(node[side.edge]), 1)))
    r = len(nodes)
    rows = np.repeat(np.arange(r), 2)
    cols = np.stack([nodes, N + nodes], 1).ravel()
    data = np.concatenate(coeffs).ravel()
    C = sp.csr_matrix((data, (rows, cols)), shape=(r, 2 * N))
    return sp.vstack([A, C], format="csr")


def _normal_factor(mode, grid: RectGrid,
                   conditions: Mapping[Side, tuple[float, float]]):
    """(F, F^t F, LU of F^t F) for the least-squares matrix F.

    F^t F is symmetric positive definite whenever the discrete problem is
    uniquely solvable, so it is factored in SuperLU's symmetric mode:
    minimum-degree ordering on the graph of F^t F + (F^t F)^t, kept by
    taking diagonal pivots only, which is stable for an SPD matrix. This
    leaves less than half the fill of splu's unsymmetric defaults (COLAMD
    with partial pivoting). All three settings are needed: the ordering alone,
    with partial pivoting left on, factors slower than the defaults. A
    singular F^t F still factors; its kernel shows up as a
    roundoff-sized pivot, which `elliptic_uniqueness` measures.
    """
    import scipy.sparse.linalg as spla

    F = _least_squares_matrix(mode, grid, conditions)
    normal = (F.T @ F).tocsc()
    lu = spla.splu(normal, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return F, normal, lu


def elliptic_steady_solve(mode, psi: StateField, grid: RectGrid,
                          conditions: Mapping[Side, tuple[float, float]]):
    """Least-squares solution of T1 u_x + T2 u_y = psi with the side
    conditions imposed as weighted constraint rows.

    psi is treated as compactly supported: it is zeroed on the two node
    layers nearest each side. The normal equations F^t F u = F^t psi are
    solved with the one symmetric-mode factor of F^t F that
    `_normal_factor` also gives `elliptic_uniqueness`, plus one round of
    iterative refinement. Returns (field, report) where the report records
    the discrete equation residual relative to psi.
    """
    a1, b1, a2, b2 = _type2_coeff_grids(mode, grid)
    delta = a2 * b1 - a1 * b2
    if delta.min() < ELLIPTICITY_MIN:
        ij = np.unravel_index(np.argmin(delta), delta.shape)
        raise EllipticityLost(
            f"determinant condition {delta.min():.3e} below c0 = "
            f"{ELLIPTICITY_MIN:.1e} "
            f"at node {tuple(int(t) for t in ij)}")
    if not check_rank2(conditions):
        raise RankDeficientBC("side-condition matrix has rank < 2")

    nx, ny = grid.nx, grid.ny
    N = nx * ny
    rhs_field = psi.values * compact_support_mask(grid)[None]
    full, normal, lu = _normal_factor(mode, grid, conditions)
    b = np.concatenate([rhs_field[0].ravel(), rhs_field[1].ravel()])
    rhs = np.concatenate([b, np.zeros(full.shape[0] - 2 * N)])
    atb = full.T @ rhs
    sol = lu.solve(atb)
    sol += lu.solve(atb - normal @ sol)  # one round of iterative refinement
    if not np.all(np.isfinite(sol)):
        raise RankDeficientBC("normal equations are numerically singular")

    u = np.stack([sol[:N].reshape(nx, ny), sol[N:].reshape(nx, ny)])
    eq_residual = (full @ sol)[:2 * N] - b
    w = grid.quad_weights().ravel()
    res_norm = float(np.sqrt(np.sum(w * eq_residual[:N] ** 2)
                             + np.sum(w * eq_residual[N:] ** 2)))
    psi_norm = float(np.sqrt(np.sum(w * b[:N] ** 2) + np.sum(w * b[N:] ** 2)))
    # a healthy least-squares solve leaves only truncation residue, far
    # below this coarse degeneracy guard
    report = CertReport(name="elliptic_residual", grid_label=grid.label(),
                        residual=res_norm / max(psi_norm, 1e-300),
                        tolerance=0.5)
    return StateField(grid, u), report


def elliptic_uniqueness(mode, grid: RectGrid,
                        conditions: Mapping[Side, tuple[float, float]],
                        ) -> tuple[float, CertReport]:
    """Estimate sigma of the smallest singular value of the least-squares
    matrix F of `elliptic_steady_solve`: LOBPCG for the smallest eigenpair
    of F^t F from a seeded start, preconditioned by the symmetric-mode
    factor of F^t F from `_normal_factor`, the one the solve uses. Then
    sigma = ||F x|| / ||x|| for the eigenvector estimate x.

    Returns (sigma, report). The report's residual 1/sigma is the discrete
    stability constant C in ||u|| <= C ||F u||; it fails above 1e6, as when
    rank-deficient side conditions leave a discrete kernel. The conditions
    are not pre-checked: the estimate measures their rank.
    """
    import scipy.sparse.linalg as spla

    F, normal, lu = _normal_factor(mode, grid, conditions)
    x = np.random.default_rng(0).standard_normal((F.shape[1], 1))
    inverse = spla.LinearOperator(normal.shape, matvec=lu.solve,
                                  matmat=lu.solve, dtype=float)
    _, x = spla.lobpcg(normal, x, M=inverse, largest=False,
                       tol=UNIQUENESS_TOL, maxiter=UNIQUENESS_MAXITER)
    sigma = float(np.linalg.norm(F @ x) / np.linalg.norm(x))
    return sigma, CertReport("elliptic_uniqueness", grid.label(),
                             1.0 / max(sigma, 1e-300), 1e6)


# --- reproducible test fields ---------------------------------------------------


def smooth_random_field(grid: RectGrid, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency random trigonometric field with O(1) amplitude: the
    mean of three random products of sines."""
    x, y = grid.x()[:, None], grid.y()[None, :]
    out = np.zeros((grid.nx, grid.ny))
    for _ in range(3):
        ax, ay = rng.uniform(0.5, 2.5, 2)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        amp = rng.uniform(0.3, 1.0)
        out += amp * np.sin(ax * np.pi * x / grid.L1 + px) * \
            np.sin(ay * np.pi * y / grid.L2 + py)
    return out / 3


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


def side_vanishing_factor(grid: RectGrid, sides) -> np.ndarray:
    """Smooth factor equal to 0 on the given sides and ~1 well inside;
    exactly 0.0 there, since `linspace` hits both ends exactly."""
    coords = grid.x()[:, None], grid.y()[None, :]
    lengths = grid.L1, grid.L2
    out = np.ones((grid.nx, grid.ny))
    for side in sides:
        t, L = coords[side.axis], lengths[side.axis]
        out = out * np.sin(0.5 * np.pi * (t if side.sign < 0 else L - t) / L)
    return out


def random_scalar_bc_field(grid: RectGrid, sides, rng) -> StateField:
    vals = smooth_random_field(grid, rng) * side_vanishing_factor(grid, sides)
    return StateField(grid, vals[None])


def random_elliptic_bc_field(grid: RectGrid,
                             conditions: Mapping[Side, tuple[float, float]],
                             rng) -> StateField:
    """Random smooth two-component field satisfying component-type
    conditions ((a, b) proportional to (1, 0) or (0, 1)) exactly."""
    u1_sides = []
    u2_sides = []
    for side in SIDE_ORDER:
        a, b = conditions[side]
        if b == 0:
            u1_sides.append(side)
        elif a == 0:
            u2_sides.append(side)
        else:
            raise ValueError(
                "random field generation handles component conditions only; "
                "rotate the field for mixed conditions")
    u1 = smooth_random_field(grid, rng) * side_vanishing_factor(grid, u1_sides)
    u2 = smooth_random_field(grid, rng) * side_vanishing_factor(grid, u2_sides)
    return StateField(grid, np.stack([u1, u2]))

