"""Grids, grid functions and the first-order elliptic solve on the rectangle.

`RectGrid` and `StateField` carry the trapezoid norm of the elliptic
solve and the error norms (`solver.run` uses the cell norm). The elliptic
solve is a least-squares discretization of the first-order mode system,
with second-order centered differences (one-sided at the boundary). The
solve runs preconditioned conjugate gradients on its normal equations in
numpy, applying the least-squares matrix as a stencil. Its uniqueness
estimate, a `verify` row, assembles that matrix with scipy.sparse and
factors the normal equations with a sparse LU, which the solve also falls
back on when CG stalls; scipy is imported there only. The seeded smooth
fields that `verify` and `simulate` start from are built here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .congruence import TypeIIMode
from .errors import EllipticityLost, RankDeficientBC
from .modes import Side, check_rank2, condition_rows

ELLIPTICITY_MIN = 1e-10  # c0, the floor of alpha2*beta1 - alpha1*beta2
# LOBPCG stopping rule of the sigma_min estimate; an estimate whose residual
# is above UNIQUENESS_TOL ||F^t F||_1 has not converged (`elliptic_uniqueness`)
UNIQUENESS_TOL, UNIQUENESS_MAXITER = 1e-10, 60
# CG stopping rule of the solve: relative residual of the normal equations,
# and the iteration count after which the solve factors F^t F instead; from
# 65^2 up, that many iterations cost less than the factor they precede
CG_RTOL, CG_MAXITER = 1e-12, 250


@dataclass(frozen=True)
class RectGrid:
    """Uniform node-centered grid on (0, L1) x (0, L2), boundaries included."""

    L1: float
    L2: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (0 < self.L1 < np.inf and 0 < self.L2 < np.inf):
            raise ValueError("domain lengths must be positive and finite")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("node counts must be at least 8")

    @property
    def hx(self) -> float:
        return self.L1 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.L2 / (self.ny - 1)

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


def _coeff_grid(value, grid: RectGrid) -> np.ndarray:
    """Promote a scalar coefficient to an (nx, ny) array."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("coefficient has a non-finite entry")
    if arr.ndim == 0:
        return np.full((grid.nx, grid.ny), float(arr))
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError(f"coefficient shape {arr.shape} does not match grid")
    return arr


def _type2_coeff_grids(mode, grid: RectGrid):
    if isinstance(mode, TypeIIMode):
        vals = (mode.alpha1, mode.beta1, mode.alpha2, mode.beta2)
    else:
        vals = mode  # (alpha1, beta1, alpha2, beta2), scalars or arrays
    return tuple(_coeff_grid(v, grid) for v in vals)


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


def _gradient_matrix(npts: int, h: float) -> np.ndarray:
    """Dense matrix form of np.gradient(edge_order=2): centered interior,
    one-sided second-order ends."""
    g = np.zeros((npts, npts))
    inner = np.arange(1, npts - 1)
    g[inner, inner - 1], g[inner, inner + 1] = -0.5 / h, 0.5 / h
    g[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
    g[-1, -3:] = 0.5 / h, -2.0 / h, 1.5 / h
    return g


def _gradient(u: np.ndarray, h: float, axis: int, out: np.ndarray):
    """np.gradient(u, h, axis=axis, edge_order=2), with its arithmetic,
    written into `out` (the `_gradient_matrix` of that axis applied along
    it). The solve applies it twice per CG iteration, and from 129^2 up
    np.gradient's temporaries cost more than its arithmetic."""
    u, out = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    out[0] = (-1.5 / h) * u[0] + (2.0 / h) * u[1] + (-0.5 / h) * u[2]
    out[-1] = (0.5 / h) * u[-3] + (-2.0 / h) * u[-2] + (1.5 / h) * u[-1]


def _gradient_adjoint(w: np.ndarray, h: float, axis: int, out: np.ndarray):
    """G^t w along `axis`, for G the `_gradient_matrix` of that axis,
    written into `out`: the transpose of `_gradient` as a stencil. G's
    centered rows are its interior rows 1 .. n-2 only, so w's end entries
    reach G^t w through the one-sided rows alone."""
    w, out = np.moveaxis(w, axis, 0), np.moveaxis(out, axis, 0)
    c = 0.5 / h
    np.subtract(w[1:-3], w[3:-1], out=out[2:-2])
    out[2:-2] *= c
    out[0], out[1] = -c * w[1], -c * w[2]
    out[-2], out[-1] = c * w[-3], c * w[-2]
    for k, e in enumerate((-1.5 / h, 2.0 / h, -0.5 / h)):
        out[k] += e * w[0]
        out[-1 - k] -= e * w[-1]


def _difference_matrices(grid: RectGrid):
    """(Dx, Dy), sparse CSR, acting on node-major flattened (nx, ny) fields:
    the matrix forms of np.gradient(edge_order=2) along x and y."""
    import scipy.sparse as sp

    Dx = sp.kron(sp.csr_matrix(_gradient_matrix(grid.nx, grid.hx)),
                 sp.identity(grid.ny), format="csr")
    Dy = sp.kron(sp.identity(grid.nx),
                 sp.csr_matrix(_gradient_matrix(grid.ny, grid.hy)), format="csr")
    return Dx, Dy


def compact_support_mask(grid: RectGrid) -> np.ndarray:
    """1 except on the two node layers nearest each side."""
    mask = np.zeros((grid.nx, grid.ny))
    mask[2:-2, 2:-2] = 1.0
    return mask


class _LeastSquares:
    """The least-squares matrix F of the elliptic solve, decided once.

    F's rows are T1 u_x + T2 u_y at every node, with T1 = [[alpha1, beta1],
    [beta1, -alpha1]], T2 the same in (alpha2, beta2), and u_x, u_y the
    `_gradient_matrix` differences; then one row w (a u1 + b u2) / |c| per
    side node, for the side condition c = (a, b) and the row weight
    w = 10 / min(hx, hy). Its unknowns are (u1, u2), each flattened
    node-major. F's data is `t`, the coefficients as one (2, 4) product of
    each node's stacked (u_x, u_y), and `side_rows`, each side's row
    coefficients (w a / |c|, w b / |c|) in `Side`'s order. The CG stencils
    `forward` and `adjoint`, the sparse assembly `matrix` and the
    `preconditioner` all read them from here.
    """

    def __init__(self, mode, grid: RectGrid,
                 conditions: Mapping[Side, tuple[float, float]]):
        a1, b1, a2, b2 = _type2_coeff_grids(mode, grid)
        nx, ny = grid.nx, grid.ny
        self.grid, self.N = grid, nx * ny
        self.t = np.stack([[a1, b1, a2, b2],
                           [b1, -a1, b2, -a2]]).reshape(2, 4, self.N)
        rows = condition_rows(conditions)
        self.side_rows = ((10.0 / min(grid.hx, grid.hy)) * rows
                          / np.hypot(rows[:, :1], rows[:, 1:]))
        self.side_slices, self.nrows = [], 2 * self.N  # F's rows per side
        for side in Side:
            start = self.nrows
            self.nrows += ny if side.axis == 0 else nx
            self.side_slices.append(slice(start, self.nrows))
        # a constant mode multiplies by one (2, 4) matrix, a single matmul
        constant = bool((self.t == self.t[..., :1]).all())
        self._t = self.t[..., 0] if constant else self.t
        # work buffers; each application fills and reads them within one call
        self._grads, self._part = np.empty((4, nx, ny)), np.empty((2, nx, ny))

    def _times_t(self, g, out, transpose=False):
        """out = t g (or t^t g) at every node."""
        if self._t.ndim == 2:
            np.matmul(self._t.T if transpose else self._t, g, out=out)
        else:
            np.einsum("jkn,jn->kn" if transpose else "kjn,jn->kn", self._t, g,
                      out=out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """F x for a flat x, as an O(N) stencil: `_gradient` along each
        axis, the product with t, then the side rows."""
        grid, N = self.grid, self.N
        u = x.reshape(2, grid.nx, grid.ny)
        _gradient(u, grid.hx, 1, self._grads[:2])
        _gradient(u, grid.hy, 2, self._grads[2:])
        out = np.empty(self.nrows)
        self._times_t(self._grads.reshape(4, N), out[:2 * N].reshape(2, N))
        for side, (ca, cb), rows in zip(Side, self.side_rows,
                                        self.side_slices):
            np.add(ca * u[0][side.edge], cb * u[1][side.edge], out=out[rows])
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """F^t y: T1 and T2 are symmetric, so it is Gx^t (T1 y) +
        Gy^t (T2 y) plus the side rows' transpose, with G^t from
        `_gradient_adjoint`."""
        grid, N = self.grid, self.N
        self._times_t(y[:2 * N].reshape(2, N), self._grads.reshape(4, N),
                      transpose=True)
        out = np.empty((2, grid.nx, grid.ny))
        _gradient_adjoint(self._grads[:2], grid.hx, 1, out)
        _gradient_adjoint(self._grads[2:], grid.hy, 2, self._part)
        out += self._part
        for side, (ca, cb), rows in zip(Side, self.side_rows,
                                        self.side_slices):
            out[0][side.edge] += ca * y[rows]
            out[1][side.edge] += cb * y[rows]
        return out.ravel()

    def matrix(self):
        """F assembled, sparse CSR: the factor fallback of
        `elliptic_steady_solve` and `elliptic_uniqueness` need it."""
        import scipy.sparse as sp

        t, N = self.t, self.N
        Dx, Dy = _difference_matrices(self.grid)
        A = sp.bmat([[sp.diags(t[k, c]) @ Dx + sp.diags(t[k, 2 + c]) @ Dy
                      for c in (0, 1)] for k in (0, 1)], format="csr")
        node = np.arange(N).reshape(self.grid.nx, self.grid.ny)
        nodes = [node[side.edge] for side in Side]
        data = np.repeat(self.side_rows, [len(n) for n in nodes], axis=0)
        nodes = np.concatenate(nodes)
        r = len(nodes)
        cols = np.stack([nodes, N + nodes], 1).ravel()
        C = sp.csr_matrix((data.ravel(), (np.repeat(np.arange(r), 2), cols)),
                          shape=(r, 2 * N))
        return sp.vstack([A, C], format="csr")

    def preconditioner(self):
        """Preconditioner of F^t F: r -> P^-1 r on the flattened (u1, u2),
        in numpy alone.

        P is block diagonal, one Kronecker sum per component k:
        (c1 Gx^t Gx + Ex_k) (x) I + I (x) (c2 Gy^t Gy + Ey_k), with G the
        dense 1-D `_gradient_matrix`, c1 and c2 the node means of
        alpha1^2 + beta1^2 and alpha2^2 + beta2^2, and E_k the square of
        each side row's coefficient on component k, on that side's end
        node. One `eigh` per 1-D matrix inverts P exactly (fast
        diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964). For a
        constant mode with component conditions, P is F^t F without its
        mixed (alpha1 alpha2 + beta1 beta2) term and the boundary rows of
        its cross term, so the CG count does not grow with the mesh.
        """
        t, grid = self.t, self.grid
        scales = (float(np.mean(t[0, 0] ** 2 + t[0, 1] ** 2)),
                  float(np.mean(t[0, 2] ** 2 + t[0, 3] ** 2)))
        grams = [g.T @ g for g in (_gradient_matrix(grid.nx, grid.hx),
                                   _gradient_matrix(grid.ny, grid.hy))]
        blocks = []
        for k in (0, 1):
            spectra = []
            for axis, (gram, c) in enumerate(zip(grams, scales)):
                m = c * gram
                for side, row in zip(Side, self.side_rows):
                    if side.axis == axis:
                        end = 0 if side.sign < 0 else -1
                        m[end, end] += row[k] ** 2
                spectra.append(np.linalg.eigh(m))
            (lx, vx), (ly, vy) = spectra
            den = lx[:, None] + ly[None, :]
            # each component carries some side's penalty (rank 2), so den > 0
            # but for roundoff; the floor keeps P positive definite regardless
            den = np.maximum(den, np.finfo(float).eps * den.max())
            blocks.append((vx, vy, den))
        shape = (2, grid.nx, grid.ny)

        def solve(r):
            return np.concatenate([
                (vx @ ((vx.T @ rk @ vy) / den) @ vy.T).ravel()
                for rk, (vx, vy, den) in zip(r.reshape(shape), blocks)])

        return solve


def _normal_factor(F):
    """(F^t F, LU of F^t F) for an assembled least-squares matrix F
    (`_LeastSquares.matrix`): the preconditioner of
    `elliptic_uniqueness`, and the fallback of `elliptic_steady_solve` on
    inputs where CG does not converge.

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

    normal = (F.T @ F).tocsc()
    lu = spla.splu(normal, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return normal, lu


def _pcg(normal, rhs: np.ndarray, precond):
    """Preconditioned conjugate gradients for normal(x) = rhs from x = 0,
    step for step as scipy.sparse.linalg.cg: before each of at most
    CG_MAXITER iterations, stop once ||r|| < CG_RTOL ||rhs||. Returns
    (x, converged)."""
    x = np.zeros_like(rhs)
    tol = CG_RTOL * np.linalg.norm(rhs)
    if tol == 0.0:
        return x, True
    r = rhs.copy()
    p = rho_prev = None
    for _ in range(CG_MAXITER):
        if np.linalg.norm(r) < tol:
            return x, True
        z = precond(r)
        rho = r @ z
        p = z if p is None else z + (rho / rho_prev) * p
        q = normal(p)
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, False


def elliptic_steady_solve(mode, psi: StateField, grid: RectGrid,
                          conditions: Mapping[Side, tuple[float, float]]):
    """Least-squares solution of T1 u_x + T2 u_y = psi with the side
    conditions imposed as weighted constraint rows.

    psi is treated as compactly supported: it is zeroed on the two node
    layers nearest each side. The normal equations F^t F u = F^t psi are
    solved by conjugate gradients (`_pcg`) preconditioned with
    `_LeastSquares.preconditioner`, to a relative residual of CG_RTOL,
    with F and F^t applied as the stencils of `_LeastSquares`: that path
    runs in numpy alone. Inputs on which CG has not converged after
    CG_MAXITER iterations (mixed side conditions from 65^2 up, a strong
    mixed term as when |mu1| >> mu2, or near-degenerate ellipticity) are
    solved with the symmetric-mode factor of `_normal_factor` of the
    assembled F instead, plus one round of iterative refinement; only that
    fallback imports scipy.
    Returns (field, report) where the report records the discrete equation
    residual relative to psi.
    """
    if psi.grid != grid:
        raise ValueError("psi was built on another grid")
    if psi.components != 2:
        raise ValueError("psi of an elliptic mode has 2 components, not "
                         f"{psi.components}")
    ls = _LeastSquares(mode, grid, conditions)
    nx, ny = grid.nx, grid.ny
    N = nx * ny
    a1, b1, a2, b2 = ls.t[0]
    delta = (a2 * b1 - a1 * b2).reshape(nx, ny)
    if delta.min() < ELLIPTICITY_MIN:
        ij = np.unravel_index(np.argmin(delta), delta.shape)
        raise EllipticityLost(
            f"determinant condition {delta.min():.3e} below c0 = "
            f"{ELLIPTICITY_MIN:.1e} "
            f"at node {tuple(int(t) for t in ij)}")
    if not check_rank2(conditions):
        raise RankDeficientBC("side-condition matrix has rank < 2")

    b = (psi.values * compact_support_mask(grid)[None]).ravel()
    rhs = np.concatenate([b, np.zeros(ls.nrows - 2 * N)])  # zero side rows
    atb = ls.adjoint(rhs)
    sol, converged = _pcg(lambda x: ls.adjoint(ls.forward(x)), atb,
                          ls.preconditioner())
    if not converged:
        normal, lu = _normal_factor(ls.matrix())
        sol = lu.solve(atb)
        sol += lu.solve(atb - normal @ sol)  # one round of iterative refinement
    if not np.all(np.isfinite(sol)):
        raise RankDeficientBC("normal equations are numerically singular")

    u = np.stack([sol[:N].reshape(nx, ny), sol[N:].reshape(nx, ny)])
    eq_residual = ls.forward(sol)[:2 * N] - b
    res_norm = StateField(grid, eq_residual.reshape(u.shape)).norm()
    psi_norm = StateField(grid, b.reshape(u.shape)).norm()
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
    factor of F^t F from `_normal_factor`. Then sigma = ||F x|| / ||x||
    for the eigenvector estimate x. (The solve's preconditioner does not
    serve here: with it, LOBPCG stops at UNIQUENESS_MAXITER with
    sigma up to 7 % high on mixed rank-2 conditions at 65^2.)

    Returns (sigma, report). The report's residual 1/sigma is the discrete
    stability constant C in ||u|| <= C ||F u||; it fails above 1e6, as when
    rank-deficient side conditions leave a discrete kernel. The conditions
    are not pre-checked: the estimate measures their rank. An estimate
    whose LOBPCG residual ||F^t F x - lambda x|| (|x| = 1) is above
    UNIQUENESS_TOL ||F^t F||_1 has not converged: a Rayleigh quotient short
    of the minimum gives sigma >= sigma_min, so 1/sigma can understate C,
    and the residual is inf. The test is relative to F^t F because the
    residual's roundoff floor, eps ||F^t F||, lies above UNIQUENESS_TOL
    itself where the mode's coefficients are large: converged estimates
    read 0.07-1.4 eps ||F^t F||_1, on wave at 17^2-129^2 as on a mode with
    alpha = 1000 at 33^2, where ||F^t F|| = 1.9e10.
    """
    import scipy.sparse.linalg as spla

    F = _LeastSquares(mode, grid, conditions).matrix()
    normal, lu = _normal_factor(F)
    x = np.random.default_rng(0).standard_normal((F.shape[1], 1))
    with warnings.catch_warnings():
        # LOBPCG warns where its residual misses the tolerance; the report
        # checks that residual instead
        warnings.filterwarnings("ignore", "Exited", UserWarning)
        _, x, history = spla.lobpcg(
            normal, x, M=lu.solve, largest=False, tol=UNIQUENESS_TOL,
            maxiter=UNIQUENESS_MAXITER, retResidualNormsHistory=True)
    sigma = float(np.linalg.norm(F @ x) / np.linalg.norm(x))
    converged = history[-1] <= UNIQUENESS_TOL * abs(normal).sum(axis=0).max()
    return sigma, CertReport("elliptic_uniqueness", grid.label(),
                             1.0 / max(sigma, 1e-300) if converged else np.inf,
                             1e6)


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
    for side in Side:
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

