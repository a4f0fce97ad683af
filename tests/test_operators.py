import warnings

import numpy as np
import pytest
from lemmas import (OPPOSITE, BCViolated, cross_term_residual, ddx, ddy,
                    integration_by_parts_residual, manufactured_elliptic,
                    positivity_residual_type1, positivity_residual_type2)

from hypermodes import operators
from hypermodes.apps import WaveParams, preset_wave
from hypermodes.congruence import TypeIIMode, simultaneous_diagonalize
from hypermodes.errors import EllipticityLost, RankDeficientBC
from hypermodes.modes import Side, synthesize_bc_type2
from hypermodes.operators import (RectGrid, StateField, _difference_matrices,
                                  _gradient_matrix, _LeastSquares,
                                  _normal_factor,
                                  compact_support_mask, elliptic_steady_solve,
                                  elliptic_uniqueness,
                                  random_elliptic_bc_field,
                                  random_scalar_bc_field,
                                  side_vanishing_factor, smooth_random_field)

WS = frozenset({Side.W, Side.S})
DEFAULT_CONDS = {Side.W: (1.0, 0.0), Side.S: (1.0, 0.0),
                 Side.E: (0.0, 1.0), Side.N: (0.0, 1.0)}
MIXED_CONDS = {Side.W: (0.3, 0.7), Side.S: (-2.0, 0.1), Side.E: (0.0, 1.0),
               Side.N: (1.5, -0.2)}


def grid65():
    return RectGrid(1.0, 1.0, 65, 65)


class TestGridAndField:
    def test_spacings(self):
        g = RectGrid(2.0, 1.0, 9, 11)
        assert g.hx == pytest.approx(0.25)
        assert g.hy == pytest.approx(0.1)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            RectGrid(1.0, 1.0, 4, 9)

    @pytest.mark.parametrize("lengths", [(np.nan, 1.0), (np.inf, 1.0),
                                         (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_length_rejected(self, lengths):
        with pytest.raises(ValueError, match="domain lengths"):
            RectGrid(*lengths, 9, 9)

    def test_field_shape_checked(self):
        g = RectGrid(1.0, 1.0, 9, 9)
        with pytest.raises(ValueError):
            StateField(g, np.zeros((2, 5, 9)))

    def test_nan_rejected(self):
        g = RectGrid(1.0, 1.0, 9, 9)
        vals = np.zeros((1, 9, 9))
        vals[0, 3, 3] = np.nan
        with pytest.raises(ValueError):
            StateField(g, vals)

    def test_norm_constant_field(self):
        g = RectGrid(2.0, 3.0, 17, 17)
        f = StateField(g, np.ones((1, 17, 17)))
        assert f.norm() == pytest.approx(np.sqrt(6.0), rel=1e-12)


class TestPositivityScalar:
    def test_zero_field(self):
        g = grid65()
        u = StateField(g, np.zeros((1, g.nx, g.ny)))
        assert positivity_residual_type1(1.0, 1.0, u, sides=WS) == 0.0

    def test_bilinear_boundary_oracle(self):
        # u = xy on the unit square: the form equals the outflow boundary
        # integral (1/3 + 1/3)/2 = 1/3 exactly in the continuum
        for n, tol in ((33, 1e-3), (65, 3e-4)):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            u = StateField(g, (X * Y)[None])
            res = positivity_residual_type1(1.0, 1.0, u, sides=WS)
            assert abs(res - 1.0 / 3.0) < tol

    def test_bc_violation_detected(self):
        g = grid65()
        u = StateField(g, np.ones((1, g.nx, g.ny)))
        with pytest.raises(BCViolated):
            positivity_residual_type1(1.0, 1.0, u, sides=WS)

    def test_random_sweep_lower_bound(self):
        g = grid65()
        rng = np.random.default_rng(101)
        for _ in range(20):
            u = random_scalar_bc_field(g, WS, rng)
            res = positivity_residual_type1(2.0, 0.7, u, sides=WS)
            assert res >= -5.0 * max(g.hx, g.hy) * u.norm() ** 2

    def test_sign_flip_invariance(self):
        g = grid65()
        rng = np.random.default_rng(7)
        u = random_scalar_bc_field(g, WS, rng)
        minus = StateField(g, -u.values)
        a = positivity_residual_type1(1.0, 2.0, u, sides=WS)
        b = positivity_residual_type1(1.0, 2.0, minus, sides=WS)
        assert a == pytest.approx(b, rel=1e-12)

    def test_variable_coefficient_budget(self):
        g = RectGrid(np.pi, 1.0, 65, 65)
        X, _ = g.meshgrid()
        a1 = 2.0 + np.sin(X)
        omega0 = 0.5
        rng = np.random.default_rng(55)
        for _ in range(20):
            u = random_scalar_bc_field(g, WS, rng)
            res = positivity_residual_type1(a1, 3.0, u, sides=WS)
            assert res >= -(omega0 + 5.0 * max(g.hx, g.hy)) * u.norm() ** 2


class TestPositivityElliptic:
    def test_zero_field(self):
        g = grid65()
        u = StateField(g, np.zeros((2, g.nx, g.ny)))
        mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
        assert positivity_residual_type2(mode, u, DEFAULT_CONDS) == 0.0

    def test_constant_mode_sweep(self):
        g = grid65()
        mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = random_elliptic_bc_field(g, DEFAULT_CONDS, rng)
            res = positivity_residual_type2(mode, u, DEFAULT_CONDS)
            assert res >= -5.0 * max(g.hx, g.hy) * u.norm() ** 2

    def test_variable_mode_budget(self):
        # alpha1 = 1 + x/2 varies; the quasi-positivity budget gains
        # half the coefficient derivative
        g = grid65()
        X, _ = g.meshgrid()
        coeffs = (1.0 + 0.5 * X, np.ones_like(X), np.ones_like(X),
                  np.zeros_like(X))
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = random_elliptic_bc_field(g, DEFAULT_CONDS, rng)
            res = positivity_residual_type2(coeffs, u, DEFAULT_CONDS)
            assert res >= -(0.25 + 5.0 * max(g.hx, g.hy)) * u.norm() ** 2


class TestCrossTerm:
    def test_zero_field(self):
        g = grid65()
        u = StateField(g, np.zeros((2, g.nx, g.ny)))
        assert cross_term_residual(u, DEFAULT_CONDS) == 0.0

    def test_degenerate_component(self):
        g = grid65()
        X, Y = g.meshgrid()
        u = StateField(g, np.stack([X * (1 - X) * Y, np.zeros_like(X)]))
        conds = {s: (0.0, 1.0) for s in Side}
        res = cross_term_residual(u, conds)
        assert res < 1e-12

    def test_symmetric_fields_exact(self):
        g = grid65()
        X, Y = g.meshgrid()
        f = np.sin(np.pi * X) * np.sin(np.pi * Y)
        u = StateField(g, np.stack([f, f]))
        conds = {s: (1.0, -1.0) for s in Side}
        assert cross_term_residual(u, conds) < 1e-13

    def test_refinement_rate(self):
        conds = {s: (1.0, -1.0) for s in Side}
        res = []
        for n in (17, 33, 65):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            shared = np.sin(2 * X + Y) + 0.3 * np.cos(X - 3 * Y)
            bump = X * (1 - X) * Y * (1 - Y)
            u = StateField(g, np.stack(
                [shared, shared + bump * np.exp(X) * np.sin(np.pi * Y + 0.5)]))
            res.append(cross_term_residual(u, conds))
        rates = np.diff(np.log(res)) / np.log(0.5)
        assert min(rates) >= 1.0

    def test_bc_check(self):
        g = grid65()
        u = StateField(g, np.ones((2, g.nx, g.ny)))
        with pytest.raises(BCViolated):
            cross_term_residual(u, DEFAULT_CONDS)


class TestIntegrationByParts:
    def test_zero_field(self):
        g = grid65()
        z = StateField(g, np.zeros((2, g.nx, g.ny)))
        assert integration_by_parts_residual(z, z, np.eye(2), np.eye(2)) == 0.0

    def test_linear_closed_form(self):
        # theta = g = (x, y), T = identity: volume terms sum to 2 and the
        # boundary term is 4/3 - 1/3 + 4/3 - 1/3 = 2
        for n in (17, 33):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            th = StateField(g, np.stack([X, Y]))
            res = integration_by_parts_residual(th, th, np.eye(2), np.eye(2))
            assert res < 10 * max(g.hx, g.hy) ** 2

    def test_variable_coefficient_rate(self):
        res = []
        grids = [RectGrid(1.0, 1.0, n, n) for n in (17, 33, 65)]
        for g in grids:
            X, Y = g.meshgrid()
            mu1, mu2 = X / 4.0, 1.0 + Y / 4.0
            T1 = np.zeros((g.nx, g.ny, 2, 2))
            T1[..., 0, 1] = T1[..., 1, 0] = 1.0
            T2 = np.stack([np.stack([mu2, mu1], -1),
                           np.stack([mu1, -mu2], -1)], -2)
            th = StateField(g, np.stack([np.sin(2 * X + Y), np.cos(X - Y)]))
            gf = StateField(g, np.stack([np.cos(3 * X), np.sin(X + 2 * Y)]))
            res.append(integration_by_parts_residual(th, gf, T1, T2))
        rates = np.diff(np.log(res)) / np.log(0.5)
        assert min(rates) >= 1.0


def test_difference_matrices_match_gradient():
    # the solve's derivative is the one the duality residuals use
    g = RectGrid(2.0, 0.7, 19, 23)
    X, Y = g.meshgrid()
    f = np.sin(3 * X + Y) * np.exp(Y) + X ** 3
    Dx, Dy = _difference_matrices(g)
    for D, d in ((Dx, ddx), (Dy, ddy)):
        want = d(f, g).ravel()
        assert np.abs(D @ f.ravel() - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("axis", [1, 2])
def test_gradient_is_numpy_gradient(axis):
    # the solve's buffered derivative repeats np.gradient's arithmetic
    g = RectGrid(2.0, 0.7, 19, 23)
    u = np.random.default_rng(2).standard_normal((2, g.nx, g.ny))
    h = (g.hx, g.hy)[axis - 1]
    out = np.empty_like(u)
    operators._gradient(u, h, axis, out)
    assert np.array_equal(out, np.gradient(u, h, axis=axis, edge_order=2))


@pytest.mark.parametrize("case", ["cr", "variable", "mixed"])
def test_stencil_matches_matrix(case):
    # the solve's matrix-free F and F^t are the assembled F of the factor
    g = RectGrid(2.0, 0.7, 19, 23)
    mode, conds = {"cr": ((0.0, 1.0, 1.0, 0.0), DEFAULT_CONDS),
                   "variable": (_variable_mode(g), DEFAULT_CONDS),
                   "mixed": ((0.0, 1.0, 1.0, 0.0), MIXED_CONDS)}[case]
    ls = _LeastSquares(mode, g, conds)
    F, forward, adjoint = ls.matrix(), ls.forward, ls.adjoint
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(F.shape[1]), rng.standard_normal(F.shape[0])
    for got, want in ((forward(u), F @ u), (adjoint(v), F.T @ v)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert forward(u) @ v == pytest.approx(u @ adjoint(v), rel=1e-12)


def test_side_rows_match_loop_assembly():
    g = RectGrid(1.0, 2.0, 9, 12)
    conds = MIXED_CONDS
    N = g.nx * g.ny
    F = _LeastSquares((0.0, 1.0, 1.0, 0.0), g, conds).matrix()
    C = F.toarray()[2 * N:]
    nodes = {Side.W: [j for j in range(g.ny)],
             Side.E: [(g.nx - 1) * g.ny + j for j in range(g.ny)],
             Side.S: [i * g.ny for i in range(g.nx)],
             Side.N: [i * g.ny + g.ny - 1 for i in range(g.nx)]}
    weight = 10.0 / min(g.hx, g.hy)
    want = []
    for side in Side:
        a, b = conds[side]
        for nd in nodes[side]:
            row = np.zeros(2 * N)
            row[nd] = weight * a / np.hypot(a, b)
            row[N + nd] = weight * b / np.hypot(a, b)
            want.append(row)
    assert np.array_equal(C, np.array(want))


@pytest.mark.parametrize("conds", [DEFAULT_CONDS, MIXED_CONDS],
                         ids=["component", "mixed"])
@pytest.mark.parametrize("varying", [False, True], ids=["constant", "varying"])
def test_preconditioner_dense_oracle(varying, conds):
    # P per component: the Kronecker sum of the 1-D grams at the node-mean
    # coefficient scales, plus each side row's squared coefficient on that
    # component at the side's end node; hx != hy here
    g = RectGrid(1.0, 1.0, 9, 11)
    mode = _variable_mode(g) if varying else (0.3, 1.0, 1.0, -0.2)
    a1, b1, a2, b2 = (np.broadcast_to(c, (g.nx, g.ny)) for c in mode)
    c1, c2 = np.mean(a1 ** 2 + b1 ** 2), np.mean(a2 ** 2 + b2 ** 2)
    Gx, Gy = _gradient_matrix(g.nx, g.hx), _gradient_matrix(g.ny, g.hy)
    weight = 10.0 / min(g.hx, g.hy)
    solve = _LeastSquares(mode, g, conds).preconditioner()
    r = np.random.default_rng(4).standard_normal((2, g.nx * g.ny))
    got = solve(r.ravel()).reshape(2, -1)
    for k in (0, 1):
        Ex, Ey = np.zeros((g.nx, g.nx)), np.zeros((g.ny, g.ny))
        for side, E in ((Side.W, Ex), (Side.E, Ex), (Side.S, Ey), (Side.N, Ey)):
            a, b = conds[side]
            end = 0 if side in (Side.W, Side.S) else -1
            E[end, end] += weight ** 2 * (a, b)[k] ** 2 / (a ** 2 + b ** 2)
        P = (np.kron(c1 * Gx.T @ Gx + Ex, np.eye(g.ny))
             + np.kron(np.eye(g.nx), c2 * Gy.T @ Gy + Ey))
        want = np.linalg.solve(P, r[k])
        assert np.linalg.norm(got[k] - want) <= 1e-12 * np.linalg.norm(want)


class TestEllipticSolve:
    CR_MODE = TypeIIMode(0.0, 1.0, 1.0, 0.0)

    def test_uniqueness_certificate(self):
        g = RectGrid(1.0, 1.0, 33, 33)
        sigma, report = elliptic_uniqueness(self.CR_MODE, g, DEFAULT_CONDS)
        assert report.name == "elliptic_uniqueness"
        assert sigma > 1.0
        assert report.verdict
        # rank-1 conditions leave the constant (0, c) in the kernel
        rank1 = {s: (1.0, 0.0) for s in Side}
        sigma, report = elliptic_uniqueness(self.CR_MODE, g, rank1)
        assert sigma < 1e-10
        assert not report.verdict

    def test_unconverged_estimate_fails(self, monkeypatch):
        # an elliptic mode with alpha = 1000 and a small mixed term: five
        # LOBPCG iterations leave sigma 8e-4 high (residual 1.3e-9 relative
        # to ||F^t F||), so 1/sigma would understate C; the row fails, the
        # estimate is still returned, and LOBPCG's warning is not shown
        mode = TypeIIMode(1e3, 0.0, 1e3, -1e-3)
        g = RectGrid(1.0, 1.0, 33, 33)
        conds = synthesize_bc_type2(mode).conditions
        converged, report = elliptic_uniqueness(mode, g, conds)
        assert report.verdict
        monkeypatch.setattr(operators, "UNIQUENESS_MAXITER", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma, report = elliptic_uniqueness(mode, g, conds)
        assert sigma > converged * (1.0 + 1e-4)
        assert report.residual == np.inf
        assert not report.verdict

    @pytest.mark.parametrize("n", [17, 65])
    @pytest.mark.parametrize("ab", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                                    (1.0, -1.0)])
    def test_rank_deficient_conditions_measured(self, n, ab):
        # the same (a, b) on every side leaves a constant field in the
        # kernel: the diagonal-pivot factor of the singular F^t F must
        # still yield a failing row, not an exception
        g = RectGrid(1.0, 1.0, n, n)
        sigma, report = elliptic_uniqueness(self.CR_MODE, g,
                                            {s: ab for s in Side})
        assert sigma < 1e-10
        assert not report.verdict

    def test_factor_fill(self):
        # symmetric mode leaves 755,254 entries here; splu's unsymmetric
        # defaults leave 1,675,077 and the minimum-degree ordering with
        # partial pivoting 1,285,922
        _, lu = _normal_factor(_LeastSquares(self.CR_MODE, grid65(),
                                             DEFAULT_CONDS).matrix())
        assert lu.L.nnz + lu.U.nnz <= 1.0e6

    @pytest.mark.parametrize("variable", [False, True])
    def test_dense_oracle(self, variable):
        g = RectGrid(1.0, 1.0, 17, 17)
        X, Y = g.meshgrid()
        mode = ((np.zeros_like(X), np.ones_like(X), 1.0 + Y / 4.0, X / 4.0)
                if variable else (0.0, 1.0, 1.0, 0.0))
        _, psi = manufactured_elliptic(g, mode)
        u, _ = elliptic_steady_solve(mode, StateField(g, psi), g,
                                     DEFAULT_CONDS)
        F = _LeastSquares(mode, g, DEFAULT_CONDS).matrix().toarray()
        rhs = np.zeros(F.shape[0])
        rhs[:F.shape[1]] = (psi * compact_support_mask(g)[None]).ravel()
        x = np.linalg.lstsq(F, rhs, rcond=None)[0]
        assert (np.linalg.norm(u.values.ravel() - x)
                <= 1e-10 * np.linalg.norm(x))

        sigma, _ = elliptic_uniqueness(mode, g, DEFAULT_CONDS)
        s = np.linalg.svd(F, compute_uv=False)
        assert sigma >= s[-1] * (1.0 - 1e-12)  # ||F x|| / ||x|| for any x
        # sigma_min is simple in the variable mode, with (s1/s2)^2 = 0.89:
        # a fixed number of inverse iterations stops 3.4e-3 high there
        assert sigma == pytest.approx(s[-1], rel=1e-8)

    def test_manufactured_recovery_constant(self):
        errs = []
        for n in (17, 33, 65):
            g = RectGrid(1.0, 1.0, n, n)
            coeffs = (0.0, 1.0, 1.0, 0.0)
            u_star, psi = manufactured_elliptic(g, coeffs)
            u, _ = elliptic_steady_solve(self.CR_MODE,
                                         StateField(g, psi), g, DEFAULT_CONDS)
            errs.append(StateField(g, u.values - u_star).norm())
        rates = np.diff(np.log(errs)) / np.log(0.5)
        assert min(rates) >= 1.5

    def test_manufactured_recovery_variable(self):
        errs = []
        for n in (17, 33, 65):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            mu1, mu2 = X / 4.0, 1.0 + Y / 4.0
            coeffs = (np.zeros_like(X), np.ones_like(X), mu2, mu1)
            u_star, psi = manufactured_elliptic(g, coeffs)
            u, _ = elliptic_steady_solve(coeffs, StateField(g, psi), g,
                                         DEFAULT_CONDS)
            errs.append(StateField(g, u.values - u_star).norm())
        rates = np.diff(np.log(errs)) / np.log(0.5)
        assert min(rates) >= 1.0

    def test_ellipticity_lost(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        X, _ = g.meshgrid()
        coeffs = (np.zeros_like(X), np.ones_like(X), X - 0.5, np.zeros_like(X))
        zero = StateField(g, np.zeros((2, g.nx, g.ny)))
        with pytest.raises(EllipticityLost):
            elliptic_steady_solve(coeffs, zero, g, DEFAULT_CONDS)

    def test_rank_deficient_bc(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        zero = StateField(g, np.zeros((2, g.nx, g.ny)))
        same = {s: (1.0, 1.0) for s in Side}
        with pytest.raises(RankDeficientBC):
            elliptic_steady_solve(self.CR_MODE, zero, g, same)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["solve", "uniqueness"])
    def test_non_finite_condition_named(self, entry, value):
        g = RectGrid(1.0, 1.0, 17, 17)
        conds = {**DEFAULT_CONDS, Side.E: (value, 1.0)}
        zero = StateField(g, np.zeros((2, g.nx, g.ny)))
        with pytest.raises(ValueError, match="side E condition"):
            if entry == "solve":
                elliptic_steady_solve(self.CR_MODE, zero, g, conds)
            else:
                elliptic_uniqueness(self.CR_MODE, g, conds)

    @pytest.mark.parametrize("side", list(Side), ids=str)
    @pytest.mark.parametrize("entry", ["solve", "uniqueness"])
    def test_zero_condition_named(self, entry, side):
        # the other three default conditions still have rank 2, so the
        # rank check alone would let the zero row through
        g = RectGrid(1.0, 1.0, 17, 17)
        conds = {**DEFAULT_CONDS, side: (0.0, 0.0)}
        zero = StateField(g, np.zeros((2, g.nx, g.ny)))
        with pytest.raises(ValueError, match=f"side {side} condition is zero"):
            if entry == "solve":
                elliptic_steady_solve(self.CR_MODE, zero, g, conds)
            else:
                elliptic_uniqueness(self.CR_MODE, g, conds)

    def test_non_finite_coefficient_rejected(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        beta1 = np.ones((g.nx, g.ny))
        beta1[5, 7] = np.nan
        coeffs = (0.0, beta1, 1.0, 0.0)
        zero = StateField(g, np.zeros((2, g.nx, g.ny)))
        with pytest.raises(ValueError, match="non-finite"):
            elliptic_steady_solve(coeffs, zero, g, DEFAULT_CONDS)

    @pytest.mark.parametrize("lengths, components, message", [
        ((2.0, 1.0), 2, "psi was built on another grid"),
        ((1.0, 1.0), 1, "psi of an elliptic mode has 2 components, not 1"),
        ((1.0, 1.0), 3, "psi of an elliptic mode has 2 components, not 3"),
    ], ids=["other_grid", "one_component", "three_components"])
    def test_psi_checked(self, lengths, components, message):
        # a psi of the same node counts on another grid would be solved
        # without complaint; a wrong component count fails inside numpy
        g = RectGrid(1.0, 1.0, 17, 17)
        psi = StateField(RectGrid(*lengths, 17, 17),
                         np.ones((components, 17, 17)))
        with pytest.raises(ValueError, match=message):
            elliptic_steady_solve(self.CR_MODE, psi, g, DEFAULT_CONDS)


def _wave_mode():
    (mode,) = simultaneous_diagonalize(preset_wave(WaveParams(0.6, 0.8))).modes
    return mode


def _variable_mode(g):
    X, Y = g.meshgrid()
    return (np.zeros_like(X), np.ones_like(X), 1.0 + Y / 4.0, X / 4.0)


# (mode, conditions) on a grid. CG stalls on the near-degenerate
# ellipticity of the last (determinant 0.005), so it needs the factor; the
# mixed conditions need 295 iterations at 65^2, more than CG_MAXITER, so
# they fall back on the factor there too
CG_CASES = {
    "cr": lambda g: (TypeIIMode(0.0, 1.0, 1.0, 0.0), DEFAULT_CONDS),
    "wave": lambda g: (_wave_mode(),
                       synthesize_bc_type2(_wave_mode()).conditions),
    "mixed": lambda g: (TypeIIMode(0.0, 1.0, 1.0, 0.0), MIXED_CONDS),
    "variable": lambda g: (_variable_mode(g), DEFAULT_CONDS),
    "near_degenerate": lambda g: (
        TypeIIMode(1.0, 1.0, 1.0, 0.995),
        synthesize_bc_type2(TypeIIMode(1.0, 1.0, 1.0, 0.995)).conditions),
}


def _smooth_psi(g):
    rng = np.random.default_rng(5)
    return StateField(g, np.stack([smooth_random_field(g, rng)
                                   for _ in range(2)]))


class TestConjugateGradientSolve:
    @pytest.mark.parametrize("case", list(CG_CASES))
    def test_agrees_with_factor(self, case, monkeypatch):
        g = grid65()
        mode, conds = CG_CASES[case](g)
        psi = _smooth_psi(g)
        F = _LeastSquares(mode, g, conds).matrix()
        _, lu = _normal_factor(F)
        rhs = np.zeros(F.shape[0])
        rhs[:F.shape[1]] = (psi.values * compact_support_mask(g)[None]).ravel()
        want = lu.solve(F.T @ rhs)

        factored = []
        real = operators._normal_factor
        monkeypatch.setattr(operators, "_normal_factor",
                            lambda *args: factored.append(args) or real(*args))
        u, report = elliptic_steady_solve(mode, psi, g, conds)
        assert (np.linalg.norm(u.values.ravel() - want)
                <= 1e-10 * np.linalg.norm(want))
        assert report.verdict
        if case != "mixed":
            assert len(factored) == (case == "near_degenerate")

    def test_fallback_assembles_once(self, monkeypatch):
        # CG cut short: the factor is taken of the F assembled for CG, and
        # gives the solution CG gives
        g = RectGrid(1.0, 1.0, 33, 33)
        mode, psi = TypeIIMode(0.0, 1.0, 1.0, 0.0), _smooth_psi(g)
        want, _ = elliptic_steady_solve(mode, psi, g, DEFAULT_CONDS)
        assembled, factored = [], []
        assemble = operators._LeastSquares.matrix
        factor = operators._normal_factor
        monkeypatch.setattr(operators._LeastSquares, "matrix",
                            lambda ls: assembled.append(1) or assemble(ls))
        monkeypatch.setattr(operators, "_normal_factor",
                            lambda F: factored.append(1) or factor(F))
        monkeypatch.setattr(operators, "CG_MAXITER", 1)
        u, report = elliptic_steady_solve(mode, psi, g, DEFAULT_CONDS)
        assert (len(assembled), len(factored)) == (1, 1)
        assert report.verdict
        assert (np.linalg.norm(u.values - want.values)
                <= 1e-10 * np.linalg.norm(want.values))

    @pytest.mark.parametrize("n", [33, 129])
    def test_iterations_do_not_grow_with_mesh(self, n, monkeypatch):
        applied = []
        real = operators._LeastSquares.preconditioner

        def counted(ls):
            solve = real(ls)
            return lambda r: applied.append(1) or solve(r)
        monkeypatch.setattr(operators._LeastSquares, "preconditioner", counted)
        g = RectGrid(1.0, 1.0, n, n)
        elliptic_steady_solve(TypeIIMode(0.0, 1.0, 1.0, 0.0), _smooth_psi(g),
                              g, DEFAULT_CONDS)
        assert 0 < len(applied) <= 40

    def test_fast_path_assembles_nothing(self, monkeypatch):
        # a converged CG applies F as a stencil: no sparse F is built
        assembled = []
        assemble = operators._LeastSquares.matrix
        monkeypatch.setattr(operators._LeastSquares, "matrix",
                            lambda ls: assembled.append(1) or assemble(ls))
        g = grid65()
        mode, conds = CG_CASES["wave"](g)
        u, report = elliptic_steady_solve(mode, _smooth_psi(g), g, conds)
        assert assembled == []
        assert report.verdict
        assert u.norm() > 0

    def test_no_factor_on_fast_path(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def no_factor(*args, **kwargs):
            raise AssertionError("sparse LU called")
        monkeypatch.setattr(spla, "splu", no_factor)
        g = grid65()
        u, report = elliptic_steady_solve(TypeIIMode(0.0, 1.0, 1.0, 0.0),
                                          _smooth_psi(g), g, DEFAULT_CONDS)
        assert report.verdict
        assert u.norm() > 0


class TestGenerators:
    def test_reproducible(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        a = random_scalar_bc_field(g, WS, np.random.default_rng(3))
        b = random_scalar_bc_field(g, WS, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("side", list(Side))
    def test_vanishing_factor_exactly_zero(self, side):
        # linspace hits both ends exactly, so no trace needs zeroing after
        g = RectGrid(0.7, 1.3, 9, 23)
        factor = side_vanishing_factor(g, [side])
        assert np.all(factor[side.edge] == 0.0)
        assert np.all(factor[OPPOSITE[side].edge][1:-1] > 0.0)

    def test_exact_zero_traces(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u = random_elliptic_bc_field(g, DEFAULT_CONDS,
                                     np.random.default_rng(1))
        assert np.all(u.values[0, 0, :] == 0)    # u1 on W
        assert np.all(u.values[0, :, 0] == 0)    # u1 on S
        assert np.all(u.values[1, -1, :] == 0)   # u2 on E
        assert np.all(u.values[1, :, -1] == 0)   # u2 on N
