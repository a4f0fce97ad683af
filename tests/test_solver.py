from dataclasses import replace

import numpy as np
import pytest
from conftest import plant_pair, random_mixed_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from hypermodes.apps import SWEParams, preset_swe
from hypermodes.certify import admissible_field
from hypermodes.cli import RunConfig, build_pair
from hypermodes.congruence import SymmetricPair, simultaneous_diagonalize
from hypermodes.errors import (BlockMatchingFailure, CFLViolation,
                               UnstableCoefficients)
from hypermodes.modes import (ScalarModeBC, Side, assemble_system_bcs,
                              check_variable_coeff_assumptions)
from hypermodes.operators import (RectGrid, StateField,
                                  random_scalar_bc_field,
                                  side_vanishing_factor, smooth_random_field)
from hypermodes.solver import (IVPConfig, SpatialOperator, run, step,
                               variable_coeff_setup)


def scalar_pair(c=1.0, d=1.0):
    return SymmetricPair(a1=np.array([[c]]), a2=np.array([[d]]))


def bump_field(grid, cx=0.5, cy=0.5, width=60.0):
    X, Y = grid.meshgrid()
    return np.exp(-width * ((X - cx) ** 2 + (Y - cy) ** 2))


def _signed_parts(mats):
    w, V = np.linalg.eigh(mats)
    pos = np.einsum("...ab,...b,...cb->...ac", V, np.maximum(w, 0.0), V)
    neg = np.einsum("...ab,...b,...cb->...ac", V, np.minimum(w, 0.0), V)
    return pos, neg


def reference_apply(grid, a1, a2, b, side_map, u):
    """The upwind operator in difference form with explicit ghost values.

    a1, a2, b are per-node (nx, ny, n, n) stacks and side_map[side] the
    trace maps along each side; interfaces carry the mean of their two
    nodes, and the ghost node beyond a side holds the side map applied to
    the boundary trace."""
    hx, hy = grid.hx, grid.hy

    def mul(m, v):
        return np.einsum("...ab,b...->a...", m, v)

    out = -mul(b, u)
    xp, xn = _signed_parts(0.5 * (a1[1:] + a1[:-1]))
    diff_x = (u[:, 1:] - u[:, :-1]) / hx
    out[:, 1:] -= mul(xp, diff_x)
    out[:, :-1] -= mul(xn, diff_x)
    yp, yn = _signed_parts(0.5 * (a2[:, 1:] + a2[:, :-1]))
    diff_y = (u[:, :, 1:] - u[:, :, :-1]) / hy
    out[:, :, 1:] -= mul(yp, diff_y)
    out[:, :, :-1] -= mul(yn, diff_y)

    def ghost(side, trace):
        return mul(side_map[side], trace)

    w, e, s, n = u[:, 0], u[:, -1], u[:, :, 0], u[:, :, -1]
    out[:, 0] -= mul(_signed_parts(a1[0])[0], w - ghost(Side.W, w)) / hx
    out[:, -1] -= mul(_signed_parts(a1[-1])[1], ghost(Side.E, e) - e) / hx
    out[:, :, 0] -= mul(_signed_parts(a2[:, 0])[0], s - ghost(Side.S, s)) / hy
    out[:, :, -1] -= mul(_signed_parts(a2[:, -1])[1], ghost(Side.N, n) - n) / hy
    return out


def planted_system(rng):
    """Random mixed planted pair with a lower-order term whose symmetric
    part is positive semidefinite."""
    pair, _ = plant_pair(random_mixed_spec(rng), rng)
    n = pair.order
    skew = rng.standard_normal((n, n))
    return SymmetricPair(a1=pair.a1, a2=pair.a2,
                         b=rng.uniform(0.0, 1.0) * np.eye(n) + skew - skew.T)


def varying_sampler(pair, rng):
    """Smoothly varying congruence of `pair` (same modes at every node) with
    a smoothly scaled lower-order term."""
    n = pair.order
    H = rng.standard_normal((n, n))

    def sampler(x, y):
        R = np.eye(n) + 0.05 * np.sin(x + 2.0 * y) * H
        a1, a2 = R.T @ pair.a1 @ R, R.T @ pair.a2 @ R
        return SymmetricPair(a1=0.5 * (a1 + a1.T), a2=0.5 * (a2 + a2.T),
                             b=(1.0 + 0.5 * np.sin(3.0 * x - y)) * pair.b)

    return sampler


class TestSemidiscrete:
    def test_zero_field_zero_rhs(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        assert np.all(op.apply(0.0, u0.values) == 0.0)

    def test_interior_upwind_stencil(self):
        # scalar c = d = 1: interior nodes must see backward differences
        g = RectGrid(1.0, 1.0, 17, 17)
        rng = np.random.default_rng(0)
        vals = smooth_random_field(g, rng) * side_vanishing_factor(
            g, [Side.W, Side.S])
        u0 = StateField(g, vals[None])
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        out = op.apply(0.0, u0.values)
        i, j = 5, 7
        expect = -((vals[i, j] - vals[i - 1, j]) / g.hx
                   + (vals[i, j] - vals[i, j - 1]) / g.hy)
        assert out[0, i, j] == pytest.approx(expect, rel=1e-12)

    def test_constant_state_boundary_driven(self):
        # u = const with zero-inflow conditions decays only through the
        # inflow-side closure
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.ones((1, 17, 17)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        out = op.apply(0.0, u0.values)
        interior = out[0, 1:, 1:]
        assert np.all(interior == 0.0)
        assert np.all(out[0, 0, :] < 0.0)  # ghost pulls toward zero

    def test_coriolis_pairing_is_skew(self):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.8))
        g = RectGrid(1.0, 1.0, 17, 17)
        rng = np.random.default_rng(5)
        u = np.stack([smooth_random_field(g, rng) for _ in range(3)])
        bu = np.einsum("ab,bij->aij", pair.b, u)
        w = g.quad_weights()
        assert abs(np.sum(w * np.sum(bu * u, axis=0))) < 1e-13 * np.sum(w * np.sum(u * u, axis=0))

    def test_vanishing_speed_rejected(self):
        pair = SymmetricPair(a1=np.diag([1.0, 1e-9]), a2=np.eye(2))
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((2, 17, 17)))
        with pytest.raises(UnstableCoefficients):
            SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0, pair=pair))


class TestStep:
    def test_zero_stays_zero(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        u = step(op, u0.values, 0.0, op.dt_max)
        assert np.all(u == 0.0)

    def test_cfl_violation(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        with pytest.raises(CFLViolation):
            step(op, u0.values, 0.0, 2.0 * op.dt_max)

    def test_transport_oracle(self):
        # exact solution is the translated bump before boundary contact
        errs = []
        for n in (33, 65):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            sol = lambda cx, cy: np.exp(-120 * ((X - cx) ** 2 + (Y - cy) ** 2))
            u0 = StateField(g, sol(0.35, 0.35)[None])
            cfg = IVPConfig(grid=g, u0=u0, t_end=0.15, pair=scalar_pair())
            traj, _ = run(cfg)
            tf, uf = traj[-1]
            err = StateField(g, uf.values - sol(0.35 + tf, 0.35 + tf)[None]).norm()
            errs.append(err)
            assert err <= 5.0 * g.h
        assert errs[1] < errs[0] / 1.4


def preset_operator(preset, n, cfl=0.4):
    """The CLI default pair of `preset`, its admissible seed-0 data on an
    n x n grid and the operator `simulate` would step."""
    pair = build_pair(RunConfig(command="simulate", preset=preset))
    decomp = simultaneous_diagonalize(pair)
    g = RectGrid(1.0, 1.0, n, n)
    u0 = admissible_field(g, decomp, assemble_system_bcs(decomp), seed=0)
    cfg = IVPConfig(grid=g, u0=u0, t_end=1.0, pair=pair, decomp=decomp,
                    cfl=cfl)
    return SpatialOperator(cfg), cfg


class TestContractionCertificate:
    """Projected forward Euler at the stage step dt_max / 2 contracts in the
    energy norm H on the admissible fields, so SSP-RK(4,3), a convex
    combination of such steps, does too at dt_max. Both are probed densely,
    column by column, at 9 x 9."""

    @pytest.mark.parametrize("preset", ["swe", "swmhd", "euler", "wave"])
    def test_forward_euler_and_step_contract(self, preset):
        self.check(preset, 0.4)

    @pytest.mark.parametrize("preset", ["swe", "swmhd", "euler", "wave"])
    def test_forward_euler_and_step_contract_at_cfl_max(self, preset):
        self.check(preset, 0.5)

    @staticmethod
    def check(preset, cfl):
        op, cfg = preset_operator(preset, 9, cfl)
        shape = cfg.u0.values.shape
        eye = np.eye(int(np.prod(shape)))

        def probe(f):
            return np.column_stack([f(e.reshape(shape)).ravel() for e in eye])

        L = probe(lambda e: op.apply(0.0, e))
        P = probe(lambda e: op.project(e.copy()))
        assert np.abs(P @ P - P).max() <= 1e-14
        # admissible fields: the fixed points of P, in an H-orthonormal basis
        _, s, vt = np.linalg.svd(P - eye)
        sw = np.sqrt(np.broadcast_to(cfg.grid.quad_weights(), shape).ravel())
        q, _ = np.linalg.qr(sw[:, None] * vt[s <= 1e-10].T)
        basis = q / sw[:, None]

        def h_norm(m):
            return np.linalg.norm(sw[:, None] * m, 2)

        dt = op.dt_max / 2
        assert h_norm(P @ (eye + dt * L) @ basis) <= 1.0
        ssp = np.column_stack([step(op, b.reshape(shape), 0.0, op.dt_max).ravel()
                               for b in basis.T])
        assert h_norm(ssp) <= 1.0
        # the certificate can fail: forward Euler at twice the stage step grows
        assert h_norm(P @ (eye + 2.0 * dt * L) @ basis) > 1.0


class TestScheme:
    """`step` is the Shu-Osher form of SSP-RK(4,3): four projected
    forward-Euler stages of dt/2 at t, t + dt/2, t + dt, t + dt/2."""

    def test_matches_stage_composition(self):
        op, cfg = preset_operator("swe", 17)
        rng = np.random.default_rng(3)
        f = np.stack([smooth_random_field(cfg.grid, rng) for _ in range(3)])
        calls = []

        def forcing(t):
            calls.append(t)
            return np.sin(5.0 * t) * f

        op = SpatialOperator(replace(cfg, forcing=forcing))
        u, t, dt = op.project(cfg.u0.values.copy()), 0.3, op.dt_max

        def fe(v, s):
            return op.project(v + dt / 2 * op.apply(s, v))

        u1 = fe(u, t)
        u2 = fe(u1, t + dt / 2)
        u3 = op.project(2 / 3 * u + 1 / 3 * (u2 + dt / 2 * op.apply(t + dt, u2)))
        expect = fe(u3, t + dt / 2)
        calls.clear()
        got = step(op, u, t, dt)
        assert calls == [t, t + dt / 2, t + dt, t + dt / 2]
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_run_step_count(self):
        g = RectGrid(1.0, 1.0, 33, 33)
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5))
        u0 = StateField(g, np.stack([bump_field(g)] * 3))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.5, pair=pair)
        speed = SpatialOperator(cfg).max_speed
        _, report = run(cfg)
        nsteps = int(np.ceil(cfg.t_end / (2 * cfg.cfl * g.h / speed)))
        assert len(report.times) - 1 == nsteps


class TestTemporalOrder:
    """SSP-RK(4,3) is third order in time: the error at t = 8 dt_max
    against a 512-step solution falls by 2^3 per halving of the step."""

    @pytest.mark.parametrize("preset,forced", [("swe", False),
                                               ("wave", False),
                                               ("swe", True)])
    def test_third_order(self, preset, forced):
        op, cfg = preset_operator(preset, 17)
        t_end = 8 * op.dt_max
        if forced:
            # one period of forcing over the run: a stage evaluated at the
            # wrong time costs the scheme its order
            rng = np.random.default_rng(1)
            f = np.stack([smooth_random_field(cfg.grid, rng)
                          for _ in range(cfg.u0.components)])
            op = SpatialOperator(replace(cfg, forcing=lambda t: np.cos(
                2 * np.pi * t / t_end) * f / t_end))

        def final(nsteps):
            u, dt = op.project(cfg.u0.values.copy()), t_end / nsteps
            for k in range(nsteps):
                u = step(op, u, k * dt, dt)
            return u

        ref = final(512)
        errs = np.array([StateField(cfg.grid, final(m) - ref).norm()
                         for m in (8, 16, 32)])
        assert np.all(np.log2(errs[:-1] / errs[1:]) >= 2.8)


class TestRun:
    def test_energy_nonincreasing_every_step_swe(self):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5))
        g = RectGrid(1.0, 1.0, 33, 33)
        u0 = StateField(g, np.stack([bump_field(g), 0.3 * bump_field(g),
                                     -0.2 * bump_field(g)]))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.5, pair=pair)
        _, report = run(cfg)
        assert report.omega == 0.0  # the Coriolis B is skew
        assert report.max_step_increase <= 1e-10 * report.norms[0]
        assert np.all(np.diff(report.norms) <= 1e-10 * report.norms[0])
        assert report.verdict

    def test_linearity(self):
        pair = scalar_pair(1.0, 2.0)
        g = RectGrid(1.0, 1.0, 17, 17)
        a = bump_field(g, 0.4, 0.5)[None]
        b = bump_field(g, 0.6, 0.4)[None]

        def final(vals):
            cfg = IVPConfig(grid=g, u0=StateField(g, vals), t_end=0.2,
                            pair=pair)
            traj, _ = run(cfg)
            return traj[-1][1].values

        combo = final(2.0 * a + 3.0 * b)
        parts = 2.0 * final(a) + 3.0 * final(b)
        scale = np.abs(combo).max()
        assert np.abs(combo - parts).max() <= 1e-12 * max(scale, 1.0)

    def test_zero_data_zero_forcing(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.3, pair=scalar_pair())
        traj, report = run(cfg)
        assert np.all(report.norms == 0.0)
        assert np.all(traj[-1][1].values == 0.0)

    def test_forcing_enters(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        f = bump_field(g)[None]
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.2, pair=scalar_pair(),
                        forcing=lambda t: f)
        _, report = run(cfg)
        assert report.norms[-1] > 0.0
        # the homogeneous bound cannot hold from zero data: informational
        assert report.max_step_increase > 0.0
        assert not report.verdict


class TestVariableCoefficients:
    @staticmethod
    def smooth_sampler(x, y):
        return SymmetricPair(a1=np.array([[2.0 + np.sin(x)]]),
                             a2=np.array([[3.0]]))

    SWE = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5))

    def test_constant_sampler_setup(self):
        # each boundary node of a constant sampler is the pair= case
        g = RectGrid(1.0, 1.0, 9, 9)
        u0 = StateField(g, np.zeros((3, 9, 9)))
        const = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                          pair=self.SWE))
        var = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                        sampler=lambda x, y: self.SWE))
        for side in Side:
            assert var.side_map[side].shape == (9, 3, 3)
            np.testing.assert_allclose(
                var.side_map[side],
                np.broadcast_to(const.side_map[side], (9, 3, 3)),
                rtol=0, atol=1e-14)

    @pytest.mark.parametrize("key", ["decomp", "bcs", "var_setup"])
    def test_input_of_the_other_path_rejected(self, key):
        # decomp and bcs hold at one node, var_setup on a sampled grid:
        # given with the other source they would be ignored
        g = RectGrid(1.0, 1.0, 9, 9)
        u0 = StateField(g, np.zeros((3, 9, 9)))
        decomp = simultaneous_diagonalize(self.SWE)
        sampler = lambda x, y: self.SWE
        source, value = {
            "decomp": ({"sampler": sampler}, decomp),
            "bcs": ({"sampler": sampler}, assemble_system_bcs(decomp)),
            "var_setup": ({"pair": self.SWE},
                          variable_coeff_setup(sampler, g)),
        }[key]
        with pytest.raises(ValueError, match=key):
            IVPConfig(grid=g, u0=u0, t_end=1.0, **source, **{key: value})

    def test_branch_merge_detected(self):
        # two advection ratios cross mid-domain
        def sampler(x, y):
            return SymmetricPair(a1=np.eye(2),
                                 a2=np.diag([1.0 + x, 2.0 - x]))
        g = RectGrid(1.0, 1.0, 9, 9)
        with pytest.raises(BlockMatchingFailure):
            check_variable_coeff_assumptions(sampler, g)
        u0 = StateField(g, np.zeros((2, 9, 9)))
        with pytest.raises(BlockMatchingFailure):
            run(IVPConfig(grid=g, u0=u0, t_end=1.0, sampler=sampler))

    @pytest.mark.parametrize("key", ["u0", "var_setup"])
    def test_part_from_another_grid_rejected(self, key):
        # a part built on another grid of the same size holds values at
        # other coordinates
        g, other = RectGrid(2.0, 2.0, 17, 17), RectGrid(1.0, 1.0, 17, 17)
        sampler = lambda x, y: self.SWE

        def built_on(grid):
            return {"u0": StateField(grid, np.zeros((3, 17, 17))),
                    "var_setup": variable_coeff_setup(sampler, grid)}

        parts = {**built_on(g), key: built_on(other)[key]}
        with pytest.raises(ValueError, match=key):
            IVPConfig(grid=g, t_end=1.0, sampler=sampler, **parts)

    def test_lower_order_term_on_sampler_path(self):
        # a constant sampler must reproduce the pair= path, B included
        base = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.0))
        pair = SymmetricPair(a1=base.a1, a2=base.a2, b=5.0 * np.eye(3))
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.stack([bump_field(g), 0.3 * bump_field(g),
                                     -0.2 * bump_field(g)]))
        _, const = run(IVPConfig(grid=g, u0=u0, t_end=0.5, pair=pair))
        _, var = run(IVPConfig(grid=g, u0=u0, t_end=0.5,
                               sampler=lambda x, y: pair))
        np.testing.assert_allclose(var.norms, const.norms, rtol=1e-10)

    def test_quasi_contraction_budget(self):
        g = RectGrid(np.pi, 1.0, 49, 25)
        rng = np.random.default_rng(12)
        u0 = random_scalar_bc_field(g, frozenset({Side.W, Side.S}), rng)
        setup = variable_coeff_setup(self.smooth_sampler, g)
        cfg = IVPConfig(grid=g, u0=u0, t_end=2.0 * np.pi / 3.0,
                        sampler=self.smooth_sampler, var_setup=setup)
        _, report = run(cfg)
        # omega = max |d/dx a1| / 2 = 1/2, sampled on the grid
        assert report.omega == pytest.approx(0.5, abs=1e-3)
        assert report.max_step_increase <= 1e-10 * report.norms[0]
        assert report.verdict


class TestEnergyVerdict:
    """One verdict for every run: |u^(k+1)| <= e^(omega dt) |u^k| at each
    step, with omega from the data."""

    SWE = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5))

    def test_one_pair_one_verdict(self):
        # B = -5I gives omega = 5 on the pair= and the constant sampler= path
        pair = SymmetricPair(a1=self.SWE.a1, a2=self.SWE.a2,
                             b=-5.0 * np.eye(3))
        g = RectGrid(1.0, 1.0, 33, 33)
        decomp = simultaneous_diagonalize(pair)
        u0 = admissible_field(g, decomp, assemble_system_bcs(decomp), 42)
        _, const = run(IVPConfig(grid=g, u0=u0, t_end=0.5, pair=pair))
        _, var = run(IVPConfig(grid=g, u0=u0, t_end=0.5,
                               sampler=lambda x, y: pair))
        assert const.omega == var.omega == 5.0
        np.testing.assert_allclose(var.norms, const.norms, rtol=1e-10)
        assert const.verdict and var.verdict
        # the norm grows on some step, so an omega = 0 gate would fail it
        assert np.diff(const.norms).max() > 1e-10 * const.norms[0]

    def test_flipped_inflow_fails(self):
        # mode 2 takes its data on its outflow sides instead: energy enters
        # through the free inflow sides. Start from mode 2 alone, zero on the
        # flipped sides and largest on the true inflow corner.
        g = RectGrid(1.0, 1.0, 17, 17)
        decomp = simultaneous_diagonalize(self.SWE)
        bcs = assemble_system_bcs(decomp)
        flipped = frozenset(side.opposite for side in bcs[2].sides)
        u0 = StateField(g, decomp.p[:, 2, None, None]
                        * side_vanishing_factor(g, list(flipped)))

        def energy(bcs):
            return run(IVPConfig(grid=g, u0=u0, t_end=0.1, pair=self.SWE,
                                 decomp=decomp, bcs=bcs))[1]

        bad = energy(bcs[:2] + [ScalarModeBC(mode_index=2, sides=flipped)])
        assert bad.omega == 0.0
        assert bad.max_step_increase > 1e-3 * bad.norms[0]
        assert not bad.verdict
        assert energy(bcs).verdict


class TestStencilForm:
    """The stencil-form operator against the difference-form reference."""

    @staticmethod
    def rel_err(op, ref, u):
        return np.linalg.norm(op.apply(0.0, u) - ref) / np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_constant_matches_reference(self, seed):
        rng = np.random.default_rng([seed, 7])
        pair = planted_system(rng)
        n = pair.order
        g = RectGrid(1.0, 1.0, 17, 17)
        u = rng.standard_normal((n, 17, 17))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, pair=pair))
        stack = lambda m: np.broadcast_to(m, (17, 17, n, n))
        ref = reference_apply(g, stack(pair.a1), stack(pair.a2),
                              stack(pair.b), op.side_map, u)
        assert self.rel_err(op, ref, u) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_variable_matches_reference(self, seed):
        rng = np.random.default_rng([seed, 8])
        sampler = varying_sampler(planted_system(rng), rng)
        g = RectGrid(1.0, 1.0, 17, 17)
        setup = variable_coeff_setup(sampler, g)
        assert np.abs(setup.a1 - setup.a1[0, 0]).max() > 1e-3  # varies
        u = rng.standard_normal((setup.order, 17, 17))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, sampler=sampler,
                                       var_setup=setup))
        ref = reference_apply(g, setup.a1, setup.a2, setup.b, op.side_map, u)
        assert self.rel_err(op, ref, u) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_energy_never_rises_random_mixed(self, seed):
        rng = np.random.default_rng(seed)
        pair = planted_system(rng)
        g = RectGrid(1.0, 1.0, 25, 25)
        u0 = StateField(g, np.stack([smooth_random_field(g, rng)
                                     for _ in range(pair.order)]))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0, pair=pair))
        _, report = run(IVPConfig(grid=g, u0=u0, t_end=12 * op.dt_max,
                                  pair=pair))
        assert np.all(np.diff(report.norms) <= 1e-10 * report.norms[0])
        assert report.verdict


class TestBuffers:
    """The operator reuses private buffers; its callers must not see them."""

    @staticmethod
    def swe(f_cor=0.5, seed=0):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0,
                                    f_cor=f_cor))
        g = RectGrid(1.0, 1.0, 17, 17)
        u = np.random.default_rng(seed).standard_normal((3, 17, 17))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, pair=pair))
        return op, u

    def test_step_leaves_input_unchanged(self):
        op, u = self.swe()
        before = u.copy()
        step(op, u, 0.0, op.dt_max)
        assert np.array_equal(u, before)

    def test_repeated_steps_identical(self):
        op, u = self.swe()
        first = step(op, u, 0.0, op.dt_max)
        second = step(op, u, 0.0, op.dt_max)
        assert first is not second
        assert np.array_equal(first, second)

    def test_apply_returns_fresh_array(self):
        op, u = self.swe()
        owned = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        owned += [m for v in vars(op).values() if isinstance(v, dict)
                  for m in v.values() if isinstance(m, np.ndarray)]
        first = op.apply(0.0, u)
        kept = first.copy()
        assert not any(np.shares_memory(first, b) for b in owned)
        step(op, 2.0 * u, 0.0, op.dt_max)
        assert np.array_equal(first, kept)

    def test_apply_into_out(self):
        op, u = self.swe()
        out = np.empty_like(u)
        assert op.apply(0.0, u, out=out) is out
        assert np.array_equal(out, op.apply(0.0, u))
        with pytest.raises(ValueError):
            op.apply(0.0, u, out=u)

    def test_interleaved_operators_match_solo(self):
        def steps(pairs, count=5):
            states = [u for _, u in pairs]
            out = [[] for _ in pairs]
            for _ in range(count):
                for k, (op, _) in enumerate(pairs):
                    states[k] = step(op, states[k], 0.0, op.dt_max)
                    out[k].append(states[k])
            return out

        a, b = self.swe(0.5, seed=1), self.swe(1.5, seed=2)
        solo = steps([a])[0], steps([b])[0]
        together = steps([a, b])
        for alone, mixed in zip(solo, together):
            assert all(np.array_equal(x, y) for x, y in zip(alone, mixed))
