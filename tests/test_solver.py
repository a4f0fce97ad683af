import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import plant_pair, random_mixed_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import OPPOSITE
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
from hypermodes import cli, solver
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


def reference_apply(grid, a1, a2, b, constrained, u):
    """The upwind operator in difference form with explicit SAT terms.

    a1, a2, b are per-node (nx, ny, n, n) stacks and constrained[side] the
    projectors Q onto the constrained traces along each side; interfaces
    carry the mean of their two nodes, a boundary face carries no flux,
    and each boundary node takes the penalty -(1/h)(-nu.A + alpha Q^T) Q u
    with alpha = max(0, lambda_max(nu.A)) / 2 of its own normal
    coefficient nu.A."""
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

    def sat(side, normal, trace, h):
        nu_a = side.sign * normal
        alpha = 0.5 * np.maximum(np.linalg.eigvalsh(nu_a)[..., -1], 0.0)
        miss = mul(constrained[side], trace)
        back = mul(np.swapaxes(constrained[side], -1, -2), miss)
        return (mul(nu_a, miss) - alpha * back) / h

    out[:, 0] += sat(Side.W, a1[0], u[:, 0], hx)
    out[:, -1] += sat(Side.E, a1[-1], u[:, -1], hx)
    out[:, :, 0] += sat(Side.S, a2[:, 0], u[:, :, 0], hy)
    out[:, :, -1] += sat(Side.N, a2[:, -1], u[:, :, -1], hy)
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
        assert np.all(out[0, 0, :] < 0.0)  # the penalty pulls toward zero

    def test_coriolis_pairing_is_skew(self):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.8))
        g = RectGrid(1.0, 1.0, 17, 17)
        rng = np.random.default_rng(5)
        u = np.stack([smooth_random_field(g, rng) for _ in range(3)])
        bu = np.einsum("ab,bij->aij", pair.b, u)
        w = g.quad_weights()
        assert abs(np.sum(w * np.sum(bu * u, axis=0))) < 1e-13 * np.sum(w * np.sum(u * u, axis=0))

    @pytest.mark.parametrize("components", [2, 4])
    def test_component_count_checked(self, components):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0))
        g = RectGrid(1.0, 1.0, 9, 9)
        u0 = StateField(g, np.zeros((components, 9, 9)))
        with pytest.raises(ValueError, match="^initial data component count "
                                             "does not match system$"):
            SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0, pair=pair))

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

    @pytest.mark.parametrize("dt", [np.nan, 0.0, -1.0])
    def test_bad_dt_rejected(self, dt):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       pair=scalar_pair()))
        with pytest.raises(ValueError, match="dt"):
            step(op, u0.values, 0.0, dt)

    def test_transport_oracle(self):
        # exact solution is the translated bump before boundary contact
        errs = []
        for n in (33, 65):
            g = RectGrid(1.0, 1.0, n, n)
            X, Y = g.meshgrid()
            sol = lambda cx, cy: np.exp(-120 * ((X - cx) ** 2 + (Y - cy) ** 2))
            u0 = StateField(g, sol(0.35, 0.35)[None])
            cfg = IVPConfig(grid=g, u0=u0, t_end=0.15, pair=scalar_pair())
            uf, report = run(cfg)
            tf = report.times[-1]
            err = StateField(g, uf.values - sol(0.35 + tf, 0.35 + tf)[None]).norm()
            errs.append(err)
            assert err <= 5.0 * max(g.hx, g.hy)
        assert errs[1] < errs[0] / 1.4


def matrix_of(f, shape):
    """The matrix of the linear map `f` on fields of `shape`, probed
    column by column."""
    return np.column_stack([f(e.reshape(shape)).ravel()
                            for e in np.eye(int(np.prod(shape)))])


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
    """Forward Euler at the stage step tau = dt_max / 6 contracts in the
    cell norm hx hy sum |u|^2 on the whole space, since the SAT closure
    needs no admissible subspace, so SSP(9,3), a convex combination of nine
    such steps, does too at dt_max. Both are probed densely, column by
    column, at 9 x 9; in the cell norm the operator norm is the spectral
    norm."""

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
        L = matrix_of(lambda e: op.apply(0.0, e), shape)
        eye = np.eye(len(L))
        dt = op.dt_max / 6
        assert np.linalg.norm(eye + dt * L, 2) <= 1.0
        ssp = matrix_of(lambda e: step(op, e, 0.0, op.dt_max), shape)
        assert np.linalg.norm(ssp, 2) <= 1.0
        # the certificate can fail: forward Euler at twice the stage step grows
        assert np.linalg.norm(eye + 2.0 * dt * L, 2) > 1.0

    @pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
    def test_forward_euler_contracts_with_stiff_b(self, lam):
        # B = lam I takes its share of the stage step: tau = tau_a / (1 +
        # tau_a lam / 2); at tau_a alone forward Euler grows from lam = 100
        pair = SymmetricPair(a1=np.eye(2), a2=np.diag([2.0, 3.0]),
                             b=lam * np.eye(2))
        g = RectGrid(1.0, 1.0, 13, 13)
        shape = (2, 13, 13)
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(
            g, np.zeros(shape)), t_end=1.0, pair=pair))
        L = matrix_of(lambda e: op.apply(0.0, e), shape)
        eye = np.eye(len(L))
        tau = op.dt_max / 6
        assert np.linalg.norm(eye + tau * L, 2) <= 1.0
        assert np.linalg.norm(eye + 2.0 * tau * L, 2) > 1.0

    @pytest.mark.parametrize("cfl", [0.4, 0.5])
    def test_step_contracts_on_planted_pairs(self, cfl):
        # planted cases 0-3, 51 and 54 (the ROADMAP probes' draws) at 11^2:
        # 51 is the worst of the 100 pairs, and on 54 at cfl 0.5 an oblique
        # SAT projector P Pi_c P^-1, whose norm grows with cond(P), makes
        # forward Euler at dt_max / 6 grow (1.064)
        rng = np.random.default_rng(123)
        pairs = [plant_pair(random_mixed_spec(rng), rng)[0]
                 for _ in range(55)]
        g = RectGrid(1.0, 1.0, 11, 11)
        for case in (0, 1, 2, 3, 51, 54):
            shape = (pairs[case].order, 11, 11)
            op = SpatialOperator(IVPConfig(
                grid=g, u0=StateField(g, np.zeros(shape)), t_end=1.0,
                pair=pairs[case], cfl=cfl))
            L = matrix_of(lambda e: op.apply(0.0, e), shape)
            fe = np.eye(len(L)) + op.dt_max / 6 * L
            assert np.linalg.norm(fe, 2) <= 1.0, case
            ssp = matrix_of(lambda e: step(op, e, 0.0, op.dt_max), shape)
            assert np.linalg.norm(ssp, 2) <= 1.0, case


class TestDissipativity:
    """The semidiscrete operator is dissipative in the cell norm: the
    largest eigenvalue of sym L is at most omega, by the SAT energy
    estimate. Planted case 1 is the second pair drawn from default_rng(123)
    (`random_mixed_spec`, then `plant_pair`); the ghost closure with an
    after-stage projection read +24.8 on it at 17 x 17."""

    @staticmethod
    def check(pair, n=13):
        g = RectGrid(1.0, 1.0, n, n)
        shape = (pair.order, n, n)
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, np.zeros(shape)),
                                       t_end=1.0, pair=pair))
        L = matrix_of(lambda e: op.apply(0.0, e), shape)
        assert np.linalg.eigvalsh(0.5 * (L + L.T))[-1] <= op.omega + 1e-12

    @pytest.mark.parametrize("preset", ["swe", "swmhd", "euler", "wave"])
    def test_presets(self, preset):
        self.check(build_pair(RunConfig(command="simulate", preset=preset)))

    def test_planted_case_1(self):
        rng = np.random.default_rng(123)
        pairs = [plant_pair(random_mixed_spec(rng), rng)[0] for _ in range(2)]
        self.check(pairs[1])


class TestScheme:
    """`step` is Ketcheson's low-storage SSP(9,3): nine forward-Euler stages
    of tau = dt/6 at t + k tau for k = 0..5, then 3, 4, 5, the sixth
    averaged with the first's output as 3/5 q2 + 2/5 q1."""

    def test_matches_stage_composition(self):
        # swe: constant stacks, three blocks a tile, no edge term; wave:
        # five blocks and four edge terms; a planted per-node sampler
        for kind in ("swe", "wave", "variable"):
            cfg = (TestTiles.config(kind, 17, 17) if kind == "variable"
                   else preset_operator(kind, 17)[1])
            rng = np.random.default_rng(3)
            f = np.stack([smooth_random_field(cfg.grid, rng)
                          for _ in range(cfg.u0.components)])
            calls = []

            def forcing(t):
                calls.append(t)
                return np.sin(5.0 * t) * f

            op = SpatialOperator(replace(cfg, forcing=forcing))
            u, t, dt = cfg.u0.values, 0.3, op.dt_max

            tau = dt / 6

            def fe(v, k):
                return v + tau * op.apply(t + k * tau, v)

            q1 = q2 = fe(u, 0)
            for k in range(1, 5):
                q1 = fe(q1, k)
            q1 = 3 / 5 * q2 + 2 / 5 * fe(q1, 5)
            for k in range(3, 6):
                q1 = fe(q1, k)
            expect = q1
            calls.clear()
            got = step(op, u, t, dt)
            assert calls == [t + k * tau for k in (0, 1, 2, 3, 4, 5, 3, 4, 5)]
            assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_run_builds_stage_matrices_once(self, monkeypatch):
        # every sweep of a run at one dt is dst = src + dt/6 L src
        built = []
        real = SpatialOperator._stage
        monkeypatch.setattr(SpatialOperator, "_stage", lambda op, w, s: (
            built.append((w, s)) or real(op, w, s)))
        op, cfg = preset_operator("swe", 17)
        _, report = run(replace(cfg, t_end=3.5 * op.dt_max))
        assert len(report.times) - 1 == 4
        assert built == [(1.0, report.times[1] / 6)]

    def test_run_step_count(self):
        g = RectGrid(1.0, 1.0, 33, 33)
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5))
        u0 = StateField(g, np.stack([bump_field(g)] * 3))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.5, pair=pair)
        speed = SpatialOperator(cfg).max_speed
        _, report = run(cfg)
        h = min(g.hx, g.hy)
        nsteps = int(np.ceil(cfg.t_end / (6 * cfg.cfl * h / speed)))
        assert len(report.times) - 1 == nsteps

    def test_simulate_const_counts(self, monkeypatch, tmp_path):
        # the benchmark's simulate-const run, swe at 257^2 to t_end 0.016:
        # ceil(t_end / dt_max) = 7 steps of nine sweeps each
        sweeps, steps = [], []
        real_sweep, real_step = SpatialOperator._sweep, solver.step
        monkeypatch.setattr(SpatialOperator, "_sweep", lambda op, *a, **k: (
            sweeps.append(1) or real_sweep(op, *a, **k)))
        monkeypatch.setattr(solver, "step", lambda *a: (
            steps.append(len(sweeps)) or real_step(*a)))
        assert cli.main(["simulate", "preset=swe", "nx=257", "ny=257",
                         "seed=0", "t_end=0.016", f"outdir={tmp_path}"]) == 0
        pair = build_pair(RunConfig(command="simulate", preset="swe"))
        dt_max = 6 * 0.4 / 256 / solver.max_speed(
            np.linalg.eigvalsh([pair.a1, pair.a2]))
        assert np.ceil(0.016 / dt_max) == 7
        assert steps == list(range(0, 63, 9))
        assert len(sweeps) == 63


class TestTemporalOrder:
    """SSP(9,3) is third order in time: the error at t = 8 dt_max against
    a 512-step solution falls by 2^3 per halving of the step."""

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
            u, dt = cfg.u0.values, t_end / nsteps
            for k in range(nsteps):
                u = step(op, u, k * dt, dt)
            return u

        ref = final(512)
        errs = np.array([StateField(cfg.grid, final(m) - ref).norm()
                         for m in (8, 16, 32)])
        assert np.all(np.log2(errs[:-1] / errs[1:]) >= 2.8)


class TestSpatialOrder:
    """The stepper against a forced smooth exact solution whose mode
    variables vanish where the synthesized conditions require: mode k is
    cos(t + k) g_k, with g_k = (1.5 + sin(1.3x - 0.7y + k)) times
    sin(pi s / 2) for the distance s to each side on which it must vanish
    (every preset's elliptic conditions are component conditions). The
    forcing takes the derivatives of g_k by complex steps, exact to
    rounding. First-order upwinding with the SAT closure converges at
    order 1 in the cell norm."""

    @staticmethod
    def profiles(bcs, x, y):
        zero = []
        for bc in bcs:
            if isinstance(bc, ScalarModeBC):
                zero.append(bc.sides)
            else:
                zero += [[s for s in Side if bc.conditions[s][1] == 0],
                         [s for s in Side if bc.conditions[s][0] == 0]]
        out = []
        for k, sides in enumerate(zero):
            g = 1.5 + np.sin(1.3 * x - 0.7 * y + k)
            for side in sides:
                s = (x, y)[side.axis]
                g = g * np.sin(0.5 * np.pi * (s if side.sign < 0 else 1.0 - s))
            out.append(g)
        return np.array(out)

    def error(self, preset, n, t_end=0.5):
        pair = build_pair(RunConfig(command="simulate", preset=preset))
        decomp = simultaneous_diagonalize(pair)
        bcs = assemble_system_bcs(decomp)
        g = RectGrid(1.0, 1.0, n, n)
        X, Y = g.meshgrid()
        h = 1e-30
        prof = self.profiles(bcs, X, Y)
        dx = self.profiles(bcs, X + 1j * h, Y).imag / h
        dy = self.profiles(bcs, X, Y + 1j * h).imag / h
        # per mode k: the state P e_k g_k and the flux terms of the equation
        state = np.einsum("ak,kij->kaij", decomp.p, prof)
        flux = (np.einsum("ab,bk,kij->kaij", pair.a1, decomp.p, dx)
                + np.einsum("ab,bk,kij->kaij", pair.a2, decomp.p, dy)
                + np.einsum("ab,kbij->kaij", pair.b, state))
        k = np.arange(len(prof))

        def sol(t):
            return np.einsum("k,kaij->aij", np.cos(t + k), state)

        def forcing(t):
            return (np.einsum("k,kaij->aij", -np.sin(t + k), state)
                    + np.einsum("k,kaij->aij", np.cos(t + k), flux))

        cfg = IVPConfig(grid=g, u0=StateField(g, sol(0.0)), t_end=t_end,
                        pair=pair, decomp=decomp, bcs=bcs, forcing=forcing)
        u, report = run(cfg)
        e = u.values - sol(report.times[-1])
        return np.sqrt(g.hx * g.hy * np.sum(e * e))

    @pytest.mark.parametrize("preset", ["swe", "swmhd", "euler", "wave"])
    def test_first_order(self, preset):
        coarse, fine = self.error(preset, 33), self.error(preset, 65)
        assert abs(np.log2(coarse / fine) - 1.0) <= 0.1


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
            state, _ = run(cfg)
            return state.values

        combo = final(2.0 * a + 3.0 * b)
        parts = 2.0 * final(a) + 3.0 * final(b)
        scale = np.abs(combo).max()
        assert np.abs(combo - parts).max() <= 1e-12 * max(scale, 1.0)

    def test_omitted_b_runs_as_zero_b(self):
        # an omitted b is stored as the zero matrix, on both paths
        base = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.0))
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.stack([bump_field(g), 0.3 * bump_field(g),
                                     -0.2 * bump_field(g)]))
        omitted = SymmetricPair(a1=base.a1, a2=base.a2)
        zero = SymmetricPair(a1=base.a1, a2=base.a2, b=np.zeros((3, 3)))
        for source in (lambda p: {"pair": p},
                       lambda p: {"sampler": lambda x, y: p}):
            (final, report), (final_zero, report_zero) = (
                run(IVPConfig(grid=g, u0=u0, t_end=0.2, **source(p)))
                for p in (omitted, zero))
            assert np.array_equal(final.values, final_zero.values)
            assert np.array_equal(report.norms, report_zero.norms)
            assert report.omega == report_zero.omega == 0.0

    def test_zero_data_zero_forcing(self):
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, np.zeros((1, 17, 17)))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.3, pair=scalar_pair())
        final, report = run(cfg)
        assert np.all(report.norms == 0.0)
        assert np.all(final.values == 0.0)

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

    @pytest.mark.parametrize("after, last", [(0.3, 2), (-1.0, 0)],
                             ids=["step_3", "step_1"])
    def test_non_finite_state_ends_the_run_failed(self, after, last):
        # 4 steps of 0.125 (dt_max 0.15): step k's stages read f from
        # (k - 1) 0.125, so NaN forcing past t = 0.3 first reaches step 3,
        # and NaN forcing everywhere step 1, leaving one norm
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, bump_field(g)[None])
        nan, zero = np.full((1, 17, 17), np.nan), np.zeros((1, 17, 17))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.5, pair=scalar_pair(),
                        forcing=lambda t: nan if t > after else zero)
        seen = []
        final, report = run(cfg, snapshot=lambda t, u: seen.append(
            (t, u.copy())))
        assert list(report.times) == [0.125 * k for k in range(last + 1)]
        assert np.isfinite(report.norms).all()
        assert report.max_step_increase == np.inf
        assert not report.verdict
        assert "max_step_increase=inf verdict=fail" in report.summary()
        # the run returns its last finite state, the last one snapshotted
        # (every step is, at 4 steps)
        assert [t for t, _ in seen] == list(report.times)
        assert np.array_equal(seen[-1][1], final.values)
        assert np.sqrt(g.hx * g.hy * np.vdot(final.values, final.values)) \
            == report.norms[-1]

    def test_snapshot_steps(self):
        # step 0, every nsteps // 10 steps and the last, in step order
        g = RectGrid(1.0, 1.0, 17, 17)
        u0 = StateField(g, bump_field(g)[None])
        # 23 steps: dt_max is 0.15
        cfg = IVPConfig(grid=g, u0=u0, t_end=22.5 * 0.15, pair=scalar_pair())
        seen = []
        final, report = run(cfg, snapshot=lambda t, u: seen.append(
            (t, u.copy())))
        steps = [*range(0, 23, 2), 23]
        assert [t for t, _ in seen] == list(report.times[steps])
        assert np.array_equal(seen[0][1], u0.values)
        assert np.array_equal(seen[-1][1], final.values)
        norms = [np.sqrt(g.hx * g.hy * np.vdot(u, u)) for _, u in seen]
        assert norms == list(report.norms[steps])

    def test_run_holds_a_few_states(self):
        # the state, the step's result, its two stage buffers and a tile's
        # gathered inputs: no copy per snapshot (32 steps, 11 snapshot
        # steps)
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0,
                                    f_cor=0.5))
        g = RectGrid(1.0, 1.0, 129, 129)
        u0 = StateField(g, np.stack([bump_field(g), 0.3 * bump_field(g),
                                     -0.2 * bump_field(g)]))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.15, pair=pair)
        tracemalloc.start()
        try:
            _, report = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.times) == 33
        assert peak < 8 * u0.values.nbytes


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
            assert var.constrained[side].shape == (9, 3, 3)
            np.testing.assert_allclose(
                var.constrained[side],
                np.broadcast_to(const.constrained[side], (9, 3, 3)),
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
        flipped = frozenset(OPPOSITE[side] for side in bcs[2].sides)
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
                              stack(pair.b), op.constrained, u)
        assert self.rel_err(op, ref, u) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_variable_matches_reference(self, seed):
        rng = np.random.default_rng([seed, 8])
        sampler = varying_sampler(planted_system(rng), rng)
        g = RectGrid(1.0, 1.0, 17, 17)
        setup = variable_coeff_setup(sampler, g)
        assert np.abs(setup.a1 - setup.a1[0, 0]).max() > 1e-3  # varies
        u = rng.standard_normal((setup.a1.shape[-1], 17, 17))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, sampler=sampler,
                                       var_setup=setup))
        ref = reference_apply(g, setup.a1, setup.a2, setup.b, op.constrained, u)
        assert self.rel_err(op, ref, u) <= 1e-12

    def test_variable_matches_reference_ny_is_n_squared(self):
        # order 3 on 11x9: a W or E edge stack (3, 3, 9) holds
        # n * n * ny = ny^2 entries, as one node of order ny would, so the
        # one-node test must read the order from the leading axis
        rng = np.random.default_rng(9)
        pair, _ = plant_pair([("I", 1.3, -0.8), ("II", 0.6, 0.8, 0.3, 1.1)],
                             rng)
        skew = rng.standard_normal((3, 3))
        pair = SymmetricPair(a1=pair.a1, a2=pair.a2,
                             b=0.5 * np.eye(3) + skew - skew.T)
        sampler = varying_sampler(pair, rng)
        g = RectGrid(1.0, 1.0, 11, 9)
        setup = variable_coeff_setup(sampler, g)
        u = rng.standard_normal((3, 11, 9))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, sampler=sampler,
                                       var_setup=setup))
        assert op.edge[Side.W].size == op.edge[Side.E].size == g.ny ** 2
        ref = reference_apply(g, setup.a1, setup.a2, setup.b, op.constrained, u)
        assert self.rel_err(op, ref, u) <= 1e-12

    def test_boundary_decomposition_count_is_fixed(self, monkeypatch):
        # the boundary nodes are decomposed in one batch: the number of
        # eigvals and svd calls does not grow with the grid
        sampler = varying_sampler(planted_system(np.random.default_rng(3)),
                                  np.random.default_rng(4))
        calls = []
        for name in ("eigvals", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, **k:
                                calls.append(1) or real(*a, **k))
        counts = []
        for n in (17, 33):
            g = RectGrid(1.0, 1.0, n, n)
            setup = variable_coeff_setup(sampler, g)
            u0 = StateField(g, np.zeros((setup.a1.shape[-1], n, n)))
            calls.clear()
            SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                      sampler=sampler, var_setup=setup))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

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
        assert not any(np.shares_memory(first, b) for b in owned + [u])
        second = op.apply(0.0, u)
        assert second is not first and np.array_equal(second, first)
        step(op, 2.0 * u, 0.0, op.dt_max)
        assert np.array_equal(first, kept)

    def test_wrongly_shaped_state_rejected(self):
        # the same count of values in another shape is not a state either
        op, u = self.swe()
        for bad in (u.reshape(1, 3, 17, 17), u.reshape(3, 17 * 17, 1),
                    u[:, :16]):
            with pytest.raises(ValueError, match=r"\(3, 17, 17\)"):
                op.apply(0.0, bad)
            with pytest.raises(ValueError, match=r"\(3, 17, 17\)"):
                step(op, bad, 0.0, op.dt_max)

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


class TestTiles:
    """`apply` and each stage of `step` sweep the grid in row tiles; the
    result is the same to the bit however the rows are tiled."""

    @staticmethod
    def config(kind, nx, ny):
        rng = np.random.default_rng(5)
        g = RectGrid(1.0, 1.0, nx, ny)
        if kind in ("variable", "definite"):
            # "definite": a1 and a2 positive definite at every node, so the
            # per-node E and N neighbour stacks are zero and left out
            pair = (preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0,
                                         f_cor=0.5)) if kind == "definite"
                    else planted_system(rng))
            sampler = varying_sampler(pair, rng)
            setup = variable_coeff_setup(sampler, g)
            n = setup.a1.shape[-1]
            coeffs = dict(sampler=sampler, var_setup=setup)
        else:
            n, coeffs = 3, dict(pair=preset_swe(SWEParams(
                u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.5)))
        if kind == "forced":
            X, Y = g.meshgrid()
            coeffs["forcing"] = lambda t: np.stack(
                [np.sin(X + k * Y + t) for k in range(n)])
        u0 = StateField(g, rng.standard_normal((n, nx, ny)))
        return IVPConfig(grid=g, u0=u0, t_end=1.0, **coeffs)

    # 23x11 ends on a short tile of 3-row tiles; 1-row tiles leave the
    # first and last tile without a W or E neighbour row
    @pytest.mark.parametrize("kind, nx, ny", [
        ("swe", 17, 17), ("variable", 17, 17), ("forced", 17, 17),
        ("definite", 17, 17), ("swe", 23, 11), ("variable", 23, 11),
        ("definite", 23, 11)])
    def test_tilings_bit_identical(self, monkeypatch, kind, nx, ny):
        cfg = self.config(kind, nx, ny)
        u = cfg.u0.values
        results = []
        for rows, tiles in ((1, nx), (3, -(-nx // 3)), (nx, 1)):
            monkeypatch.setattr(solver, "TILE_BYTES", rows * u[:, 0].nbytes)
            op = SpatialOperator(cfg)
            assert len(op._tiles) == tiles
            if kind == "definite":
                assert op.centre.shape[2:] == (nx, ny)  # per-node stacks
                assert all(len(tile.terms) == 2 for tile in op._tiles)
            outs, v = [op.apply(0.3, u)], u
            for k in range(3):
                v = step(op, v, 0.3 + k * op.dt_max, op.dt_max)
                outs.append(v)
            results.append(np.stack(outs).view(np.uint64))
        for other in results[1:]:
            assert np.array_equal(results[0], other)


def plan_sides(op, kind):
    """The sides of the neighbour (kind "terms") or edge ("edges") terms in
    each tile's plan, in order."""
    return [[side for side, *_ in getattr(tile, kind)] for tile in op._tiles]


class TestPlan:
    """Each tile's plan holds the neighbour and edge terms whose stacks are
    not identically zero, in W, E, S, N order: an a1 (a2) of one sign at
    every face has no downwind x (y) neighbour, and no edge term on the
    sides where every mode leaves or every mode enters."""

    W, E, S, N = Side.W, Side.E, Side.S, Side.N

    @pytest.mark.parametrize("preset, sides", [
        ("swe", (W, S)), ("swmhd", (W, S)), ("euler", (W, S)),
        ("wave", (W, E, S, N))])
    def test_presets(self, preset, sides):
        op, _ = preset_operator(preset, 17)
        assert plan_sides(op, "terms") == [list(sides)]
        # only wave's elliptic mode has a condition on every side; every
        # other mode enters or leaves, whole, across each side
        edges = list(sides) if preset == "wave" else []
        assert plan_sides(op, "edges") == [edges]

    @pytest.mark.parametrize("sign, sides", [(1.0, (W, S, N)),
                                             (-1.0, (E, S, N))])
    def test_definite_a1_indefinite_a2(self, sign, sides):
        # every x-mode enters across the same side, so the W and E edge
        # stacks are zero too
        pair = SymmetricPair(a1=sign * np.diag([1.0, 2.0]),
                             a2=np.diag([1.0, -1.0]), b=0.3 * np.eye(2))
        g = RectGrid(1.0, 1.0, 17, 13)
        u = np.random.default_rng(2).standard_normal((2, 17, 13))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u),
                                       t_end=1.0, pair=pair))
        assert plan_sides(op, "terms") == [list(sides)]
        assert plan_sides(op, "edges") == [[Side.S, Side.N]]
        stack = lambda m: np.broadcast_to(m, (17, 13, 2, 2))
        ref = reference_apply(g, stack(pair.a1), stack(pair.a2),
                              stack(pair.b), op.constrained, u)
        assert TestStencilForm.rel_err(op, ref, u) <= 1e-12

    @pytest.mark.parametrize("preset, order, blocks", [("swe", 3, 3),
                                                       ("wave", 2, 5)])
    @pytest.mark.parametrize("rows", [17, 3])
    def test_products_per_apply(self, monkeypatch, preset, order, blocks,
                                rows):
        # a guard against the zero downwind, outflow and inflow products
        # coming back: per tile one contraction over the tile and its kept
        # neighbour terms' inputs, then the edge products of the sides it
        # holds (test_presets): none for swe; for wave S and N in every
        # tile, W and E in one
        edges = 2 if preset == "wave" else 0
        monkeypatch.setattr(solver, "TILE_BYTES", rows * 17 * 8 * order)
        op, cfg = preset_operator(preset, 17)
        assert sum(m.any() for m in op.edge.values()) == 2 * edges
        calls = []
        real = solver._mul
        monkeypatch.setattr(solver, "_mul", lambda mats, v, out: calls.append(
            len(v) // order) or real(mats, v, out))
        op.apply(0.0, cfg.u0.values)
        tiles = len(op._tiles)
        assert tiles == -(-17 // rows)
        assert calls.count(blocks) == tiles
        assert calls.count(1) == edges * (tiles + 1)
        assert len(calls) == tiles + edges * (tiles + 1)
