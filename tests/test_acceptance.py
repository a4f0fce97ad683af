"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are fixed here, not tuned: planted-pair reconstruction 1e-9 and
determinant condition 1e-10; wave determinant 1e-12; closed-form spectra
1e-10 (shallow water) and 1e-8 (magnetohydrodynamic variant); positivity
-5h (constant) and -(omega0+5h) (variable); duality-residual rates >= 1;
manufactured elliptic recovery order >= 1.5, zero-data norm 1e-8 and
discrete stability constant 1e6; per-step energy increase over
e^(omega dt) 1e-10 relative, with omega = 0 for the contraction runs and
omega = omega0 of the assumption check for the quasi-contraction run;
byte-identical repeated artifacts.
"""

import subprocess
import sys
import time

import numpy as np
from conftest import plant_pair, random_mixed_spec, src_env
from lemmas import (cross_term_residual, integration_by_parts_residual,
                    manufactured_elliptic, positivity_residual_type1,
                    positivity_residual_type2, swe_eigenvalues,
                    swmhd_eigenvalues)

from hypermodes.apps import (SWEParams, SWMHDParams, WaveParams, preset_swe,
                             preset_swmhd, preset_wave, swe_raw_matrices,
                             swmhd_raw_matrices)
from hypermodes.certify import admissible_field, default_t_end
from hypermodes.congruence import (SymmetricPair, TypeIIMode,
                                   simultaneous_diagonalize)
from hypermodes.modes import (Side, assemble_system_bcs,
                              check_variable_coeff_assumptions,
                              synthesize_bc_type1, synthesize_bc_type2)
from hypermodes.operators import (RectGrid, StateField, elliptic_steady_solve,
                                  elliptic_uniqueness,
                                  random_elliptic_bc_field,
                                  random_scalar_bc_field)
from hypermodes.solver import IVPConfig, run, variable_coeff_setup

DEFAULT_CONDS = {Side.W: (1.0, 0.0), Side.S: (1.0, 0.0),
                 Side.E: (0.0, 1.0), Side.N: (0.0, 1.0)}


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def reconstruction_residual(pair, decomp):
    B1, B2 = decomp.block_diagonals()
    p_inv = np.linalg.inv(decomp.p)
    r1 = np.linalg.norm(pair.a1 - p_inv.T @ B1 @ p_inv) / np.linalg.norm(pair.a1)
    r2 = np.linalg.norm(pair.a2 - p_inv.T @ B2 @ p_inv) / np.linalg.norm(pair.a2)
    return max(r1, r2)


def test_01_congruence_planted_pairs():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_recon = 0.0
    worst_det = 0.0
    for _ in range(100):
        spec = random_mixed_spec(rng)
        pair, _ = plant_pair(spec, rng, smax=10.0)
        d = simultaneous_diagonalize(pair)
        worst_recon = max(worst_recon, reconstruction_residual(pair, d))
        for m in d.modes:
            if isinstance(m, TypeIIMode):
                worst_det = max(worst_det, abs(m.determinant_condition - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_recon < 1e-9 and worst_det < 1e-10 and elapsed < 5.0
    verdict(1, "congruence-planted-pairs", ok,
            f"recon {worst_recon:.2e} < 1e-9, det {worst_det:.2e} < 1e-10, "
            f"{elapsed:.2f} s < 5 s")


def test_02_wave_pair_decomposition():
    rng = np.random.default_rng(7)
    worst = 0.0
    ok_count = True
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        pair = preset_wave(WaveParams(np.cos(theta), np.sin(theta)))
        d = simultaneous_diagonalize(pair)
        ok_count &= (len(d.modes) == 1
                     and isinstance(d.modes[0], TypeIIMode))
        worst = max(worst, abs(d.modes[0].determinant_condition - 1.0))
    ok = ok_count and worst < 1e-12
    verdict(2, "wave-single-elliptic-mode", ok,
            f"mode count ok, det deviation {worst:.2e} < 1e-12")


def _sorted_c(arr):
    return np.array(sorted(np.asarray(arr, dtype=complex),
                           key=lambda z: (round(z.real, 9), z.imag)))


def test_03_swe_eigenvalue_sweep():
    rng = np.random.default_rng(31)
    worst = 0.0
    n_real = n_elliptic = 0
    while n_real + n_elliptic < 200:
        want_elliptic = (n_real + n_elliptic) % 2 == 1
        if want_elliptic:
            u0, v0 = rng.uniform(0.2, 0.8, 2) * rng.choice([-1, 1], 2)
            g = rng.uniform(2.0, 8.0)
            phi0 = rng.uniform(1.0, 3.0)
        else:
            u0, v0 = rng.uniform(1.5, 4.0, 2) * rng.choice([-1, 1], 2)
            g = rng.uniform(0.3, 1.5)
            phi0 = rng.uniform(0.3, 1.5)
        scale = max(u0 ** 2, v0 ** 2, g * phi0)
        if (abs(u0 ** 2 - g * phi0) < 0.05 * scale
                or abs(v0 ** 2 - g * phi0) < 0.05 * scale
                or abs(u0 ** 2 + v0 ** 2 - g * phi0) < 0.05 * scale):
            continue
        p = SWEParams(u0=u0, v0=v0, phi0=phi0, g=g)
        kappa_sq = g * (u0 ** 2 + v0 ** 2 - g * phi0) / phi0
        if kappa_sq > 0:
            n_real += 1
        else:
            n_elliptic += 1
        e1, e2, _, _ = swe_raw_matrices(p)
        lams = _sorted_c(np.linalg.eigvals(np.linalg.solve(e1, e2)))
        want = _sorted_c(swe_eigenvalues(p))
        err = np.abs(lams - want).max() / max(1.0, np.abs(want).max())
        worst = max(worst, err)
    ok = worst < 1e-10 and n_real > 0 and n_elliptic > 0
    verdict(3, "swe-closed-form-spectrum", ok,
            f"worst {worst:.2e} < 1e-10 over {n_real} real + "
            f"{n_elliptic} elliptic-regime points")


def test_04_swmhd_eigenvalue_sweep():
    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    while count < 200:
        u0, v0 = rng.uniform(0.5, 3.0, 2) * rng.choice([-1, 1], 2)
        b10, b20 = rng.uniform(0.1, 1.5, 2) * rng.choice([-1, 1], 2)
        g = rng.uniform(0.3, 3.0)
        phi0 = rng.uniform(0.3, 3.0)
        vel = max(abs(u0), abs(v0), abs(b10), abs(b20), 1.0)
        dx = b10 ** 2 - u0 ** 2 + g * phi0
        dy = b20 ** 2 - v0 ** 2 + g * phi0
        disc = (b10 * b20 - u0 * v0) ** 2 - dx * dy
        margins = [abs(u0), abs(v0), abs(u0 - b10), abs(v0 - b20),
                   abs(u0 + b10), abs(v0 + b20)]
        if (min(margins) < 0.05 * vel or abs(dx) < 0.05 * vel ** 2
                or abs(dy) < 0.05 * vel ** 2 or abs(disc) < 0.02 * vel ** 4):
            continue
        p = SWMHDParams(u0=u0, v0=v0, b10=b10, b20=b20, phi0=phi0, g=g)
        count += 1
        e1, e2, _ = swmhd_raw_matrices(p)
        lams = _sorted_c(np.linalg.eigvals(np.linalg.solve(e1, e2)))
        want = _sorted_c(swmhd_eigenvalues(p))
        err = np.abs(lams - want).max() / max(1.0, np.abs(want).max())
        worst = max(worst, err)
    ok = worst < 1e-8
    verdict(4, "swmhd-closed-form-spectrum", ok,
            f"worst {worst:.2e} < 1e-8 over {count} generic points")


def test_05_bc_sign_tables():
    type1 = {
        (1.0, 2.0): {Side.W, Side.S},
        (3.0, -0.5): {Side.W, Side.N},
        (-2.0, 0.5): {Side.E, Side.S},
        (-1.0, -1.0): {Side.E, Side.N},
    }
    ok = all(synthesize_bc_type1(c, d) == sides
             for (c, d), sides in type1.items())
    type2 = {
        (0.6, 0.8): {Side.W, Side.S},
        (0.5, -1.0): {Side.W, Side.N},
        (-1.0, 1.0): {Side.E, Side.S},
        (-1.0, -1.0): {Side.E, Side.N},
    }
    for (a1, a2), u1_sides in type2.items():
        bc = synthesize_bc_type2(TypeIIMode(a1, 1.0, a2, -1.0))
        got_u1 = {s for s, c in bc.conditions.items() if c == (1.0, 0.0)}
        got_u2 = {s for s, c in bc.conditions.items() if c == (0.0, 1.0)}
        ok = ok and got_u1 == u1_sides and got_u2 == set(Side) - u1_sides
    verdict(5, "bc-sign-tables", ok, "all 8 sign cases match the tables")


def test_06_positivity_certificates():
    grid = RectGrid(np.pi, 1.0, 65, 65)
    h = max(grid.hx, grid.hy)
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ws = frozenset({Side.W, Side.S})
    worst1 = np.inf
    for _ in range(100):
        u = random_scalar_bc_field(grid, ws, rng)
        val = positivity_residual_type1(1.5, 0.8, u, sides=ws)
        worst1 = min(worst1, val / u.norm() ** 2)
    mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
    worst2 = np.inf
    for _ in range(100):
        u = random_elliptic_bc_field(grid, DEFAULT_CONDS, rng)
        val = positivity_residual_type2(mode, u, DEFAULT_CONDS)
        worst2 = min(worst2, val / u.norm() ** 2)
    X, _ = grid.meshgrid()
    a1 = 2.0 + np.sin(X)
    omega0 = 0.5
    worst_v = np.inf
    for _ in range(100):
        u = random_scalar_bc_field(grid, ws, rng)
        val = positivity_residual_type1(a1, 3.0, u, sides=ws)
        worst_v = min(worst_v, val / u.norm() ** 2)
    elapsed = time.perf_counter() - t0
    ok = (worst1 >= -5.0 * h and worst2 >= -5.0 * h
          and worst_v >= -(omega0 + 5.0 * h) and elapsed < 10.0)
    verdict(6, "positivity-certificates", ok,
            f"type1 {worst1:.2e}, type2 {worst2:.2e} >= {-5 * h:.2e}; "
            f"variable {worst_v:.2e} >= {-(omega0 + 5 * h):.2e}; "
            f"{elapsed:.2f} s < 10 s")


def test_07_duality_residual_rates():
    grids = [RectGrid(1.0, 1.0, n, n) for n in (17, 33, 65)]
    conds = {s: (1.0, -1.0) for s in Side}
    cross = []
    ibp = []
    for g in grids:
        X, Y = g.meshgrid()
        shared = np.sin(2 * X + Y) + 0.3 * np.cos(X - 3 * Y)
        bump = X * (1 - X) * Y * (1 - Y)
        u = StateField(g, np.stack(
            [shared, shared + bump * np.exp(X) * np.sin(np.pi * Y + 0.5)]))
        cross.append(cross_term_residual(u, conds))
        mu1, mu2 = X / 4.0, 1.0 + Y / 4.0
        T1 = np.zeros((g.nx, g.ny, 2, 2))
        T1[..., 0, 1] = T1[..., 1, 0] = 1.0
        T2 = np.stack([np.stack([mu2, mu1], -1),
                       np.stack([mu1, -mu2], -1)], -2)
        theta = StateField(g, np.stack([np.sin(2 * X + Y), np.cos(X - Y)]))
        gf = StateField(g, np.stack([np.cos(3 * X), np.sin(X + 2 * Y)]))
        ibp.append(integration_by_parts_residual(theta, gf, T1, T2))
    # the residuals at 17^2 and 33^2, pinned at their printed precision
    assert [f"{r:.3e}" for r in cross[:2]] == ["2.618e-03", "7.363e-04"]
    assert [f"{r:.3e}" for r in ibp[:2]] == ["1.661e-02", "4.219e-03"]
    cross_rates = np.diff(np.log(cross)) / np.log(0.5)
    ibp_rates = np.diff(np.log(ibp)) / np.log(0.5)
    ok = min(cross_rates) >= 1.0 and min(ibp_rates) >= 1.0
    verdict(7, "duality-residual-rates", ok,
            f"cross-term rates {cross_rates.round(2)}, "
            f"duality rates {ibp_rates.round(2)}, all >= 1.0")


def test_08_elliptic_manufactured_solutions():
    mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
    errs = []
    for n in (17, 33, 65):
        g = RectGrid(1.0, 1.0, n, n)
        u_star, psi = manufactured_elliptic(g, (0.0, 1.0, 1.0, 0.0))
        u, _ = elliptic_steady_solve(mode, StateField(g, psi), g,
                                     DEFAULT_CONDS)
        errs.append(StateField(g, u.values - u_star).norm())
    rates = np.diff(np.log(errs)) / np.log(0.5)
    g = RectGrid(1.0, 1.0, 33, 33)
    zero = StateField(g, np.zeros((2, g.nx, g.ny)))
    u0, _ = elliptic_steady_solve(mode, zero, g, DEFAULT_CONDS)
    _, unique = elliptic_uniqueness(mode, g, DEFAULT_CONDS)
    # the errors at 17^2 and 33^2 and sigma-min at 33^2, pinned at their
    # printed precision
    assert [f"{e:.3e}" for e in errs[:2]] == ["1.591e-02", "3.637e-03"]
    assert f"{1.0 / unique.residual:.4f}" == "2.1349"
    ok = min(rates) >= 1.5 and u0.norm() < 1e-8 and unique.verdict
    verdict(8, "elliptic-manufactured-recovery", ok,
            f"orders {rates.round(2)} >= 1.5, zero-data norm "
            f"{u0.norm():.2e} < 1e-8, stability constant "
            f"{unique.residual:.2f} <= {unique.tolerance:g}")


def _contraction_run(pair, label, seed):
    grid = RectGrid(1.0, 1.0, 64, 64)
    decomp = simultaneous_diagonalize(pair)
    bcs = assemble_system_bcs(decomp)
    u0 = admissible_field(grid, decomp, bcs, seed)
    cfg = IVPConfig(grid=grid, u0=u0, t_end=default_t_end(pair, grid.L1),
                    pair=pair, decomp=decomp, bcs=bcs)
    t0 = time.perf_counter()
    _, report = run(cfg)
    elapsed = time.perf_counter() - t0
    rel_inc = report.max_step_increase / report.norms[0]
    ok = (rel_inc <= 1e-10 and report.omega == 0.0 and report.verdict
          and elapsed < 30.0)
    return ok, (f"{label}: step increase {rel_inc:.2e} <= 1e-10 at "
                f"omega {report.omega:g}, {elapsed:.1f} s < 30 s")


def test_09_semigroup_contraction():
    pair_swe = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0,
                                    f_cor=0.5))
    ok1, d1 = _contraction_run(pair_swe, "swe", seed=11)
    pair_mhd = preset_swmhd(SWMHDParams(u0=2.0, v0=2.0, b10=0.5, b20=0.3,
                                        phi0=1.0, g=1.0))
    ok2, d2 = _contraction_run(pair_mhd, "swmhd", seed=13)
    verdict(9, "semigroup-contraction", ok1 and ok2, f"{d1}; {d2}")


def test_10_quasi_contraction_budget():
    def sampler(x, y):
        return SymmetricPair(a1=np.array([[2.0 + np.sin(x)]]),
                             a2=np.array([[3.0]]))

    grid = RectGrid(np.pi, 1.0, 49, 25)
    report = check_variable_coeff_assumptions(sampler, grid)
    setup = variable_coeff_setup(sampler, grid)
    rng = np.random.default_rng(5)
    u0 = random_scalar_bc_field(grid, frozenset({Side.W, Side.S}), rng)
    cfg = IVPConfig(grid=grid, u0=u0, t_end=2.0 * np.pi / 3.0,
                    sampler=sampler, var_setup=setup)
    _, energy = run(cfg)
    rel_inc = energy.max_step_increase / energy.norms[0]
    ok = (energy.omega == report.omega0 and abs(report.omega0 - 0.5) < 0.01
          and rel_inc <= 1e-10 and energy.verdict)
    verdict(10, "quasi-contraction-budget", ok,
            f"step increase over e^(omega dt) {rel_inc:.2e} <= 1e-10 at "
            f"omega {energy.omega:.4f} = omega0 {report.omega0:.4f}")


def test_11_deterministic_artifacts(tmp_path):
    args = [sys.executable, "-m", "hypermodes", "verify", "preset=swe",
            "nx=17", "ny=17", "seed=42"]
    for run_dir in ("r1", "r2"):
        proc = subprocess.run(args + [f"outdir={tmp_path / run_dir}"],
                              env=src_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
    b1 = (tmp_path / "r1" / "cert.csv").read_bytes()
    b2 = (tmp_path / "r2" / "cert.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    verdict(11, "deterministic-artifacts", ok,
            f"cert.csv byte-identical across runs ({len(b1)} bytes)")
