"""The benchmark's workloads: inputs made from a seed, and one operation
from those inputs to a verdict, with the checks on its outputs.

simulate-const   `hypermodes simulate preset=swe` at 257x257 through
                 `cli.main`: order 3, three scalar modes, Coriolis B != 0.
                 The constant-coefficient stepper does nearly all the work;
                 congruence runs once.
variable-coeff   a seeded, smoothly varying order-5 pair (three scalar modes,
                 one elliptic mode, nonzero B) at 33x33:
                 check_variable_coeff_assumptions -> variable_coeff_setup ->
                 run on the variable branch. The per-node decomposition, the
                 per-node assumption check and the sampler do most of the
                 work; congruence runs once per node instead of once.
elliptic-solve   the wave pair (the CLI's preset=wave parameters) through
                 simultaneous_diagonalize -> assemble_system_bcs ->
                 elliptic_steady_solve at 129x129, with the right-hand side
                 of a seeded manufactured solution; the solution is checked
                 against the exact one. The normal-equations factorization
                 of the elliptic solve dominates.

Every workload also runs the same fixed manufactured-solution elliptic solve
once per benchmark run, untimed, as a check that the solver stays accurate.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

# functions are called through their modules so a traced run sees them
from hypermodes import apps, cli, congruence, modes, operators, solver
from hypermodes.congruence import SymmetricPair, TypeIIMode
from hypermodes.linalg import rotation_block
from hypermodes.modes import Side, synthesize_bc_type2
from hypermodes.operators import (RectGrid, StateField, side_vanishing_factor,
                                  smooth_random_field)

# fractional steps-per-t_end ratios keep nsteps = ceil(t_end / dt_max)
# away from a rounding boundary
SIM_N, SIM_T_END = 257, 0.016          # swe speed 4: 40.96 -> 41 steps
VAR_N, VAR_SPEED, VAR_T_END = 33, 4.0, 100.5 / 320.0   # 101 steps
ELL_N, ELL_WAVE = 129, (0.6, 0.8)      # the CLI's preset=wave defaults
# relative L2 error gate of the elliptic-solve workload: the worst of seeds
# 0-299 reads 1.41e-3 at 129x129 (5.7e-3 at 65x65: second order)
ELL_REL_ERR = 4e-3
MMS_SIZES = (33, 65, 129)
MMS_MIN_ORDER = 1.5                    # the order gate of acceptance 08


@dataclass
class Check:
    """Outcome of one checked item of an operation."""

    name: str
    ok: bool
    integrity: bool = False   # a wrong or irreproducible output, not a verdict
    detail: str = ""


@dataclass
class Inputs:
    """Everything an operation needs, made from the workload seed."""

    grid: RectGrid
    order: int
    outdir: Path
    argv: list[str] = field(default_factory=list)
    sampler: Callable | None = None
    u0: StateField | None = None
    waves: tuple | None = None   # manufactured solution of elliptic-solve

    def describe(self) -> dict:
        return {"grid": self.grid.label(), "order": self.order,
                "argv": self.argv, "waves": self.waves}


# --- inputs ------------------------------------------------------------------


def prepare(workload: str, seed: int, outdir: Path) -> Inputs:
    if workload == "simulate-const":
        grid = RectGrid(1.0, 1.0, SIM_N, SIM_N)
        argv = ["simulate", "preset=swe", f"nx={SIM_N}", f"ny={SIM_N}",
                f"seed={seed}", f"t_end={SIM_T_END!r}", f"outdir={outdir}"]
        return Inputs(grid, 3, outdir, argv=argv)
    if workload == "elliptic-solve":
        grid = RectGrid(1.0, 1.0, ELL_N, ELL_N)
        rng = np.random.default_rng([seed, 2])
        waves = tuple((rng.uniform(1.0, 4.0) * rng.choice([-1.0, 1.0]),
                       rng.uniform(1.0, 4.0) * rng.choice([-1.0, 1.0]),
                       rng.uniform(0.0, 2.0 * np.pi)) for _ in range(2))
        return Inputs(grid, 2, outdir, waves=waves)
    if workload == "variable-coeff":
        grid = RectGrid(1.0, 1.0, VAR_N, VAR_N)
        sampler = planted_sampler(seed, grid)
        rng = np.random.default_rng([seed, 1])
        bump = side_vanishing_factor(grid, list(Side))
        u0 = StateField(grid, np.stack([bump * smooth_random_field(grid, rng)
                                        for _ in range(5)]))
        return Inputs(grid, 5, outdir, sampler=sampler, u0=u0)
    raise ValueError(f"unknown workload {workload!r}")


def planted_sampler(seed: int, grid: RectGrid):
    """Sampler of a smoothly varying order-5 pair planted like
    tests/conftest.py::plant_pair: three scalar modes with fixed signs and
    separated ratios, one elliptic mode with varying (mu1, mu2), a fixed
    seeded congruence and a constant nonzero B (sym(B) = I/2 plus a seeded
    skew part). The pair is scaled so its largest wave speed over the grid
    nodes is VAR_SPEED, which fixes the step count for every seed."""
    rng = np.random.default_rng([seed, 0])
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    G = q1 @ np.diag(rng.uniform(1.0, 2.0, 5)) @ q2
    signs = np.array([1.0, -1.0, 1.0])
    ratios = np.array([-1.5, 0.5, 2.0]) + rng.uniform(-0.1, 0.1, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi, 8)
    ea, eb = rng.uniform(0.5, 1.0, 2)
    skew = rng.standard_normal((5, 5))
    b = 0.5 * np.eye(5) + 0.25 * (skew - skew.T)

    def blocks(x, y):
        """Planted pair at points x, y (scalars or arrays): (..., 5, 5)."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        B1 = np.zeros(x.shape + (5, 5))
        B2 = np.zeros(x.shape + (5, 5))
        for k in range(3):
            c = signs[k] * (1.0 + 0.3 * np.sin(np.pi * x + phase[k]))
            lam = ratios[k] + 0.2 * np.sin(np.pi * y + phase[3 + k])
            B1[..., k, k] = c
            B2[..., k, k] = lam * c
        mu1 = 0.3 * np.sin(np.pi * (x + y) + phase[6])
        mu2 = 1.0 + 0.3 * np.cos(np.pi * (x - y) + phase[7])
        k2 = (mu2 * (ea * ea + eb * eb)) ** -0.5
        C = np.array([[ea, eb], [eb, -ea]])
        R = np.moveaxis(rotation_block(mu1, mu2), (0, 1), (-2, -1))
        k2 = np.asarray(k2)[..., None, None]
        B1[..., 3:, 3:] = k2 * C
        B2[..., 3:, 3:] = k2 * (C @ R)
        return G.T @ B1 @ G, G.T @ B2 @ G

    X, Y = grid.meshgrid()
    a1, a2 = blocks(X, Y)
    speed = max(np.abs(np.linalg.eigvalsh(a1)).max(),
                np.abs(np.linalg.eigvalsh(a2)).max())
    scale = VAR_SPEED / speed

    def sampler(x: float, y: float) -> SymmetricPair:
        a1, a2 = blocks(x, y)
        return SymmetricPair(a1=scale * a1, a2=scale * a2, b=b)

    return sampler


# --- one operation -------------------------------------------------------------


@dataclass
class Outcome:
    checks: list[Check]
    artifact: bytes = b""     # compared byte for byte across repetitions


def operate(inp: Inputs) -> Outcome:
    """Inputs to verdict. Exceptions propagate; the caller counts them."""
    if inp.sampler is not None:
        report = modes.check_variable_coeff_assumptions(inp.sampler, inp.grid)
        setup = solver.variable_coeff_setup(inp.sampler, inp.grid)
        cfg = solver.IVPConfig(grid=inp.grid, u0=inp.u0, t_end=VAR_T_END,
                               sampler=inp.sampler, var_setup=setup,
                               omega0=report.omega0)
        _, energy = solver.run(cfg)
        return Outcome([Check("energy_verdict", energy.verdict,
                              detail=energy.summary())],
                       artifact=np.asarray(energy.norms).tobytes())
    if inp.waves is not None:
        return solve_manufactured(inp)
    rc = cli.main(inp.argv)
    checks = [Check("exit_code", rc == 0, detail=f"exit {rc}")]
    if rc == 1:  # input error: the CLI stopped before writing anything
        return Outcome(checks)
    norms = _read(inp.outdir / "norms.csv")
    energy = _read(inp.outdir / "energy.txt")
    checks.append(Check("norms_csv_written", norms.count("\n") > 2,
                        integrity=True))
    checks.append(Check("energy_verdict", "verdict=pass" in energy,
                        detail=energy.strip()))
    return Outcome(checks, artifact=(norms + energy).encode())


def solve_manufactured(inp: Inputs) -> Outcome:
    """Wave pair -> its elliptic mode and side conditions -> least-squares
    solve of the manufactured right-hand side, checked against u*."""
    pair = apps.preset_wave(apps.WaveParams(*ELL_WAVE))
    decomp = congruence.simultaneous_diagonalize(pair)
    bcs = modes.assemble_system_bcs(decomp)
    (mode,), (bc,) = decomp.modes, bcs
    u_star, psi = manufactured(inp.grid, mode, inp.waves)
    u, rep = operators.elliptic_steady_solve(
        mode, StateField(inp.grid, psi), inp.grid, bc.conditions)
    err = (StateField(inp.grid, u.values - u_star).norm()
           / StateField(inp.grid, u_star).norm())
    return Outcome([Check(rep.name, rep.verdict,
                          detail=f"{rep.residual:.3e} > {rep.tolerance:g}"),
                    Check("manufactured_rel_err", err <= ELL_REL_ERR,
                          integrity=True,
                          detail=f"{err:.3e} > {ELL_REL_ERR:g}")],
                   artifact=u.values.tobytes())


def clear_outputs(inp: Inputs):
    """Remove the previous repetition's files so a run that writes nothing
    cannot pass the byte-identity check."""
    if inp.outdir.exists():
        shutil.rmtree(inp.outdir)


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def with_sampler(inp: Inputs, wrap) -> Inputs:
    if inp.sampler is None:
        return inp
    return replace(inp, sampler=wrap(inp.sampler))


# --- manufactured elliptic solution ---------------------------------------------


MMS_MODE = TypeIIMode(0.0, 1.0, 1.0, 0.0)   # (alpha1, beta1, alpha2, beta2)


def _bump(t, a, b):
    """((t - a)(b - t))^3 on (a, b), zero outside, and its derivative."""
    s = (t - a) * (b - t)
    inside = (t > a) & (t < b)
    return (np.where(inside, s ** 3, 0.0),
            np.where(inside, 3 * s * s * (a + b - 2 * t), 0.0))


MMS_WAVES = ((3.0, 1.0, 0.0), (1.0, -2.0, 0.0))


def manufactured(grid: RectGrid, mode=MMS_MODE, waves=MMS_WAVES):
    """Compactly supported exact solution u* of T1 u_x + T2 u_y = psi for
    `mode`, and its psi; both (2, nx, ny). With waves ((k1, l1, p1),
    (k2, l2, p2)), u* = bump(x) bump(y) (sin(k1 x + l1 y + p1),
    cos(k2 x + l2 y + p2))."""
    (k1, l1, p1), (k2, l2, p2) = waves
    X, Y = grid.meshgrid()
    ex, exd = _bump(X, 0.15, 0.85)
    ey, eyd = _bump(Y, 0.15, 0.85)
    scale = 1.0 / _bump(np.array(0.5), 0.15, 0.85)[0] ** 2
    s1, c1 = np.sin(k1 * X + l1 * Y + p1), np.cos(k1 * X + l1 * Y + p1)
    s2, c2 = np.sin(k2 * X + l2 * Y + p2), np.cos(k2 * X + l2 * Y + p2)
    u1x = scale * (exd * ey * s1 + k1 * ex * ey * c1)
    u1y = scale * (ex * eyd * s1 + l1 * ex * ey * c1)
    u2x = scale * (exd * ey * c2 - k2 * ex * ey * s2)
    u2y = scale * (ex * eyd * c2 - l2 * ex * ey * s2)
    m = mode
    psi = np.stack([m.alpha1 * u1x + m.beta1 * u2x + m.alpha2 * u1y + m.beta2 * u2y,
                    m.beta1 * u1x - m.alpha1 * u2x + m.beta2 * u1y - m.alpha2 * u2y])
    return scale * ex * ey * np.stack([s1, c2]), psi


def mms_errors(sizes=MMS_SIZES) -> list[float]:
    """Trapezoid L2 errors of elliptic_steady_solve against the manufactured
    solution, with MMS_MODE's sign-case side conditions."""
    conditions = synthesize_bc_type2(MMS_MODE).conditions
    errs = []
    for n in sizes:
        grid = RectGrid(1.0, 1.0, n, n)
        u_star, psi = manufactured(grid)
        u, _ = operators.elliptic_steady_solve(
            MMS_MODE, StateField(grid, psi), grid, conditions)
        errs.append(StateField(grid, u.values - u_star).norm())
    return errs


def mms_orders(errs, sizes=MMS_SIZES) -> list[float]:
    hs = [1.0 / (n - 1) for n in sizes]
    return [float(np.log(e0 / e1) / np.log(h0 / h1))
            for e0, e1, h0, h1 in zip(errs, errs[1:], hs, hs[1:])]
