"""The rows of the certificate battery and that each can fail, and the
summation-by-parts (SBP) identities of the differences.

The SBP pair is D = H^-1 Q, `np.gradient(edge_order=1)` with the
trapezoid norm H (Kreiss & Scherer 1974; Strand, JCP 110, 1994):
<Df, g>_H + <f, Dg>_H = [fg] to roundoff, so the cross-term and duality
identities hold exactly. No input pair can break them, so they are unit
tests here and not `verify` rows. Each mutation below breaks one
ingredient a check rests on: the SBP difference, one side's boundary term
or a corner weight of the duality identity, and the dissipativity of one
side's conditions.
"""

import subprocess
import sys

import numpy as np
import pytest
from conftest import src_env
from lemmas import _coeff_field_apply, _line_integral, ddx, ddy, inner

from hypermodes import certify, cli
from hypermodes.congruence import simultaneous_diagonalize
from hypermodes.linalg import save_matrix
from hypermodes.modes import (EllipticModeBC, ScalarModeBC, Side,
                              assemble_system_bcs)
from hypermodes.operators import (RectGrid, StateField,
                                  side_vanishing_factor, smooth_random_field)
from hypermodes.solver import IVPConfig, SpatialOperator

PRESETS = ("swe", "swmhd", "euler", "wave")


def preset_pair(preset):
    return cli.build_pair(cli.RunConfig(command="verify", preset=preset))


def rows(preset, mutate_bcs=None, n=17, seed=42):
    """Residual of every row of the battery, by name."""
    pair = preset_pair(preset)
    decomp = simultaneous_diagonalize(pair)
    bcs = assemble_system_bcs(decomp)
    if mutate_bcs is not None:
        bcs = mutate_bcs(bcs)
    suite = certify.certification_suite(certify.simulation_config(
        pair, RectGrid(1.0, 1.0, n, n), decomp, bcs, seed=seed, t_end=None,
        cfl=0.4))
    return {r.name: r.residual for r in suite}


def test_suite_steps_the_operator_it_certifies(monkeypatch):
    # the boundary rows and the energy row read one operator
    builds = []
    real = SpatialOperator.__init__
    monkeypatch.setattr(SpatialOperator, "__init__", lambda op, config: (
        builds.append(config) or real(op, config)))
    rows("wave")
    assert len(builds) == 1


def test_suite_certifies_constant_pairs():
    pair = preset_pair("swe")
    g = RectGrid(1.0, 1.0, 9, 9)
    u0 = StateField(g, np.zeros((3, 9, 9)))
    for config in (IVPConfig(grid=g, u0=u0, t_end=0.1,
                             sampler=lambda x, y: pair),
                   IVPConfig(grid=g, u0=u0, t_end=0.1, pair=pair)):
        with pytest.raises(ValueError, match="certifies constant pairs"):
            certify.certification_suite(config)


def sbp_dx(values, grid):
    return np.gradient(values, grid.hx, axis=-2, edge_order=1)


def sbp_dy(values, grid):
    return np.gradient(values, grid.hy, axis=-1, edge_order=1)


def defect(*terms):
    """|sum of the terms| relative to the largest of them."""
    return abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300)


def identity_defects(preset, n=17, seed=42, dx=sbp_dx, dy=sbp_dy,
                     line_integral=_line_integral):
    """Relative defects (cross term, duality) of the differences (dx, dy)
    in the trapezoid norm, on seeded smooth fields, with the preset's
    (A1, A2) and `line_integral` for each side's boundary term."""
    pair = preset_pair(preset)
    grid = RectGrid(1.0, 1.0, n, n)
    # u1 = u2 on every side: the cross terms' boundary parts cancel
    rng = np.random.default_rng(seed + 2000)
    shared = smooth_random_field(grid, rng)
    bump = side_vanishing_factor(grid, list(Side))
    u1, u2 = shared, shared + bump * smooth_random_field(grid, rng)
    cross = defect(inner(grid, dx(u2, grid)[None], dy(u1, grid)[None]),
                   -inner(grid, dx(u1, grid)[None], dy(u2, grid)[None]))

    # <Dx(A1 th) + Dy(A2 th), g>_H + <A1 Dx g + A2 Dy g, th>_H equals the
    # boundary sum of nu.A th . g
    rng = np.random.default_rng(seed + 3000)
    th, g = (np.stack([smooth_random_field(grid, rng)
                       for _ in range(pair.order)]) for _ in range(2))
    A = pair.a1, pair.a2
    Ath = [_coeff_field_apply(a, th) for a in A]
    vol1 = inner(grid, dx(Ath[0], grid) + dy(Ath[1], grid), g)
    vol2 = inner(grid, _coeff_field_apply(A[0], dx(g, grid))
                 + _coeff_field_apply(A[1], dy(g, grid)), th)
    h_along = grid.hy, grid.hx
    boundary = sum(side.sign * line_integral(
        np.sum(Ath[side.axis][side.edge] * g[side.edge], axis=0),
        h_along[side.axis]) for side in (Side.E, Side.W, Side.N, Side.S))
    return cross, defect(vol1, vol2, -boundary)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", [17, 33])
def test_exact_rows_hold_to_roundoff(preset, n):
    got = rows(preset, n=n)
    for side in Side:
        assert got[f"boundary_form_{side}"] <= 1e-15


@pytest.mark.parametrize("preset, elliptic", [("swe", []),
                                              ("wave", ["mode0"])])
def test_battery_rows(preset, elliptic):
    # every row is computed from the input system: no identity rows
    assert list(rows(preset)) == (
        ["decomposition_reconstruction"]
        + ["determinant_condition"] * bool(elliptic)
        + [f"boundary_form_{side}" for side in Side]
        + [f"elliptic_uniqueness_{m}" for m in elliptic]
        + ["energy_monotonic"])


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", [17, 33])
def test_sbp_identities_hold_to_roundoff(preset, n):
    cross, ibp = identity_defects(preset, n=n)
    assert cross <= 1e-14
    assert ibp <= 1e-14


@pytest.mark.parametrize("preset", PRESETS)
def test_second_order_ends_break_both_identities(preset):
    # np.gradient's edge_order=2 ends are not the trapezoid norm's SBP pair
    cross, ibp = identity_defects(preset, dx=ddx, dy=ddy)
    assert cross > 1e-3
    assert ibp > 1e-3


def test_flipped_side_term_breaks_ibp():
    calls = []

    def flip_first_side(vals, h):
        calls.append(h)
        return (-1.0 if len(calls) == 1 else 1.0) * _line_integral(vals, h)

    _, ibp = identity_defects("swe", line_integral=flip_first_side)
    assert len(calls) == 4
    assert ibp > 1e-3


def test_dropped_corner_weight_breaks_ibp():
    def drop_first_corner(vals, h):
        return _line_integral(vals, h) - 0.5 * h * vals[0]

    assert identity_defects("swe", line_integral=drop_first_corner)[1] > 1e-3


def test_scalar_inflow_on_the_outflow_side_fails_its_side():
    # swe's three scalar modes all enter through W; impose them on E instead
    def inflow_east(bcs):
        return [ScalarModeBC(bc.mode_index, bc.sides - {Side.W} | {Side.E})
                for bc in bcs]
    got = rows("swe", inflow_east)
    assert got["boundary_form_W"] == pytest.approx(0.75)
    for side in (Side.E, Side.S, Side.N):
        assert got[f"boundary_form_{side}"] <= 1e-15


def test_swapped_elliptic_conditions_fail_both_sides():
    def swap_west_east(bcs):
        out = []
        for bc in bcs:
            conds = dict(bc.conditions)
            conds[Side.W], conds[Side.E] = conds[Side.E], conds[Side.W]
            out.append(EllipticModeBC(bc.mode_index, conds))
        return out
    got = rows("wave", swap_west_east)
    assert got["boundary_form_W"] == pytest.approx(0.8)
    assert got["boundary_form_E"] == pytest.approx(0.8)
    assert max(got["boundary_form_S"], got["boundary_form_N"]) <= 1e-15


def test_rank_one_elliptic_conditions_fail_uniqueness():
    # (1, 0) on every side leaves the discrete problem a kernel: 1/sigma
    # reads 4.9e12
    def rank_one(bcs):
        return [EllipticModeBC(0, {s: (1.0, 0.0) for s in Side})]
    assert rows("wave", rank_one)["elliptic_uniqueness_mode0"] > 1e6


def verify_cli(tmp_path, *args, a1=None, a2=None):
    """`python -m hypermodes verify` on `args`, or on the pair (a1, a2)
    written to files, in a fresh interpreter: its exit code, its stderr and
    the verdict of each cert.csv row by name (none if it wrote no
    cert.csv)."""
    if a1 is not None:
        save_matrix(tmp_path / "a1.txt", a1)
        save_matrix(tmp_path / "a2.txt", a2)
        args += (f"a1_file={tmp_path / 'a1.txt'}",
                 f"a2_file={tmp_path / 'a2.txt'}")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hypermodes", "verify", *args,
         f"outdir={out}"], env=src_env(), capture_output=True, text=True,
        timeout=300)
    cert = out / "cert.csv"
    rows = ([line.split(",") for line in cert.read_text().splitlines()[1:]]
            if cert.exists() else [])
    return proc.returncode, proc.stderr, {r[0]: r[-1] for r in rows}


def test_ill_conditioned_congruence_fails_reconstruction(tmp_path):
    # two scalar modes whose congruence P grows ill-conditioned as eps -> 0:
    # at eps = 1e-7, A - P^-T B_d P^-1 is 2.5e-9 relative, over
    # DECOMPOSITION_RTOL, while every other row passes (an oblique SAT
    # projector P Pi_c P^-1, whose norm grows with cond P, makes this run
    # blow up and fail energy_monotonic too)
    eps = 1e-7
    rc, err, verdicts = verify_cli(
        tmp_path, "nx=17", "ny=17", a1=np.diag([1.0, -1.0]),
        a2=np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]]))
    assert rc == 2, err
    assert [name for name, v in verdicts.items() if v == "fail"] == [
        "decomposition_reconstruction"]


def test_large_elliptic_mode_certifies_quietly(tmp_path):
    # one elliptic mode with a small mixed term, scaled to alpha = 1000:
    # ||F^t F|| is 1.9e10, so LOBPCG's residual cannot reach the absolute
    # UNIQUENESS_TOL and it warns, though sigma matches the dense
    # sigma_min to 1e-15; relative to ||F^t F|| the estimate has converged
    delta = 1e-6
    rc, err, verdicts = verify_cli(
        tmp_path, "nx=33", "ny=33", a1=np.diag([1.0, -1.0]),
        a2=np.array([[1.0, -delta], [-delta, -1.0]]))
    assert (rc, err) == (0, "")
    assert set(verdicts.values()) == {"pass"}


def test_blown_up_run_fails_energy_monotonic(tmp_path):
    # swe's skew Coriolis B at fcor = 1e5: the run blows up at step 7, and
    # its energy row, alone, fails with residual inf
    rc, err, verdicts = verify_cli(tmp_path, "preset=swe", "fcor=100000",
                                   "nx=17", "ny=17")
    assert (rc, err) == (2, "")
    assert [name for name, v in verdicts.items() if v == "fail"] == [
        "energy_monotonic"]
    row = (tmp_path / "out" / "cert.csv").read_text().splitlines()[-1]
    assert row.startswith("energy_monotonic,17x17,inf,")


@pytest.mark.parametrize("preset", PRESETS)
def test_verify_presets_write_nothing_to_stderr(preset, tmp_path):
    rc, err, verdicts = verify_cli(tmp_path, f"preset={preset}", "nx=17",
                                   "ny=17")
    assert (rc, err) == (0, "")
    assert set(verdicts.values()) == {"pass"}
