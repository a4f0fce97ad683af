"""The exact rows of the certificate battery, and that each can fail.

Each mutation below breaks one ingredient the row rests on: the
summation-by-parts (SBP) difference, one side's boundary term or a corner
weight of the duality identity, and the dissipativity of one side's
conditions.
"""

import pytest

from hypermodes import certify, cli, operators
from hypermodes.congruence import simultaneous_diagonalize
from hypermodes.modes import (EllipticModeBC, ScalarModeBC, Side,
                              assemble_system_bcs)
from hypermodes.operators import RectGrid

PRESETS = ("swe", "swmhd", "euler", "wave")


def rows(preset, mutate_bcs=None, n=17, seed=42):
    """Residual of every row of the battery, by name."""
    pair = cli.build_pair(cli.RunConfig(command="verify", preset=preset))
    decomp = simultaneous_diagonalize(pair)
    bcs = assemble_system_bcs(decomp)
    if mutate_bcs is not None:
        bcs = mutate_bcs(bcs)
    suite = certify.certification_suite(pair, RectGrid(1.0, 1.0, n, n),
                                        decomp, bcs, seed=seed, t_end=None,
                                        cfl=0.4)
    return {r.name: r.residual for r in suite}


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", [17, 33])
def test_exact_rows_hold_to_roundoff(preset, n):
    got = rows(preset, n=n)
    assert got["crossterm_identity"] <= 1e-14
    assert got["ibp_identity"] <= 1e-14
    for side in Side:
        assert got[f"boundary_form_{side}"] <= 1e-15


@pytest.mark.parametrize("preset", PRESETS)
def test_second_order_ends_break_both_identities(preset, monkeypatch):
    # np.gradient's edge_order=2 ends are not the trapezoid norm's SBP pair
    monkeypatch.setattr(certify, "_sbp_dx", operators.ddx)
    monkeypatch.setattr(certify, "_sbp_dy", operators.ddy)
    got = rows(preset)
    assert got["crossterm_identity"] > 1e-3
    assert got["ibp_identity"] > 1e-3


def test_flipped_side_term_breaks_ibp(monkeypatch):
    line_integral = operators._line_integral
    calls = []

    def flip_first_side(vals, h):
        calls.append(h)
        return (-1.0 if len(calls) == 1 else 1.0) * line_integral(vals, h)

    monkeypatch.setattr(operators, "_line_integral", flip_first_side)
    got = rows("swe")
    assert len(calls) == 4
    assert got["ibp_identity"] > 1e-3


def test_dropped_corner_weight_breaks_ibp(monkeypatch):
    line_integral = operators._line_integral
    monkeypatch.setattr(operators, "_line_integral",
                        lambda vals, h: line_integral(vals, h) - 0.5 * h * vals[0])
    assert rows("swe")["ibp_identity"] > 1e-3


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

