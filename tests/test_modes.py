import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import (OPPOSITE, ZeroKappa, condition_rank, rotate_type2,
                    rotation_matrix)

from hypermodes.congruence import TypeIIMode, simultaneous_diagonalize
from hypermodes.errors import (AssumptionViolated, RankDeficientBC,
                               ZeroCoefficient)
from hypermodes.modes import (EllipticModeBC, ScalarModeBC, Side,
                              assemble_system_bcs,
                              check_variable_coeff_assumptions,
                              format_assignments, synthesize_bc_type1,
                              synthesize_bc_type2)
from hypermodes.congruence import SymmetricPair
from hypermodes.operators import RectGrid

nonzero = st.floats(min_value=0.01, max_value=100.0).flatmap(
    lambda m: st.sampled_from([m, -m]))


class TestSideLayout:
    # the explicit slice of each side's nodes in an (nx, ny) array
    SLICES = {Side.W: np.s_[0, :], Side.E: np.s_[-1, :],
              Side.S: np.s_[:, 0], Side.N: np.s_[:, -1]}

    @pytest.mark.parametrize("side", list(Side))
    def test_edge_matches_slice(self, side):
        grid = np.arange(9 * 23.0).reshape(9, 23)
        stack = np.arange(3 * 9 * 23.0).reshape(3, 9, 23)
        assert np.array_equal(grid[side.edge], grid[self.SLICES[side]])
        assert np.array_equal(stack[side.edge],
                              stack[(slice(None),) + self.SLICES[side]])

    def test_opposite_axis_sign(self):
        for side in Side:
            assert OPPOSITE[OPPOSITE[side]] is side
            assert OPPOSITE[side] is not side
            assert OPPOSITE[side].axis == side.axis
            assert side.sign == (-1 if side in (Side.W, Side.S) else 1)
        assert [s.axis for s in Side] == [0, 0, 1, 1]


class TestScalarSignTable:
    # the four sign cases of the inflow-side table
    @pytest.mark.parametrize("c,d,expect", [
        (1.0, 2.0, {Side.W, Side.S}),
        (3.0, -0.5, {Side.W, Side.N}),
        (-2.0, 0.5, {Side.E, Side.S}),
        (-1.0, -1.0, {Side.E, Side.N}),
    ])
    def test_table(self, c, d, expect):
        assert synthesize_bc_type1(c, d) == expect

    def test_zero_rejected(self):
        with pytest.raises(ZeroCoefficient):
            synthesize_bc_type1(0.0, 1.0)

    @given(c=nonzero, d=nonzero)
    def test_contiguous(self, c, d):
        sides = synthesize_bc_type1(c, d)
        assert len(sides) == 2
        assert sides not in ({Side.W, Side.E}, {Side.S, Side.N})

    @given(c=nonzero, d=nonzero, s1=st.floats(min_value=0.1, max_value=50),
           s2=st.floats(min_value=0.1, max_value=50))
    def test_scale_invariance(self, c, d, s1, s2):
        assert synthesize_bc_type1(c, d) == synthesize_bc_type1(s1 * c, s2 * d)


class TestEllipticSignTable:
    @pytest.mark.parametrize("a1,a2,u1_sides", [
        (0.6, 0.8, {Side.W, Side.S}),
        (0.5, -1.0, {Side.W, Side.N}),
        (-1.0, 1.0, {Side.E, Side.S}),
        (-1.0, -1.0, {Side.E, Side.N}),
    ])
    def test_table(self, a1, a2, u1_sides):
        # beta chosen to keep the determinant condition positive
        mode = TypeIIMode(a1, 1.0, a2, -1.0)
        bc = synthesize_bc_type2(mode)
        got_u1 = {s for s, cond in bc.conditions.items() if cond == (1.0, 0.0)}
        got_u2 = {s for s, cond in bc.conditions.items() if cond == (0.0, 1.0)}
        assert got_u1 == u1_sides
        assert got_u2 == set(Side) - u1_sides

    def test_default_assignment_rank2(self):
        for a1 in (1.0, -1.0):
            for a2 in (1.0, -1.0):
                bc = synthesize_bc_type2(TypeIIMode(a1, 1.0, a2, -1.0))
                assert condition_rank(bc.conditions) == 2


class TestRotation:
    def test_reference_values(self):
        mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
        out = rotate_type2(mode, 1.0)
        assert out.alpha1 == pytest.approx(-1.0, abs=1e-15)
        assert out.beta1 == pytest.approx(0.0, abs=1e-15)
        assert out.alpha2 == pytest.approx(0.0, abs=1e-15)
        assert out.beta2 == pytest.approx(1.0, abs=1e-15)
        assert out.determinant_condition == pytest.approx(1.0, abs=1e-12)

    @given(kappa=nonzero, a1=st.floats(-2, 2), b1=st.floats(-2, 2),
           mu2=st.floats(0.2, 2.0), mu1=st.floats(-2, 2))
    @settings(max_examples=200)
    def test_determinant_preserved(self, kappa, a1, b1, mu1, mu2):
        if a1 * a1 + b1 * b1 < 1e-2:
            return
        C = np.array([[a1, b1], [b1, -a1]])
        D = C @ np.array([[mu1, -mu2], [mu2, mu1]])
        mode = TypeIIMode(a1, b1, D[0, 0], D[0, 1])
        out = rotate_type2(mode, kappa)
        assert out.determinant_condition == pytest.approx(
            mode.determinant_condition, abs=1e-12 * max(1, abs(mode.determinant_condition)))

    def test_matches_matrix_conjugation(self):
        mode = TypeIIMode(0.7, 0.3, -0.2, 1.1)
        kappa = 1.7
        out = rotate_type2(mode, kappa)
        Q = rotation_matrix(kappa)
        C_rot = Q @ mode.first() @ Q.T
        D_rot = Q @ mode.second() @ Q.T
        assert np.allclose(out.first(), C_rot, atol=1e-12)
        assert np.allclose(out.second(), D_rot, atol=1e-12)

    def test_zero_kappa_rejected(self):
        with pytest.raises(ZeroKappa):
            rotate_type2(TypeIIMode(0.0, 1.0, 1.0, 0.0), 0.0)

    def test_rotated_assignment_full_rank(self):
        mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
        for kappa in (0.5, 1.0, -2.0, 7.0):
            rotated = rotate_type2(mode, kappa)
            bc = synthesize_bc_type2(rotated)
            conditions = np.array([bc.conditions[s] for s in Side])
            induced = conditions @ rotation_matrix(kappa)
            rank = np.linalg.matrix_rank(induced, tol=1e-10)
            assert rank == 2


class TestAssemble:
    def _swe_decomp(self):
        from hypermodes.apps import SWEParams, preset_swe

        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0))
        return simultaneous_diagonalize(pair)

    def test_swe_all_inflow_ws(self):
        decomp = self._swe_decomp()
        bcs = assemble_system_bcs(decomp)
        assert len(bcs) == 3
        for bc in bcs:
            assert isinstance(bc, ScalarModeBC)
            assert bc.sides == {Side.W, Side.S}

    def test_wave_elliptic_assignment(self):
        from hypermodes.apps import WaveParams, preset_wave

        decomp = simultaneous_diagonalize(preset_wave(WaveParams(0.6, 0.8)))
        bcs = assemble_system_bcs(decomp)
        assert len(bcs) == 1
        bc = bcs[0]
        assert isinstance(bc, EllipticModeBC)
        mode = decomp.modes[0]
        u1_sides = {s for s, cond in bc.conditions.items() if cond == (1.0, 0.0)}
        if mode.alpha1 >= 0 and mode.alpha2 >= 0:
            assert u1_sides == {Side.W, Side.S}
        elif mode.alpha1 < 0 <= mode.alpha2:
            assert u1_sides == {Side.E, Side.S}

    # conditions a caller builds in place of the defaults (an override)
    # are an EllipticModeBC, passed to a run as its `bcs`
    def test_rank_deficient_override(self):
        # every side is a valid row, so the conditions build; the solve
        # rejects their rank
        from hypermodes.apps import WaveParams, preset_wave
        from hypermodes.operators import StateField, elliptic_steady_solve

        decomp = simultaneous_diagonalize(preset_wave(WaveParams(0.6, 0.8)))
        bc = EllipticModeBC({s: (1.0, 1.0) for s in Side})
        assert condition_rank(bc.conditions) == 1
        grid = RectGrid(1.0, 1.0, 9, 9)
        zero = StateField(grid, np.zeros((2, grid.nx, grid.ny)))
        with pytest.raises(RankDeficientBC):
            elliptic_steady_solve(decomp.modes[0], zero, grid, bc.conditions)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_override_named(self, value):
        conds = {Side.W: (1.0, 0.0), Side.E: (value, 1.0),
                 Side.S: (1.0, 0.0), Side.N: (0.0, 1.0)}
        with pytest.raises(ValueError, match="side E condition"):
            EllipticModeBC(conds)

    def test_missing_side_named(self):
        conds = {Side.W: (1.0, 0.0), Side.E: (0.0, 1.0), Side.S: (1.0, 0.0)}
        with pytest.raises(ValueError,
                           match="^conditions must cover all four sides$"):
            EllipticModeBC(conds)

    def test_valid_override_accepted(self):
        mixed = {Side.W: (1.0, 0.0), Side.E: (1.0, -1.0),
                 Side.S: (1.0, 1.0), Side.N: (0.0, 1.0)}
        bc = EllipticModeBC(mixed)
        assert bc.conditions == mixed
        assert condition_rank(bc.conditions) == 2

    def test_serialization_format(self):
        decomp = self._swe_decomp()
        text = format_assignments(assemble_system_bcs(decomp))
        assert "TypeI inflow=W,S" in text


def scalar_sampler(a1_fun, a2_fun):
    def sample(x, y):
        return SymmetricPair(a1=np.array([[a1_fun(x, y)]]),
                             a2=np.array([[a2_fun(x, y)]]))
    return sample


class TestVariableCoeffAssumptions:
    def test_constant_sampler(self):
        grid = RectGrid(1.0, 1.0, 9, 9)
        rep = check_variable_coeff_assumptions(
            scalar_sampler(lambda x, y: 2.0, lambda x, y: 3.0), grid)
        assert rep.omega0 == 0.0
        assert np.all(rep.a1 == 2.0) and np.all(rep.a2 == 3.0)
        assert np.all(rep.eigenvalues[0] == 2.0)
        assert np.all(rep.eigenvalues[1] == 3.0)

    def test_sine_coefficient_budget(self):
        # d/dx (2 + sin x) peaks at 1, so the budget is 1/2, found at x = 0
        grid = RectGrid(np.pi, 1.0, 33, 9)
        rep = check_variable_coeff_assumptions(
            scalar_sampler(lambda x, y: 2.0 + np.sin(x), lambda x, y: 3.0),
            grid)
        assert abs(rep.omega0 - 0.5) < grid.hx ** 2

    def test_zero_crossing_detected(self):
        grid = RectGrid(1.0, 1.0, 9, 9)
        with pytest.raises(AssumptionViolated) as info:
            check_variable_coeff_assumptions(
                scalar_sampler(lambda x, y: x - 0.49, lambda x, y: 1.0), grid)
        assert info.value.which == "b"
        i, j = info.value.where
        assert abs(grid.x()[i] - 0.49) <= 2 * grid.hx

    def test_census_change_detected(self):
        # real pair on the left half, complex pair on the right half
        def sample(x, y):
            a2 = (np.array([[1.0, 0.1], [0.1, -1.0]]) if x > 0.5
                  else np.array([[1.5, 0.0], [0.0, 0.5]]))
            return SymmetricPair(a1=np.array([[0.0, 1.0], [1.0, 0.0]]), a2=a2)
        grid = RectGrid(1.0, 1.0, 9, 9)
        with pytest.raises(AssumptionViolated):
            check_variable_coeff_assumptions(sample, grid)
