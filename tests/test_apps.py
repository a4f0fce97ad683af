import inspect

import numpy as np
import pytest
from lemmas import swe_eigenvalues, swmhd_eigenvalues

from hypermodes.apps import (EulerParams, SWEParams, SWMHDParams, WaveParams,
                             euler_raw_matrices, preset_euler, preset_swe,
                             preset_swmhd, preset_wave, swe_raw_matrices,
                             swmhd_raw_matrices, symmetrize)
from hypermodes.congruence import TypeIIMode, TypeIMode, simultaneous_diagonalize
from hypermodes.errors import (GenericityViolated, NonPositiveSymmetrizer,
                               NormalizationViolated, NotSymmetrizable)


def sorted_complex(arr):
    return np.array(sorted(arr, key=lambda z: (round(z.real, 9), z.imag)))


def eig_match(pair_or_mats, formulas, rtol):
    if hasattr(pair_or_mats, "a1"):
        M = np.linalg.solve(pair_or_mats.a1, pair_or_mats.a2)
    else:
        e1, e2 = pair_or_mats
        M = np.linalg.solve(e1, e2)
    lams = sorted_complex(np.linalg.eigvals(M).astype(complex))
    want = sorted_complex(np.asarray(formulas, dtype=complex))
    scale = max(1.0, np.abs(want).max())
    return np.abs(lams - want).max() / scale < rtol


class TestSWE:
    def test_symmetrized_first_row(self):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0))
        assert np.allclose(pair.a1[0], [2.0, 0.0, 1.0], atol=1e-14)
        assert np.array_equal(pair.a1, pair.a1.T)
        assert np.array_equal(pair.a2, pair.a2.T)

    def test_coriolis_skew(self):
        pair = preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0, f_cor=0.7))
        assert np.allclose(pair.b, -pair.b.T, atol=1e-14)

    def test_genericity_u0(self):
        with pytest.raises(GenericityViolated):
            SWEParams(u0=1.0, v0=2.0, phi0=1.0, g=1.0)

    def test_eigenvalue_reference_point(self):
        lams = swe_eigenvalues(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0))
        kappa0 = np.sqrt(12.0)
        assert lams[0] == pytest.approx((6.0 + kappa0) / 3.0, abs=1e-12)
        assert lams[1] == pytest.approx((6.0 - kappa0) / 3.0, abs=1e-12)
        assert lams[2] == pytest.approx(1.5, abs=1e-15)
        assert lams[0] == pytest.approx(3.1547005383792517, abs=1e-12)
        assert lams[1] == pytest.approx(0.8452994616207483, abs=1e-12)

    def test_elliptic_regime_complex_pair(self):
        p = SWEParams(u0=1.0, v0=1.0, phi0=1.0, g=10.0)
        lams = swe_eigenvalues(p)
        assert lams[0].imag != 0 and lams[1].imag != 0
        assert lams[0] == pytest.approx(np.conj(lams[1]))
        assert lams[2] == pytest.approx(1.0)
        e1, e2, _, _ = swe_raw_matrices(p)
        assert eig_match((e1, e2), lams, 1e-10)

    def test_formulas_match_eigensolver(self):
        p = SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0)
        e1, e2, _, _ = swe_raw_matrices(p)
        assert eig_match((e1, e2), swe_eigenvalues(p), 1e-12)

    def test_ratio_invariance(self):
        lams = swe_eigenvalues(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0))
        lams_s = swe_eigenvalues(SWEParams(u0=4.0, v0=6.0, phi0=1.0, g=4.0))
        assert lams_s[2] == pytest.approx(lams[2])

    def test_mode_census_by_regime(self):
        sup = simultaneous_diagonalize(
            preset_swe(SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0)))
        assert sum(isinstance(m, TypeIMode) for m in sup.modes) == 3
        sub = simultaneous_diagonalize(
            preset_swe(SWEParams(u0=1.0, v0=1.0, phi0=1.0, g=10.0)))
        assert sum(isinstance(m, TypeIMode) for m in sub.modes) == 1
        assert sum(isinstance(m, TypeIIMode) for m in sub.modes) == 1


class TestSWMHD:
    def test_reference_values(self):
        p = SWMHDParams(u0=2.0, v0=1.0, b10=0.5, b20=0.3, phi0=1.0, g=1.0)
        lams = swmhd_eigenvalues(p)
        assert lams[0] == pytest.approx(1.3 / 2.5, abs=1e-14)
        assert lams[1] == pytest.approx((0.3 - 1.0) / (0.5 - 2.0), abs=1e-14)
        assert lams[4] == pytest.approx(0.5, abs=1e-15)

    def test_formulas_match_eigensolver(self):
        p = SWMHDParams(u0=2.0, v0=1.0, b10=0.5, b20=0.3, phi0=1.0, g=1.0)
        e1, e2, _ = swmhd_raw_matrices(p)
        assert eig_match((e1, e2), swmhd_eigenvalues(p), 1e-10)

    def test_advective_ratio_identity(self):
        for u0, v0 in ((2.0, 1.0), (3.0, -2.0), (-1.5, 2.5)):
            p = SWMHDParams(u0=u0, v0=v0, b10=0.4, b20=0.2, phi0=1.0, g=1.0)
            assert swmhd_eigenvalues(p)[4] == pytest.approx(v0 / u0)

    def test_negative_discriminant_gives_elliptic_mode(self):
        # strong gravity forces the magneto-gravity pair complex
        p = SWMHDParams(u0=1.0, v0=1.2, b10=0.3, b20=0.2, phi0=2.0, g=5.0)
        lams = swmhd_eigenvalues(p)
        assert lams[2].imag != 0
        e1, e2, _ = swmhd_raw_matrices(p)
        assert eig_match((e1, e2), lams, 1e-8)
        d = simultaneous_diagonalize(preset_swmhd(p))
        assert sum(isinstance(m, TypeIIMode) for m in d.modes) == 1

    def test_symmetrized_pair_valid(self):
        p = SWMHDParams(u0=2.0, v0=2.0, b10=0.5, b20=0.3, phi0=1.0, g=1.0)
        pair = preset_swmhd(p)
        assert np.array_equal(pair.a1, pair.a1.T)
        assert pair.a1[0, 4] == pytest.approx(np.sqrt(1.0), abs=1e-14)

    def test_genericity_collision(self):
        with pytest.raises(GenericityViolated):
            SWMHDParams(u0=2.0, v0=0.0, b10=0.5, b20=0.3, phi0=1.0, g=1.0)


class TestEuler:
    def test_symmetrizer_makes_pair_symmetric(self):
        p = EulerParams(u0=2.0, v0=3.0, rho0=1.0, p0=0.4,
                        dp_drho=0.4, dp_de=0.4)
        e1, e2, s0 = euler_raw_matrices(p)
        for M in (s0 @ e1, s0 @ e2):
            assert np.abs(M - M.T).max() < 1e-14

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(NonPositiveSymmetrizer):
            EulerParams(u0=2.0, v0=3.0, rho0=1.0, p0=0.4,
                        dp_drho=0.4, dp_de=0.0)

    @pytest.mark.parametrize("field, message", [
        ("rho0", "rho0 must be positive"), ("p0", "p0 must be positive")])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_reference_state_rejected(self, field, message, value):
        params = dict(u0=2.0, v0=3.0, rho0=1.0, p0=0.4,
                      dp_drho=0.4, dp_de=0.4)
        params[field] = value
        with pytest.raises(NonPositiveSymmetrizer, match=f"^{message}$"):
            EulerParams(**params)

    def test_end_to_end_decomposition(self):
        p = EulerParams(u0=2.0, v0=3.0, rho0=1.0, p0=0.4,
                        dp_drho=0.4, dp_de=0.4)
        pair = preset_euler(p)
        d = simultaneous_diagonalize(pair)
        assert len(d.modes) >= 3
        assert d.residuals.reconstruction < 1e-9


class TestWave:
    def test_axis_aligned(self):
        pair = preset_wave(WaveParams(1.0, 0.0))
        assert np.array_equal(pair.a1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(pair.a2, np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_single_elliptic_mode(self):
        d = simultaneous_diagonalize(preset_wave(WaveParams(0.6, 0.8)))
        assert len(d.modes) == 1
        assert isinstance(d.modes[0], TypeIIMode)

    def test_determinant_condition_identity(self):
        for theta in (0.1, 0.9, 2.0, 4.5):
            p = WaveParams(np.cos(theta), np.sin(theta))
            pair = preset_wave(p)
            # alpha2*beta1 - alpha1*beta2 for the raw pair is alpha^2 + beta^2
            a1, b1 = pair.a1[0, 0], pair.a1[0, 1]
            a2, b2 = pair.a2[0, 0], pair.a2[0, 1]
            assert a2 * b1 - a1 * b2 == pytest.approx(1.0, abs=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationViolated):
            WaveParams(0.6, 0.9)


class TestSymmetrize:
    def test_identity_symmetrizer(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        pair = symmetrize(A, 2 * A)
        assert np.allclose(pair.a1, A)

    def test_swe_display_matches(self):
        p = SWEParams(u0=2.0, v0=3.0, phi0=2.25, g=1.0)
        e1, e2, b, s0 = swe_raw_matrices(p)
        pair = symmetrize(e1, e2, b=b, s0=s0)
        root = np.sqrt(p.g * p.phi0)
        expect1 = np.array([[p.u0, 0.0, root], [0.0, p.u0, 0.0],
                            [root, 0.0, p.u0]])
        expect2 = np.array([[p.v0, 0.0, 0.0], [0.0, p.v0, root],
                            [0.0, root, p.v0]])
        assert np.allclose(pair.a1, expect1, atol=1e-12)
        assert np.allclose(pair.a2, expect2, atol=1e-12)

    def test_spectrum_preserved(self):
        p = SWEParams(u0=2.0, v0=3.0, phi0=2.25, g=1.0)
        e1, e2, b, s0 = swe_raw_matrices(p)
        pair = symmetrize(e1, e2, b=b, s0=s0)
        raw = np.sort_complex(np.linalg.eigvals(np.linalg.solve(e1, e2)))
        sym = np.sort_complex(np.linalg.eigvals(np.linalg.solve(pair.a1, pair.a2)))
        assert np.abs(raw - sym).max() < 1e-10

    def test_not_symmetrizable_rejected(self):
        e1 = np.array([[1.0, 2.0], [0.0, 1.0]])
        e2 = np.eye(2)
        with pytest.raises(NotSymmetrizable):
            symmetrize(e1, e2, s0=np.eye(2))

    @pytest.mark.parametrize("name", ["e1", "e2", "b", "s0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_named(self, name, value):
        # checked before any arithmetic, which would warn on it first
        inputs = {"e1": np.eye(2), "e2": np.diag([1.0, 2.0]),
                  "b": np.zeros((2, 2)), "s0": np.eye(2)}
        inputs[name][0, 0] = value
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            symmetrize(**inputs)

    def test_nonsymmetric_s0_rejected(self):
        s0 = np.array([[2.0, 0.1], [0.0, 1.0]])
        with pytest.raises(NonPositiveSymmetrizer,
                           match="^s0 must be symmetric$"):
            symmetrize(np.eye(2), np.diag([1.0, 2.0]), s0=s0)

    @pytest.mark.parametrize("s0, smallest", [
        (np.diag([1.0, 0.0]), "0.000e+00"), (np.diag([1.0, -2.0]), "-2.000e+00")],
        ids=["zero", "negative"])
    def test_nonpositive_s0_rejected(self, s0, smallest):
        message = f"s0 has a non-positive eigenvalue ({smallest})"
        with pytest.raises(NonPositiveSymmetrizer) as info:
            symmetrize(np.eye(2), np.diag([1.0, 2.0]), s0=s0)
        assert str(info.value) == message


# reference states of the shallow water presets, near-degenerate in u0
NEAR_DEGENERATE = {
    SWEParams: ({"u0": 1.0000001, "v0": 3.0, "phi0": 1.0, "g": 1.0},
                "u0^2 = g*phi0, distance to degeneracy 2.000e-07"),
    SWMHDParams: ({"u0": 1.0, "v0": 2.0, "b10": 1.0000001, "b20": 0.5,
                   "phi0": 1.0, "g": 1.0},
                  "u0 = b10, distance to degeneracy 1.000e-07"),
}


@pytest.mark.parametrize("params", list(NEAR_DEGENERATE),
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("key", ["phi0", "g"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_layer_rejected(params, key, value):
    kwargs = {**NEAR_DEGENERATE[params][0], key: value}
    with pytest.raises(GenericityViolated,
                       match="^phi0 and g must be positive$"):
        params(**kwargs)


@pytest.mark.parametrize("params", list(NEAR_DEGENERATE),
                         ids=lambda cls: cls.__name__)
def test_near_degenerate_warning_names_the_caller(params):
    kwargs, what = NEAR_DEGENERATE[params]
    with pytest.warns(RuntimeWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        params(**kwargs)
    assert [str(w.message) for w in record] == [
        f"near-degenerate parameters: {what}"]
    assert (record[0].filename, record[0].lineno) == (__file__, line)
