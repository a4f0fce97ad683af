import numpy as np
import pytest
from conftest import (mode_signature, plant_pair, planted_signature,
                      random_mixed_spec, tracefree)

from hypermodes.congruence import (SymmetricPair, TypeIIMode, TypeIMode,
                                   pivot_leading_block, schur_eliminate,
                                   simultaneous_diagonalize,
                                   standardize_type2)
from hypermodes.errors import (NotDiagonalizable, NotTypeII, SingularInput,
                               SingularPivot)
from hypermodes.linalg import rotation_block


def reconstruction_residual(pair, decomp):
    B1, B2 = decomp.block_diagonals()
    p_inv = np.linalg.inv(decomp.p)
    r1 = np.linalg.norm(pair.a1 - p_inv.T @ B1 @ p_inv) / np.linalg.norm(pair.a1)
    r2 = np.linalg.norm(pair.a2 - p_inv.T @ B2 @ p_inv) / np.linalg.norm(pair.a2)
    return max(r1, r2)


class TestSimultaneousDiagonalize:
    def test_already_diagonal(self):
        pair = SymmetricPair(a1=np.eye(2), a2=np.diag([2.0, 3.0]))
        d = simultaneous_diagonalize(pair)
        sigs = sorted((m.c, m.d) for m in d.modes)
        assert sigs == [(pytest.approx(1.0), pytest.approx(2.0)),
                        (pytest.approx(1.0), pytest.approx(3.0))]
        assert np.allclose(np.abs(d.p), np.eye(2), atol=1e-12)

    def test_wave_pair_already_standard(self):
        alpha, beta = 0.6, 0.8
        t1 = np.array([[-beta, alpha], [alpha, beta]])
        t2 = np.array([[alpha, beta], [beta, -alpha]])
        d = simultaneous_diagonalize(SymmetricPair(a1=t1, a2=t2))
        assert len(d.modes) == 1
        m = d.modes[0]
        assert isinstance(m, TypeIIMode)
        assert m.alpha1 == pytest.approx(-beta, abs=1e-12)
        assert m.beta1 == pytest.approx(alpha, abs=1e-12)
        assert m.alpha2 == pytest.approx(alpha, abs=1e-12)
        assert m.beta2 == pytest.approx(beta, abs=1e-12)
        assert m.determinant_condition == pytest.approx(1.0, abs=1e-12)

    def test_plant_and_recover_mixed(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            spec = random_mixed_spec(rng)
            pair, planted = plant_pair(spec, rng)
            d = simultaneous_diagonalize(pair)
            assert reconstruction_residual(pair, d) < 1e-9
            got = sorted(mode_signature(m) for m in d.modes)
            want = sorted(planted_signature(s) for s in planted)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[0] == w[0]
                assert g[1] == pytest.approx(w[1], abs=1e-7)
                assert g[2] == pytest.approx(w[2], abs=1e-7)

    def test_complex_multiplicity_two(self):
        # one eigenvalue pair shared by two elliptic blocks exercises the
        # pivot + Schur recursion
        rng = np.random.default_rng(33)
        for _ in range(10):
            spec = [("I", 1.3, 2.0),
                    ("II", 0.7, 0.4, 1.0, 2.0),
                    ("II", -0.5, 1.1, 1.0, 2.0)]
            pair, _ = plant_pair(spec, rng)
            d = simultaneous_diagonalize(pair)
            assert reconstruction_residual(pair, d) < 1e-9
            t2 = [m for m in d.modes if isinstance(m, TypeIIMode)]
            assert len(t2) == 2
            for m in t2:
                assert m.mu1 == pytest.approx(1.0, abs=1e-8)
                assert m.mu2 == pytest.approx(2.0, abs=1e-8)
                assert m.determinant_condition == pytest.approx(1.0, abs=1e-10)

    def test_mode_census_matches_eigenvalues(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = random_mixed_spec(rng)
            pair, _ = plant_pair(spec, rng)
            d = simultaneous_diagonalize(pair)
            lams = np.linalg.eigvals(np.linalg.solve(pair.a1, pair.a2))
            n_real = int(np.sum(np.abs(lams.imag) < 1e-8))
            n_pairs = int(np.sum(lams.imag > 1e-8))
            assert sum(isinstance(m, TypeIMode) for m in d.modes) == n_real
            assert sum(isinstance(m, TypeIIMode) for m in d.modes) == n_pairs

    def test_idempotence(self):
        rng = np.random.default_rng(17)
        spec = [("I", 1.5, 3.0), ("I", -0.8, 0.4), ("II", 0.9, 0.3, -1.0, 2.0)]
        pair, _ = plant_pair(spec, rng)
        d = simultaneous_diagonalize(pair)
        B1, B2 = d.block_diagonals()
        d2 = simultaneous_diagonalize(SymmetricPair(a1=B1, a2=B2))
        assert len(d2.modes) == len(d.modes)
        for m1, m2 in zip(d.modes, d2.modes):
            assert type(m1) is type(m2)
            if isinstance(m1, TypeIMode):
                assert m2.c == pytest.approx(m1.c, abs=1e-10)
                assert m2.d == pytest.approx(m1.d, abs=1e-10)
            else:
                assert m2.alpha1 == pytest.approx(m1.alpha1, abs=1e-10)
                assert m2.beta1 == pytest.approx(m1.beta1, abs=1e-10)
                assert m2.alpha2 == pytest.approx(m1.alpha2, abs=1e-10)
                assert m2.beta2 == pytest.approx(m1.beta2, abs=1e-10)

    def test_positive_definite_a1_gives_all_type1(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            G = rng.standard_normal((5, 5))
            a1 = G @ G.T + 5.0 * np.eye(5)
            a2 = rng.standard_normal((5, 5))
            a2 = a2 + a2.T + 6.0 * np.eye(5)  # keep a2 nonsingular
            d = simultaneous_diagonalize(SymmetricPair(a1=a1, a2=a2))
            assert all(isinstance(m, TypeIMode) for m in d.modes)

    def test_determinant_condition_stored(self):
        rng = np.random.default_rng(2)
        pair, _ = plant_pair([("II", 0.8, 0.5, 0.5, 1.5)], rng)
        d = simultaneous_diagonalize(pair)
        assert abs(d.modes[0].determinant_condition - 1.0) < 1e-10

    def test_proportional_pair(self):
        # a2 = 0.7 a1: one real eigenvalue of multiplicity 2, full eigenspace
        a1 = np.array([[2.0, 0.3], [0.3, 1.0]])
        pair = SymmetricPair(a1=a1, a2=0.7 * a1)
        d = simultaneous_diagonalize(pair)
        assert all(isinstance(m, TypeIMode) for m in d.modes)
        assert [m.advection_ratio for m in d.modes] == \
            [pytest.approx(0.7, abs=1e-12)] * 2
        assert reconstruction_residual(pair, d) < 1e-9

    def test_jordan_pair_rejected(self):
        # a1^-1 a2 = [[1, 0], [1, 1]], a Jordan block
        pair = SymmetricPair(a1=np.array([[0.0, 1.0], [1.0, 0.0]]),
                             a2=np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotDiagonalizable, match="geometric multiplicity"):
            simultaneous_diagonalize(pair)

    def test_singular_input_rejected(self):
        with pytest.raises(SingularInput):
            SymmetricPair(a1=np.diag([1.0, 0.0]), a2=np.eye(2))

    def test_report_contains_modes_and_residuals(self):
        rng = np.random.default_rng(1)
        pair, _ = plant_pair([("I", 1.0, 2.0), ("II", 0.5, 0.5, 0.0, 1.0)], rng)
        d = simultaneous_diagonalize(pair)
        text = d.report()
        assert "StandardTypeII" in text
        assert "TypeI" in text
        assert "reconstruction" in text


class TestStandardizeType2:
    def test_already_standard(self):
        C = tracefree(0.0, 1.0)
        D = tracefree(1.0, 0.0)
        V, mode = standardize_type2(C, D)
        assert np.allclose(V, np.eye(2))
        assert mode.determinant_condition == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pair(self):
        C = tracefree(0.0, 2.0)
        D = tracefree(2.0, 0.0)
        V, mode = standardize_type2(C, D)
        assert V[0, 0] == pytest.approx(4.0 ** -0.25, abs=1e-12)
        assert np.allclose(mode.first(), tracefree(0.0, 1.0), atol=1e-12)
        assert np.allclose(mode.second(), tracefree(1.0, 0.0), atol=1e-12)
        assert mode.determinant_condition == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a1, b1 = rng.uniform(-1, 1, 2)
            mu2 = rng.uniform(0.2, 2.0)
            mu1 = rng.uniform(-1, 1)
            if a1 * a1 + b1 * b1 < 0.1:
                continue
            C = tracefree(a1, b1)
            D = C @ rotation_block(mu1, mu2)
            _, mode = standardize_type2(C, D)
            s = rng.uniform(0.5, 4.0)
            _, mode_scaled = standardize_type2(s * C, s * D)
            assert mode_scaled.alpha1 == pytest.approx(mode.alpha1, abs=1e-12)
            assert mode_scaled.beta1 == pytest.approx(mode.beta1, abs=1e-12)
            assert mode_scaled.alpha2 == pytest.approx(mode.alpha2, abs=1e-12)
            assert mode_scaled.beta2 == pytest.approx(mode.beta2, abs=1e-12)

    def test_wrong_orientation_rejected(self):
        C = tracefree(0.0, 1.0)
        D = tracefree(-1.0, 0.0)
        with pytest.raises(NotTypeII):
            standardize_type2(C, D)


def assemble_blocks(blocks):
    k = len(blocks)
    A = np.zeros((2 * k, 2 * k))
    for i in range(k):
        for j in range(k):
            A[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blocks[i][j]
    return A


class TestPivotLeadingBlock:
    def test_identity_when_nonsingular(self):
        A = assemble_blocks([[tracefree(1.0, 0.0), tracefree(0.2, 0.1)],
                             [tracefree(0.2, 0.1), tracefree(0.0, 1.0)]])
        W, out = pivot_leading_block(A)
        assert np.array_equal(W, np.eye(4))
        assert np.array_equal(out, A)

    def test_diagonal_swap(self):
        Z = np.zeros((2, 2))
        C22 = tracefree(0.0, 2.0)
        C12 = tracefree(1.0, 0.5)
        A = assemble_blocks([[Z, C12], [C12, C22]])
        W, out = pivot_leading_block(A)
        assert np.allclose(out[0:2, 0:2], C22)
        assert np.allclose(W @ W.T, np.eye(4))

    def test_all_diagonal_zero_combination(self):
        Z = np.zeros((2, 2))
        C12 = tracefree(0.7, -0.3)
        A = assemble_blocks([[Z, C12], [C12, Z]])
        W, out = pivot_leading_block(A)
        assert np.allclose(out[0:2, 0:2], 2.0 * C12)

    def test_three_blocks_far_offdiagonal(self):
        Z = np.zeros((2, 2))
        C13 = tracefree(0.9, 0.2)
        # middle diagonal block non-singular: the swap path must trigger
        blocks = [[Z, Z, C13], [Z, tracefree(0.5, 0.0), Z], [C13, Z, Z]]
        A = assemble_blocks(blocks)
        W, out = pivot_leading_block(A)
        assert abs(np.linalg.det(out[0:2, 0:2])) > 1e-8


class TestSchurEliminate:
    def test_single_block_trivial(self):
        V, trailing = schur_eliminate(tracefree(0.3, 1.0))
        assert np.array_equal(V, np.eye(2))
        assert trailing.shape == (0, 0)

    def test_decoupled_blocks_identity(self):
        A = assemble_blocks([[tracefree(1.0, 0.0), np.zeros((2, 2))],
                             [np.zeros((2, 2)), tracefree(0.0, 3.0)]])
        V, trailing = schur_eliminate(A)
        assert np.array_equal(V, np.eye(4))
        assert np.allclose(trailing, tracefree(0.0, 3.0))

    def test_explicit_product_oracle(self):
        C11 = tracefree(0.0, 1.0)
        C12 = tracefree(1.0, 0.0)
        C22 = tracefree(0.0, 3.0)
        A = assemble_blocks([[C11, C12], [C12, C22]])
        V, trailing = schur_eliminate(A)
        # oracle: explicit 4x4 congruence product
        explicit = V.T @ A @ V
        assert np.allclose(explicit[0:2, 2:4], 0.0, atol=1e-14)
        expected = C22 - C12 @ np.linalg.inv(C11) @ C12
        assert np.allclose(trailing, expected, atol=1e-14)
        assert np.allclose(trailing, tracefree(0.0, 4.0), atol=1e-14)
        # trace-free form preserved
        assert trailing[0, 0] == pytest.approx(-trailing[1, 1], abs=1e-14)

    def test_singular_pivot_rejected(self):
        A = assemble_blocks([[np.zeros((2, 2)), tracefree(1.0, 0.0)],
                             [tracefree(1.0, 0.0), np.zeros((2, 2))]])
        with pytest.raises(SingularPivot):
            schur_eliminate(A)
