import numpy as np
import pytest
from conftest import plant_pair, random_congruence, random_mixed_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import congruence_transform, swe_eigenvalues

from hypermodes import linalg
from hypermodes.errors import (DimensionMismatch, IllConditionedBasis,
                               NotDiagonalizable)
from hypermodes.linalg import (EigenBlock, block_diag, format_matrix,
                               is_diagonalizable, parse_matrix,
                               real_block_eigen, rotation_block)


def block_matrix(form):
    """The block diagonal form.basis exposes: lambda*I_k for a real block,
    k rotation-scaling blocks for a complex one."""
    return block_diag([rotation_block(b.re, b.im) if b.is_complex
                       else np.array([[b.re]])
                       for b in form.blocks for _ in range(b.multiplicity)])


class TestRealBlockEigen:
    def test_already_diagonal(self):
        form = real_block_eigen(np.diag([2.0, 3.0]))
        assert [(b.re, b.im, b.multiplicity) for b in form.blocks] == \
            [(2.0, 0.0, 1), (3.0, 0.0, 1)]
        assert np.allclose(np.abs(form.basis), np.eye(2))

    def test_canonical_rotation(self):
        form = real_block_eigen(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert len(form.blocks) == 1
        b = form.blocks[0]
        assert b.is_complex and b.multiplicity == 1
        assert b.re == pytest.approx(0.0, abs=1e-14)
        assert b.im == pytest.approx(1.0, abs=1e-14)

    def test_construct_then_recover(self):
        # oracle: the construction itself
        rng = np.random.default_rng(11)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            p0 = q @ np.diag(rng.uniform(1.0, 3.0, 3))
            J = np.zeros((3, 3))
            J[0, 0] = 1.0
            J[1:, 1:] = rotation_block(2.0, 3.0)
            M = p0 @ J @ np.linalg.inv(p0)
            form = real_block_eigen(M)
            kinds = sorted((b.re, b.im, b.multiplicity) for b in form.blocks)
            assert kinds == [(pytest.approx(1.0), pytest.approx(0.0), 1),
                             (pytest.approx(2.0), pytest.approx(3.0), 1)]
            res = np.linalg.norm(M @ form.basis - form.basis @ block_matrix(form))
            assert res < 1e-9 * np.linalg.norm(M)

    def test_reconstruction_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            M = rng.standard_normal((6, 6))
            form = real_block_eigen(M)
            res = np.linalg.norm(M @ form.basis - form.basis @ block_matrix(form))
            assert res / np.linalg.norm(M) < 1e-9

    def test_complex_blocks_positive_imag(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            M = rng.standard_normal((5, 5))
            form = real_block_eigen(M)
            for b in form.blocks:
                if b.is_complex:
                    assert b.im > 0

    def test_deterministic_ordering(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        f1 = real_block_eigen(M)
        f2 = real_block_eigen(M.copy())
        assert f1.blocks == f2.blocks
        assert np.array_equal(f1.basis, f2.basis)
        keys = [(b.is_complex, b.re, b.im) for b in f1.blocks]
        assert keys == sorted(keys)

    def test_multiplicity_cluster(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        M = q @ np.diag([2.0, 2.0, -1.0, 5.0]) @ q.T
        form = real_block_eigen(M)
        mults = {(round(b.re, 6)): b.multiplicity for b in form.blocks}
        assert mults[2.0] == 2

    def test_defective_raises(self):
        with pytest.raises(NotDiagonalizable):
            real_block_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_defective_cluster_named(self):
        # J2(2) beside -1: the 2-cluster has a one-dimensional eigenspace
        M = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NotDiagonalizable, match="geometric multiplicity"):
            real_block_eigen(M)

    def test_defective_complex_cluster_named(self):
        R = rotation_block(1.0, 2.0)
        M = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        with pytest.raises(NotDiagonalizable, match="geometric multiplicity"):
            real_block_eigen(M)

    def test_ill_conditioned_basis_raises(self):
        V = np.array([[1.0, 1.0], [0.0, 1e-10]])
        M = V @ np.diag([1.0, 2.0]) @ np.linalg.inv(V)
        with pytest.raises(IllConditionedBasis):
            real_block_eigen(M, cluster_tol=0.1, condition_cap=1e8)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            real_block_eigen(np.ones((2, 3)))


class TestBlockLayout:
    def test_block_diag_matches_scipy(self):
        import scipy.linalg
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((k, k)) for k in (1, 2, 2, 1, 1, 2)]
        assert np.array_equal(linalg.block_diag(blocks),
                              scipy.linalg.block_diag(*blocks))
        slices = linalg.block_slices([len(b) for b in blocks])
        assert [(sl.start, sl.stop) for sl in slices] == \
            [(0, 1), (1, 3), (3, 5), (5, 6), (6, 7), (7, 9)]
        J = scipy.linalg.block_diag(*blocks)
        for b, sl in zip(blocks, slices):
            assert np.array_equal(J[sl, sl], b)


class TestIsDiagonalizable:
    def test_identity(self):
        ok, _ = is_diagonalizable(np.eye(3))
        assert ok

    def test_jordan_block(self):
        ok, diag = is_diagonalizable(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not ok
        assert "0" in diag

    def test_swe_product(self):
        # three distinct eigenvalues, checked against the closed forms
        from hypermodes.apps import SWEParams, preset_swe

        p = SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0)
        pair = preset_swe(p)
        M = np.linalg.solve(pair.a1, pair.a2)
        ok, _ = is_diagonalizable(M)
        assert ok
        lams = np.sort(np.linalg.eigvals(M).real)
        expect = np.sort(swe_eigenvalues(p).real)
        assert np.allclose(lams, expect, atol=1e-12)

    def test_scalar_multiple_of_identity(self):
        # the shift is pure roundoff here; rank is judged against ||M||
        M = np.linalg.solve(np.array([[2.0, 0.3], [0.3, 1.0]]),
                            0.7 * np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert is_diagonalizable(M)[0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), jordan=st.booleans(),
           log_eps=st.integers(-17, -2))
    def test_flag_matches_cluster_check(self, seed, jordan, log_eps):
        """False exactly when real_block_eigen fails its cluster check,
        with the same diagnostic."""
        rng = np.random.default_rng(seed)
        if jordan:
            n = int(rng.integers(2, 5))
            J = rng.uniform(-2.0, 2.0) * np.eye(n) + np.eye(n, k=1)
            G = random_congruence(n, rng)
            E = rng.standard_normal((n, n))
            M = G @ (J + 10.0 ** log_eps * E) @ np.linalg.inv(G)
        else:
            pair, _ = plant_pair(random_mixed_spec(rng), rng)
            M = np.linalg.solve(pair.a1, pair.a2)
        ok, diagnostic = is_diagonalizable(M)
        try:
            real_block_eigen(M)
            raised = None
        except NotDiagonalizable as exc:
            raised = str(exc)
        except IllConditionedBasis:
            raised = None
        if ok:
            assert raised is None or "defective" not in raised
        else:
            assert raised == diagnostic


class TestCongruenceTransform:
    def test_identity_congruence(self):
        A = np.array([[2.0, 1.0], [1.0, 5.0]])
        assert np.array_equal(congruence_transform(A, np.eye(2)), A)

    def test_diagonal_scaling(self):
        out = congruence_transform(np.eye(2), np.diag([2.0, 3.0]))
        assert np.array_equal(out, np.diag([4.0, 9.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            A = A + A.T
            P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
            back = congruence_transform(congruence_transform(A, P),
                                        np.linalg.inv(P))
            assert np.linalg.norm(back - A) < 1e-10 * np.linalg.norm(A)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        P = rng.standard_normal((5, 5))
        out = congruence_transform(A, P)
        assert np.array_equal(out, out.T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            congruence_transform(np.eye(3), np.eye(4))


class TestCheckSymmetric:
    @pytest.mark.parametrize("seed", range(3))
    def test_stack_matches_per_matrix_norms(self, seed):
        # the batched check against one np.linalg.norm pair per matrix:
        # the same verdict and message, with each matrix's asymmetry drawn
        # on both sides of SYMMETRY_RTOL
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k, n = rng.integers(1, 4), rng.integers(1, 6)
            S = rng.standard_normal((k, n, n))
            S = S + S.swapaxes(1, 2) + 10.0 ** rng.uniform(
                -14.0, -10.0, (k, 1, 1)) * rng.standard_normal((k, n, n))
            names = [f"m{i}" for i in range(k)]
            expected = None
            for name, M in zip(names, S):
                err = np.linalg.norm(M - M.T) / max(np.linalg.norm(M), 1e-300)
                if expected is None and err > linalg.SYMMETRY_RTOL:
                    expected = (f"{name} is not symmetric "
                                f"(relative asymmetry {err:.3e})")
            if expected is None:
                linalg.check_symmetric(S, *names)
            else:
                with pytest.raises(ValueError) as info:
                    linalg.check_symmetric(S, *names)
                assert str(info.value) == expected

    def test_zero_matrix_is_symmetric(self):
        linalg.check_symmetric(np.zeros((3, 3)), "Z")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_named(self, value):
        # NaN > tol is False, so the asymmetry alone would pass a NaN
        S = np.stack([np.eye(2), np.full((2, 2), value)])
        with pytest.raises(ValueError, match="^m1 has a non-finite entry$"):
            linalg.check_symmetric(S, "m0", "m1")


class TestMatrixText:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((3, 4)) * np.pi
        again = parse_matrix(format_matrix(M))
        assert np.array_equal(M, again)

    def test_header(self):
        text = format_matrix(np.eye(2))
        assert text.splitlines()[0] == "2 2"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2\nnan 3\n")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 2\n")


class TestEigenBlock:
    def test_negative_imag_rejected(self):
        with pytest.raises(ValueError):
            EigenBlock(1.0, -2.0, 1)

    def test_complex_size(self):
        assert EigenBlock(1.0, 2.0, 3).size == 6
        assert EigenBlock(1.0, 0.0, 3).size == 3
