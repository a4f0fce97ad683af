import re

import numpy as np
import pytest
from conftest import plant_pair, random_congruence, random_mixed_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import DimensionMismatch, congruence_transform, swe_eigenvalues

from hypermodes import linalg
from hypermodes.errors import IllConditionedBasis, NotDiagonalizable
from hypermodes.linalg import (block_diag, format_matrix, parse_matrix,
                               real_block_eigen_stack, rotation_block)


def node_forms(M):
    """Each node's real block form from one real_block_eigen_stack call on
    the stack M (k, n, n): (basis, [(re, im, multiplicity)] in block
    order), with im == 0 for a real block."""
    out = {}
    for f in real_block_eigen_stack(np.asarray(M, dtype=float)):
        assert f.basis.shape == (len(f.nodes),) + np.shape(M)[1:]
        for g, node in enumerate(f.nodes.tolist()):
            assert node not in out
            out[node] = (f.basis[g], [(float(re), float(im), m) for re, im, (_, m)
                                      in zip(f.re[g], f.im[g], f.pattern)])
    assert sorted(out) == list(range(len(M)))
    return [out[k] for k in range(len(M))]


def block_matrix(blocks):
    """The block diagonal a basis exposes: lambda*I_k for a real block,
    k rotation-scaling blocks for a complex one."""
    return block_diag([rotation_block(re, im) if im > 0 else np.array([[re]])
                       for re, im, mult in blocks for _ in range(mult)])


def planted(rng, J):
    """A random real similarity of J."""
    q, _ = np.linalg.qr(rng.standard_normal(J.shape))
    p0 = q @ np.diag(rng.uniform(1.0, 3.0, len(J)))
    return p0 @ J @ np.linalg.inv(p0)


def outcome(M):
    """(error type and message, or None; each node's form) of one stack."""
    try:
        return None, node_forms(M)
    except (NotDiagonalizable, IllConditionedBasis) as exc:
        return (type(exc), str(exc)), None


class TestRealBlockEigen:
    def test_already_diagonal(self):
        ((basis, blocks),) = node_forms(np.diag([2.0, 3.0])[None])
        assert blocks == [(2.0, 0.0, 1), (3.0, 0.0, 1)]
        assert np.allclose(np.abs(basis), np.eye(2))

    def test_canonical_rotation(self):
        ((_, blocks),) = node_forms(np.array([[[0.0, -1.0], [1.0, 0.0]]]))
        ((re, im, mult),) = blocks
        assert mult == 1
        assert re == pytest.approx(0.0, abs=1e-14)
        assert im == pytest.approx(1.0, abs=1e-14)

    def test_construct_then_recover(self):
        # oracle: the construction itself, on one stack that alternates two
        # cluster patterns: (1 | 2 +/- 3i) and three distinct reals
        rng = np.random.default_rng(11)
        J_mixed = block_diag([np.array([[1.0]]), rotation_block(2.0, 3.0)])
        J_real = np.diag([-1.0, 0.5, 4.0])
        M = np.array([planted(rng, J_mixed if k % 2 else J_real)
                      for k in range(25)])
        forms = real_block_eigen_stack(M)
        assert sorted(f.pattern for f in forms) == [
            ((False, 1), (False, 1), (False, 1)), ((False, 1), (True, 1))]
        for k, (basis, blocks) in enumerate(node_forms(M)):
            expect = ([(1.0, 0.0, 1), (2.0, 3.0, 1)] if k % 2
                      else [(-1.0, 0.0, 1), (0.5, 0.0, 1), (4.0, 0.0, 1)])
            assert blocks == [(pytest.approx(re), pytest.approx(im), m)
                              for re, im, m in expect]
            res = np.linalg.norm(M[k] @ basis - basis @ block_matrix(blocks))
            assert res < 1e-9 * np.linalg.norm(M[k])

    def test_reconstruction_residual_bound(self):
        # random real matrices hold 0 to 3 complex pairs: a stack of many
        # cluster patterns
        rng = np.random.default_rng(5)
        M = rng.standard_normal((20, 6, 6))
        assert len(real_block_eigen_stack(M)) > 1
        for Mk, (basis, blocks) in zip(M, node_forms(M)):
            res = np.linalg.norm(Mk @ basis - basis @ block_matrix(blocks))
            assert res / np.linalg.norm(Mk) < 1e-9

    def test_complex_blocks_positive_imag(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((30, 5, 5))
        for f in real_block_eigen_stack(M):
            for j, (cplx, _) in enumerate(f.pattern):
                assert (f.im[:, j] > 0).all() if cplx else (f.im[:, j] == 0).all()

    def test_deterministic_ordering(self):
        # a node's form depends on its matrix alone: the same bits alone, in
        # a copy, and among nodes of other patterns
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6, 6))
        alone = [node_forms(Mk[None])[0] for Mk in M]
        for forms in (node_forms(M), node_forms(M[::-1].copy())[::-1]):
            for (b1, k1), (b2, k2) in zip(alone, forms):
                assert k1 == k2
                assert np.array_equal(b1, b2)
        for _, blocks in alone:
            keys = [(im > 0, re, im) for re, im, _ in blocks]
            assert keys == sorted(keys)

    def test_multiplicity_cluster(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        M = np.array([q @ np.diag([2.0, 2.0, -1.0, 5.0]) @ q.T,
                      q @ np.diag([2.0, 3.0, -1.0, 5.0]) @ q.T])
        (_, double), (_, single) = node_forms(M)
        assert {round(re, 6): m for re, _, m in double} == \
            {2.0: 2, -1.0: 1, 5.0: 1}
        assert [m for _, _, m in single] == [1, 1, 1, 1]

    def test_defective_raises(self):
        with pytest.raises(NotDiagonalizable):
            real_block_eigen_stack(np.array([[[0.0, 1.0], [0.0, 0.0]]]))

    def test_defective_cluster_named(self):
        # J2(2) beside -1: the 2-cluster has a one-dimensional eigenspace;
        # the diagonalizable node before it does not hide it
        M = np.array([np.diag([2.0, 3.0, -1.0]),
                      [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]]])
        with pytest.raises(NotDiagonalizable,
                           match="eigenvalue 2 is defective: geometric "
                                 "multiplicity 1 < algebraic 2"):
            real_block_eigen_stack(M)

    def test_defective_complex_cluster_named(self):
        R = rotation_block(1.0, 2.0)
        M = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        with pytest.raises(NotDiagonalizable, match=r"eigenvalue 1\+2i is "
                           "defective: geometric multiplicity 1"):
            real_block_eigen_stack(np.array([block_diag([R, R]), M]))

    def test_ill_conditioned_basis_raises(self):
        # eigenvectors theta apart: theta = 1.5e-8 gives a condition number
        # of 1.333e8, over the cap; 3e-8 passes, and at 1e-8 the two
        # eigenvalues merge into one defective cluster, so theta is pinned
        theta = 1.5e-8
        V = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
        M = V @ np.diag([1.0, 2.0]) @ np.linalg.inv(V)
        with pytest.raises(IllConditionedBasis, match=r"condition number "
                           r"1\.333e\+08 exceeds cap 1\.0e\+08"):
            real_block_eigen_stack(M[None])


class TestEigenKeys:
    def test_classify_and_sort(self):
        # row 0: |im| at its tolerance is real, just above it complex; row
        # 1, with a tolerance 100 times smaller, keeps the same pair complex
        tol = np.array([1e-8, 1e-10])
        above = np.nextafter(1e-8, 1.0)
        ev = np.array([2.0 + 1j, 3.0 + 1e-8j, 2.0 - 1j, 3.0 - 1e-8j,
                       -1.0 + above * 1j, -1.0 - above * 1j])
        keys, kind = linalg.eigen_keys(np.array([ev, ev]), tol)
        assert kind.tolist() == [[0, 0, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2]]
        assert keys[0, :4].tolist() == [3.0, 3.0, -1.0 + above * 1j, 2.0 + 1j]
        assert keys[1, :3].tolist() == [-1.0 + above * 1j, 2.0 + 1j,
                                        3.0 + 1e-8j]
        assert (keys[:, -2:].imag < 0).all()

    def test_merged_means_resorted(self):
        # 1.5+0.5i joins the first cluster, whose mean then passes 1+3i
        lam, mults = linalg._cluster_eigenvalues([1 + 1j, 1 + 3j, 1.5 + 0.5j],
                                                 1.5)
        assert lam.tolist() == [1 + 3j, 1.25 + 0.75j]
        assert mults == [1, 2]


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
        ((basis, blocks),) = node_forms(np.eye(3)[None])
        assert blocks == [(1.0, 0.0, 3)]

    def test_jordan_block(self):
        with pytest.raises(NotDiagonalizable,
                           match="eigenvalue 0 is defective"):
            real_block_eigen_stack(np.array([np.eye(2),
                                             [[0.0, 1.0], [0.0, 0.0]]]))

    def test_swe_product(self):
        # three distinct eigenvalues, checked against the closed forms
        from hypermodes.apps import SWEParams, preset_swe

        p = SWEParams(u0=2.0, v0=3.0, phi0=1.0, g=1.0)
        pair = preset_swe(p)
        M = np.linalg.solve(pair.a1, pair.a2)
        ((_, blocks),) = node_forms(M[None])
        assert [m for _, im, m in blocks if im == 0] == [1, 1, 1]
        lams = np.array([re for re, _, _ in blocks])
        expect = np.sort(swe_eigenvalues(p).real)
        assert np.allclose(lams, expect, atol=1e-12)

    def test_scalar_multiple_of_identity(self):
        # the shift is pure roundoff here; rank is judged against ||M||
        M = np.linalg.solve(np.array([[2.0, 0.3], [0.3, 1.0]]),
                            0.7 * np.array([[2.0, 0.3], [0.3, 1.0]]))
        ((_, blocks),) = node_forms(M[None])
        assert [m for _, _, m in blocks] == [2]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), jordan=st.booleans(),
           log_eps=st.integers(-17, -2))
    def test_flag_matches_cluster_check(self, seed, jordan, log_eps):
        """A node's verdict is its own: behind nodes of other cluster
        patterns, a stack raises exactly what the node's stack of one
        raises, and otherwise gives the node the same form, bit for bit."""
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
        n = len(M)
        # the large node would merge the clusters of M if a tolerance were
        # shared over the stack
        others = [1e6 * np.diag(np.arange(1.0, n + 1.0)), -2.0 * np.eye(n)]
        if n % 2 == 0:
            others.append(block_diag([rotation_block(0.5, k + 1.0)
                                      for k in range(n // 2)]))
        error, alone = outcome(M[None])
        mixed_error, mixed = outcome(np.array(others + [M]))
        assert mixed_error == error
        if error is None:
            (b1, k1), (b2, k2) = alone[0], mixed[-1]
            assert k1 == k2
            assert np.array_equal(b1, b2)


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix text"),
        ("x y\n1 2\n", "bad matrix header 'x y'"),
        ("1 2\n1 2 3\n", "expected shape (1, 2), got (1, 3)"),
    ], ids=["empty", "header", "row_length"])
    def test_rejection_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_matrix(text)
