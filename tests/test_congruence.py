import dataclasses
import re

import numpy as np
import pytest
from conftest import (mode_signature, plant_pair, planted_signature,
                      random_mixed_spec, tracefree)
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import standardize_type2

from hypermodes import congruence, linalg
from hypermodes.congruence import (SINGULARITY_RTOL, SYMMETRY_RTOL,
                                   SymmetricPair, TypeIIMode, TypeIMode,
                                   _split_elliptic_cluster,
                                   diagonalize_stack, pair_errors,
                                   simultaneous_diagonalize)
from hypermodes.errors import (NotDiagonalizable, NotTypeII,
                               OffDiagonalResidual, SingularInput)
from hypermodes.linalg import (_cluster_eigenvalues, block_diag, eigen_keys,
                               real_block_eigen_stack, rotation_block)


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
        # eigh split of a repeated complex cluster
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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([2, 3]),
           variant=st.sampled_from(["random", "rotation", "scale"]))
    def test_repeated_elliptic_cluster(self, seed, k, variant):
        # k elliptic blocks sharing one eigenvalue pair; "rotation" and
        # "scale" copies differ from the first block only by a rotation of
        # (alpha1, beta1) or by a positive factor
        rng = np.random.default_rng(seed)
        mu1, mu2 = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.5)

        def draw():
            return rng.uniform(0.4, 1.5, 2) * [rng.choice([-1.0, 1.0]), 1.0]

        base = draw()
        spec = [("I", 1.3, 2.0), ("II", *base, mu1, mu2)]
        for _ in range(k - 1):
            if variant == "rotation":
                th = rng.uniform(0.0, 2.0 * np.pi)
                a1, b1 = rotation_block(np.cos(th), np.sin(th)) @ base
            elif variant == "scale":
                a1, b1 = rng.uniform(0.3, 3.0) * base
            else:
                a1, b1 = draw()
            spec.append(("II", a1, b1, mu1, mu2))
        pair, _ = plant_pair(spec, rng)
        d = simultaneous_diagonalize(pair)
        assert reconstruction_residual(pair, d) < 1e-9
        t2 = [m for m in d.modes if isinstance(m, TypeIIMode)]
        assert len(t2) == k
        for m in t2:
            assert m.mu1 == pytest.approx(mu1, abs=1e-8)
            assert m.mu2 == pytest.approx(mu2, abs=1e-8)
            assert m.determinant_condition == pytest.approx(1.0, abs=1e-10)

        (form,) = real_block_eigen_stack(
            np.linalg.solve(pair.a1, pair.a2)[None])
        (sl,) = [sl for (cplx, _), sl in zip(form.pattern, form.block_slices())
                 if cplx]
        B1 = form.basis[0].T @ pair.a1 @ form.basis[0]
        V, _ = _split_elliptic_cluster(0.5 * (B1 + B1.T)[sl, sl])
        J = np.kron(np.eye(k), rotation_block(0.0, 1.0))
        assert np.allclose(V.T @ V, np.eye(2 * k), atol=1e-12)
        assert np.allclose(J @ V, V @ J, atol=1e-12)

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

    def test_mixed_cluster_basis_rejected(self, monkeypatch):
        # a basis column that mixes the eigenvectors of two clusters leaves
        # an off-block entry in P^t a1 P: here the (0, 1) entry, 1 exactly
        pair = SymmetricPair(a1=np.diag([1.0, 2.0, 3.0]),
                             a2=np.diag([1.0, -2.0, 5.0]))
        block_form = linalg.real_block_eigen_stack

        def mixed(M, *args, **kwargs):
            forms = block_form(M, *args, **kwargs)
            for f in forms:
                f.basis[:, :, 0] += f.basis[:, :, 1]
            return forms

        monkeypatch.setattr(linalg, "real_block_eigen_stack", mixed)
        with pytest.raises(OffDiagonalResidual) as info:
            simultaneous_diagonalize(pair)
        tol = congruence.DECOMPOSITION_RTOL * np.sqrt(14.0)
        assert str(info.value) == (
            f"off-diagonal block residual 1.000e+00 exceeds {tol:.3e}; "
            "eigenvalue clustering likely failed")

    def test_mode_blocks_checked_against_a2(self):
        # the block form of a1^-1 a2 with 2 a2 in place of a2: P^t a1 P is
        # block diagonal, but P^t (2 a2) P is twice the mode blocks of a2
        pair = SymmetricPair(a1=np.diag([1.0, 2.0, 3.0]),
                             a2=np.diag([1.0, -2.0, 5.0]))
        (form,) = linalg.real_block_eigen_stack(
            np.linalg.solve(pair.a1, pair.a2)[None])
        with pytest.raises(OffDiagonalResidual) as info:
            congruence._decompose_group(pair.a1[None], 2.0 * pair.a2[None],
                                        form)
        assert str(info.value) == ("transformed pair deviates from mode "
                                   "blocks by 5.000e-01 (tolerance 1.0e-09)")

    def test_omitted_b_is_the_zero_matrix(self):
        b = SymmetricPair(a1=np.eye(3), a2=np.diag([1.0, -2.0, 3.0])).b
        assert isinstance(b, np.ndarray) and b.dtype == float
        assert b.shape == (3, 3) and np.all(b == 0.0)

    def test_singular_input_rejected(self):
        with pytest.raises(SingularInput):
            SymmetricPair(a1=np.diag([1.0, 0.0]), a2=np.eye(2))

    @pytest.mark.parametrize("eps1,eps2,named", [
        (1e-6, 1e-6, "a1"), (0.0, 1e-6, "a2"), (1e-6, 0.0, "a1"),
        (5e-13, 5e-13, None)])
    def test_asymmetry_names_first_offender(self, eps1, eps2, named):
        # relative Frobenius asymmetry of [[1, eps], [0, 1]] is eps to 3
        # digits; a1 is checked before a2
        def skewed(eps):
            return np.array([[1.0, eps], [0.0, 1.0]])

        if named is None:
            SymmetricPair(a1=skewed(eps1), a2=2.0 * skewed(eps2))
            return
        with pytest.raises(ValueError, match=rf"^{named} is not symmetric "
                           r"\(relative asymmetry 1\.000e-06\)$"):
            SymmetricPair(a1=skewed(eps1), a2=2.0 * skewed(eps2))

    @pytest.mark.parametrize("smin,singular", [(3e-8, False), (3e-12, True)])
    def test_singularity_reads_singular_values(self, smin, singular):
        # indefinite a2 whose largest |eigenvalue| is negative: the
        # threshold applies to |eigenvalues|, the singular values
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        a2 = q @ np.diag([-3.0, 1.0, -2.0, smin]) @ q.T
        a2 = 0.5 * (a2 + a2.T)
        if singular:
            with pytest.raises(SingularInput,
                               match=r"a2 .*smin/smax = 1\.00\de-12"):
                SymmetricPair(a1=np.eye(4), a2=a2)
        else:
            SymmetricPair(a1=np.eye(4), a2=a2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["a1", "a2", "b"])
    def test_non_finite_entry_named(self, field, value):
        # a symmetric entry pair, so no asymmetry check can catch it
        fields = {"a1": np.eye(2), "a2": np.diag([2.0, 3.0]),
                  "b": np.zeros((2, 2))}
        fields[field][0, 1] = fields[field][1, 0] = value
        with pytest.raises(ValueError, match=rf"^{field} has a non-finite entry$"):
            SymmetricPair(**fields)

    def test_huge_finite_entries_accepted(self):
        # their squared norm overflows; the entries themselves are finite
        SymmetricPair(a1=1e200 * np.eye(2), a2=1e200 * np.diag([2.0, 3.0]),
                      b=1e200 * np.ones((2, 2)))

    def test_huge_asymmetric_entries_rejected(self):
        # both squared norms overflow; scaled, the asymmetry reads 0.471
        with pytest.raises(ValueError, match=r"^a1 is not symmetric "
                                             r"\(relative asymmetry 4\.714e-01\)$"):
            SymmetricPair(a1=np.array([[1e200, 5e199], [0.0, 1e200]]),
                          a2=1e200 * np.diag([1.0, 2.0]))
        SymmetricPair(a1=np.array([[1e200, 5e199], [5e199, 1e200]]),
                      a2=1e200 * np.diag([1.0, 2.0]))

    def test_tiny_asymmetric_entries_rejected(self):
        # both squared norms underflow to 0; scaled, the asymmetry reads
        # 0.471, and the zero matrix is still symmetric and singular
        with pytest.raises(ValueError, match=r"^a1 is not symmetric "
                                             r"\(relative asymmetry 4\.714e-01\)$"):
            SymmetricPair(a1=np.array([[1e-170, 5e-171], [0.0, 1e-170]]),
                          a2=1e-170 * np.diag([1.0, 2.0]))
        with pytest.raises(SingularInput, match=r"^a1 is numerically singular"):
            SymmetricPair(a1=np.zeros((2, 2)), a2=np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_residuals_measured_at_any_scale(self, scale):
        # the squares of the residuals' entries underflow (overflow): the
        # residuals are measured scaled, not read as 0 (NaN) or compared
        # with a tolerance of ~1e-309
        d = simultaneous_diagonalize(SymmetricPair(
            a1=scale * np.array([[1.0, 0.5], [0.5, 1.0]]),
            a2=scale * np.diag([1.0, 2.0])))
        residuals = dataclasses.astuple(d.residuals)
        assert all(0.0 < r < 1e-14 for r in residuals), residuals

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



# --- the per-pair loop the batched pipeline replaced ----------------------------


def _loop_real_block_form(M):
    """Per cluster, column by column: (basis, [(re, im, multiplicity)])."""
    n = M.shape[0]
    tol = 1e-8 * max(np.linalg.norm(M, 2), 1e-300)
    cols, blocks = [], []
    keys, kind = eigen_keys(np.linalg.eigvals(M), tol)
    for lam, mult in zip(*_cluster_eigenvalues(keys[kind < 2].tolist(), tol)):
        re, im = lam.real, lam.imag
        shifted = (M.astype(complex) - complex(re, im) * np.eye(n) if im > 0
                   else M - re * np.eye(n))
        _, s, Vh = np.linalg.svd(shifted)
        assert s[n - mult] <= tol
        basis = Vh[n - mult:].conj().T
        for j in range(mult):
            w = basis[:, j]
            mags = np.abs(w)
            pivot = w[int(np.argmax(mags >= (1.0 - 1e-6) * mags.max()))]
            w = (w * (np.conj(pivot) / abs(pivot)) if im > 0
                 else w * np.sign(pivot))
            cols.append(np.column_stack([w.real, -w.imag]) if im > 0
                        else w[:, None])
        blocks.append((re, im, mult))
    return np.hstack(cols), blocks


def loop_diagonalize(pair):
    """One pair at a time: (P, modes, residuals)."""
    A1, A2 = pair.a1, pair.a2
    P, blocks = _loop_real_block_form(np.linalg.solve(A1, A2))
    B1 = P.T @ A1 @ P
    B1 = 0.5 * (B1 + B1.T)
    modes, start = [], 0
    for re, im, mult in blocks:
        size = mult * (2 if im > 0 else 1)
        sl = slice(start, start + size)
        start += size
        if im == 0:
            d, V = np.linalg.eigh(B1[sl, sl])
            cols = P[:, sl] @ V
            for idx in range(mult):
                mode = TypeIMode(c=float(d[idx]), d=float(re * d[idx]))
                modes.append(((0, mode.advection_ratio, mode.c), mode,
                              cols[:, idx:idx + 1]))
        else:
            V, C = _split_elliptic_cluster(B1[sl, sl])
            cols = P[:, sl] @ V
            for j in range(mult):
                Cj = C[2 * j:2 * j + 2, 2 * j:2 * j + 2]
                Dj = Cj @ rotation_block(re, im)
                a1, b1 = Cj[0, 0], 0.5 * (Cj[0, 1] + Cj[1, 0])
                a2, b2 = Dj[0, 0], 0.5 * (Dj[0, 1] + Dj[1, 0])
                kappa0 = (a2 * b1 - a1 * b2) ** -0.25
                k2 = kappa0 * kappa0
                mode = TypeIIMode(k2 * a1, k2 * b1, k2 * a2, k2 * b2)
                modes.append(((1, mode.mu1, mode.mu2), mode,
                              cols[:, 2 * j:2 * j + 2]
                              @ np.diag([kappa0, kappa0])))
    modes.sort(key=lambda t: t[0])
    P = np.hstack([t[2] for t in modes])
    modes = tuple(t[1] for t in modes)
    Bd1 = block_diag([m.first() for m in modes])
    Bd2 = block_diag([m.second() for m in modes])
    s1, s2 = np.linalg.norm(A1), np.linalg.norm(A2)
    P_inv = np.linalg.inv(P)
    rec = max(np.linalg.norm(A1 - P_inv.T @ Bd1 @ P_inv) / s1,
              np.linalg.norm(A2 - P_inv.T @ Bd2 @ P_inv) / s2)
    return P, modes, (np.linalg.norm(P.T @ A1 @ P - Bd1) / s1,
                      np.linalg.norm(P.T @ A2 @ P - Bd2) / s2, rec)


class TestStackMatchesLoop:
    """`diagonalize_stack` against the per-pair loop, bit for bit: the
    batched steps round as their one-pair forms do."""

    @staticmethod
    def planted_stacks():
        """100 planted pairs (rng 123) in stacks by order, each stack
        mixing several cluster patterns, plus repeated clusters."""
        rng = np.random.default_rng(123)
        pairs = [plant_pair(random_mixed_spec(rng), rng)[0] for _ in range(100)]
        for _ in range(4):
            pairs.append(plant_pair([("I", 1.0, 0.5), ("I", -2.0, -1.0),
                                     ("II", 0.6, 0.8, 0.3, 1.1),
                                     ("II", -0.4, 1.2, 0.3, 1.1)], rng)[0])
        by_order = {}
        for pair in pairs:
            by_order.setdefault(pair.order, []).append(pair)
        return by_order

    def test_bitwise(self):
        stacks = self.planted_stacks()
        patterns = 0
        for pairs in stacks.values():
            decomps = diagonalize_stack(np.array([p.a1 for p in pairs]),
                                        np.array([p.a2 for p in pairs]))
            patterns += len({tuple(type(m) for m in d.modes) for d in decomps})
            for pair, d in zip(pairs, decomps):
                P, modes, (off1, off2, rec) = loop_diagonalize(pair)
                assert np.array_equal(d.p, P)
                assert d.modes == modes
                assert (d.residuals.offdiag_1, d.residuals.offdiag_2,
                        d.residuals.reconstruction) == (off1, off2, rec)
        assert patterns > len(stacks)  # stacks mix patterns

    def test_valid_stack_stays_batched(self, monkeypatch):
        def per_pair(pair):
            raise AssertionError("a valid stack was decomposed pair by pair")

        monkeypatch.setattr(congruence, "simultaneous_diagonalize", per_pair)
        for pairs in self.planted_stacks().values():
            decomps = diagonalize_stack(np.array([p.a1 for p in pairs]),
                                        np.array([p.a2 for p in pairs]))
            assert len(decomps) == len(pairs)

    @staticmethod
    def skewed_stack(rel):
        """The largest planted stack, with the middle pair's a1 given a
        relative asymmetry of about rel: (a1, a2, its index)."""
        pairs = max(TestStackMatchesLoop.planted_stacks().values(), key=len)
        a1 = np.array([p.a1 for p in pairs])
        a2 = np.array([p.a2 for p in pairs])
        k = len(pairs) // 2
        a1[k, 0, 1] += rel * np.linalg.norm(a1[k]) / np.sqrt(2.0)
        return a1, a2, k

    def test_near_tolerance_pair_stays_batched(self, monkeypatch):
        """A pair that the rule admits stays in the batch however close to
        a tolerance it lies, and is decomposed bit for bit as alone."""
        a1, a2, k = self.skewed_stack(0.7 * SYMMETRY_RTOL)
        alone = simultaneous_diagonalize(SymmetricPair(a1=a1[k], a2=a2[k]))

        def per_pair(pair):
            raise AssertionError("an admitted stack was decomposed pair by pair")

        monkeypatch.setattr(congruence, "simultaneous_diagonalize", per_pair)
        d = diagonalize_stack(a1, a2)[k]
        assert np.array_equal(d.p, alone.p)
        assert d.modes == alone.modes
        assert d.residuals == alone.residuals

    def test_failing_pair_goes_pair_by_pair(self, monkeypatch):
        """A pair just over SYMMETRY_RTOL sends the stack pair by pair, and
        the stack raises what SymmetricPair raises for that pair."""
        a1, a2, k = self.skewed_stack(1.01 * SYMMETRY_RTOL)
        with pytest.raises(ValueError) as alone:
            SymmetricPair(a1=a1[k], a2=a2[k])
        assert str(alone.value).startswith("a1 is not symmetric")
        calls = []

        def counted(pair):
            calls.append(pair)
            return simultaneous_diagonalize(pair)

        monkeypatch.setattr(congruence, "simultaneous_diagonalize", counted)
        with pytest.raises(ValueError) as info:
            diagonalize_stack(a1, a2)
        assert str(info.value) == str(alone.value)
        assert len(calls) == k


class TestPairRule:
    """`pair_errors`, the one rule SymmetricPair and `diagonalize_stack`
    share."""

    @staticmethod
    def messages(errors):
        return [None if e is None else (type(e), str(e)) for e in errors]

    def test_stack_verdict_matches_alone(self):
        """Planted pairs, and pairs placed either side of both tolerances
        and with non-finite entries: each pair's verdict in the stack is
        its verdict alone, and SymmetricPair raises it."""
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = q @ np.diag([3.0, -1.0, 2.0, -4.0]) @ q.T
        base = 0.5 * (base + base.T)
        stacks = {order: [[p.a1, p.a2] for p in pairs] for order, pairs
                  in TestStackMatchesLoop.planted_stacks().items()}
        pairs = stacks[4]
        for factor in (0.9, 1.1):
            for m in (0, 1):
                skew = [base, 2.0 * base]
                skew[m] = skew[m].copy()
                skew[m][0, 1] += (factor * SYMMETRY_RTOL
                                  * np.linalg.norm(skew[m]) / np.sqrt(2.0))
                sing = [base, 2.0 * base]
                sing[m] = q @ np.diag([4.0, factor * SINGULARITY_RTOL * 4.0,
                                       -2.0, 1.0]) @ q.T
                sing[m] = 0.5 * (sing[m] + sing[m].T)
                pairs += [skew, sing]
        for value in (np.nan, np.inf):
            bad = [base.copy(), 2.0 * base]
            bad[1][2, 0] = value
            pairs.append(bad)
        rng.shuffle(pairs)
        verdicts = []
        for pairs in map(np.array, stacks.values()):
            stack = self.messages(pair_errors(pairs))
            assert stack == [self.messages(pair_errors(p[None]))[0]
                             for p in pairs]
            for p, verdict in zip(pairs, stack):
                if verdict is None:
                    SymmetricPair(a1=p[0], a2=p[1])
                else:
                    with pytest.raises(verdict[0]) as info:
                        SymmetricPair(a1=p[0], a2=p[1])
                    assert str(info.value) == verdict[1]
            verdicts += stack
        kinds = {v[1].split(" ")[2] for v in verdicts if v is not None}
        assert kinds == {"not", "numerically", "a"}  # all three checks fail
        # the planted pairs and the four on the passing side pass
        assert verdicts.count(None) == len(verdicts) - 6

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_matches_per_matrix_norms(self, seed):
        # the batched asymmetry against one np.linalg.norm pair per matrix:
        # the same verdict and message, with each matrix's asymmetry drawn
        # on both sides of SYMMETRY_RTOL
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k, n = rng.integers(1, 4), rng.integers(1, 6)
            S = rng.standard_normal((k, 2, n, n))
            S = S + S.swapaxes(-1, -2) + 10.0 ** rng.uniform(
                -14.0, -10.0, (k, 2, 1, 1)) * rng.standard_normal((k, 2, n, n))
            expected = []
            for pair in S:
                expected.append(None)
                for name, M in zip(("a1", "a2"), pair):
                    err = np.linalg.norm(M - M.T) / np.linalg.norm(M)
                    if err > SYMMETRY_RTOL:
                        expected[-1] = (ValueError, f"{name} is not symmetric "
                                        f"(relative asymmetry {err:.3e})")
                        break
            assert self.messages(pair_errors(S)) == expected

    def test_zero_matrix_is_singular_not_asymmetric(self):
        pairs = np.array([[np.zeros((3, 3)), np.eye(3)]])
        assert self.messages(pair_errors(pairs)) == [
            (congruence.SingularInput,
             "a1 is numerically singular (smin/smax = 0.000e+00)")]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_named(self, value):
        # the upper triangle, which eigvalsh does not read, and the diagonal
        upper, diagonal = np.eye(2), np.eye(2)
        upper[0, 1], diagonal[1, 1] = value, value
        pairs = np.array([[np.eye(2), np.eye(2)], [np.eye(2), upper],
                          [diagonal, upper]])
        assert self.messages(pair_errors(pairs)) == [
            None, (ValueError, "a2 has a non-finite entry"),
            (ValueError, "a1 has a non-finite entry")]

    @pytest.mark.parametrize("a1, b, message", [
        (np.ones((1, 2)), None,
         "a1, a2 must be square of equal order, got (1, 2) and (3, 3)"),
        (np.eye(3), np.eye(2), "b must match the system order"),
    ], ids=["a1", "b"])
    def test_shape_mismatch_named(self, a1, b, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SymmetricPair(a1=a1, a2=np.diag([1.0, 2.0, 3.0]), b=b)
