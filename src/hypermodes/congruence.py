"""Simultaneous congruence diagonalization of a symmetric pair.

A single real congruence P takes two non-singular real symmetric matrices
(A1, A2) with A1^-1 A2 diagonalizable over C into matching block-diagonal
forms whose blocks pair up as scalar hyperbolic modes (both entries
non-zero reals) or 2x2 elliptic modes in trace-free normal form scaled so
that alpha2*beta1 - alpha1*beta2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (HypermodesError, NotTypeII, OffDiagonalResidual,
                     SingularInput)
from .linalg import rotation_block

SYMMETRY_RTOL = 1e-12
# the least squared norm whose SYMMETRY_RTOL^2 share is a normal float
_SAFE_SIZE2 = np.finfo(float).tiny / SYMMETRY_RTOL ** 2
SINGULARITY_RTOL = 1e-10
# relative tolerance of the block residuals and the TypeII normal form
DECOMPOSITION_RTOL = 1e-9


@dataclass(frozen=True)
class SymmetricPair:
    """System matrices (a1, a2), which must pass `pair_errors`, and a
    lower-order term b, finite and of the pair's order: zero if omitted."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray | None = None

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if a1.shape != a2.shape or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
            raise ValueError(f"a1, a2 must be square of equal order, "
                             f"got {a1.shape} and {a2.shape}")
        error = pair_errors(np.array([[a1, a2]]))[0]
        if error is not None:
            raise error
        b = np.asarray(np.zeros_like(a1) if self.b is None else self.b,
                       dtype=float)
        object.__setattr__(self, "b", b)
        if b.shape != a1.shape:
            raise ValueError("b must match the system order")
        if not np.isfinite(b).all():
            raise ValueError("b has a non-finite entry")

    @property
    def order(self) -> int:
        return self.a1.shape[0]


def pair_errors(pairs: np.ndarray) -> list[Exception | None]:
    """The pair rule on a stack of pairs (k, 2, n, n), each (a1, a2): per
    pair, the error of its first failing check, or None. The checks, each
    on a1 and then on a2: a NaN or infinite entry; a relative Frobenius
    asymmetry above SYMMETRY_RTOL; smin <= SINGULARITY_RTOL smax, with the
    |eigenvalues| as singular values. Each matrix is rounded as it is
    alone, so a pair's verdict does not depend on its stack."""
    n = pairs.shape[-1]
    mats = pairs.reshape(-1, n, n)
    flat = mats.reshape(len(mats), n * n)
    # a non-finite entry spoils only its own matrix's sums
    with np.errstate(over="ignore", invalid="ignore"):
        size2 = np.vecdot(flat, flat).tolist()
        skew = (mats - mats.mT).reshape(len(mats), n * n)
        skew2 = np.vecdot(skew, skew).tolist()
    # a squared norm is finite unless an entry is, or passes ~1e154, and
    # at least _SAFE_SIZE2 unless the entries are below ~1e-142
    finite = [_SAFE_SIZE2 <= x < math.inf for x in size2]
    if not all(finite):
        finite = np.isfinite(flat).all(axis=1).tolist()
        # a finite, nonzero matrix whose squares overflow or underflow is
        # measured again scaled by its largest |entry|, which leaves the
        # asymmetry's ratio as is
        for m, ok in enumerate(finite):
            top = np.abs(mats[m]).max() if ok else 0.0
            if top > 0.0 and not _SAFE_SIZE2 <= size2[m] < math.inf:
                unit = mats[m] / top
                size2[m] = float(np.sum(unit * unit))
                skew2[m] = float(np.sum((unit - unit.T) ** 2))
        # eigvalsh may not converge on a NaN or infinite entry
        mats = np.nan_to_num(mats, posinf=0.0, neginf=0.0)
    s = np.abs(np.linalg.eigvalsh(mats))
    s.sort(axis=-1)
    smin, smax = s[:, 0].tolist(), s[:, -1].tolist()
    # each matrix's first failing check: 0 a non-finite entry, 1 the
    # asymmetry, 2 the singularity; 3 if it passes all three
    first = [0 if not ok else 1 if d2 > SYMMETRY_RTOL ** 2 * m2 else
             2 if lo <= SINGULARITY_RTOL * hi else 3
             for ok, d2, m2, lo, hi in zip(finite, skew2, size2, smin, smax)]
    if min(first, default=3) == 3:
        return [None] * len(pairs)
    errors: list[Exception | None] = []
    for g in range(0, len(first), 2):
        m = g + (first[g + 1] < first[g])  # a1 names a tie
        name = ("a1", "a2")[m - g]
        errors.append((
            ValueError(f"{name} has a non-finite entry"),
            ValueError(f"{name} is not symmetric (relative asymmetry "
                       f"{math.sqrt(skew2[m] / max(size2[m], 1e-300)):.3e})"),
            SingularInput(f"{name} is numerically singular (smin/smax = "
                          f"{smin[m] / max(smax[m], 1e-300):.3e})"),
            None)[first[m]])
    return errors


@dataclass(frozen=True)
class TypeIMode:
    """Scalar hyperbolic mode: 1x1 pair (c, d), both non-zero."""

    c: float
    d: float

    @property
    def advection_ratio(self) -> float:
        return self.d / self.c

    def first(self) -> np.ndarray:
        return np.array([[self.c]])

    def second(self) -> np.ndarray:
        return np.array([[self.d]])


@dataclass(frozen=True)
class TypeIIMode:
    """Elliptic mode: 2x2 trace-free pair scaled so the determinant
    condition alpha2*beta1 - alpha1*beta2 equals 1."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    @property
    def determinant_condition(self) -> float:
        return self.alpha2 * self.beta1 - self.alpha1 * self.beta2

    @property
    def mu1(self) -> float:
        return (self.alpha1 * self.alpha2 + self.beta1 * self.beta2) / \
            (self.alpha1 ** 2 + self.beta1 ** 2)

    @property
    def mu2(self) -> float:
        return self.determinant_condition / (self.alpha1 ** 2 + self.beta1 ** 2)

    def first(self) -> np.ndarray:
        return np.array([[self.alpha1, self.beta1], [self.beta1, -self.alpha1]])

    def second(self) -> np.ndarray:
        return np.array([[self.alpha2, self.beta2], [self.beta2, -self.alpha2]])


ModePair = TypeIMode | TypeIIMode


def _block_diagonals(modes) -> tuple[np.ndarray, np.ndarray]:
    """The mode blocks of each matrix of a pair, down the diagonals."""
    return (linalg.block_diag([m.first() for m in modes]),
            linalg.block_diag([m.second() for m in modes]))


@dataclass(frozen=True)
class DecompositionResiduals:
    offdiag_1: float
    offdiag_2: float
    reconstruction: float


@dataclass(frozen=True)
class ModeDecomposition:
    p: np.ndarray
    modes: tuple[ModePair, ...]
    residuals: DecompositionResiduals

    @property
    def order(self) -> int:
        return self.p.shape[0]

    def mode_slices(self) -> list[slice]:
        return linalg.block_slices([len(m.first()) for m in self.modes])

    def block_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        return _block_diagonals(self.modes)

    def report(self) -> str:
        lines = ["congruence matrix P:",
                 linalg.format_matrix(self.p).rstrip("\n"), "modes:"]
        for k, m in enumerate(self.modes):
            if isinstance(m, TypeIMode):
                lines.append(f"mode {k}: TypeI c={m.c:.17g} d={m.d:.17g}")
            else:
                lines.append(
                    f"mode {k}: StandardTypeII alpha1={m.alpha1:.17g} "
                    f"beta1={m.beta1:.17g} alpha2={m.alpha2:.17g} "
                    f"beta2={m.beta2:.17g} "
                    f"det_condition={m.determinant_condition:.17g}")
        r = self.residuals
        lines.append(f"residuals: offdiag_1={r.offdiag_1:.17g} "
                     f"offdiag_2={r.offdiag_2:.17g} "
                     f"reconstruction={r.reconstruction:.17g}")
        return "\n".join(lines) + "\n"


def _tracefree_parts(M, name):
    """Read (alpha, beta) off a stack (g, 2, 2) expected to hold
    [[a, b], [b, -a]]; the first matrix that is not raises ValueError."""
    tol = DECOMPOSITION_RTOL * np.maximum(np.abs(M).max(axis=(-2, -1)), 1e-300)
    bad = ((np.abs(M[:, 0, 1] - M[:, 1, 0]) > tol)
           | (np.abs(M[:, 0, 0] + M[:, 1, 1]) > tol))
    if bad.any():
        raise ValueError(
            f"{name} is not symmetric trace-free: {M[bad.argmax()]!r}")
    return M[:, 0, 0], 0.5 * (M[:, 0, 1] + M[:, 1, 0])


def _standardize(C, D):
    """Scale each trace-free pair of the stacks C, D (g, 2, 2) so that its
    determinant condition alpha2*beta1 - alpha1*beta2 equals 1: (kappa0
    (g,), the inverse fourth root of that determinant, and the scaled
    (alpha1, beta1, alpha2, beta2) = kappa0^2 times the pair's, each (g,)).
    The first pair that fails raises."""
    a1, b1 = _tracefree_parts(C, "C")
    a2, b2 = _tracefree_parts(D, "D")
    delta = a2 * b1 - a1 * b2
    scale = np.maximum(np.maximum(np.abs(a1), np.abs(b1)),
                       np.maximum(np.abs(a2), np.abs(b2)))
    low = delta <= DECOMPOSITION_RTOL * np.maximum(scale, 1e-300) ** 2
    if low.any():
        raise NotTypeII(f"alpha2*beta1 - alpha1*beta2 = "
                        f"{delta[low.argmax()]:.3e} is not positive")
    # the scalar power, which an array power may round differently
    kappa0 = np.array([float(d) ** -0.25 for d in delta])
    k2 = kappa0 * kappa0
    return kappa0, (k2 * a1, k2 * b1, k2 * a2, k2 * b2)


def _split_elliptic_cluster(A_ii):
    """Orthogonal V, commuting with J = blockdiag(rotation_block(0, 1)),
    and C = V^t A_ii V = blockdiag(diag(lam_j, -lam_j)), for one block or a
    stack (..., 2k, 2k) of them.

    A_ii is the cluster's block of A1 in the real block eigenbasis; it
    anticommutes with J, so its eigenvalues come in +/-lam pairs and J maps
    each positive eigenvector v to one of -lam. The columns (v, J v) keep the
    block's rotation-scaling form. A single pair (k = 1) is already a
    trace-free 2x2 block and keeps V = I.
    """
    k = A_ii.shape[-1] // 2
    if k == 1:
        return np.eye(2), A_ii
    _, vecs = np.linalg.eigh(A_ii)
    pos = vecs[..., k:]
    V = np.empty_like(vecs)
    V[..., 0::2] = pos
    V[..., 1::2] = np.kron(np.eye(k), rotation_block(0.0, 1.0)) @ pos
    return V, np.swapaxes(V, -1, -2) @ A_ii @ V


def _decompose_group(A1, A2, form: linalg.BlockFormStack):
    """The ModeDecomposition of each pair (A1, A2) (g, n, n) whose
    a1^-1 a2 share the cluster pattern of their real block forms `form`.
    Every step runs once for the whole stack, and the first failing check
    found raises; only the mode order is sorted per pair."""
    count, n = A1.shape[:2]
    P = form.basis
    B1 = np.swapaxes(P, -1, -2) @ A1 @ P
    B1 = 0.5 * (B1 + np.swapaxes(B1, -1, -2))

    slices = form.block_slices()
    scale1 = np.maximum(linalg.frobenius(A1), 1e-300)
    off = np.ones((n, n), dtype=bool)
    for sl in slices:
        off[sl, sl] = False
    offdiag = np.where(off, np.abs(B1), 0.0).max(axis=(-2, -1))
    bad = offdiag > DECOMPOSITION_RTOL * scale1
    if bad.any():
        g = bad.argmax()
        raise OffDiagonalResidual(
            f"off-diagonal block residual {offdiag[g]:.3e} exceeds "
            f"{DECOMPOSITION_RTOL * scale1[g]:.3e}; eigenvalue clustering "
            "likely failed")

    # the modes in block order: (c, d) of a scalar mode, (alpha1, beta1,
    # alpha2, beta2) of an elliptic one, each (count,), and its columns
    parts: list[tuple] = []
    for j, ((cplx, mult), sl) in enumerate(zip(form.pattern, slices)):
        A_ii = B1[:, sl, sl]
        cols = P[:, :, sl]
        if not cplx:
            d, V = np.linalg.eigh(A_ii)
            cols = cols @ V
            for idx in range(mult):
                parts.append(((d[:, idx], form.re[:, j] * d[:, idx]),
                              cols[:, :, idx:idx + 1]))
        else:
            V, C = _split_elliptic_cluster(A_ii)
            cols = cols @ V
            R = linalg.rotation_blocks(form.re[:, j], form.im[:, j])
            for t in range(mult):
                two = slice(2 * t, 2 * t + 2)
                Cj = C[:, two, two]
                kappa0, params = _standardize(Cj, Cj @ R)
                Vs = kappa0[:, None, None] * np.eye(2)
                parts.append((params, cols[:, :, two] @ Vs))

    # columns in block order; each pair's sort below permutes whole mode
    # blocks of them
    columns = np.concatenate([cols for _, cols in parts], axis=-1)

    perms, mode_lists = [], []
    for g in range(count):
        modes: list[tuple] = []  # (sort key, mode, its column indices)
        start = 0
        for params, cols in parts:
            width = cols.shape[-1]
            if width == 1:
                mode = TypeIMode(c=float(params[0][g]), d=float(params[1][g]))
                key = (0, mode.advection_ratio, mode.c)
            else:
                mode = TypeIIMode(*(p[g] for p in params))
                key = (1, mode.mu1, mode.mu2)
            modes.append((key, mode, range(start, start + width)))
            start += width
        modes.sort(key=lambda t: t[0])
        perms.append([c for t in modes for c in t[2]])
        mode_lists.append(tuple(t[1] for t in modes))
    P_final = np.take_along_axis(columns, np.array(perms)[:, None, :], -1)
    Bd = np.array([_block_diagonals(modes) for modes in mode_lists])
    scale2 = np.maximum(linalg.frobenius(A2), 1e-300)
    PT = np.swapaxes(P_final, -1, -2)
    off1 = linalg.frobenius(PT @ A1 @ P_final - Bd[:, 0]) / scale1
    off2 = linalg.frobenius(PT @ A2 @ P_final - Bd[:, 1]) / scale2
    P_inv = np.linalg.inv(P_final)
    P_invT = np.swapaxes(P_inv, -1, -2)
    rec1 = linalg.frobenius(A1 - P_invT @ Bd[:, 0] @ P_inv) / scale1
    rec2 = linalg.frobenius(A2 - P_invT @ Bd[:, 1] @ P_inv) / scale2

    worst = np.maximum(off1, off2)
    bad = worst > DECOMPOSITION_RTOL
    if bad.any():
        raise OffDiagonalResidual(
            f"transformed pair deviates from mode blocks by "
            f"{worst[bad.argmax()]:.3e} (tolerance {DECOMPOSITION_RTOL:.1e})")
    return [ModeDecomposition(P_final[g], mode_lists[g], DecompositionResiduals(
        float(off1[g]), float(off2[g]), float(max(rec1[g], rec2[g]))))
        for g in range(count)]


def _decompose(a1: np.ndarray, a2: np.ndarray) -> list[ModeDecomposition]:
    """The ModeDecomposition of each pair of the stacks a1, a2 (k, n, n).
    One solve and one eigen pass serve the stack, then each group of pairs
    with one cluster pattern is decomposed together. The first failing
    check found raises, so a stack of one raises what its pair raises."""
    decomps = {}
    for form in linalg.real_block_eigen_stack(np.linalg.solve(a1, a2)):
        decomps.update(zip(form.nodes.tolist(), _decompose_group(
            a1[form.nodes], a2[form.nodes], form)))
    return [decomps[i] for i in range(len(a1))]


def diagonalize_stack(a1, a2) -> list[ModeDecomposition]:
    """`simultaneous_diagonalize` of every pair of the stacks a1, a2
    (k, n, n), batched over the pairs. Failures are rare, so they are not
    explained in the batch: a stack that holds a pair failing
    `pair_errors`, or whose batch raises, is decomposed again pair by
    pair, and the first pair, in stack order, that fails raises what
    SymmetricPair or `simultaneous_diagonalize` raises for it alone."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if not any(pair_errors(np.stack([a1, a2], axis=1))):
        try:
            return _decompose(a1, a2)
        except (HypermodesError, ValueError):
            pass
    return [simultaneous_diagonalize(SymmetricPair(a1=x, a2=y))
            for x, y in zip(a1, a2)]


def simultaneous_diagonalize(pair: SymmetricPair) -> ModeDecomposition:
    """Diagonalize (a1, a2) simultaneously by one real congruence.

    Pipeline: real block eigenstructure of a1^-1 a2, verification that the
    congruence by that basis block-diagonalizes a1, then one orthogonal
    split per cluster: eigh of a real cluster's block gives its scalar
    modes; a complex cluster's block is split into 2x2 elliptic blocks
    (`_split_elliptic_cluster`), each then scaled by `_standardize`.
    Modes are ordered TypeI first (by d/c), then TypeII (by mu1, mu2).
    The stack of one of `diagonalize_stack`, on a pair checked already.
    """
    return _decompose(pair.a1[None], pair.a2[None])[0]
