"""Simultaneous congruence diagonalization of a symmetric pair.

A single real congruence P takes two non-singular real symmetric matrices
(A1, A2) with A1^-1 A2 diagonalizable over C into matching block-diagonal
forms whose blocks pair up as scalar hyperbolic modes (both entries
non-zero reals) or 2x2 elliptic modes in trace-free normal form scaled so
that alpha2*beta1 - alpha1*beta2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotTypeII, OffDiagonalResidual, SingularInput
from .linalg import check_symmetric, rotation_block

SINGULARITY_RTOL = 1e-10
# relative tolerance of the block residuals and the TypeII normal form
DECOMPOSITION_RTOL = 1e-9


@dataclass(frozen=True)
class SymmetricPair:
    """System matrices (a1, a2), optional lower-order term b and the
    symmetrizer s0 that produced them (metadata; a1, a2 are already
    symmetric). A NaN or infinite entry in any of them is a ValueError."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray | None = None
    s0: np.ndarray | None = None

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        if a1.shape != a2.shape or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
            raise ValueError(f"a1, a2 must be square of equal order, "
                             f"got {a1.shape} and {a2.shape}")
        pair = np.array([a1, a2])
        check_symmetric(pair, "a1", "a2")
        # the singular values of a symmetric matrix are its |eigenvalues|
        s = np.sort(np.abs(np.linalg.eigvalsh(pair)))
        for name, smin, smax in zip(("a1", "a2"), s[:, 0], s[:, -1]):
            if smin <= SINGULARITY_RTOL * smax:
                raise SingularInput(
                    f"{name} is numerically singular "
                    f"(smin/smax = {smin / smax:.3e})")
        if self.b is not None:
            b = np.asarray(self.b, dtype=float)
            object.__setattr__(self, "b", b)
            if b.shape != a1.shape:
                raise ValueError("b must match the system order")
            if not np.isfinite(b).all():
                raise ValueError("b has a non-finite entry")
        if self.s0 is not None:
            s0 = np.asarray(self.s0, dtype=float)
            object.__setattr__(self, "s0", s0)
            check_symmetric(s0, "s0")
            if np.linalg.eigvalsh(s0).min() <= 0:
                raise ValueError("s0 must be positive-definite")

    @property
    def order(self) -> int:
        return self.a1.shape[0]


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


@dataclass(frozen=True)
class DecompositionResiduals:
    offdiag_1: float
    offdiag_2: float
    reconstruction: float


def _block_diagonals(modes) -> tuple[np.ndarray, np.ndarray]:
    return (linalg.block_diag([m.first() for m in modes]),
            linalg.block_diag([m.second() for m in modes]))


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


def _tracefree_parts(M, name="block"):
    """Read (alpha, beta) off a 2x2 matrix expected to be [[a, b], [b, -a]]."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got {M.shape}")
    tol = DECOMPOSITION_RTOL * max(np.abs(M).max(), 1e-300)
    if abs(M[0, 1] - M[1, 0]) > tol or abs(M[0, 0] + M[1, 1]) > tol:
        raise ValueError(f"{name} is not symmetric trace-free: {M!r}")
    return M[0, 0], 0.5 * (M[0, 1] + M[1, 0])


def standardize_type2(C, D):
    """Scale a trace-free 2x2 pair so the determinant condition equals 1.

    Returns (V, mode) with V = kappa0 * I, kappa0 the inverse fourth root
    of alpha2*beta1 - alpha1*beta2 (equivalently mu2*(alpha1^2 + beta1^2)).
    """
    a1, b1 = _tracefree_parts(C, "C")
    a2, b2 = _tracefree_parts(D, "D")
    delta = a2 * b1 - a1 * b2
    scale = max(abs(a1), abs(b1), abs(a2), abs(b2), 1e-300)
    if delta <= DECOMPOSITION_RTOL * scale ** 2:
        raise NotTypeII(
            f"alpha2*beta1 - alpha1*beta2 = {delta:.3e} is not positive")
    kappa0 = delta ** -0.25
    k2 = kappa0 * kappa0
    mode = TypeIIMode(k2 * a1, k2 * b1, k2 * a2, k2 * b2)
    return np.diag([kappa0, kappa0]), mode


def _split_elliptic_cluster(A_ii):
    """Orthogonal V, commuting with J = blockdiag(rotation_block(0, 1)),
    and C = V^t A_ii V = blockdiag(diag(lam_j, -lam_j)).

    A_ii is the cluster's block of A1 in the real block eigenbasis; it
    anticommutes with J, so its eigenvalues come in +/-lam pairs and J maps
    each positive eigenvector v to one of -lam. The columns (v, J v) keep the
    block's rotation-scaling form. A single pair (k = 1) is already a
    trace-free 2x2 block and keeps V = I.
    """
    k = A_ii.shape[0] // 2
    if k == 1:
        return np.eye(2), A_ii
    _, vecs = np.linalg.eigh(A_ii)
    pos = vecs[:, k:]
    V = np.empty_like(vecs)
    V[:, 0::2] = pos
    V[:, 1::2] = np.kron(np.eye(k), rotation_block(0.0, 1.0)) @ pos
    return V, V.T @ A_ii @ V


def simultaneous_diagonalize(pair: SymmetricPair) -> ModeDecomposition:
    """Diagonalize (a1, a2) simultaneously by one real congruence.

    Pipeline: real block eigenstructure of a1^-1 a2, verification that the
    congruence by that basis block-diagonalizes a1, then one orthogonal
    split per cluster: eigh of a real cluster's block gives its scalar
    modes; a complex cluster's block is split into 2x2 elliptic blocks
    (`_split_elliptic_cluster`), each then scaled by `standardize_type2`.
    Modes are ordered TypeI first (by d/c), then TypeII (by mu1, mu2).
    """
    A1, A2 = pair.a1, pair.a2
    M = np.linalg.solve(A1, A2)
    form = linalg.real_block_eigen(M)
    P = form.basis.copy()
    B1 = P.T @ A1 @ P
    B1 = 0.5 * (B1 + B1.T)

    slices = form.block_slices()
    scale1 = max(np.linalg.norm(A1), 1e-300)
    offdiag = 0.0
    for i, si in enumerate(slices):
        for j, sj in enumerate(slices):
            if i != j:
                offdiag = max(offdiag, np.abs(B1[si, sj]).max())
    if offdiag > DECOMPOSITION_RTOL * scale1:
        raise OffDiagonalResidual(
            f"off-diagonal block residual {offdiag:.3e} exceeds "
            f"{DECOMPOSITION_RTOL * scale1:.3e}; eigenvalue clustering "
            "likely failed")

    modes: list[tuple] = []  # (sort_key, ModePair, columns)
    for blk, sl in zip(form.blocks, slices):
        A_ii = B1[sl, sl]
        cols = P[:, sl]
        if not blk.is_complex:
            lam = blk.re
            d, V = np.linalg.eigh(A_ii)
            cols = cols @ V
            for idx in range(blk.multiplicity):
                mode = TypeIMode(c=float(d[idx]), d=float(lam * d[idx]))
                key = (0, mode.advection_ratio, mode.c)
                modes.append((key, mode, cols[:, idx:idx + 1]))
        else:
            V, C = _split_elliptic_cluster(A_ii)
            cols = cols @ V
            for j in range(blk.multiplicity):
                Cj = C[2 * j:2 * j + 2, 2 * j:2 * j + 2]
                Dj = Cj @ rotation_block(blk.re, blk.im)
                Vs, mode = standardize_type2(Cj, Dj)
                key = (1, mode.mu1, mode.mu2)
                modes.append((key, mode, cols[:, 2 * j:2 * j + 2] @ Vs))
    modes.sort(key=lambda t: t[0])

    P_final = np.hstack([t[2] for t in modes])
    mode_list = tuple(t[1] for t in modes)

    Bd1, Bd2 = _block_diagonals(mode_list)
    T1 = P_final.T @ A1 @ P_final
    T2 = P_final.T @ A2 @ P_final
    scale2 = max(np.linalg.norm(A2), 1e-300)
    off1 = np.linalg.norm(T1 - Bd1) / scale1
    off2 = np.linalg.norm(T2 - Bd2) / scale2
    P_inv = np.linalg.inv(P_final)
    rec1 = np.linalg.norm(A1 - P_inv.T @ Bd1 @ P_inv) / scale1
    rec2 = np.linalg.norm(A2 - P_inv.T @ Bd2 @ P_inv) / scale2
    residuals = DecompositionResiduals(offdiag_1=float(off1),
                                       offdiag_2=float(off2),
                                       reconstruction=float(max(rec1, rec2)))
    if max(off1, off2) > DECOMPOSITION_RTOL:
        raise OffDiagonalResidual(
            f"transformed pair deviates from mode blocks by "
            f"{max(off1, off2):.3e} (tolerance {DECOMPOSITION_RTOL:.1e})")
    return ModeDecomposition(p=P_final, modes=mode_list, residuals=residuals)
