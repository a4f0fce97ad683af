"""Dense real matrix kernel.

Eigenstructure of real matrices expressed in real block form (real
eigenvalues give scalar blocks, complex pairs give 2x2 rotation-scaling
blocks), congruence transforms, and a plain-text matrix format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditionedBasis, NotDiagonalizable

DEFAULT_CONDITION_CAP = 1e8
RECONSTRUCTION_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12
# a cluster is defective when its shift keeps a singular value above this
# fraction of ||M||_2 among the trailing `multiplicity` ones
DEFECT_RTOL = 1e-8


def rotation_block(mu1: float, mu2: float) -> np.ndarray:
    """2x2 real block representing the eigenvalue pair mu1 +/- i*mu2."""
    return np.array([[mu1, -mu2], [mu2, mu1]])


def block_slices(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, from 0."""
    out, i = [], 0
    for size in sizes:
        out.append(slice(i, i + size))
        i += size
    return out


def block_diag(blocks) -> np.ndarray:
    """The square matrix with the given square blocks down its diagonal."""
    sizes = [len(b) for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)))
    for b, sl in zip(blocks, block_slices(sizes)):
        out[sl, sl] = b
    return out


@dataclass(frozen=True)
class EigenBlock:
    """One eigenvalue cluster: real when im == 0, a conjugate pair when im > 0.

    A complex block of multiplicity k spans 2k rows of the real form.
    """

    re: float
    im: float
    multiplicity: int

    def __post_init__(self):
        if self.im < 0:
            raise ValueError("complex blocks store the im > 0 representative")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    @property
    def is_complex(self) -> bool:
        return self.im > 0

    @property
    def size(self) -> int:
        return self.multiplicity * (2 if self.is_complex else 1)

    def canonical_form(self) -> np.ndarray:
        """lambda*I_k, or diag(E0, ..., E0) with E0 the rotation-scaling block."""
        if not self.is_complex:
            return self.re * np.eye(self.multiplicity)
        return block_diag([rotation_block(self.re, self.im)] * self.multiplicity)

    def sort_key(self):
        return (self.is_complex, self.re, self.im)


@dataclass(frozen=True)
class RealBlockForm:
    """Real similarity basis and the eigenvalue blocks it exposes.

    basis^-1 @ M @ basis equals blockdiag of the blocks' canonical forms.
    """

    basis: np.ndarray
    blocks: tuple[EigenBlock, ...]

    def block_matrix(self) -> np.ndarray:
        return block_diag([b.canonical_form() for b in self.blocks])

    def block_slices(self) -> list[slice]:
        return block_slices([b.size for b in self.blocks])


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _cluster_eigenvalues(evals: np.ndarray, cluster_tol: float):
    """Group eigenvalues within cluster_tol; one entry per conjugate pair.

    Returns a list of (mean re, mean im, algebraic multiplicity), im >= 0,
    deterministically ordered by (is_complex, re, im).
    """
    reps = []
    for ev in evals:
        if abs(ev.imag) <= cluster_tol:
            reps.append(complex(ev.real, 0.0))
        elif ev.imag > 0:
            reps.append(complex(ev.real, ev.imag))
    reps.sort(key=lambda z: (z.imag > 0, z.real, z.imag))
    clusters: list[list[complex]] = []
    for ev in reps:
        placed = False
        for c in clusters:
            mean = sum(c) / len(c)
            if (ev.imag > 0) == (mean.imag > 0) and abs(ev - mean) <= cluster_tol:
                c.append(ev)
                placed = True
                break
        if not placed:
            clusters.append([ev])
    out = []
    for c in clusters:
        mean = sum(c) / len(c)
        out.append((mean.real, max(mean.imag, 0.0), len(c)))
    out.sort(key=lambda t: (t[1] > 0, t[0], t[1]))
    return out


def _fix_column_phase(col: np.ndarray) -> np.ndarray:
    """Deterministic sign/phase: pivot entry made real and positive.

    The pivot is the lowest-index entry within a whisker of the maximal
    modulus, so near-ties cannot flip the convention between runs or
    parameter perturbations.
    """
    mags = np.abs(col)
    top = mags.max()
    if top == 0:
        return col
    idx = int(np.argmax(mags >= (1.0 - 1e-6) * top))
    pivot = col[idx]
    if np.iscomplexobj(col):
        return col * (np.conj(pivot) / abs(pivot))
    return col * np.sign(pivot)


def _eigenspaces(M: np.ndarray, cluster_tol: float, null_tol: float):
    """The one eigen pass: eigvals, clusters, one SVD of M - lambda*I each.

    A cluster of algebraic multiplicity k is defective when the k-th
    smallest singular value of the shift exceeds null_tol. Returns
    (spaces, None) with spaces a list of (EigenBlock, eigenspace basis),
    or (None, diagnostic) naming the first defective cluster.
    """
    n = M.shape[0]
    spaces = []
    for re, im, mult in _cluster_eigenvalues(np.linalg.eigvals(M), cluster_tol):
        shifted = (M.astype(complex) - complex(re, im) * np.eye(n) if im > 0
                   else M - re * np.eye(n))
        _, s, Vh = np.linalg.svd(shifted)
        if s[n - mult] > null_tol:
            geometric = int(np.sum(s <= null_tol))
            which = f"{re:.6g}" if im == 0 else f"{re:.6g}+{im:.6g}i"
            return None, (f"eigenvalue {which} is defective: geometric "
                          f"multiplicity {geometric} < algebraic {mult}")
        spaces.append((EigenBlock(re, im, mult), Vh[n - mult:].conj().T))
    return spaces, None


def is_diagonalizable(M):
    """Check geometric multiplicity == algebraic multiplicity per cluster.

    Returns (flag, diagnostic). The diagnostic names the offending
    eigenvalue when the flag is False.
    """
    M = _as_square(M)
    tol_abs = DEFECT_RTOL * max(np.linalg.norm(M, 2), 1e-300)
    _, diagnostic = _eigenspaces(M, tol_abs, tol_abs)
    if diagnostic is not None:
        return False, diagnostic
    return True, "all eigenvalue clusters have full eigenspaces"


def real_block_eigen(M, cluster_tol: float | None = None,
                     condition_cap: float = DEFAULT_CONDITION_CAP) -> RealBlockForm:
    """Real basis P and blocks J with P^-1 M P = blockdiag(J).

    Real eigenvalue clusters give lambda*I_k blocks; complex pairs give
    stacked rotation-scaling blocks with im > 0. Eigenvalues within
    cluster_tol of each other are merged into one block. Blocks are sorted
    by (kind, re, im) so identical inputs give identical orderings.
    """
    M = _as_square(M)
    n = M.shape[0]
    scale = max(np.linalg.norm(M, 2), 1e-300)
    if cluster_tol is None:
        cluster_tol = DEFECT_RTOL * scale
    spaces, diagnostic = _eigenspaces(M, cluster_tol, DEFECT_RTOL * scale)
    if diagnostic is not None:
        raise NotDiagonalizable(diagnostic)
    blocks = tuple(blk for blk, _ in spaces)
    if sum(b.size for b in blocks) != n:
        raise NotDiagonalizable(
            "eigenvalue clusters do not partition the dimension; "
            "try a larger cluster tolerance")

    cols = []
    for blk, basis in spaces:
        for j in range(blk.multiplicity):
            w = _fix_column_phase(basis[:, j])
            # columns (Re w, -Im w) realize the rotation-scaling block
            cols.append(np.column_stack([w.real, -w.imag]) if blk.is_complex
                        else w[:, None])
    P = np.hstack(cols)
    cond = float(np.linalg.cond(P))
    if not np.isfinite(cond) or cond > condition_cap:
        raise IllConditionedBasis(
            f"eigenvector basis condition number {cond:.3e} exceeds cap "
            f"{condition_cap:.1e}")
    J = block_diag([b.canonical_form() for b in blocks])
    residual = np.linalg.norm(M @ P - P @ J) / max(np.linalg.norm(M), 1e-300)
    if residual > RECONSTRUCTION_RTOL:
        raise NotDiagonalizable(
            f"real block reconstruction residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION_RTOL:.1e}; input is defective or clustered "
            "beyond tolerance")
    return RealBlockForm(basis=P, blocks=blocks)


def check_symmetric(M, *names: str):
    """Raise ValueError naming the first matrix with a NaN or infinite
    entry, or else the first whose relative Frobenius asymmetry exceeds
    SYMMETRY_RTOL. M is one matrix and `names` its name, or a stack of
    matrices checked in one pass, with one name each."""
    M = np.asarray(M)
    n2 = M.shape[-1] ** 2
    flat = M.reshape(-1, n2)
    size = np.einsum("ki,ki->k", flat, flat).tolist()
    for name, row, size2 in zip(names, flat, size):
        # a squared norm is finite unless an entry is, or passes ~1e154
        if not math.isfinite(size2) and not np.isfinite(row).all():
            raise ValueError(f"{name} has a non-finite entry")
    d = (M - M.swapaxes(-1, -2)).reshape(-1, n2)
    asym = np.einsum("ki,ki->k", d, d).tolist()
    for name, asym2, size2 in zip(names, asym, size):
        err = math.sqrt(asym2) / max(math.sqrt(size2), 1e-300)
        if err > SYMMETRY_RTOL:
            raise ValueError(
                f"{name} is not symmetric (relative asymmetry {err:.3e})")


def congruence_transform(A, P) -> np.ndarray:
    """P^t A P, explicitly symmetrized by averaging with its transpose."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if P.ndim != 2 or P.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"P rows ({P.shape[0]}) must match A order ({A.shape[0]})")
    check_symmetric(A, "A")
    out = P.T @ A @ P
    return 0.5 * (out + out.T)


# --- plain-text matrix format -------------------------------------------------

def format_matrix(M) -> str:
    """First line 'rows cols', then one line of entries per row (17 sig digits)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        rows, cols = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, got {len(lines) - 1}")
    M = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    if M.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def save_matrix(path, M) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(M))


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())
