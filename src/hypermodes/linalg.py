"""Dense real matrix kernel.

Eigenstructure of real matrices expressed in real block form (real
eigenvalues give scalar blocks, complex pairs give 2x2 rotation-scaling
blocks), batched over stacks of matrices, and a plain-text matrix
format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedBasis, NotDiagonalizable

DEFAULT_CONDITION_CAP = 1e8
RECONSTRUCTION_RTOL = 1e-9
# as a fraction of ||M||_2: an eigenvalue this close to the real axis is
# real, and a cluster is defective when its shift keeps a singular value
# above it among the trailing `multiplicity` ones
DEFECT_RTOL = 1e-8
# the least norm whose square is a normal float
_NORMAL_NORM = np.sqrt(np.finfo(float).tiny)


def rotation_block(mu1: float, mu2: float) -> np.ndarray:
    """2x2 real block representing the eigenvalue pair mu1 +/- i*mu2."""
    return np.array([[mu1, -mu2], [mu2, mu1]])


def rotation_blocks(mu1: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """Stack (k, 2, 2) of the rotation blocks of the pairs mu1 +/- i*mu2."""
    return np.moveaxis(rotation_block(mu1, mu2), -1, 0)


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


def defect_tol(M) -> np.ndarray:
    """DEFECT_RTOL * ||M||_2 of each matrix of a stack M (..., n, n),
    floored so that a zero matrix gets a positive tolerance."""
    return DEFECT_RTOL * np.maximum(np.linalg.norm(M, 2, axis=(-2, -1)), 1e-300)


def eigen_keys(evals: np.ndarray, tol):
    """Classify and sort each row of an eigenvalue stack evals (..., n).

    An eigenvalue within tol (...,) of the real axis is real: kind 0, keyed
    by its real part. The im > 0 member of a conjugate pair is complex:
    kind 1, keyed by itself. Its conjugate is padding, kind 2. Each row is
    sorted by (kind, re, im), so the real keys lead and the padding trails.
    Returns (keys, kind), each (..., n).
    """
    tol = np.asarray(tol)[..., None]
    kind = np.where(np.abs(evals.imag) <= tol, 0, np.where(evals.imag > 0, 1, 2))
    keys = np.where(kind == 0, evals.real + 0j, evals)
    order = _key_order(keys, kind)
    return (np.take_along_axis(keys, order, -1),
            np.take_along_axis(kind, order, -1))


def _key_order(keys: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """The indices that sort keys along the last axis by (kind, re, im)."""
    return np.lexsort((keys.imag, keys.real, kind), axis=-1)


def _cluster_eigenvalues(keys, tol: float):
    """Greedily merge one node's sorted real and complex keys (the kind 0
    and 1 keys of `eigen_keys`, as Python complex) that lie within
    tol of a cluster's mean and are of its kind.

    Returns the cluster means (complex, im >= 0) and their algebraic
    multiplicities, ordered as `eigen_keys` orders its keys: a complex
    mean can move past another cluster's as it merges.
    """
    clusters: list[list[complex]] = []
    for ev in keys:
        for c in clusters:
            mean = sum(c) / len(c)
            if (ev.imag > 0) == (mean.imag > 0) and abs(ev - mean) <= tol:
                c.append(ev)
                break
        else:
            clusters.append([ev])
    means = np.array([sum(c) / len(c) for c in clusters])
    order = _key_order(means, means.imag > 0)
    return means[order], [len(clusters[i]) for i in order]


def _fix_column_phase(cols: np.ndarray) -> np.ndarray:
    """Deterministic sign/phase of each column of a stack (..., n, m):
    its pivot entry made real and positive.

    The pivot is the lowest-index entry within a whisker of the column's
    maximal modulus, so near-ties cannot flip the convention between runs
    or parameter perturbations. Columns of an SVD basis have unit norm, so
    every pivot is nonzero.
    """
    mags = np.abs(cols)
    top = mags.max(axis=-2, keepdims=True)
    idx = np.argmax(mags >= (1.0 - 1e-6) * top, axis=-2, keepdims=True)
    pivot = np.take_along_axis(cols, idx, axis=-2)
    if np.iscomplexobj(cols):
        # conj(pivot) / |pivot|, rounded as a complex scalar divides
        phase = np.conj(pivot) * (1.0 / np.hypot(pivot.real, pivot.imag))
        return cols * phase
    return cols * np.sign(pivot)


def frobenius(X) -> np.ndarray:
    """Frobenius norm of each matrix of a real stack (k, ...), rounded as
    np.linalg.norm rounds it for one matrix. A finite, nonzero matrix
    whose squares overflow, or sum below the normal floats, is measured
    again scaled by its largest |entry|."""
    flat = np.reshape(X, (len(X), 1, -1))
    # a 1 x N by N x 1 matmul is the BLAS dot that np.linalg.norm takes
    with np.errstate(over="ignore"):
        out = np.sqrt(flat @ np.swapaxes(flat, -1, -2))[:, 0, 0]
    redo = ~((_NORMAL_NORM <= out) & (out < np.inf))
    if redo.any():
        top = np.where(redo, np.abs(flat).max(axis=(1, 2)), np.nan)
        redo = (0.0 < top) & (top < np.inf)
        out[redo] = top[redo] * np.sqrt(np.sum(
            (flat[redo] / top[redo, None, None]) ** 2, axis=(1, 2)))
    return out


def _eigenspaces(M: np.ndarray, tol):
    """The one eigen pass over a stack M (k, n, n): one eigvals of the
    stack, the clusters of each node, and then, for each group of nodes
    with one cluster pattern (the kind and multiplicity of each cluster in
    sorted order), one batched SVD of M - lambda*I per cluster. tol (k,)
    clusters each node's eigenvalues and is its null tolerance.

    A cluster of algebraic multiplicity m is defective when the m-th
    smallest singular value of its shift exceeds the node's tol; the
    first defective cluster found raises NotDiagonalizable naming it.
    Returns the groups, each (nodes, pattern, the nodes' cluster
    eigenvalues (g, clusters) complex, one eigenspace basis stack (g, n, m)
    per cluster).
    """
    n = M.shape[-1]
    keys, kind = eigen_keys(np.linalg.eigvals(M), tol)
    live = kind < 2
    by_pattern: dict[tuple, list] = {}
    for node, node_tol in enumerate(tol):
        lam, mults = _cluster_eigenvalues(keys[node, live[node]].tolist(),
                                          node_tol)
        pattern = tuple(zip((lam.imag > 0).tolist(), mults))
        by_pattern.setdefault(pattern, []).append((node, lam))
    groups = []
    for pattern, members in by_pattern.items():
        nodes = np.array([node for node, _ in members])
        lam = np.array([lams for _, lams in members])
        Mg, null_tol = M[nodes], tol[nodes]
        spaces = []
        for j, (cplx, mult) in enumerate(pattern):
            shift = lam[:, j, None, None]
            shifted = (Mg.astype(complex) - shift * np.eye(n) if cplx
                       else Mg - shift.real * np.eye(n))
            _, s, Vh = np.linalg.svd(shifted)
            defective = s[:, n - mult] > null_tol
            if defective.any():
                g = defective.argmax()
                geometric = int(np.sum(s[g] <= null_tol[g]))
                z = lam[g, j]
                which = (f"{z.real:.6g}" if not cplx
                         else f"{z.real:.6g}+{z.imag:.6g}i")
                raise NotDiagonalizable(
                    f"eigenvalue {which} is defective: geometric "
                    f"multiplicity {geometric} < algebraic {mult}")
            spaces.append(np.swapaxes(Vh[:, n - mult:].conj(), -1, -2))
        groups.append((nodes, pattern, lam, spaces))
    return groups


@dataclass(frozen=True)
class BlockFormStack:
    """Real block forms of the nodes of a stack that share one cluster
    pattern: `nodes` indexes the stack, `pattern` holds each block's
    (is_complex, multiplicity) in block order, re and im (g, blocks) are
    each node's block eigenvalues, and basis (g, n, n) its real basis."""

    nodes: np.ndarray
    pattern: tuple[tuple[bool, int], ...]
    re: np.ndarray
    im: np.ndarray
    basis: np.ndarray

    def block_slices(self) -> list[slice]:
        return block_slices(_block_sizes(self.pattern))


def _block_sizes(pattern) -> list[int]:
    """Rows of the real form that each (is_complex, multiplicity) block of
    a cluster pattern spans: a complex pair's block spans two per copy."""
    return [m * (2 if cplx else 1) for cplx, m in pattern]


def real_block_eigen_stack(M):
    """Real bases P and blocks J with P^-1 M P = blockdiag(J) for each
    matrix of a finite stack M (k, n, n), batched over the nodes that
    share a cluster pattern: one BlockFormStack per pattern.

    Real eigenvalue clusters give lambda*I_k blocks; complex pairs give
    stacked rotation-scaling blocks with im > 0. Eigenvalues within
    `defect_tol` of each other are merged into one block. Blocks are
    sorted as `eigen_keys` sorts, so identical inputs give identical
    orderings. The first failing check found raises, a basis condition
    number above DEFAULT_CONDITION_CAP among them.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    forms = []
    for nodes, pattern, lam, spaces in _eigenspaces(M, defect_tol(M)):
        sizes = _block_sizes(pattern)
        P = np.empty((len(nodes), n, n))
        J = np.zeros_like(P)
        for j, ((cplx, m), sl, basis) in enumerate(
                zip(pattern, block_slices(sizes), spaces)):
            w = _fix_column_phase(basis)
            if cplx:
                # columns (Re w, -Im w) realize the rotation-scaling block
                P[:, :, sl.start:sl.stop:2] = w.real
                P[:, :, sl.start + 1:sl.stop:2] = -w.imag
                J[:, sl, sl] = np.kron(np.eye(m), rotation_blocks(
                    lam[:, j].real, lam[:, j].imag))
            else:
                P[:, :, sl] = w
                J[:, sl, sl] = lam[:, j].real[:, None, None] * np.eye(m)
        cond = np.linalg.cond(P)
        ill = ~(cond <= DEFAULT_CONDITION_CAP)
        if ill.any():
            raise IllConditionedBasis(
                f"eigenvector basis condition number {cond[ill.argmax()]:.3e} "
                f"exceeds cap {DEFAULT_CONDITION_CAP:.1e}")
        Mg = M[nodes]
        residual = frobenius(Mg @ P - P @ J) / np.maximum(frobenius(Mg), 1e-300)
        if (residual > RECONSTRUCTION_RTOL).any():
            raise NotDiagonalizable(
                f"real block reconstruction residual {residual.max():.3e} "
                f"exceeds {RECONSTRUCTION_RTOL:.1e}; input is defective or "
                "clustered beyond tolerance")
        forms.append(BlockFormStack(nodes, pattern, lam.real, lam.imag, P))
    return forms


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
