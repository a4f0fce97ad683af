"""Shared builders for planted decomposition problems.

A planted pair starts from hand-chosen mode blocks (so the ground truth is
known exactly), then gets conjugated by a random well-conditioned
congruence. Recovering the blocks from the conjugated pair is the
round-trip oracle used throughout the congruence tests.
"""

import os
from pathlib import Path

import numpy as np

from hypermodes.congruence import SymmetricPair
from hypermodes.linalg import rotation_block

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """Environment for a subprocess that imports the package from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def tracefree(a, b):
    return np.array([[a, b], [b, -a]])


def random_congruence(n, rng, smax=4.0):
    """Random matrix with singular values in [1, smax] (condition <= smax)."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(1.0, smax, n)) @ q2


def plant_pair(spec, rng, smax=4.0):
    """Build (pair, planted) from a block spec.

    spec entries: ("I", c, d) for scalar modes, or ("II", a1, b1, mu1, mu2)
    for elliptic modes (standardized internally). Returns the conjugated
    SymmetricPair and the list of planted block descriptors:
    ("I", c, d) and ("II", mu1, mu2).
    """
    size = sum(1 if s[0] == "I" else 2 for s in spec)
    B1 = np.zeros((size, size))
    B2 = np.zeros((size, size))
    planted = []
    i = 0
    for s in spec:
        if s[0] == "I":
            _, c, d = s
            B1[i, i] = c
            B2[i, i] = d
            planted.append(("I", c, d))
            i += 1
        else:
            _, a1, b1, mu1, mu2 = s
            C = tracefree(a1, b1)
            D = C @ rotation_block(mu1, mu2)
            k0 = (mu2 * (a1 * a1 + b1 * b1)) ** -0.25
            B1[i:i + 2, i:i + 2] = k0 * k0 * C
            B2[i:i + 2, i:i + 2] = k0 * k0 * D
            planted.append(("II", mu1, mu2))
            i += 2
    G = random_congruence(size, rng, smax=smax)
    pair = SymmetricPair(a1=G.T @ B1 @ G, a2=G.T @ B2 @ G)
    return pair, planted


def random_mixed_spec(rng, max_modes=4):
    """Random block spec with well-separated eigenvalues, order <= 8."""
    n_type1 = rng.integers(1, max_modes)
    n_type2 = rng.integers(0, (max_modes + 1) // 2 + 1)
    lams = []
    spec = []
    for _ in range(n_type1):
        while True:
            lam = rng.uniform(-3.0, 3.0)
            if abs(lam) > 0.3 and all(abs(lam - o) > 0.5 for o in lams):
                lams.append(lam)
                break
        c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        spec.append(("I", c, lam * c))
    mus = []
    for _ in range(n_type2):
        while True:
            mu1 = rng.uniform(-2.0, 2.0)
            mu2 = rng.uniform(0.5, 2.5)
            if all(np.hypot(mu1 - m1, mu2 - m2) > 0.5 for m1, m2 in mus):
                mus.append((mu1, mu2))
                break
        spec.append(("II", rng.uniform(0.4, 1.5) * rng.choice([-1.0, 1.0]),
                     rng.uniform(0.4, 1.5), mu1, mu2))
    return spec


def mode_signature(mode):
    """Comparable invariants of a recovered mode (free of the congruence
    sign/rotation freedom): (kind, sign c, ratio) or (kind, mu1, mu2)."""
    from hypermodes.congruence import TypeIMode

    if isinstance(mode, TypeIMode):
        return ("I", np.sign(mode.c), mode.advection_ratio)
    return ("II", mode.mu1, mode.mu2)


def planted_signature(entry):
    if entry[0] == "I":
        _, c, d = entry
        return ("I", np.sign(c), d / c)
    return entry

