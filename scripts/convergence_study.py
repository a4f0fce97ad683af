#!/usr/bin/env python3
"""Refinement study for the quadrature checks of the paper's lemmas
(tests/lemmas.py, loaded from its file): the decay rates of the cross-term
and duality residuals, the manufactured-solution recovery order of the
elliptic solve and its uniqueness estimate sigma-min, one row per grid."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np

from hypermodes.congruence import TypeIIMode
from hypermodes.modes import Side
from hypermodes.operators import (RectGrid, StateField, elliptic_steady_solve,
                                  elliptic_uniqueness)

_spec = importlib.util.spec_from_file_location(
    "lemmas", Path(__file__).resolve().parents[1] / "tests" / "lemmas.py")
lemmas = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lemmas)

DEFAULT_CONDS = {Side.W: (1.0, 0.0), Side.S: (1.0, 0.0),
                 Side.E: (0.0, 1.0), Side.N: (0.0, 1.0)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[17, 33, 65, 129])
    args = ap.parse_args()

    mode = TypeIIMode(0.0, 1.0, 1.0, 0.0)
    mixed = {s: (1.0, -1.0) for s in Side}
    rows = []
    for n in args.sizes:
        g = RectGrid(1.0, 1.0, n, n)
        X, Y = g.meshgrid()

        shared = np.sin(2 * X + Y) + 0.3 * np.cos(X - 3 * Y)
        inner = X * (1 - X) * Y * (1 - Y)
        u = StateField(g, np.stack(
            [shared, shared + inner * np.exp(X) * np.sin(np.pi * Y + 0.5)]))
        cross = lemmas.cross_term_residual(u, mixed)

        mu1, mu2 = X / 4.0, 1.0 + Y / 4.0
        T1 = np.zeros((g.nx, g.ny, 2, 2))
        T1[..., 0, 1] = T1[..., 1, 0] = 1.0
        T2 = np.stack([np.stack([mu2, mu1], -1),
                       np.stack([mu1, -mu2], -1)], -2)
        theta = StateField(g, np.stack([np.sin(2 * X + Y), np.cos(X - Y)]))
        gf = StateField(g, np.stack([np.cos(3 * X), np.sin(X + 2 * Y)]))
        ibp = lemmas.integration_by_parts_residual(theta, gf, T1, T2)

        u_star, psi = lemmas.manufactured_elliptic(g, (0.0, 1.0, 1.0, 0.0))
        sol, _ = elliptic_steady_solve(mode, StateField(g, psi), g,
                                       DEFAULT_CONDS)
        mms = StateField(g, sol.values - u_star).norm()
        sigma, _ = elliptic_uniqueness(mode, g, DEFAULT_CONDS)
        rows.append((n, cross, ibp, mms, sigma))

    print(f"{'grid':>6} {'cross-term':>12} {'duality':>12} {'mms-error':>12}"
          f" {'rates':>18} {'sigma-min':>10}")
    for k, (n, cross, ibp, mms, sigma) in enumerate(rows):
        if k == 0:
            rates = ""
        else:
            rates = " ".join(f"{np.log2(prev / cur):5.2f}" for prev, cur in
                             zip(rows[k - 1][1:], (cross, ibp, mms)))
        print(f"{n:>4}^2 {cross:12.3e} {ibp:12.3e} {mms:12.3e} {rates:>18}"
              f" {sigma:10.4f}")


if __name__ == "__main__":
    main()
