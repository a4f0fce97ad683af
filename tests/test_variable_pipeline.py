"""The batched variable-coefficient pipeline against the per-node loops it
replaced.

`reference_check` and `reference_setup` are node-by-node implementations
of `check_variable_coeff_assumptions` and `variable_coeff_setup`. The
check runs every standing assumption at a node, with branch matching
against the neighbour (i-1, j), or (0, j-1) on the first column, before
the next node. The setup decomposes each boundary node, which takes its
own synthesized conditions, so where a mode's sign changes along a side
its condition switches at that node. The batched code must give the same
report, the same side maps on all four sides, and the same error at the
same node.
"""

import re

import numpy as np
import pytest
from conftest import random_congruence, random_mixed_spec, tracefree
from hypermodes import solver
from hypermodes.congruence import (SymmetricPair, TypeIMode,
                                   simultaneous_diagonalize)
from hypermodes.errors import (AssumptionViolated, BlockMatchingFailure,
                               HypermodesError, IllConditionedBasis)
from hypermodes.linalg import DEFAULT_CONDITION_CAP, rotation_block
from hypermodes.modes import (Side, assemble_system_bcs,
                              check_variable_coeff_assumptions)
from hypermodes.operators import (RectGrid, StateField,
                                  side_vanishing_factor, smooth_random_field)
from hypermodes.solver import (IVPConfig, SpatialOperator, run,
                               variable_coeff_setup)

# --- the per-node reference loops ----------------------------------------------


def _eig_signature(M, tol):
    """(sorted real eigenvalues, sorted (re, im>0) pairs) of a real matrix."""
    ev = np.linalg.eigvals(M)
    real = sorted(float(e.real) for e in ev if abs(e.imag) <= tol)
    cplx = sorted((float(e.real), float(e.imag)) for e in ev if e.imag > tol)
    return real, cplx


def _mode_keys(decomp):
    return [("I", m.advection_ratio) if isinstance(m, TypeIMode)
            else ("II", m.mu1, m.mu2) for m in decomp.modes]


def _key_dist(a, b):
    if a[0] != b[0]:
        return np.inf
    if a[0] == "I":
        return abs(a[1] - b[1])
    return float(np.hypot(a[1] - b[1], a[2] - b[2]))


def _match_against(prev_keys, cur_keys, ref_separation, node):
    if [k[0] for k in prev_keys] != [k[0] for k in cur_keys]:
        raise BlockMatchingFailure(f"mode census changed at node {node}")
    for i, ck in enumerate(cur_keys):
        dists = [_key_dist(ck, pk) for pk in prev_keys]
        if dists[i] > min(dists) + 1e-12 * (1.0 + abs(ck[1])):
            raise BlockMatchingFailure(f"branch ordering lost at node {node}")
    for (i, j), ref_sep in ref_separation.items():
        if _key_dist(cur_keys[i], cur_keys[j]) < max(1e-8, 1e-3 * ref_sep):
            raise BlockMatchingFailure(f"branches merge at node {node}")


def reference_check(sampler, grid):
    """Per-node admission check, every check at a node before the next
    node; returns the report fields as a dict. Branches are matched by the
    mode keys of each node's own decomposition. Its omega0 leaves the
    lower-order term out, so compare on samplers without one."""
    xs, ys = grid.x(), grid.y()
    a1_samples = a2_samples = None
    coeff_margin = real_margin = imag_margin = np.inf
    coeff_signs = {"a1": None, "a2": None}
    real_signs = multiplicity_pattern = None
    ref_separation = {}
    keys_at = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            pair = sampler(float(x), float(y))
            n = pair.order
            if a1_samples is None:
                a1_samples = np.zeros((grid.nx, grid.ny, n, n))
                a2_samples = np.zeros((grid.nx, grid.ny, n, n))
            a1_samples[i, j] = pair.a1
            a2_samples[i, j] = pair.a2
            for name, M in (("a1", pair.a1), ("a2", pair.a2)):
                ev = np.sort(np.linalg.eigvalsh(M))
                if np.any(ev == 0):
                    raise AssumptionViolated("b", (i, j),
                                             f"{name} eigenvalue hits zero")
                signs = tuple(np.sign(ev))
                if coeff_signs[name] is None:
                    coeff_signs[name] = signs
                elif signs != coeff_signs[name]:
                    raise AssumptionViolated("b", (i, j),
                                             f"{name} eigenvalue changed sign")
                coeff_margin = min(coeff_margin, float(np.abs(ev).min()))
            M = np.linalg.solve(pair.a1, pair.a2)
            scale = max(np.linalg.norm(M, 2), 1e-300)
            real, cplx = _eig_signature(M, 1e-8 * scale)
            if real:
                r = np.array(real)
                if np.any(r == 0):
                    raise AssumptionViolated("c", (i, j), "real eigenvalue hits zero")
                signs = tuple(np.sign(r))
                if real_signs is None:
                    real_signs = signs
                elif signs != real_signs:
                    raise AssumptionViolated("c", (i, j),
                                             "real eigenvalue changed sign")
                real_margin = min(real_margin, float(np.abs(r).min()))
            if cplx:
                imag_margin = min(imag_margin, min(p[1] for p in cplx))
            pattern = (len(real), len(cplx))
            if multiplicity_pattern is None:
                multiplicity_pattern = pattern
            elif pattern != multiplicity_pattern:
                raise AssumptionViolated("d", (i, j), "pattern changed")
            cond = np.linalg.cond(np.linalg.eig(M)[1])
            if not cond <= DEFAULT_CONDITION_CAP:
                raise IllConditionedBasis(f"cond {cond:.3e} at node {(i, j)}")
            keys = _mode_keys(simultaneous_diagonalize(pair))
            if (i, j) == (0, 0):
                for k1 in range(len(keys)):
                    for k2 in range(k1 + 1, len(keys)):
                        sep = _key_dist(keys[k1], keys[k2])
                        if np.isfinite(sep) and sep > 1e-7:
                            ref_separation[(k1, k2)] = sep
            else:
                nb = (i - 1, j) if i > 0 else (i, j - 1)
                _match_against(keys_at[nb], keys, ref_separation, (i, j))
            keys_at[(i, j)] = keys

    d_a1_dx = np.gradient(a1_samples, grid.hx, axis=0, edge_order=2)
    d_a2_dy = np.gradient(a2_samples, grid.hy, axis=1, edge_order=2)
    d_a1_dy = np.gradient(a1_samples, grid.hy, axis=1, edge_order=2)
    d_a2_dx = np.gradient(a2_samples, grid.hx, axis=0, edge_order=2)
    c1_norm = float(max(np.abs(d_a1_dx).max(), np.abs(d_a1_dy).max(),
                        np.abs(d_a2_dx).max(), np.abs(d_a2_dy).max(),
                        np.abs(a1_samples).max(), np.abs(a2_samples).max()))
    div = d_a1_dx + d_a2_dy
    lam_max = np.linalg.eigvalsh(0.5 * (div + np.swapaxes(div, -1, -2))).max()
    return dict(c1_norm_estimate=c1_norm, coeff_eig_margin=coeff_margin,
                real_eig_margin=real_margin, imag_eig_margin=imag_margin,
                omega0=0.5 * max(0.0, float(lam_max)))


def reference_setup(sampler, grid):
    """Per-node sampling and boundary decomposition. Returns a1, a2, b and,
    per side, the trace maps P Pi P^-1 at its nodes, each from that node's
    own congruence and synthesized conditions."""
    nx, ny = grid.nx, grid.ny
    xs, ys = grid.x(), grid.y()
    a1 = None
    maps = {side: [] for side in Side}
    for i in range(nx):
        for j in range(ny):
            pair = sampler(float(xs[i]), float(ys[j]))
            if a1 is None:
                n = pair.order
                a1, a2, b = (np.zeros((nx, ny, n, n)) for _ in range(3))
            a1[i, j], a2[i, j] = pair.a1, pair.a2
            b[i, j] = 0.0 if pair.b is None else pair.b
            on = {Side.W: i == 0, Side.E: i == nx - 1,
                  Side.S: j == 0, Side.N: j == ny - 1}
            if not any(on.values()):
                continue
            d = simultaneous_diagonalize(pair)
            bcs = assemble_system_bcs(d)
            for side in Side:
                if on[side]:
                    Pi = solver._mode_projector(d, bcs, side)
                    maps[side].append(d.p @ Pi @ np.linalg.inv(d.p))
    return a1, a2, b, {side: np.array(m) for side, m in maps.items()}


# --- samplers ----------------------------------------------------------------------


def planted_varying_sampler(seed, wiggle=0.1):
    """Random mixed planted pair whose mode speeds vary smoothly from node
    to node (ratios and (mu1, mu2) move by at most `wiggle`, below half
    the spec's separations), under a fixed random congruence. No B."""
    rng = np.random.default_rng([seed, 21])
    spec = random_mixed_spec(rng)
    size = sum(1 if s[0] == "I" else 2 for s in spec)
    G = random_congruence(size, rng)
    phase = rng.uniform(0.0, 2.0 * np.pi, (len(spec), 2))

    def sampler(x, y):
        B1, B2 = np.zeros((size, size)), np.zeros((size, size))
        i = 0
        for s, (p1, p2) in zip(spec, phase):
            u = wiggle * np.sin(2.0 * x + y + p1)
            v = wiggle * np.cos(x - 2.0 * y + p2)
            if s[0] == "I":
                c = s[1] * (1.0 + v)
                B1[i, i], B2[i, i] = c, (s[2] / s[1] + u) * c
                i += 1
            else:
                _, a, bb, mu1, mu2 = s
                C = tracefree(a, bb)
                B1[i:i + 2, i:i + 2] = C
                B2[i:i + 2, i:i + 2] = C @ rotation_block(mu1 + u, mu2 * (1.0 + v))
                i += 2
        a1, a2 = G.T @ B1 @ G, G.T @ B2 @ G
        return SymmetricPair(a1=0.5 * (a1 + a1.T), a2=0.5 * (a2 + a2.T))

    return sampler


def nonflat_sampler(seed):
    """Random mixed planted pair with B (sym B >= 0) under the congruence
    R = I + 0.15 (sin 3x H + cos 2y K), which varies in both directions."""
    rng = np.random.default_rng([seed, 22])
    while True:
        spec = random_mixed_spec(rng)
        if any(s[0] == "II" for s in spec):
            break
    size = sum(1 if s[0] == "I" else 2 for s in spec)
    B1, B2 = np.zeros((size, size)), np.zeros((size, size))
    i = 0
    for s in spec:
        if s[0] == "I":
            B1[i, i], B2[i, i] = s[1], s[2]
            i += 1
        else:
            C = tracefree(s[1], s[2])
            B1[i:i + 2, i:i + 2] = C
            B2[i:i + 2, i:i + 2] = C @ rotation_block(s[3], s[4])
            i += 2
    G = random_congruence(size, rng)
    H, K = rng.standard_normal((2, size, size))
    skew = rng.standard_normal((size, size))
    b = rng.uniform(0.0, 1.0) * np.eye(size) + skew - skew.T

    def sampler(x, y):
        R = G @ (np.eye(size) + 0.15 * (np.sin(3.0 * x) * H + np.cos(2.0 * y) * K))
        a1, a2 = R.T @ B1 @ R, R.T @ B2 @ R
        return SymmetricPair(a1=0.5 * (a1 + a1.T), a2=0.5 * (a2 + a2.T), b=b)

    return sampler


def jump(left, right):
    """Sampler switching between two (a1, a2) pairs at x = 0.5."""
    def sampler(x, y):
        a1, a2 = right if x > 0.5 else left
        return SymmetricPair(a1=np.asarray(a1, float), a2=np.asarray(a2, float))
    return sampler


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
FAILING = {
    "zero_crossing": lambda x, y: SymmetricPair(a1=np.array([[x - 0.49]]),
                                                a2=np.array([[1.0]])),
    "real_sign_change": jump((np.diag([1.0, -1.0]), np.diag([2.0, -1.0])),
                             (np.diag([1.0, -1.0]), np.diag([-1.0, 2.0]))),
    "census_change": jump((SWAP, np.array([[1.0, 2.0], [2.0, 1.0]])),
                          (SWAP, np.array([[1.0, 0.1], [0.1, -1.0]]))),
    "branch_swap": jump((np.eye(2), np.diag([1.0, 2.0])),
                        (np.eye(2), np.diag([1.6, 2.6]))),
    "branch_merge": lambda x, y: SymmetricPair(a1=np.eye(2),
                                               a2=np.diag([1.0 + x, 2.0 - x])),
}


def bare_config(sampler, grid):
    """A run of `sampler` with no `var_setup`: the operator admits it."""
    u0 = np.zeros((sampler(0.0, 0.0).order, grid.nx, grid.ny))
    return IVPConfig(grid=grid, u0=StateField(grid, u0), t_end=1.0,
                     sampler=sampler)


def _outcome(fn, *args):
    """(class name, which, node) of the error `fn` raises, or None."""
    try:
        fn(*args)
    except HypermodesError as exc:
        node = re.search(r"node \((\d+), (\d+)\)", str(exc))
        return (type(exc).__name__, getattr(exc, "which", None),
                tuple(int(v) for v in node.groups()) if node else None)
    return None


# --- tests -------------------------------------------------------------------------


class TestMatchesReference:
    GRID = RectGrid(1.0, 1.0, 13, 11)

    @pytest.mark.parametrize("seed", range(6))
    def test_report(self, seed):
        sampler = planted_varying_sampler(seed)
        rep = check_variable_coeff_assumptions(sampler, self.GRID)
        ref = reference_check(sampler, self.GRID)
        assert np.isfinite(rep.real_eig_margin)
        for name, value in ref.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_side_maps(self, seed):
        sampler = planted_varying_sampler(seed)
        g = self.GRID
        setup = variable_coeff_setup(sampler, g)
        a1, a2, b, ref = reference_setup(sampler, g)
        assert np.abs(a1 - a1[0, 0]).max() > 1e-2  # the pair varies
        np.testing.assert_array_equal(setup.a1, a1)
        np.testing.assert_array_equal(setup.a2, a2)
        np.testing.assert_array_equal(setup.b, b)
        u = np.zeros((setup.order, g.nx, g.ny))
        op = SpatialOperator(IVPConfig(grid=g, u0=StateField(g, u), t_end=1.0,
                                       sampler=sampler, var_setup=setup))
        for side in Side:
            np.testing.assert_allclose(op.side_map[side], ref[side],
                                       rtol=0, atol=1e-14)

    # the one outcome of each failing sampler at 9x9, x = i / 8
    EXPECTED = {
        "zero_crossing": ("AssumptionViolated", "b", (4, 0)),
        "real_sign_change": ("AssumptionViolated", "c", (5, 0)),
        "census_change": ("AssumptionViolated", "d", (5, 0)),
        "branch_swap": ("BlockMatchingFailure", None, (5, 0)),
        "branch_merge": ("BlockMatchingFailure", None, (4, 0)),
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_same_failure(self, case):
        g = RectGrid(1.0, 1.0, 9, 9)
        sampler = FAILING[case]
        expected = self.EXPECTED[case]
        assert _outcome(reference_check, sampler, g) == expected
        assert _outcome(check_variable_coeff_assumptions, sampler, g) == expected
        # the setup trusts its caller: each boundary node decomposes alone
        assert _outcome(variable_coeff_setup, sampler, g) is None

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_bare_sampler_run_is_admitted(self, case):
        # run(sampler=...) admits exactly what the check admits
        g = RectGrid(1.0, 1.0, 9, 9)
        assert _outcome(run, bare_config(FAILING[case], g)) == self.EXPECTED[case]

    def test_decomposes_boundary_only(self, monkeypatch):
        calls = []

        def counted(pair, **kw):
            calls.append(pair)
            return simultaneous_diagonalize(pair, **kw)

        monkeypatch.setattr(solver, "simultaneous_diagonalize", counted)
        variable_coeff_setup(planted_varying_sampler(0), self.GRID)
        assert len(calls) == 2 * (self.GRID.nx + self.GRID.ny) - 4


class TestInteriorGuard:
    def test_defective_interior_node_named(self):
        # a1^-1 a2 is a Jordan block at one interior node, the identity
        # elsewhere: every sign, pattern and branch check passes there, and
        # no boundary node sees it, so only the eigenbasis condition can
        g = RectGrid(1.0, 1.0, 9, 9)
        xs, ys = g.x(), g.y()

        def sampler(x, y):
            s = 1.0 if (x, y) == (xs[4], ys[3]) else 0.0
            return SymmetricPair(a1=SWAP, a2=SWAP + s * np.diag([1.0, 0.0]))

        expected = ("IllConditionedBasis", None, (4, 3))
        assert _outcome(reference_check, sampler, g) == expected
        assert _outcome(check_variable_coeff_assumptions, sampler, g) == expected
        assert _outcome(run, bare_config(sampler, g)) == expected
        assert _outcome(variable_coeff_setup, sampler, g) is None


class TestGrowthRate:
    @staticmethod
    def scalar(b):
        return lambda x, y: SymmetricPair(a1=np.array([[2.0]]),
                                          a2=np.array([[3.0]]),
                                          b=np.array([[b]]))

    def test_negative_b_sets_rate(self):
        g = RectGrid(1.0, 1.0, 9, 9)
        assert check_variable_coeff_assumptions(self.scalar(-1.0), g).omega0 == 1.0

    def test_dissipative_b_clamps_to_zero(self):
        g = RectGrid(1.0, 1.0, 9, 9)
        assert check_variable_coeff_assumptions(self.scalar(5.0), g).omega0 == 0.0

    def test_sym_b_shifts_rate(self):
        # sym B = I/4 plus a skew part: the rate of div A drops by 1/4
        g = RectGrid(1.0, 1.0, 9, 9)
        base = planted_varying_sampler(3, wiggle=0.3)
        n = base(0.0, 0.0).order
        skew = np.triu(np.ones((n, n)), 1)
        b = 0.25 * np.eye(n) + skew - skew.T

        def with_b(x, y):
            pair = base(x, y)
            return SymmetricPair(a1=pair.a1, a2=pair.a2, b=b)

        plain = check_variable_coeff_assumptions(base, g).omega0
        assert plain > 0.25
        shifted = check_variable_coeff_assumptions(with_b, g).omega0
        assert shifted == pytest.approx(plain - 0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_run_takes_the_checked_rate(self, seed):
        # `run`'s omega and the assumption check's omega0 are one formula
        # on the same samples, so they agree bit for bit
        g = RectGrid(1.0, 1.0, 17, 17)
        sampler = planted_varying_sampler(seed, wiggle=0.3)
        omega0 = check_variable_coeff_assumptions(sampler, g).omega0
        n = sampler(0.0, 0.0).order
        u0 = StateField(g, np.zeros((n, g.nx, g.ny)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       sampler=sampler))
        assert omega0 > 0.0
        assert op.omega == omega0


class TestGauge:
    @pytest.mark.parametrize("seed", range(3))
    def test_nonflat_congruence(self, seed):
        # a congruence that varies in both directions: the verdict holds and
        # every side's maps are the per-node reference's
        g = RectGrid(1.0, 1.0, 25, 25)
        sampler = nonflat_sampler(seed)
        check_variable_coeff_assumptions(sampler, g)
        setup = variable_coeff_setup(sampler, g)
        rng = np.random.default_rng([seed, 23])
        bump = side_vanishing_factor(g, list(Side))
        u0 = StateField(g, np.stack([bump * smooth_random_field(g, rng)
                                     for _ in range(setup.order)]))
        cfg = IVPConfig(grid=g, u0=u0, t_end=0.25, sampler=sampler,
                        var_setup=setup)
        _, energy = run(cfg)
        assert energy.verdict
        assert energy.max_step_increase == 0.0
        op = SpatialOperator(cfg)
        ref = reference_setup(sampler, g)[-1]
        for side in Side:
            np.testing.assert_allclose(op.side_map[side], ref[side],
                                       rtol=0, atol=1e-14)


class TestBoundaryForm:
    """Dissipative conditions at every boundary node: with S the node's side
    map, lambda_min(sym(S^T (nu.A) S)) >= 0 up to roundoff."""

    @pytest.mark.parametrize("make, seed", [(nonflat_sampler, 3),
                                            (nonflat_sampler, 4),
                                            (planted_varying_sampler, 4)],
                             ids=["nonflat3", "nonflat4", "planted4"])
    def test_every_boundary_node(self, make, seed):
        g = RectGrid(1.0, 1.0, 17, 17)
        sampler = make(seed)
        setup = variable_coeff_setup(sampler, g)
        u0 = StateField(g, np.zeros((setup.order, g.nx, g.ny)))
        op = SpatialOperator(IVPConfig(grid=g, u0=u0, t_end=1.0,
                                       sampler=sampler, var_setup=setup))
        edge = {Side.W: np.s_[0], Side.E: np.s_[-1],
                Side.S: np.s_[:, 0], Side.N: np.s_[:, -1]}
        for side in Side:
            A = (setup.a1, setup.a2)[side.axis][edge[side]]
            S = op.side_map[side]
            form = side.sign * np.swapaxes(S, -1, -2) @ A @ S
            sym = 0.5 * (form + np.swapaxes(form, -1, -2))
            assert np.linalg.eigvalsh(sym).min() >= -1e-12 * op.max_speed, side
