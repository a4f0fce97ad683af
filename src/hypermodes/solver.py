"""Method-of-lines IBVP simulator on the rectangle.

First-order characteristic upwinding per coordinate direction, a
simultaneous-approximation-term (SAT) penalty at each boundary node that
imposes the synthesized conditions weakly (Carpenter, Gottlieb & Abarbanel,
JCP 111, 1994), and the strong-stability-preserving Runge-Kutta scheme
SSP(9,3) (`step`): nine forward-Euler stages of tau = dt/6 <= cfl h /
speed, each one sweep over cache-sized row tiles of the state
(cache blocking; Datta et al., SC 2008). The energy report checks
the bound |u+| <= e^(omega dt) |u| at every step, with omega from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .congruence import ModeDecomposition, SymmetricPair, diagonalize_stack
from .errors import CFLViolation, UnstableCoefficients
# variable_coeff_setup is re-exported for callers that reach it here
from .modes import (BCAssignment, ScalarModeBC, Side,
                    VariableCoefficientSetup, assemble_system_bcs,
                    check_variable_coeff_assumptions, variable_coeff_setup)
from .operators import RectGrid, StateField

STEP_INCREASE_RTOL = 1e-10
# an eigenvalue of a1 (a2) this small, relative to the largest |eigenvalue|
# of a1 (a2) over the stack, makes the x (y) sides nearly characteristic;
# the paper excludes that by requiring a1 and a2 non-singular
SPEED_RTOL = 1e-8
# `step` is SSP(9,3), Ketcheson's low-storage SSP(n^2, 3) at n = 3 (SIAM J.
# Sci. Comput. 30, 2008), written out as its table of nine forward-Euler
# sweeps of tau = dt / 6: a step spans 6 stage steps
_STEP_TAUS = 6
# Bytes of state in one row tile, (n, rows, ny). A sweep does all of a tile's
# passes while the tile and its gathered inputs (K times its size) sit in a
# core's L2, not in L3. On a 2-core machine with 2 MB of L2 per core, timed
# per step of four sweeps (SSP-RK(4,3), the step before SSP(9,3)), the swe
# step at 257^2 (three 0.5 MB components, three blocks a tile) took
# 1.37-1.50 ms with 8 tiles of 200 KB, against 1.25-1.54 with 300 KB,
# 1.43-1.60 with 400 KB, 1.45-1.67 with 100 KB, 1.98-2.16 with 800 KB and
# 2.34-2.56 ms untiled; the wave step (two components, five blocks)
# 1.25-1.50 ms with 200 KB against 1.25-1.60 with 300 KB, 1.39-1.80 with
# 400 KB, 1.55-1.69 with 100 KB, 1.74-2.15 with 800 KB and 2.14-2.44 ms
# untiled (best of 5 rounds of min-of-3 x 20 steps, four runs). With more
# tiles the per-tile Python calls dominate. This size keeps 65^2 and the
# variable 33^2 operator in one tile.
TILE_BYTES = 200 * 1024


@dataclass(frozen=True)
class EnergyReport:
    """Discrete L2 norm at every step and the per-step energy verdict.

    `omega` is the growth rate from the data (`modes.growth_rate`), and
    `max_step_increase` is the largest |u^(k+1)| - e^(omega dt) |u^k| over
    the steps, floored at 0. The verdict passes iff that is at most
    STEP_INCREASE_RTOL |u^0|. A run that blew up ends at its last finite
    state, with max_step_increase inf.
    """

    times: np.ndarray
    norms: np.ndarray
    omega: float
    max_step_increase: float
    verdict: bool

    def summary(self) -> str:
        kind = "contraction" if self.omega == 0.0 else "quasi-contraction"
        status = "pass" if self.verdict else "fail"
        return (f"{kind}: omega={self.omega:.17g} "
                f"max_step_increase={self.max_step_increase:.17g} "
                f"verdict={status}")


@dataclass
class IVPConfig:
    """Everything needed to integrate u_t + A1 u_x + A2 u_y + B u = f."""

    grid: RectGrid
    u0: StateField
    t_end: float
    pair: SymmetricPair | None = None
    sampler: Callable[[float, float], SymmetricPair] | None = None
    decomp: ModeDecomposition | None = None
    var_setup: VariableCoefficientSetup | None = None
    bcs: list[BCAssignment] | None = None
    forcing: Callable[[float], np.ndarray] | None = None
    # dt_max <= 6 cfl h / max speed, with cfl in (0, 0.5]: each of the nine
    # stages of an SSP(9,3) step is a forward-Euler step of tau = dt/6 <=
    # cfl h / max speed, inside the 2-D upwind bound tau (speed_x / hx +
    # speed_y / hy) <= 1 under which forward Euler, and with it the step,
    # contracts on the four presets in the cell norm (up to cfl 0.50 on
    # wave, 0.62 on swe). Dense at 9^2, cfl 0.4 and 0.5: forward Euler at
    # tau reads 0.975-0.987 and one step 0.70-0.91. On the 100 planted
    # pairs at 11^2 forward Euler at tau reads <= 0.9992 at cfl 0.4 and
    # <= 0.9991 at 0.5 (case 51), and one step <= 0.9954 and <= 0.9943; on
    # planted case 54 at 0.5 they read 0.9967 and 0.979. `dt_max` takes
    # sym(B) in; a skew B (swe's Coriolis term) grows forward Euler at every
    # tau, and is left to a certificate of the whole step
    cfl: float = 0.4
    # unread: `run` takes omega from the data; kept only because
    # bench/workloads.py still passes it
    omega0: float = 0.0

    def __post_init__(self):
        if (self.pair is None) == (self.sampler is None):
            raise ValueError("provide exactly one of pair or sampler")
        # decomp and bcs describe one node, var_setup the sampled grid
        if self.sampler is not None and (self.decomp is not None
                                         or self.bcs is not None):
            raise ValueError("decomp and bcs go with pair, not sampler")
        if self.pair is not None and self.var_setup is not None:
            raise ValueError("var_setup goes with sampler, not pair")
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end:g}")
        if not 0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl:g}")
        for name in ("u0", "var_setup"):
            part = getattr(self, name)
            if part is not None and part.grid != self.grid:
                raise ValueError(f"{name} was built on another grid")


def max_speed(eigenvalues) -> float:
    """Largest |eigenvalue| of the a1, a2 stacks, from their `eigenvalues`
    (a1's, then a2's); none may (nearly) vanish. The one speed rule, of
    `dt_max`, `default_t_end` and `certify`'s rows."""
    top = 0.0
    for name, ev in zip("xy", eigenvalues):
        w = np.abs(ev)
        scale = max(w.max(), 1e-300)
        if w.min() <= SPEED_RTOL * scale:
            raise UnstableCoefficients(
                f"a wave speed along the {name} direction vanishes "
                f"(|speed|min/|speed|max = {w.min() / scale:.3e})")
        top = max(top, float(w.max()))
    return top


def _split_signed(mats: np.ndarray):
    """Positive/negative parts of symmetric matrices (batched over leading
    axes). A semidefinite matrix is exactly its own positive or negative
    part, not V diag(w) V^T in roundoff, so that an edge term that cancels
    in exact arithmetic is exactly 0."""
    w, V = np.linalg.eigh(mats)
    pos = np.einsum("...ab,...b,...cb->...ac", V, np.maximum(w, 0.0), V)
    neg = np.einsum("...ab,...b,...cb->...ac", V, np.minimum(w, 0.0), V)
    return (np.where(w[..., :1, None] >= 0.0, mats, pos),
            np.where(w[..., -1:, None] <= 0.0, mats, neg))


def _faces(a: np.ndarray, axis: int) -> np.ndarray:
    """Frozen coefficients on the faces along `axis` of a node stack: the
    arithmetic mean of adjacent nodes inside, the boundary node's own value
    on the two boundary faces. Face k lies before node k."""
    a = np.moveaxis(a, axis, 0)
    faces = np.concatenate([a[:1], 0.5 * (a[1:] + a[:-1]), a[-1:]])
    return np.moveaxis(faces, 0, axis)


def _mode_projector(decomp: ModeDecomposition, bcs, side: Side) -> np.ndarray:
    """Projector Pi_c in mode variables onto the mode traces that the
    conditions on `side` fix: 1 for a scalar mode on its inflow side,
    q q^T / |q|^2 for an elliptic mode's condition q, 0 for a mode that
    leaves freely. A state trace u is admitted iff Pi_c P^-1 u = 0."""
    Pi = np.zeros((decomp.order, decomp.order))
    for bc, sl in zip(bcs, decomp.mode_slices()):
        if isinstance(bc, ScalarModeBC):
            if side in bc.sides:
                Pi[sl, sl] = 1.0
        else:
            q = np.array(bc.conditions[side])
            Pi[sl, sl] = np.outer(q, q) / (q @ q)
    return Pi


def _component_major(mats: np.ndarray) -> np.ndarray:
    """A per-node stack (..., n, n) laid out as (n, n, ...), the layout of
    the state (n, nx, ny), so that each entry is contiguous over nodes."""
    return np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))


def _mul(mats: np.ndarray, v: np.ndarray, out: np.ndarray):
    """out = M v at every node of v (m, nodes), with `mats` one (n, m)
    matrix that stands for all nodes (a BLAS GEMM) or a component-major
    stack (n, m, nodes). `out` and `v` keep each row's nodes evenly spaced,
    as a flat range or a side of a state does."""
    if mats.ndim == 2:
        np.matmul(mats, v, out=out)
    else:
        np.einsum("abk,bk->ak", mats, v, out=out)


def _nodes(mats: np.ndarray, index: slice) -> np.ndarray:
    """The nodes at `index` of a component-major stack flattened over its
    nodes, (n, n, nodes); a stack of one node stands for all and is
    returned as its (n, n) matrix."""
    n = mats.shape[0]
    flat = mats.reshape(n, n, -1)
    return flat.reshape(n, n) if mats.size == n * n else flat[:, :, index]


class _Tile(NamedTuple):
    """One row tile's part of a sweep: its `nodes` (a flat range of each
    component) and `gather`, its (K n, nodes) part of the gather buffer:
    the tile in rows 0..n-1, then each kept neighbour term's inputs in the
    next n. `terms` holds, for each such term, its side, the flat range
    `near` of its source nodes, the range `cols` of the tile's nodes that
    read them, `fill`, the part of its block that takes them, and `zero`,
    the side's nodes in its block to zero, or None; `edges` holds each
    edge term's side, stack, the side's nodes in the tile and their part
    of `gather`'s first block."""

    nodes: slice
    gather: np.ndarray
    terms: list[tuple]
    edges: list[tuple]


def _tiles(nx: int, row_bytes: int) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of about TILE_BYTES each, balanced over the
    fewest tiles that hold `nx` rows of `row_bytes` each."""
    count = -(-nx // max(1, TILE_BYTES // row_bytes))
    rows = -(-nx // count)
    return [(r0, min(r0 + rows, nx)) for r0 in range(0, nx, rows)]


class SpatialOperator:
    """Semidiscrete upwind operator with a SAT boundary closure.

    Stencil form: du/dt at a node is a centre matrix (upwind diagonal and
    -B) times u there plus a neighbour matrix times u at each of its W, E,
    S and N neighbours. A boundary face carries no flux: the edge term
    -(1/h)((nu.A)^- + (alpha Q^T - nu.A) Q) of each boundary node cancels
    the centre's upwind part there and adds the penalty, with nu the
    outward normal, alpha = max(0, lambda_max(nu.A)) / 2 and Q =
    `constrained[side]`, the node's orthogonal projector whose kernel is
    the traces that its conditions admit (`_side_maps`). In the cell
    norm, with w = Q u and S = I - Q, the node's share of d/dt |u|^2 is
    -(Su)^T (nu.A) Su + w^T (nu.A) w - 2 alpha |w|^2 for any projector Q
    with that kernel, and it is <= 0 wherever the conditions are
    dissipative (`certify`'s boundary forms read this Q).
    Where every mode leaves across a side, Q and (nu.A)^- are exactly 0;
    where every mode enters, Q = I, (nu.A)^- = nu.A and alpha = 0 exactly;
    either way the edge term is exactly 0. The stacks are per node (a
    neighbour term's at its source node) and component-major, like the
    state (n, nx, ny): `centre` (n, n, nx, ny), `neighbour[side]`
    (n, n, nx ny) and `edge[side]` (n, n, nodes of the side);
    `constrained[side]` is node-major, (nodes, n, n). They are built from
    `setup`: the one the check admits of a bare `sampler` (sampled once), a
    given `var_setup`, or a constant pair as one node that stands for all.
    `max_speed` reads its eigenvalues, and `omega` is its omega0.

    `apply`, and each stage of `step`, is one sweep over row tiles of
    about TILE_BYTES (x rows, all of y), each a stage dst = w src +
    s L src made while the tile sits in cache: one gathered contraction,
    the tile and its kept neighbour terms' inputs times the stage matrix
    [w I + s C | s N_side ...], then its edge products and the forcing,
    times s. The stage matrices are built once per (w, s) (`_stage`): (0,
    1) for `apply`, (1, dt/6) for all nine stages of `step`, so a run at
    one dt builds them once. Each tile's plan is built once, here
    (`_plan`), and leaves out every neighbour or edge stack that is
    identically zero: with a1 positive at every face there is no E
    neighbour or edge term (no W terms where a1 is negative), and likewise
    for a2 and N (S), and no edge term where every mode enters or every
    mode leaves. The result
    does not depend on the tiling. `apply` returns a new array;
    `step` reuses private buffers: one caller at a time. A given
    `var_setup`, like a given `decomp`, is trusted. Only the boundary nodes
    are decomposed, all in one `diagonalize_stack` call, and the first
    failing node, in W, E, S, N order, raises what SymmetricPair or
    `simultaneous_diagonalize` raises for it alone.
    """

    def __init__(self, config: IVPConfig):
        grid = config.grid
        hx, hy = grid.hx, grid.hy

        if config.sampler is not None:
            setup = config.var_setup or check_variable_coeff_assumptions(
                config.sampler, grid)
        else:
            pair = config.pair
            setup = VariableCoefficientSetup(
                grid, *(m[None, None] for m in (pair.a1, pair.a2, pair.b)))
        self.setup = setup
        a1, a2, b = setup.a1, setup.a2, setup.b
        # each side's boundary nodes in trace order (a one-node stack's is
        # its one node); a corner ends two sides and is decomposed once,
        # all of them in one batch, unless a decomp is given
        ij = np.indices(a1.shape[:2])
        nodes = {side: list(map(tuple, ij[side.edge].T)) for side in Side}
        unique = list(dict.fromkeys(sum(nodes.values(), [])))
        i, j = np.array(unique).T
        found = ([config.decomp] if config.decomp is not None
                 else diagonalize_stack(a1[i, j], a2[i, j]))
        self.constrained = _side_maps(dict(zip(unique, found)), nodes,
                                      config.bcs)
        self.n = a1.shape[-1]
        self.max_speed = max_speed(setup.eigenvalues)
        self.omega = setup.omega0

        xp, xn = _split_signed(_faces(a1, 0))
        yp, yn = _split_signed(_faces(a2, 1))
        self.centre = _component_major(
            (xn[1:] - xp[:-1]) / hx + (yn[:, 1:] - yp[:, :-1]) / hy - b)
        self.neighbour = {side: _component_major(m).reshape(
            self.n, self.n, -1) for side, m in (
            (Side.W, xp[1:] / hx), (Side.E, -xn[:-1] / hx),
            (Side.S, yp[:, 1:] / hy), (Side.N, -yn[:, :-1] / hy))}
        normal = {Side.W: a1[0], Side.E: a1[-1],
                  Side.S: a2[:, 0], Side.N: a2[:, -1]}
        self.edge = {}
        for side in Side:
            # the edge term of the class docstring
            nu_a = side.sign * normal[side]
            alpha = 0.5 * np.maximum(np.linalg.eigvalsh(nu_a)[..., -1], 0.0)
            q = self.constrained[side]
            sigma = alpha[..., None, None] * np.swapaxes(q, -1, -2) - nu_a
            self.edge[side] = _component_major(
                -(_split_signed(nu_a)[1] + sigma @ q) / (hx, hy)[side.axis])

        if config.u0.components != self.n:
            raise ValueError("initial data component count does not match system")
        # tau = dt / 6 = 1 / (1 / tau_a + lam / 2) splits convexly into an
        # upwind stage of tau_a = cfl h / max speed and u - s B u, which
        # contracts for s <= 2 / lam if B is symmetric, eigenvalues in [0, lam]
        # (this form keeps dt_max bit for bit where lam = 0)
        dt_a = _STEP_TAUS * config.cfl * min(hx, hy) / self.max_speed
        lam = max(0.0, float(np.linalg.eigvalsh(
            0.5 * (b + np.swapaxes(b, -1, -2)))[..., -1].max()))
        self.dt_max = dt_a / (1.0 + dt_a * lam / (2 * _STEP_TAUS))
        self.config = config
        self.shape = (self.n, grid.nx, grid.ny)
        self._tiles = self._plan()
        # the stage matrices of the last (w, s) a sweep used (`_stage`)
        self._stage_for, self._stage_mats = None, None
        # two of the three stage states of `step`; the third is its result
        self._stages = (np.empty(self.shape), np.empty(self.shape))

    def _plan(self) -> list[_Tile]:
        """Each row tile's part of a sweep, fixed once. A neighbour or edge
        stack that is identically zero is left out, neither gathered nor
        multiplied: its product is an exact zero (the class docstring says
        where)."""
        n, nx, ny = self.shape
        size = nx * ny
        neighbour = [s for s, m in self.neighbour.items() if m.any()]
        edge = [(s, m) for s, m in self.edge.items() if m.any()]
        bounds = _tiles(nx, 8 * n * ny)
        blocks = 1 + len(neighbour)
        # one tile's gathered inputs, shared by every tile
        buffer = np.empty(blocks * n * max(r1 - r0 for r0, r1 in bounds) * ny)
        plan = []
        for r0, r1 in bounds:
            start, count = r0 * ny, (r1 - r0) * ny
            gather = buffer[:blocks * n * count].reshape(blocks * n, count)
            # the flat index of each side's nodes in the tile, for the
            # sides whose nodes it holds
            on = {Side.S: slice(0, count, ny),
                  Side.N: slice(ny - 1, count, ny)}
            if r0 == 0:
                on[Side.W] = slice(0, ny)
            if r1 == nx:
                on[Side.E] = slice(count - ny, count)
            terms = []
            for j, side in enumerate(neighbour, 1):
                # in each component's flat order the neighbour across `side`
                # is k places on: the tile's nodes lo..hi read it from the
                # source in or beside the tile; those on `side` have no
                # neighbour there, or would read one wrapped round a row,
                # and read 0
                k = side.sign * (ny, 1)[side.axis]
                lo = max(0, -k - start)
                hi = min(count, size - k - start)
                block = gather[j * n:(j + 1) * n]
                terms.append((side, slice(start + lo + k, start + hi + k),
                              slice(lo, hi), block[:, lo:hi],
                              block[:, on[side]] if side in on else None))
            # a W or E edge stack runs along y, an S or N one along x
            edges = [(side, _nodes(mats, slice(r0, r1) if side.axis else
                                   slice(None)), on[side],
                      gather[:n, on[side]])
                     for side, mats in edge if side in on]
            plan.append(_Tile(slice(start, start + count), gather, terms,
                              edges))
        return plan

    def _stage(self, w: float, s: float) -> list[tuple]:
        """Each tile's stage matrices for dst = w src + s L src: the
        contraction [w I + s C | s N_side ...] over its gathered blocks
        (`_Tile`), one (n, K n) matrix that stands for all nodes or a
        component-major (n, K n, nodes) stack, zero where a block reads no
        neighbour; and its edge terms, each stack times s."""
        n = self.n
        stage = []
        for tile in self._tiles:
            centre = _nodes(self.centre, tile.nodes)
            per_node = centre.shape[2:]
            mats = np.zeros((n, len(tile.gather)) + per_node)
            mats[:, :n] = s * centre + w * np.eye(n).reshape(
                (n, n) + (1,) * len(per_node))
            for j, (side, near, cols, *_) in enumerate(tile.terms, 1):
                block = mats[:, j * n:(j + 1) * n]
                if per_node:
                    block = block[..., cols]
                block[...] = s * _nodes(self.neighbour[side], near)
            stage.append((mats, [(s * m, at, trace)
                                 for _, m, at, trace in tile.edges]))
        return stage

    def _check_state(self, u: np.ndarray):
        if u.shape != self.shape:
            raise ValueError(
                f"state must have shape {self.shape}, got {u.shape}")

    def apply(self, t: float, u: np.ndarray) -> np.ndarray:
        """du/dt at time t, in a new array."""
        self._check_state(u)
        out = np.empty(u.shape)
        self._sweep(t, u, out, 0.0, 1.0)
        return out

    def _sweep(self, t: float, src: np.ndarray, dst: np.ndarray, w: float,
               s: float, base: np.ndarray | None = None):
        """dst = w src + s L(t) src, one planned row tile at a time
        (`_plan`): the tile and its kept neighbour terms' inputs are
        gathered into one buffer and multiplied once by the tile's stage
        matrix (`_stage`, built once per (w, s)), then the edge products
        on its side nodes and s times the forcing are added. With `base`,
        each tile then becomes 3/5 base + 2/5 of that, the averaging stage
        of `step`. A tile reads the rows of src on either side of it, so
        dst must not overlap src."""
        n = self.n
        if self._stage_for != (w, s):
            self._stage_mats, self._stage_for = self._stage(w, s), (w, s)
        flat_src, flat_dst = src.reshape(n, -1), dst.reshape(n, -1)
        forcing = self.config.forcing
        force = None if forcing is None else np.broadcast_to(
            forcing(t), self.shape).reshape(n, -1)
        if base is not None:
            base = base.reshape(n, -1)
        for (nodes, gather, terms, _), (mats, edges) in zip(
                self._tiles, self._stage_mats):
            o, part, first = flat_dst[:, nodes], flat_src[:, nodes], gather[:n]
            first[...] = part
            for _, near, _, fill, zero in terms:
                fill[...] = flat_src[:, near]
                if zero is not None:
                    zero[...] = 0.0
            _mul(mats, gather, o)
            for edge_mats, at, trace in edges:
                _mul(edge_mats, part[:, at], trace)
                edge = o[:, at]
                edge += trace
            if force is not None:
                o += np.multiply(force[:, nodes], s, out=first)
            if base is not None:
                o *= 2 / 5
                o += np.multiply(base[:, nodes], 3 / 5, out=first)

    def run(self, *,
            snapshot: Callable[[float, np.ndarray], None] | None = None):
        """Integrate the config this operator was built from to its t_end.
        Returns the final StateField and the EnergyReport, whose last time
        is the final state's.

        The verdict checks the homogeneous growth bound at every step,
        |u^(k+1)| <= e^(omega dt) |u^k| + STEP_INCREASE_RTOL |u^0| in the
        cell norm |u|^2 = hx hy sum |u_ij|^2, the norm in which the upwind
        rows are summation-by-parts and the SAT closure is dissipative, with
        omega = `omega` from the data. A forcing term is outside that bound,
        so for a forced run the verdict is informational. The initial data
        is stepped as given: the SAT closure imposes the conditions weakly.
        The first step whose norm is not finite ends the run: the report
        stops at the last finite state, which is returned, and its
        max_step_increase is inf, so the verdict fails. `snapshot(t, u)`,
        when given, gets the state at step 0, every max(1, nsteps // 10)
        steps and the last step, when the run reaches it, and must not
        modify it.
        """
        config = self.config
        grid = config.grid
        u = config.u0.values
        nsteps = max(1, int(np.ceil(config.t_end / self.dt_max)))
        dt = config.t_end / nsteps
        snap_every = max(1, nsteps // 10)
        growth = np.exp(self.omega * dt)
        norms = []
        for k in range(nsteps + 1):
            new = step(self, u, (k - 1) * dt, dt) if k else u
            # one dot product over the flat state, with no squared copy of it
            norm = float(np.sqrt(grid.hx * grid.hy * np.vdot(new, new)))
            if not np.isfinite(norm):
                break
            u = new
            norms.append(norm)
            if snapshot is not None and (k % snap_every == 0 or k == nsteps):
                snapshot(k * dt, u)

        norms = np.array(norms)
        if len(norms) > nsteps:
            max_inc = max(0.0, float(np.max(norms[1:] - growth * norms[:-1])))
        else:  # blown up: the step after the last norm is not finite
            max_inc = np.inf
        ok = max_inc <= STEP_INCREASE_RTOL * max(norms[0], 1e-300)
        report = EnergyReport(times=np.arange(len(norms)) * dt, norms=norms,
                              omega=self.omega, max_step_increase=max_inc,
                              verdict=bool(ok))
        return StateField(grid, u), report


def step(op: SpatialOperator, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One SSP(9,3) step, the n = 3 member of Ketcheson's low-storage
    SSP(n^2, 3) family (SIAM J. Sci. Comput. 30, 2008): nine forward-Euler
    stages of tau = dt/6, each dst = src + tau L(t + k tau) src, in turn
    (src -> dst, k): u -> a 0, a -> b 1, b -> r 2, r -> b 3, b -> r 4,
    r -> b 5 then b = 3/5 a + 2/5 b, b -> a 3, a -> b 4, b -> r 5, with a,
    b the operator's two stage buffers and r the returned array.

    Its SSP coefficient is 6: it is a convex combination of such stages
    (Gottlieb, Shu & Tadmor, SIAM Rev. 43, 2001), so it contracts wherever
    forward Euler contracts at tau = dt/6 <= cfl h / speed (`dt_max`). Each
    stage is one sweep of the operator's row tiles: per tile one gathered
    contraction with the stage matrix [I + tau C | tau N_side ...], built
    once per step size, then the edge and forcing terms. Leaves `u`
    untouched and returns a new array."""
    if not dt > 0:  # also NaN
        raise ValueError(f"dt must be positive, got {dt!r}")
    if dt > op.dt_max * (1.0 + 1e-12):
        raise CFLViolation(
            f"dt = {dt:.6g} exceeds the stability bound {op.dt_max:.6g}")
    op._check_state(u)
    tau = dt / _STEP_TAUS
    a, b = op._stages
    r = np.empty(u.shape)
    for src, dst, k, base in ((u, a, 0, None), (a, b, 1, None),
                              (b, r, 2, None), (r, b, 3, None),
                              (b, r, 4, None), (r, b, 5, a),
                              (b, a, 3, None), (a, b, 4, None),
                              (b, r, 5, None)):
        op._sweep(t + k * tau, src, dst, 1.0, tau, base=base)
    return r


def run(config: IVPConfig, *,
        snapshot: Callable[[float, np.ndarray], None] | None = None):
    """`SpatialOperator.run` of a new operator built from `config`."""
    return SpatialOperator(config).run(snapshot=snapshot)


def _side_maps(decomps: dict, nodes: dict, bcs) -> dict:
    """Each side's projectors Q, stacked over its `nodes[side]`, each
    decomposed as `decomps[node]`: the orthogonal projector R^+ R, R =
    Pi_c P^-1, whose kernel is the traces that the node's conditions
    admit. Its norm is 1; the oblique P Pi_c P^-1 with the same kernel
    grows with cond(P), and so does the SAT term, which `dt_max` does not
    see. Each node's P is its own congruence and its Pi_c
    (`_mode_projector`) is fixed by its own synthesized conditions (`bcs`,
    when given, for a single node), so where a mode's sign changes along a
    side its condition switches at that node."""
    maps = {}
    for side in Side:
        found = [decomps[node] for node in nodes[side]]
        p = np.array([d.p for d in found])
        pi = np.array([_mode_projector(d, bcs or assemble_system_bcs(d), side)
                       for d in found])
        rows = pi @ np.linalg.inv(p)
        q = np.linalg.pinv(rows) @ rows  # exactly 0 where Pi_c is
        # where every trace is fixed, Q is exactly I, not R^+ R in roundoff
        eye = np.eye(p.shape[-1])
        q[(pi == eye).all(axis=(-2, -1))] = eye
        maps[side] = q
    return maps
