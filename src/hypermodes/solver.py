"""Method-of-lines IBVP simulator on the rectangle.

First-order characteristic upwinding per coordinate direction (the discrete
counterpart of strictly dissipative boundary conditions), ghost closures and
after-stage projection that impose the synthesized conditions on the mode
variables, and the four-stage third-order strong-stability-preserving
Runge-Kutta scheme SSP-RK(4,3), with SSP coefficient 2 (Kraaijevanger, BIT
31, 1991; Spiteri & Ruuth, SIAM J. Numer. Anal. 40, 2002). Each of its
steps of size dt is a convex combination of projected forward-Euler steps
of size dt/2, so wherever forward Euler contracts at dt/2, so does the
step. The energy report checks the bound |u+| <= e^(omega dt) |u| at every
step, with omega from the data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .congruence import (ModeDecomposition, SymmetricPair,
                         simultaneous_diagonalize)
from .errors import CFLViolation, UnstableCoefficients
from .modes import (BCAssignment, ScalarModeBC, Side, assemble_system_bcs,
                    check_variable_coeff_assumptions, growth_rate,
                    sample_coefficients)
from .operators import RectGrid, StateField

log = logging.getLogger(__name__)

STEP_INCREASE_RTOL = 1e-10
SPEED_RTOL = 1e-8  # a speed this small drives the stable step size to 0


@dataclass(frozen=True)
class EnergyReport:
    """Discrete L2 norm trajectory and the per-step energy verdict.

    `omega` is the growth rate from the data (`modes.growth_rate`), and
    `max_step_increase` is the largest |u^(k+1)| - e^(omega dt) |u^k| over
    the steps, floored at 0. The verdict passes iff that is at most
    STEP_INCREASE_RTOL |u^0|.
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
    var_setup: "VariableCoefficientSetup | None" = None
    bcs: list[BCAssignment] | None = None
    forcing: Callable[[float], np.ndarray] | None = None
    # dt_max = 2 cfl h / max speed, with cfl in (0, 0.5]: each of a step's
    # four stages is a forward-Euler step of dt/2 <= cfl h / max speed, inside
    # the 2-D upwind bound dt/2 (speed_x / hx + speed_y / hy) <= 1 under which
    # projected forward Euler, and with it SSP-RK(4,3), contracts on the four
    # presets
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


def _max_speed(a1, a2) -> float:
    """Largest |eigenvalue| of the a1, a2 stacks; none may (nearly) vanish."""
    top = 0.0
    for name, mats in (("x", a1), ("y", a2)):
        w = np.abs(np.linalg.eigvalsh(mats))
        scale = max(w.max(), 1e-300)
        if w.min() <= SPEED_RTOL * scale:
            raise UnstableCoefficients(
                f"a wave speed along the {name} direction vanishes "
                f"(|speed|min/|speed|max = {w.min() / scale:.3e})")
        top = max(top, float(w.max()))
    return top


def _split_signed(mats: np.ndarray):
    """Positive/negative parts of symmetric matrices (batched over leading axes)."""
    w, V = np.linalg.eigh(mats)
    pos = np.einsum("...ab,...b,...cb->...ac", V, np.maximum(w, 0.0), V)
    neg = np.einsum("...ab,...b,...cb->...ac", V, np.minimum(w, 0.0), V)
    return pos, neg


def _faces(a: np.ndarray, axis: int) -> np.ndarray:
    """Frozen coefficients on the faces along `axis` of a node stack: the
    arithmetic mean of adjacent nodes inside, the boundary node's own value
    on the two boundary faces. Face k lies before node k."""
    a = np.moveaxis(a, axis, 0)
    faces = np.concatenate([a[:1], 0.5 * (a[1:] + a[:-1]), a[-1:]])
    return np.moveaxis(faces, 0, axis)


def _mode_projector(decomp: ModeDecomposition, bcs, side: Side) -> np.ndarray:
    """Projector in mode variables keeping only traces admissible on `side`."""
    n = decomp.order
    Pi = np.eye(n)
    for bc, sl in zip(bcs, decomp.mode_slices()):
        if isinstance(bc, ScalarModeBC):
            if side in bc.sides:
                Pi[sl, sl] = 0.0
        else:
            a, b = bc.conditions[side]
            q = np.array([a, b])
            Pi[sl, sl] = np.eye(2) - np.outer(q, q) / (q @ q)
    return Pi


def _mul(mats: np.ndarray, v: np.ndarray, out: np.ndarray):
    """out = M v at every node of v (n, ...) for a per-node stack
    (..., n, n); a stack of one node stands for all nodes. `out` is
    C-contiguous."""
    n = mats.shape[-1]
    if mats.size == n * n:
        np.matmul(mats.reshape(n, n), v.reshape(n, -1), out=out.reshape(n, -1))
    else:
        np.einsum("...ab,b...->a...", mats, v, out=out)


class SpatialOperator:
    """Semidiscrete upwind operator with mode-variable boundary closure.

    Stencil form: du/dt at a node is a centre matrix (upwind diagonal and
    -B) times u there plus a neighbour matrix times u at each of its W, E, S
    and N neighbours; on a boundary row the missing neighbour is the ghost
    value S u of the side map S, folded into an edge correction. Each term
    is a per-node stack (neighbour terms aligned to the source node);
    constant coefficients build the same stacks from one node that stands
    for all. `omega` is the growth rate of the energy identity on those
    stacks (`modes.growth_rate`). `apply` and `project` reuse private
    buffers: one caller at a time. A bare `sampler` passes
    `check_variable_coeff_assumptions` first; a given `var_setup`, like a
    given `decomp`, is trusted.
    """

    def __init__(self, config: IVPConfig):
        grid = config.grid
        self.grid = grid
        self.forcing = config.forcing
        hx, hy = grid.hx, grid.hy

        if config.sampler is not None:
            setup = config.var_setup
            if setup is None:
                check_variable_coeff_assumptions(config.sampler, grid)
                setup = variable_coeff_setup(config.sampler, grid)
            a1, a2, b, decomps = setup.a1, setup.a2, setup.b, setup.decomps
        else:
            pair = config.pair
            a1, a2 = pair.a1[None, None], pair.a2[None, None]
            b = np.zeros_like(a1) if pair.b is None else pair.b[None, None]
            decomps = dict.fromkeys(Side, [config.decomp
                                           or simultaneous_diagonalize(pair)])
        self.side_map = _side_maps(decomps, config.bcs)
        self.n = a1.shape[-1]
        self.max_speed = _max_speed(a1, a2)
        self.omega = growth_rate(a1, a2, b, hx, hy)

        xp, xn = _split_signed(_faces(a1, 0))
        yp, yn = _split_signed(_faces(a2, 1))
        self.centre = ((xn[1:] - xp[:-1]) / hx + (yn[:, 1:] - yp[:, :-1]) / hy
                       - b)
        self.neighbour = {Side.W: xp[1:] / hx, Side.E: -xn[:-1] / hx,
                          Side.S: yp[:, 1:] / hy, Side.N: -yn[:, :-1] / hy}
        ghost = {Side.W: xp[0] / hx, Side.E: -xn[-1] / hx,
                 Side.S: yp[:, 0] / hy, Side.N: -yn[:, -1] / hy}
        self.edge = {side: ghost[side] @ self.side_map[side] for side in Side}

        if config.u0.components != self.n:
            raise ValueError("initial data component count does not match system")
        self.dt_max = 2 * config.cfl * min(hx, hy) / self.max_speed
        shape = (self.n, grid.nx, grid.ny)
        # flat (destination, source) slices that carry a product at a node
        # to the node across `side` from it, d places on in the flat order
        self._shift = {}
        for side in Side:
            d = -side.sign * (grid.ny, 1)[side.axis]
            self._shift[side] = ((slice(d, None), slice(None, -d)) if d > 0
                                 else (slice(None, d), slice(-d, None)))
        self._shifted = np.empty(shape)
        self._trace = {side: np.empty(self._shifted[side.edge].shape)
                       for side in Side}
        # SSP-RK(4,3) stage slope and stage state, used by `step`
        self._k = np.empty(shape)
        self._v = np.empty(shape)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Map the boundary traces of `u` through the side maps in place,
        W, E, S, N in turn (a corner takes both of its sides' maps).
        Returns `u`."""
        for side in Side:
            trace = u[side.edge]
            _mul(self.side_map[side], trace, self._trace[side])
            trace[...] = self._trace[side]
        return u

    def apply(self, t: float, u: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """du/dt at time t, written into `out` (C-contiguous, shaped like
        `u`, not `u` itself) when given, else into a new array."""
        if out is None:
            out = np.empty(u.shape)
        elif (out.shape != u.shape or not out.flags.c_contiguous
              or np.may_share_memory(out, u)):
            raise ValueError("out must be C-contiguous, shaped like u, apart from u")
        _mul(self.centre, u, out)
        flat, tmp = out.reshape(-1), self._shifted
        for side in Side:
            # a flat shift moves each product a fixed distance; the boundary
            # row with no node across it is zeroed, so adds that wrap add 0
            _mul(self.neighbour[side], u, tmp)
            tmp[side.opposite.edge] = 0.0
            dst, src = self._shift[side]
            flat[dst] += tmp.reshape(-1)[src]
        for side in Side:
            _mul(self.edge[side], u[side.edge], self._trace[side])
            out[side.edge] += self._trace[side]
        if self.forcing is not None:
            out += self.forcing(t)
        return out


def step(op: SpatialOperator, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One projected SSP-RK(4,3) step in Shu-Osher form, four applies, each
    stage a projected forward-Euler step of dt/2:

        u1 = P(u  + dt/2 L(t) u)
        u2 = P(u1 + dt/2 L(t + dt/2) u1)
        u3 = P(2/3 u + 1/3 (u2 + dt/2 L(t + dt) u2))
        u+ = P(u3 + dt/2 L(t + dt/2) u3)

    with P the boundary projection. Its SSP coefficient is 2 (Kraaijevanger,
    BIT 31, 1991; Spiteri & Ruuth, SIAM J. Numer. Anal. 40, 2002): it
    contracts wherever projected forward Euler contracts at dt/2. Leaves
    `u` untouched and returns a new array."""
    if dt > op.dt_max * (1.0 + 1e-12):
        raise CFLViolation(
            f"dt = {dt:.6g} exceeds the stability bound {op.dt_max:.6g}")
    k, v, half = op._k, op._v, dt / 2
    op.apply(t, u, out=k)
    np.multiply(k, half, out=v)
    v += u
    op.apply(t + half, op.project(v), out=k)
    k *= half
    v += k
    op.apply(t + dt, op.project(v), out=k)
    k *= half
    v += k
    v *= 1 / 3
    result = u * (2 / 3)
    result += v
    op.apply(t + half, op.project(result), out=k)
    k *= half
    result += k
    return op.project(result)


def run(config: IVPConfig):
    """Integrate to t_end. Returns (trajectory, EnergyReport) where the
    trajectory is a list of (t, StateField) snapshots.

    The verdict checks the homogeneous growth bound at every step,
    |u^(k+1)| <= e^(omega dt) |u^k| + STEP_INCREASE_RTOL |u^0| in the
    trapezoid norm, with omega = `SpatialOperator.omega` from the data. A
    forcing term is outside that bound, so for a forced run the verdict is
    informational.
    """
    op = SpatialOperator(config)
    grid = config.grid
    w = grid.quad_weights()

    u0 = config.u0.values
    u = op.project(u0.copy())
    drift = np.abs(u - u0).max()
    if drift > 1e-12 * max(np.abs(u0).max(), 1e-300):
        log.warning(
            "initial data violates the synthesized boundary conditions "
            "(max adjustment %.3e); projected onto the admissible set", drift)

    nsteps = max(1, int(np.ceil(config.t_end / op.dt_max)))
    dt = config.t_end / nsteps
    snap_every = max(1, nsteps // 10)
    growth = np.exp(op.omega * dt)

    def norm_of(v):
        return float(np.sqrt(np.sum(w * np.sum(v * v, axis=0))))

    times = [0.0]
    norms = [norm_of(u)]
    trajectory = [(0.0, StateField(grid, u.copy()))]
    max_inc = 0.0
    t = 0.0
    for k in range(nsteps):
        u = step(op, u, t, dt)
        t = (k + 1) * dt
        nn = norm_of(u)
        max_inc = max(max_inc, nn - growth * norms[-1])
        times.append(t)
        norms.append(nn)
        if (k + 1) % snap_every == 0 or k + 1 == nsteps:
            trajectory.append((t, StateField(grid, u.copy())))

    ok = max_inc <= STEP_INCREASE_RTOL * max(norms[0], 1e-300)
    report = EnergyReport(times=np.asarray(times), norms=np.asarray(norms),
                          omega=op.omega, max_step_increase=max_inc,
                          verdict=bool(ok))
    return trajectory, report


# --- variable coefficients -------------------------------------------------


@dataclass
class VariableCoefficientSetup:
    """Per-node coefficient samples and the decomposition at each boundary
    node."""

    grid: RectGrid
    a1: np.ndarray            # (nx, ny, n, n)
    a2: np.ndarray
    b: np.ndarray             # (nx, ny, n, n), zero where the sampler has none
    decomps: dict             # Side -> [ModeDecomposition] along the side

    @property
    def order(self) -> int:
        return self.a1.shape[-1]


def variable_coeff_setup(sampler, grid: RectGrid) -> VariableCoefficientSetup:
    """Sample each node once and decompose only the boundary nodes, whose
    conditions the side maps need. The sampler is assumed admitted by
    `modes.check_variable_coeff_assumptions`; a defective boundary node
    still fails its own decomposition. Each boundary node is decomposed on
    its own and later takes its own synthesized conditions, so where a
    mode's sign changes along a side its condition switches at that node."""
    a1, a2, b = sample_coefficients(sampler, grid)

    cache = {}   # each corner ends two sides

    def decomposition(node):
        if node not in cache:
            pair = SymmetricPair(a1=a1[node], a2=a2[node])
            cache[node] = simultaneous_diagonalize(pair)
        return cache[node]

    # the (i, j) index of each node along a side, in trace order
    ij = np.indices((grid.nx, grid.ny))
    decomps = {side: [decomposition(tuple(node)) for node in ij[side.edge].T]
               for side in Side}
    return VariableCoefficientSetup(grid=grid, a1=a1, a2=a2, b=b,
                                    decomps=decomps)


def _side_maps(decomps: dict, bcs) -> dict:
    """Trace maps P Pi P^-1 of each side, stacked over the decompositions
    `decomps[side]` of its nodes (one node when it stands for all). Each
    node's P is its own congruence and its Pi keeps the traces its own
    synthesized conditions admit (`bcs`, when given, for a single node),
    so where a mode's sign changes along a side its condition switches at
    that node."""
    maps = {}
    for side in Side:
        p = np.array([d.p for d in decomps[side]])
        pi = np.array([_mode_projector(d, bcs or assemble_system_bcs(d), side)
                       for d in decomps[side]])
        maps[side] = np.einsum("...ab,...bc,...cd->...ad", p, pi,
                               np.linalg.inv(p))
    return maps
