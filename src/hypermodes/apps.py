"""Application presets: linearized shallow water (with Coriolis and with
magnetic field), linearized compressible Euler, and the wave equation in
first-order form. Each preset builds the symmetrized coefficient pair. The
closed-form eigenvalues of the two shallow water presets, independent
oracles for the decomposition, live with the tests (`tests/lemmas.py`)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .congruence import SymmetricPair
from .errors import (GenericityViolated, NonPositiveSymmetrizer,
                     NormalizationViolated, NotSymmetrizable)

GENERICITY_RTOL = 1e-10
GENERICITY_WARN_RTOL = 1e-6


def _require_generic(value: float, scale: float, what: str):
    margin = abs(value)
    if margin <= GENERICITY_RTOL * scale:
        raise GenericityViolated(f"{what} (|margin| = {margin:.3e})")
    if margin <= GENERICITY_WARN_RTOL * scale:
        warnings.warn(f"near-degenerate parameters: {what}, distance to "
                      f"degeneracy {margin:.3e}", RuntimeWarning, stacklevel=3)


def symmetrize(e1, e2, b=None, s0=None) -> SymmetricPair:
    """Change variables by the square root of the symmetrizer:
    returns (S0^1/2 E_i S0^-1/2, S0^1/2 B S0^-1/2) as a SymmetricPair.

    Requires finite entries, s0 symmetric positive-definite, S0 Ei symmetric.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if s0 is None:
        s0 = np.eye(e1.shape[0])
    s0 = np.asarray(s0, dtype=float)
    for name, M in (("e1", e1), ("e2", e2), ("b", b), ("s0", s0)):
        if M is not None and not np.isfinite(M).all():
            raise ValueError(f"{name} has a non-finite entry")
    if np.linalg.norm(s0 - s0.T) > 1e-12 * max(np.linalg.norm(s0), 1e-300):
        raise NonPositiveSymmetrizer("s0 must be symmetric")
    w, V = np.linalg.eigh(s0)
    if w.min() <= 0:
        raise NonPositiveSymmetrizer(
            f"s0 has a non-positive eigenvalue ({w.min():.3e})")
    for name, M in (("E1", e1), ("E2", e2)):
        SM = s0 @ M
        err = np.linalg.norm(SM - SM.T) / max(np.linalg.norm(SM), 1e-300)
        if err > 1e-10:
            raise NotSymmetrizable(
                f"S0 {name} is not symmetric (relative asymmetry {err:.3e})")
    root = V @ np.diag(np.sqrt(w)) @ V.T
    root_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    a1 = root @ e1 @ root_inv
    a2 = root @ e2 @ root_inv
    a1 = 0.5 * (a1 + a1.T)
    a2 = 0.5 * (a2 + a2.T)
    bt = root @ np.asarray(b, dtype=float) @ root_inv if b is not None else None
    return SymmetricPair(a1=a1, a2=a2, b=bt)


# --- shallow water ------------------------------------------------------------


@dataclass(frozen=True)
class SWEParams:
    """Linearized shallow water reference state."""

    u0: float
    v0: float
    phi0: float
    g: float
    f_cor: float = 0.0

    def __post_init__(self):
        if self.phi0 <= 0 or self.g <= 0:
            raise GenericityViolated("phi0 and g must be positive")
        scale = max(self.u0 ** 2, self.v0 ** 2, self.g * self.phi0)
        _require_generic(self.u0 ** 2 - self.g * self.phi0, scale,
                         "u0^2 = g*phi0")
        _require_generic(self.v0 ** 2 - self.g * self.phi0, scale,
                         "v0^2 = g*phi0")
        _require_generic(self.u0 ** 2 + self.v0 ** 2 - self.g * self.phi0, scale,
                         "u0^2 + v0^2 = g*phi0")
        _require_generic(self.u0, abs(self.u0) + abs(self.v0), "u0 = 0")
        _require_generic(self.v0, abs(self.u0) + abs(self.v0), "v0 = 0")


def swe_raw_matrices(p: SWEParams):
    e1 = np.array([
        [p.u0, 0.0, p.g],
        [0.0, p.u0, 0.0],
        [p.phi0, 0.0, p.u0],
    ])
    e2 = np.array([
        [p.v0, 0.0, 0.0],
        [0.0, p.v0, p.g],
        [0.0, p.phi0, p.v0],
    ])
    b = np.array([
        [0.0, -p.f_cor, 0.0],
        [p.f_cor, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    s0 = np.diag([1.0, 1.0, p.g / p.phi0])
    return e1, e2, b, s0


def preset_swe(p: SWEParams) -> SymmetricPair:
    """Symmetrized shallow water pair with sqrt(g*phi0) couplings and the
    skew Coriolis term."""
    return symmetrize(*swe_raw_matrices(p))


# --- shallow water magnetohydrodynamics ----------------------------------------


@dataclass(frozen=True)
class SWMHDParams:
    """Linearized rotating-layer magnetohydrodynamics reference state."""

    u0: float
    v0: float
    b10: float
    b20: float
    phi0: float
    g: float

    def __post_init__(self):
        if self.phi0 <= 0 or self.g <= 0:
            raise GenericityViolated("phi0 and g must be positive")
        vel = max(abs(self.u0), abs(self.v0), abs(self.b10), abs(self.b20), 1.0)
        _require_generic(self.u0, vel, "u0 = 0")
        _require_generic(self.v0, vel, "v0 = 0")
        _require_generic(self.u0 - self.b10, vel, "u0 = b10")
        _require_generic(self.v0 - self.b20, vel, "v0 = b20")
        _require_generic(self.u0 + self.b10, vel, "u0 = -b10")
        _require_generic(self.v0 + self.b20, vel, "v0 = -b20")
        sc = vel ** 2 + self.g * self.phi0
        dx = self.b10 ** 2 - self.u0 ** 2 + self.g * self.phi0
        dy = self.b20 ** 2 - self.v0 ** 2 + self.g * self.phi0
        _require_generic(dx, sc, "b10^2 - u0^2 + g*phi0 = 0")
        _require_generic(dy, sc, "b20^2 - v0^2 + g*phi0 = 0")
        disc = (self.b10 * self.b20 - self.u0 * self.v0) ** 2 - dx * dy
        _require_generic(disc, sc ** 2, "magneto-gravity discriminant = 0")


def swmhd_raw_matrices(p: SWMHDParams):
    e1 = np.array([
        [p.u0, 0.0, -p.b10, 0.0, p.g],
        [0.0, p.u0, 0.0, -p.b10, 0.0],
        [-p.b10, 0.0, p.u0, 0.0, 0.0],
        [0.0, -p.b10, 0.0, p.u0, 0.0],
        [p.phi0, 0.0, 0.0, 0.0, p.u0],
    ])
    e2 = np.array([
        [p.v0, 0.0, -p.b20, 0.0, 0.0],
        [0.0, p.v0, 0.0, -p.b20, p.g],
        [-p.b20, 0.0, p.v0, 0.0, 0.0],
        [0.0, -p.b20, 0.0, p.v0, 0.0],
        [0.0, p.phi0, 0.0, 0.0, p.v0],
    ])
    s0 = np.diag([1.0, 1.0, 1.0, 1.0, p.g / p.phi0])
    return e1, e2, s0


def preset_swmhd(p: SWMHDParams) -> SymmetricPair:
    e1, e2, s0 = swmhd_raw_matrices(p)
    return symmetrize(e1, e2, s0=s0)


# --- compressible Euler ---------------------------------------------------------


@dataclass(frozen=True)
class EulerParams:
    """Linearized compressible Euler reference state and pressure-law slopes."""

    u0: float
    v0: float
    rho0: float
    p0: float
    dp_drho: float
    dp_de: float

    def __post_init__(self):
        if self.rho0 <= 0:
            raise NonPositiveSymmetrizer("rho0 must be positive")
        if self.p0 <= 0:
            raise NonPositiveSymmetrizer("p0 must be positive")
        if self.dp_drho <= 0 or self.dp_de <= 0:
            raise NonPositiveSymmetrizer(
                "pressure-law slopes must be positive for a positive-definite "
                "symmetrizer")


def euler_raw_matrices(p: EulerParams):
    pr = p.dp_drho / p.rho0
    pe = p.dp_de / p.rho0
    e1 = np.array([
        [p.u0, 0.0, pr, pe],
        [0.0, p.u0, 0.0, 0.0],
        [p.rho0, 0.0, p.u0, 0.0],
        [p.p0 / p.rho0, 0.0, 0.0, p.u0],
    ])
    e2 = np.array([
        [p.v0, 0.0, 0.0, 0.0],
        [0.0, p.v0, pr, pe],
        [0.0, p.rho0, p.v0, 0.0],
        [0.0, p.p0 / p.rho0, 0.0, p.v0],
    ])
    s0 = np.diag([1.0, 1.0, p.dp_drho / p.rho0 ** 2, p.dp_de / p.p0])
    return e1, e2, s0


def preset_euler(p: EulerParams) -> SymmetricPair:
    e1, e2, s0 = euler_raw_matrices(p)
    return symmetrize(e1, e2, s0=s0)


# --- wave equation ---------------------------------------------------------------


@dataclass(frozen=True)
class WaveParams:
    """First-order reduction parameters, a point on the unit circle."""

    alpha: float
    beta: float

    def __post_init__(self):
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > 1e-12:
            raise NormalizationViolated(
                f"alpha^2 + beta^2 = {self.alpha ** 2 + self.beta ** 2:.17g} "
                "must equal 1")


def preset_wave(p: WaveParams) -> SymmetricPair:
    """The 2x2 pair of the first-order wave system; decomposing it yields
    exactly one elliptic mode with determinant condition 1."""
    t1 = np.array([[-p.beta, p.alpha], [p.alpha, p.beta]])
    t2 = np.array([[p.alpha, p.beta], [p.beta, -p.alpha]])
    return SymmetricPair(a1=t1, a2=t2)


PRESETS = {
    "swe": (SWEParams, preset_swe),
    "swmhd": (SWMHDParams, preset_swmhd),
    "euler": (EulerParams, preset_euler),
    "wave": (WaveParams, preset_wave),
}
