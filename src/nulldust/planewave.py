"""Plane-wave families: one-parameter oscillation and concentration profiles,
the wave-factor ODE, and numerical weak-limit extraction.

The metric ansatz is
    g = -2 du dub + H(ub)^2 (exp(G(ub)) dX^2 + exp(-G(ub)) dY^2),
whose only curvature component is
    Ric_ubub = -(1/2) G'(ub)^2 - 2 H''(ub) / H(ub),
so vacuum members solve H'' = -(1/4) (G')^2 H.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteError
from .grids import Grid1D
from .odesolve import DenseSolution, Problem, march
from .quadrature import gauss_legendre_integrate
from .testfunctions import bump, dbump


@dataclass(frozen=True)
class SeedProfile:
    """Smooth seed k with analytic derivative; optionally compactly supported."""

    k: Callable[[np.ndarray], np.ndarray]
    dk: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None  # None: not compactly supported

    def normalized(self) -> "SeedProfile":
        """Rescale so the integral of (k')^2 equals one."""
        lo, hi = self.support if self.support else (-1.0, 1.0)
        val = gauss_legendre_integrate(lambda x: self.dk(x) ** 2, lo, hi, n=256)
        scale = np.sqrt(1.0 / val)
        return SeedProfile(
            lambda x, s=scale: s * self.k(x),
            lambda x, s=scale: s * self.dk(x),
            self.support,
        )


SEEDS = {
    # C^infty bump supported in [-1/2, 1/2]: testfunctions.bump at twice the argument
    "bump": SeedProfile(lambda x: bump(2.0 * np.asarray(x, float)),
                        lambda x: 2.0 * dbump(2.0 * np.asarray(x, float)), (-0.5, 0.5)),
    # slowly varying positive profile for oscillation families
    "cosine": SeedProfile(
        lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * np.asarray(x, dtype=float)),
        lambda x: -np.pi * np.sin(2.0 * np.pi * np.asarray(x, dtype=float)),
    ),
    "const": SeedProfile(lambda x: np.ones_like(np.asarray(x, float)),
                         lambda x: np.zeros_like(np.asarray(x, float))),
}


@dataclass
class WaveProfile:
    """The grid of a plane wave and its analytic G'."""

    grid: Grid1D
    dg: Callable[[np.ndarray], np.ndarray]


def make_burnett_G(lam: float, seed: SeedProfile, grid: Grid1D) -> WaveProfile:
    """Oscillation profile G(ub) = lam * k(ub) * sin(ub / lam)."""
    if lam <= 0:
        raise ValueError("family parameter must be positive")

    def dg(ub):
        return lam * seed.dk(ub) * np.sin(ub / lam) + seed.k(ub) * np.cos(ub / lam)

    return WaveProfile(grid, dg)


def make_shell_G(lam: float, seed: SeedProfile, grid: Grid1D) -> WaveProfile:
    """Concentration profile G(ub) = sqrt(lam) * k(ub / lam).

    The seed must be compactly supported and is rescaled to unit derivative
    energy; the grid must put at least 32 nodes across the support.
    """
    if lam <= 0:
        raise ValueError("family parameter must be positive")
    if seed.support is None:
        raise ValueError("shell profile needs a compactly supported seed")
    seed = seed.normalized()
    width = (seed.support[1] - seed.support[0]) * lam
    if width / grid.h < 32:
        raise ValueError(
            f"grid too coarse for lam={lam:g}: {width / grid.h:.1f} nodes across the pulse (need >= 32)"
        )
    root = np.sqrt(lam)

    def dg(ub):
        return seed.dk(np.asarray(ub, float) / lam) / root

    return WaveProfile(grid, dg)


def solve_H(profile: WaveProfile) -> DenseSolution:
    """Integrate H'' = -(1/4) G'(ub)^2 H with H = 1, H' = 0 at the grid start:
    H, H' and H'' (read back from the ODE right-hand side) are the solution's
    phi, dphi and ddphi on profile.grid.

    Raises FocusingError from the march at the first node where H is
    nonpositive or NaN or H' is not finite.
    """
    return march([Problem([profile.grid], np.zeros_like, lambda ub: 0.25 * profile.dg(ub) ** 2, None, 1.0, 0.0)])[0]


def weak_limit_pairings(
    family: Callable[[float], WaveProfile],
    phis,
    lam_seq,
) -> np.ndarray:
    """Trapezoid pairings of (G_lam')^2 against each test function of phis:
    an (n_phi, n_lam) array.  Each member's (G_lam')^2 is evaluated once."""
    out = np.empty((len(phis), len(lam_seq)))
    for k, lam in enumerate(lam_seq):
        prof = family(lam)
        ub = prof.grid.points()
        energy = prof.dg(ub) ** 2
        for i, phi in enumerate(phis):
            out[i, k] = np.trapezoid(energy * phi(ub), ub)
    return out


_FLAT_TOL = 1e-8  # largest |H''| of a profile without concentration


def jump_detect(factor: DenseSolution, window: float):
    """Locate the H'' concentration of a solve_H solution and return
    (location, H' jump across it).

    Returns None when H'' shows no concentration (flat profile); raises
    NonFiniteError when H' or H'' holds an inf or a NaN anywhere, since the
    jump reads them only near the concentration.
    """
    if not (np.isfinite(factor.dphi).all() and np.isfinite(factor.ddphi).all()):
        raise NonFiniteError("wave factor has a non-finite H' or H''")
    ub = factor.nodes()
    curv = np.abs(factor.ddphi)
    if curv.max() <= _FLAT_TOL:
        return None
    i = int(np.argmax(curv))
    loc = ub[i]
    lo, hi = loc - window, loc + window
    if lo < ub[0] or hi > ub[-1]:
        raise ValueError("window extends past the solution interval")
    dh_lo = np.interp(lo, ub, factor.dphi)
    dh_hi = np.interp(hi, ub, factor.dphi)
    return loc, float(dh_hi - dh_lo)
