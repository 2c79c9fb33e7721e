"""Polarized oscillatory cosmological family with Bessel profiles, its uniform
limit, and the two-beam dust Einstein tensor of the limit.

Family on (tau, theta, sigma, delta), theta periodic:
    g_n = exp((tau - alpha_n)/2) (-exp(-2 tau) dtau^2 + dtheta^2)
          + exp(-tau) (exp(P_n) dsigma^2 + exp(-P_n) ddelta^2)
with P_n, alpha_n built from J0, J1, J2 at argument n exp(-tau).  The n -> oo
limit replaces alpha_n by -A^2 exp(-tau)/pi and P_n by 0; its Einstein tensor
has exactly two nonvanishing components,
    G_tautau = A^2 exp(-tau) / (4 pi),   G_thetatheta = A^2 exp(tau) / (4 pi).
"""

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j
from .fields import MetricBlock
from .grids import Grid1D
from .pool import pmap
from .rates import fit_rate
from .ricci4 import spacetime_ricci


def eval_family(n: int, amplitude: float, tau: np.ndarray, theta: np.ndarray):
    """(P_n, alpha_n) on the tensor grid of the float arrays tau x theta.

    Requires the grids to resolve frequency n: at least 16 nodes per
    oscillation in theta and in tau (where the local tau frequency is
    n exp(-tau) at most).
    """
    _check_resolution(n, tau, theta)
    return _p_alpha(n, amplitude, tau, theta)


def _p_alpha(n, amplitude, tau, theta):
    """The P_n and alpha_n formulas on the tensor grid tau (T,) x theta (N,)."""
    x = n * np.exp(-tau)[:, None]
    j0, j1, j2 = bessel_j(0, x), bessel_j(1, x), bessel_j(2, x)
    a = amplitude
    p = (a / np.sqrt(n)) * j0 * np.sin(n * theta)[None, :]
    alpha = -(a * a * np.exp(-tau)[:, None] / 2.0) * j1 * j0 * np.cos(2 * n * theta)[None, :] - (
        a * a * n * np.exp(-2.0 * tau)[:, None] / 4.0
    ) * (j0 * j0 + 2.0 * j1 * j1 - j0 * j2)
    return p, alpha


def _check_resolution(n, tau, theta):
    if len(theta) > 1:
        dtheta = theta[1] - theta[0]
        if 2.0 * np.pi / n < 16 * dtheta:
            raise ValueError(
                f"theta grid under-resolves frequency n={n}: "
                f"{2.0 * np.pi / (n * dtheta):.1f} nodes per oscillation (need >= 16)"
            )
    if len(tau) > 1:
        dtau = tau[1] - tau[0]
        freq = n * np.exp(-tau.min())  # fastest local oscillation in tau
        if 2.0 * np.pi / freq < 16 * dtau:
            raise ValueError(f"tau grid under-resolves frequency {freq:.1f} (need >= 16 nodes/cycle)")


def family_metric(n: int, amplitude: float, tau_grid: Grid1D, theta_grid: Grid1D) -> MetricBlock:
    """Sampled 4-metric of the family member n (theta treated as periodic)."""
    tau = tau_grid.points()
    theta = theta_grid.points_periodic()
    p, alpha = eval_family(n, amplitude, tau, theta)
    g = np.zeros((len(tau), len(theta), 4, 4))
    _fill(g, tau[:, None], p, alpha)
    return MetricBlock(
        active=(0, 1),
        grids=(tau_grid, theta_grid),
        periodic=(False, True),
        g=g,
    )


def limit_metric_block(amplitude: float, tau_grid: Grid1D) -> MetricBlock:
    """Closed-form uniform-limit metric; depends on tau only."""
    tau = tau_grid.points()
    alpha = -(amplitude**2) * np.exp(-tau) / np.pi
    g = np.zeros((tau_grid.n, 4, 4))
    _fill(g, tau, np.zeros_like(alpha), alpha)
    return MetricBlock(
        active=(0,),
        grids=(tau_grid,),
        periodic=(False,),
        g=g,
    )


def _fill(g, tau, p, alpha):
    conf = np.exp(0.5 * (tau - alpha))
    tv = np.exp(-tau)
    g[..., 0, 0] = -conf * np.exp(-2.0 * tau)
    g[..., 1, 1] = conf
    g[..., 2, 2] = tv * np.exp(p)
    g[..., 3, 3] = tv * np.exp(-p)


@dataclass
class VacuumResidual:
    residuals: list  # max |Ric| per grid
    observed_order: float


def vacuum_residual_scan(n: int, amplitude: float, sizes) -> VacuumResidual:
    """Max curvature norm of the family member n (vacuum up to discretization)
    over tau in [0, 1] across a sequence of grid sizes, plus the fitted order.

    The members run at the same time, largest first (the largest is about
    half the work).  Their grids are built and checked in input order
    first, so a bad member raises the error a loop over sizes would.
    """
    grids = []
    for m in sizes:
        tg, thg = Grid1D(0.0, 1.0, m + 1), Grid1D(0.0, 2.0 * np.pi, m)
        _check_resolution(n, tg.points(), thg.points_periodic())
        grids.append((tg, thg))
    largest_first = sorted(grids, key=lambda g: -g[1].n)
    found = dict(zip(largest_first, pmap(lambda g: _max_ricci(n, amplitude, *g), largest_first)))
    res = [found[g] for g in grids]
    return VacuumResidual(res, fit_rate(np.array([tg.h for tg, _ in grids]), np.array(res)))


def _max_ricci(n, amplitude, tg, thg):
    return float(np.abs(spacetime_ricci(family_metric(n, amplitude, tg, thg)).ricci).max())


_LIMIT_N_TAU = 513  # odd, so the middle node sits at tau
_LIMIT_HALFWIDTH = 0.5


def limit_einstein(amplitude: float, tau: float):
    """Numerical (G_tautau, G_thetatheta) of the limit metric at tau, with targets.

    Returns dict with computed values, analytic targets A^2 e^{-tau}/(4 pi)
    and A^2 e^{tau}/(4 pi), and the max off-target component norm.
    """
    tg = Grid1D(tau - _LIMIT_HALFWIDTH, tau + _LIMIT_HALFWIDTH, _LIMIT_N_TAU)
    block = limit_metric_block(amplitude, tg)
    out = spacetime_ricci(block)
    i = _LIMIT_N_TAU // 2
    ein = out.einstein[i]
    off = ein.copy()
    off[0, 0] = 0.0
    off[1, 1] = 0.0
    return {
        "G_tautau": float(ein[0, 0]),
        "G_thetatheta": float(ein[1, 1]),
        "target_tautau": amplitude**2 * np.exp(-tau) / (4.0 * np.pi),
        "target_thetatheta": amplitude**2 * np.exp(tau) / (4.0 * np.pi),
        "max_off_component": float(np.abs(off).max()),
    }


def null_frame_dust_components(g_tautau: float, g_thetatheta: float, tau: float):
    """Transform the two diagonal limit components to the double-null chart.

    With ub = -exp(-tau) + theta and u = -exp(-tau) - theta,
        G_uu  = G_tautau e^{2 tau}/4 + G_thetatheta/4,
        G_ubub = the same expression,
    so the two beams carry equal strength.

    Both returned values are the same float, so criterion 3's
    two_beam_symmetry check (|G_uu - G_ubub| < 1e-15) cannot fail.  Its
    label is a key of perfbench/reference.json, so dropping or redefining it
    waits for a change that may move that reference.
    """
    guu = 0.25 * (g_tautau * np.exp(2.0 * tau) + g_thetatheta)
    return guu, guu


def alpha_limit_gap(n_values, amplitude: float, tau: float):
    """sup_theta |alpha_n + A^2 e^{-tau}/pi| per n, on 256 theta nodes.

    The formula is evaluated directly, without eval_family's resolution
    check: theta only samples the sup, it does not resolve frequency n.
    """
    target = -(amplitude**2) * np.exp(-tau) / np.pi
    theta = np.arange(256) * (2.0 * np.pi / 256)
    return np.array([
        float(np.abs(_p_alpha(n, amplitude, np.array([tau], float), theta)[1][0] - target).max())
        for n in n_values
    ])
