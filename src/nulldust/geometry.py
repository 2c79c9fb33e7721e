"""Intrinsic geometry of the angular chart: connection and Gauss curvature.

Fields put their slots first and the grid axes (n1, n2) last (fields), so a
derivative slot is a new leading axis and the derivatives run along axes -2
and -1 whatever the slots and batch axes before the grid.  All derivatives
are spectral on the periodic chart, so smooth data converge faster than any
fixed power of the grid spacing.
"""

import numpy as np

from .fields import check_positive_definite, trace
from .grids import AngularGrid
from .stencils import spectral_deriv


def partial(chart: AngularGrid, f: np.ndarray) -> np.ndarray:
    """d_c f for f shaped (*slots, ..., n1, n2), with the derivative slot c
    first: (2, *slots, ..., n1, n2).  Each derivative is copied into its slot
    as soon as it is computed, so one complex spectrum is alive beside the
    output at a time."""
    out = np.empty((2,) + f.shape)
    out[0] = spectral_deriv(f, chart.L1, -2)
    out[1] = spectral_deriv(f, chart.L2, -1)
    return out


def levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols [c, a, b] = Gamma^c_{ab} of a 2-metric from its inverse and
    dg[d, a, b] = d_d g_{ab}: (1/2) g^{cd} (d_a g_{bd} + d_b g_{ad} - d_d g_{ab})."""
    low = 0.5 * (np.swapaxes(dg, 0, 1) + np.swapaxes(dg, 0, 2) - dg)
    out = ginv[:, 0, None, None] * low[None, 0]
    out += ginv[:, 1, None, None] * low[None, 1]
    return out


def christoffel(gamma: np.ndarray, ginv: np.ndarray, chart: AngularGrid) -> np.ndarray:
    """Connection coefficients [c, a, b] = Gamma^c_{ab} of gamma, with ginv the
    caller's inverse of gamma; raises PositivityError where gamma is not
    positive definite."""
    check_positive_definite(gamma)
    return levi_civita(ginv, partial(chart, gamma))


def gauss_curvature(ginv: np.ndarray, chart: AngularGrid, gam: np.ndarray) -> np.ndarray:
    """Gauss curvature K of gamma, from its inverse ginv.

    K is read off the curvature identity
        gamma_{bc} K = d_a Gamma^a_{bc} - d_c Gamma^a_{ba}
                       + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{cd} Gamma^d_{ba}
    through its trace.  gam is christoffel(gamma, ginv, chart).
    """
    dgam = partial(chart, gam)  # [e, c, a, b] = d_e Gamma^c_{ab}
    ric = dgam[0, 0] + dgam[1, 1]  # d_a Gamma^a_{bc}
    ric -= np.swapaxes(dgam[:, 0, :, 0] + dgam[:, 1, :, 1], 0, 1)  # d_c Gamma^a_{ba}
    del dgam  # free it before the products below

    def t3(a, d):  # Gamma^a_{ad} Gamma^d_{bc}
        return gam[a, a, d] * gam[d]

    def t4(a, d):  # Gamma^a_{cd} Gamma^d_{ba}
        return gam[d, :, a, None] * gam[a, None, :, d]

    # the sums over (a, d) in einsum's order: t3 left to right, t4 in pairs over d
    term = t3(0, 0) + t3(0, 1)
    term += t3(1, 0)
    term += t3(1, 1)
    ric += term
    term = t4(0, 0) + t4(0, 1)
    term += t4(1, 0) + t4(1, 1)
    ric -= term  # = gamma_{bc} K
    return 0.5 * trace(ginv, ric)
