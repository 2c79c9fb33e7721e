"""Intrinsic geometry of the angular chart: connection and Gauss curvature.

All derivatives are spectral on the periodic chart, so smooth data converge
faster than any fixed power of the grid spacing.
"""

import numpy as np

from .fields import check_positive_definite, levi_civita, sym2_det, trace
from .grids import AngularGrid
from .stencils import spectral_deriv


def partial(chart: AngularGrid, f: np.ndarray, lead: int) -> np.ndarray:
    """d_c f for f shaped (lead batch axes, n1, n2, *slots): the derivative
    slot c is inserted after the grid axes, (batch, n1, n2, 2, *slots).  Each
    derivative is copied into its slot as soon as it is computed, so one
    complex spectrum is alive beside the output at a time."""
    out = np.empty(f.shape[:lead + 2] + (2,) + f.shape[lead + 2:])
    grid = (slice(None),) * (lead + 2)
    out[grid + (0,)] = spectral_deriv(f, chart.L1, lead)
    out[grid + (1,)] = spectral_deriv(f, chart.L2, lead + 1)
    return out


def christoffel(gamma: np.ndarray, ginv: np.ndarray, chart: AngularGrid) -> np.ndarray:
    """Connection coefficients of gamma, indexed [..., c, a, b] = Gamma^c_{ab};
    leading axes of gamma before (n1, n2, 2, 2) are a batch of slices, and
    ginv is the caller's inverse of gamma (fields.levi_civita)."""
    check_positive_definite(gamma)
    return levi_civita(ginv, partial(chart, gamma, gamma.ndim - 4))


def gauss_curvature(ginv: np.ndarray, chart: AngularGrid, gam: np.ndarray) -> np.ndarray:
    """Gauss curvature K of gamma, from its inverse ginv (leading axes batch slices).

    K is read off the curvature identity
        gamma_{bc} K = d_a Gamma^a_{bc} - d_c Gamma^a_{ba}
                       + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{cd} Gamma^d_{ba}
    through its trace.  gam is christoffel(gamma, ginv, chart).
    """
    dgam = partial(chart, gam, gam.ndim - 5)  # [..., e, c, a, b] = d_e Gamma^c_{ab}
    ric = dgam[..., 0, 0, :, :] + dgam[..., 1, 1, :, :]  # d_a Gamma^a_{bc}
    ric -= np.swapaxes(dgam[..., :, 0, :, 0] + dgam[..., :, 1, :, 1], -1, -2)  # d_c Gamma^a_{ba}
    del dgam  # free it before the products below

    def t3(a, d):  # Gamma^a_{ad} Gamma^d_{bc}
        return gam[..., a, a, d, None, None] * gam[..., d, :, :]

    def t4(a, d):  # Gamma^a_{cd} Gamma^d_{ba}
        return gam[..., d, :, a, None] * gam[..., a, None, :, d]

    # the sums over (a, d) in einsum's order: t3 left to right, t4 in pairs over d
    term = t3(0, 0) + t3(0, 1)
    term += t3(1, 0)
    term += t3(1, 1)
    ric += term
    term = t4(0, 0) + t4(0, 1)
    term += t4(1, 0) + t4(1, 1)
    ric -= term  # = gamma_{bc} K
    return 0.5 * trace(ginv, ric)


def area_element(gamma: np.ndarray) -> np.ndarray:
    """sqrt(det gamma): density of the metric area form in chart coordinates."""
    return np.sqrt(sym2_det(gamma))
