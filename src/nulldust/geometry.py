"""Intrinsic geometry of the angular chart: connection and Gauss curvature.

All derivatives are spectral on the periodic chart, so smooth data converge
faster than any fixed power of the grid spacing.
"""

import numpy as np

from .fields import check_positive_definite, sym2_inverse
from .grids import AngularGrid
from .stencils import spectral_deriv


def partial(chart: AngularGrid, f: np.ndarray, lead: int) -> np.ndarray:
    """d_c f for f shaped (lead batch axes, n1, n2, *slots): the derivative
    slot c is inserted after the grid axes, (batch, n1, n2, 2, *slots)."""
    return np.stack([spectral_deriv(f, chart.L1, axis=lead), spectral_deriv(f, chart.L2, axis=lead + 1)],
                    axis=lead + 2)


def christoffel(gamma: np.ndarray, chart: AngularGrid) -> np.ndarray:
    """Connection coefficients of gamma, indexed [..., c, a, b] = Gamma^c_{ab};
    leading axes of gamma before (n1, n2, 2, 2) are a batch of slices.

    Gamma^c_{ab} = (1/2) gamma^{cd} (d_a gamma_{bd} + d_b gamma_{ad} - d_d gamma_{ab})
    """
    check_positive_definite(gamma)
    ginv = sym2_inverse(gamma)
    dg = partial(chart, gamma, gamma.ndim - 4)
    # lower-index symbol: [..., d, a, b] = (d_a g_{bd} + d_b g_{ad} - d_d g_{ab}) / 2
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    return np.einsum("...cd,...dab->...cab", ginv, low)


def gauss_curvature(gamma: np.ndarray, chart: AngularGrid, gam: np.ndarray) -> np.ndarray:
    """Gauss curvature K of gamma (leading axes before (n1, n2, 2, 2) batch slices).

    K is read off the curvature identity
        gamma_{bc} K = d_a Gamma^a_{bc} - d_c Gamma^a_{ba}
                       + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{cd} Gamma^d_{ba}
    through its trace.  gam is christoffel(gamma, chart).
    """
    dgam = partial(chart, gam, gamma.ndim - 4)  # [..., e, c, a, b] = d_e Gamma^c_{ab}

    term1 = np.einsum("...aabc->...bc", dgam)  # d_a Gamma^a_{bc}
    term2 = np.einsum("...caba->...bc", dgam)  # d_c Gamma^a_{ba}
    term3 = np.einsum("...aad,...dbc->...bc", gam, gam)
    term4 = np.einsum("...acd,...dba->...bc", gam, gam)
    ric = term1 - term2 + term3 - term4  # = gamma_{bc} K

    ginv = sym2_inverse(gamma)
    return 0.5 * np.einsum("...bc,...bc->...", ginv, ric)


def area_element(gamma: np.ndarray) -> np.ndarray:
    """sqrt(det gamma): density of the metric area form in chart coordinates."""
    det = gamma[..., 0, 0] * gamma[..., 1, 1] - gamma[..., 0, 1] * gamma[..., 1, 0]
    return np.sqrt(det)
