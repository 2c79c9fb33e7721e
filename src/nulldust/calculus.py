"""Angular tensor calculus: covariant derivatives, divergences, contractions.

Conventions (slots trail the grid axes):
    one-form phi:           (n1, n2, 2)
    symmetric 2-tensor T:   (n1, n2, 2, 2)
Axes before the grid axes are a batch of slices; the derivatives read the
batch depth from the connection gam, shaped (batch, n1, n2, 2, 2, 2).

Each operation has one implementation, and the contractions take the inverse
metric ginv the caller holds (traces are fields.trace).
"""

import numpy as np

from .geometry import partial
from .grids import AngularGrid


class RankError(ValueError):
    pass


def covariant_deriv(chart: AngularGrid, phi: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """nabla_c phi_{a...} for a covariant tensor of rank 0, 1 or 2, with gam
    the connection (geometry.christoffel).

    Returns shape (batch, n1, n2, 2, *slots) with the derivative slot leading.
    """
    rank = phi.ndim - gam.ndim + 3
    if rank not in (0, 1, 2):
        raise RankError(f"rank-{rank} covariant derivative not supported")
    d = partial(chart, phi, gam.ndim - 5)
    if rank == 0:
        return d
    if rank == 1:
        return d - np.einsum("...eca,...e->...ca", gam, phi)
    corr_a = np.einsum("...eca,...eb->...cab", gam, phi)
    corr_b = np.einsum("...ecb,...ae->...cab", gam, phi)
    return d - corr_a - corr_b


def div_sym2(chart, ginv, T, gam) -> np.ndarray:
    """(div T)_a = gamma^{bc} nabla_b T_{ca} for totally symmetric T."""
    if T.ndim != ginv.ndim:
        raise RankError("div_sym2 expects a 2-tensor")
    nab = covariant_deriv(chart, T, gam)  # [..., c, a, b] = nabla_c T_{ab}
    return np.einsum("...bc,...bca->...a", ginv, nab)


def dot11(ginv, phi, psi) -> np.ndarray:
    """gamma^{ab} phi_a psi_b for one-forms."""
    return np.einsum("...ab,...a,...b->...", ginv, phi, psi)


def dot22(ginv, T, S) -> np.ndarray:
    """gamma^{ac} gamma^{bd} T_{ab} S_{cd} for symmetric 2-tensors."""
    return np.einsum("...ac,...bd,...ab,...cd->...", ginv, ginv, T, S)


def hat(gamma, T, tr) -> np.ndarray:
    """T_{ab} + T_{ba} - gamma_{ab} tr, trace-free for tr = trace(ginv, T): nabla (x) phi
    for T = nabla phi, phi (x)^ psi for T = phi (x) psi."""
    return T + np.swapaxes(T, -1, -2) - gamma * tr[..., None, None]


def move_index(g, X) -> np.ndarray:
    """g_{ab} X^b: lowers a vector with gamma, raises a one-form with ginv."""
    return np.einsum("...ab,...b->...a", g, X)


def chi_connection(chi_mix, X) -> np.ndarray:
    """chi-terms of nabla_4 = Omega^-1 d_ub - (these), with chi_mix[..., b, a] = chi^b_a:
    chi^b_a X_b for a one-form, chi^c_a X_cb + chi^c_b X_ac for a 2-tensor."""
    if X.ndim == chi_mix.ndim - 1:
        return np.einsum("...ba,...b->...a", chi_mix, X)
    return np.einsum("...ca,...cb->...ab", chi_mix, X) + np.einsum("...cb,...ac->...ab", chi_mix, X)
