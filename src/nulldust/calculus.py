"""Angular tensor calculus: covariant derivatives, divergences, contractions.

Conventions (slots trail the grid axes):
    one-form phi:           (n1, n2, 2)
    symmetric 2-tensor T:   (n1, n2, 2, 2)
Axes before the grid axes are a batch of slices; the operators taking gamma
read the batch depth from gamma.ndim - 4.
"""

import numpy as np

from .fields import sym2_inverse
from .geometry import partial
from .grids import AngularGrid


class RankError(ValueError):
    pass


def covariant_deriv(chart: AngularGrid, gamma: np.ndarray, phi: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """nabla_c phi_{a...} for a covariant tensor of rank 0, 1 or 2, with gam
    the connection of gamma (geometry.christoffel).

    Returns shape (batch, n1, n2, 2, *slots) with the derivative slot leading.
    """
    rank = phi.ndim - gamma.ndim + 2
    if rank not in (0, 1, 2):
        raise RankError(f"rank-{rank} covariant derivative not supported")
    d = partial(chart, phi, gamma.ndim - 4)
    if rank == 0:
        return d
    if rank == 1:
        return d - np.einsum("...eca,...e->...ca", gam, phi)
    corr_a = np.einsum("...eca,...eb->...cab", gam, phi)
    corr_b = np.einsum("...ecb,...ae->...cab", gam, phi)
    return d - corr_a - corr_b


def div_oneform(chart, gamma, phi, gam) -> np.ndarray:
    """div phi = gamma^{ab} nabla_a phi_b."""
    if phi.ndim != gamma.ndim - 1:
        raise RankError("div_oneform expects a one-form")
    nab = covariant_deriv(chart, gamma, phi, gam)
    return np.einsum("...ab,...ab->...", sym2_inverse(gamma), nab)


def div_sym2(chart, gamma, T, gam) -> np.ndarray:
    """(div T)_a = gamma^{bc} nabla_b T_{ca} for totally symmetric T."""
    if T.ndim != gamma.ndim:
        raise RankError("div_sym2 expects a 2-tensor")
    nab = covariant_deriv(chart, gamma, T, gam)  # [..., c, a, b] = nabla_c T_{ab}
    return np.einsum("...bc,...bca->...a", sym2_inverse(gamma), nab)


def nabla_otimes(chart, gamma, phi, gam) -> np.ndarray:
    """Trace-free symmetrized derivative of a one-form:

    (nabla (x) phi)_{ab} = nabla_a phi_b + nabla_b phi_a - gamma_{ab} div phi
    """
    if phi.ndim != gamma.ndim - 1:
        raise RankError("nabla_otimes expects a one-form")
    nab = covariant_deriv(chart, gamma, phi, gam)
    dv = np.einsum("...ab,...ab->...", sym2_inverse(gamma), nab)
    return nab + np.swapaxes(nab, -1, -2) - gamma * dv[..., None, None]


def dot11(gamma, phi, psi) -> np.ndarray:
    """gamma^{ab} phi_a psi_b for one-forms."""
    return np.einsum("...ab,...a,...b->...", sym2_inverse(gamma), phi, psi)


def dot22(gamma, T, S) -> np.ndarray:
    """gamma^{ac} gamma^{bd} T_{ab} S_{cd} for symmetric 2-tensors."""
    ginv = sym2_inverse(gamma)
    return np.einsum("...ac,...bd,...ab,...cd->...", ginv, ginv, T, S)


def hat_otimes(gamma, phi, psi) -> np.ndarray:
    """(phi (x)^ psi)_{ab} = phi_a psi_b + phi_b psi_a - gamma_{ab} (phi . psi)."""
    outer = phi[..., :, None] * psi[..., None, :]
    return outer + np.swapaxes(outer, -1, -2) - gamma * dot11(gamma, phi, psi)[..., None, None]


def lower_index(gamma, X) -> np.ndarray:
    """X_a = gamma_{ab} X^b."""
    return np.einsum("...ab,...b->...a", gamma, X)
