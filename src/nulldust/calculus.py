"""Angular tensor calculus: covariant derivatives, divergences, contractions.

Conventions (slots first, grid axes last; see fields):
    one-form phi:           (2, ..., n1, n2)
    symmetric 2-tensor T:   (2, 2, ..., n1, n2)
Axes between the slots and the grid axes are a batch of slices.  An index
picks a slot plane, phi[0] or T[0, 1], and a scalar field broadcasts onto it.

Each operation has one implementation, and the contractions take the inverse
metric ginv the caller holds (traces are fields.trace).

The contractions are broadcast products summed in the order numpy's einsum
sums them on the slots-last layout (numpy 2.4.6): dot11, dot22 and div_sym2
left to right over their indices in lexicographic order, dot21 as
(p_a00 + p_a01) + (p_a10 + p_a11) over its summed (b, c); a sum of two terms
is the same in either order.  The transport march's residuals are O(h^4)
differences of O(1) terms, so one ulp moved here moves the acceptance
details; tests/test_contraction_oracles.py checks each contraction against
its einsum form.
"""

import numpy as np

from .geometry import partial
from .grids import AngularGrid


class RankError(ValueError):
    pass


def _sum2(a0, b0, a1, b1) -> np.ndarray:
    """a0 b0 + a1 b1, broadcast, with one product beside the result."""
    out = a0 * b0
    out += a1 * b1
    return out


def _in_order(terms) -> np.ndarray:
    """The terms added left to right (np.add.reduce may pair them)."""
    terms = iter(terms)
    out = next(terms) + next(terms)
    for t in terms:
        out += t
    return out


def covariant_deriv(chart: AngularGrid, phi: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """nabla_c phi_{a...} for a covariant tensor of rank 0, 1 or 2, with gam
    the connection (geometry.christoffel).

    Returns shape (2, *slots, batch, n1, n2) with the derivative slot first.
    """
    rank = phi.ndim - gam.ndim + 3
    if rank not in (0, 1, 2):
        raise RankError(f"rank-{rank} covariant derivative not supported")
    d = partial(chart, phi)
    if rank == 1:  # Gamma^e_{ca} phi_e
        d -= _sum2(gam[0], phi[0], gam[1], phi[1])
    elif rank == 2:  # Gamma^e_{ca} phi_{eb}, then Gamma^e_{cb} phi_{ae}
        d -= _sum2(gam[0][:, :, None], phi[0], gam[1][:, :, None], phi[1])
        d -= _sum2(gam[0][:, None], phi[:, 0, None], gam[1][:, None], phi[:, 1, None])
    return d


def div_sym2(chart, ginv, T, gam) -> np.ndarray:
    """(div T)_a = gamma^{bc} nabla_b T_{ca} for totally symmetric T."""
    if T.ndim != ginv.ndim:
        raise RankError("div_sym2 expects a 2-tensor")
    nab = covariant_deriv(chart, T, gam)  # [c, a, b] = nabla_c T_{ab}
    nab *= ginv[:, :, None]
    return _in_order(nab[b, c] for b in (0, 1) for c in (0, 1))


def dot11(ginv, phi, psi) -> np.ndarray:
    """gamma^{ab} phi_a psi_b for one-forms."""
    p = ginv * phi[:, None]  # [a, b]
    p *= psi
    return _in_order(p.reshape((4,) + p.shape[2:]))


def dot22(ginv, T, S) -> np.ndarray:
    """gamma^{ac} gamma^{bd} T_{ab} S_{cd} for symmetric 2-tensors."""
    p = ginv[:, None, :, None] * ginv[None, :, None, :]  # [a, b, c, d]
    p *= T[:, :, None, None]
    p *= S
    return _in_order(p.reshape((16,) + p.shape[4:]))


def dot21(ginv, T, X) -> np.ndarray:
    """gamma^{bc} T_{ab} X_c for a 2-tensor and a one-form."""
    p = ginv * T[:, :, None]  # [a, b, c]
    p *= X
    q = p[:, :, 0] + p[:, :, 1]
    return q[:, 0] + q[:, 1]


def hat(gamma, T, tr) -> np.ndarray:
    """T_{ab} + T_{ba} - gamma_{ab} tr, trace-free for tr = trace(ginv, T): nabla (x) phi
    for T = nabla phi, phi (x)^ psi for T = phi (x) psi."""
    return T + np.swapaxes(T, 0, 1) - gamma * tr


def move_index(g, X) -> np.ndarray:
    """g_{ab} X^b...: lowers the first slot of a vector or 2-tensor X with
    gamma, raises that of a one-form or 2-tensor with ginv."""
    if X.ndim == g.ndim - 1:
        return _sum2(g[:, 0], X[0], g[:, 1], X[1])
    return _sum2(g[:, 0, None], X[0], g[:, 1, None], X[1])


def chi_connection(chi_mix, X) -> np.ndarray:
    """chi-terms of nabla_4 = Omega^-1 d_ub - (these), with chi_mix[b, a] = chi^b_a:
    chi^b_a X_b for a one-form, chi^c_a X_cb + chi^c_b X_ac for a 2-tensor."""
    if X.ndim == chi_mix.ndim - 1:
        return _sum2(chi_mix[0], X[0], chi_mix[1], X[1])
    out = _sum2(chi_mix[0][:, None], X[0], chi_mix[1][:, None], X[1])  # chi^c_a X_cb
    out += _sum2(chi_mix[0], X[:, 0, None], chi_mix[1], X[:, 1, None])  # chi^c_b X_ac
    return out
