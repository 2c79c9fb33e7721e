"""Angular tensor calculus: covariant derivatives, divergences, contractions.

Conventions (slots trail the grid axes):
    one-form phi:           (n1, n2, 2)
    symmetric 2-tensor T:   (n1, n2, 2, 2)
Axes before the grid axes are a batch of slices; the derivatives read the
batch depth from the connection gam, shaped (batch, n1, n2, 2, 2, 2).

Each operation has one implementation, and the contractions take the inverse
metric ginv the caller holds (traces are fields.trace).

The contractions are broadcast products summed in the order numpy's einsum
sums them (numpy 2.4.6): dot11, dot22 and div_sym2 left to right over their
indices in lexicographic order, dot21 as (p_a00 + p_a01) + (p_a10 + p_a11)
over its summed (b, c); a sum of two terms is the same in either order.
The transport march's residuals are O(h^4) differences of O(1) terms, so
one ulp moved here moves the acceptance details;
tests/test_contraction_oracles.py checks each contraction against its einsum
form.  dot11, dot22, dot21 and the 2-tensor chi_connection, which the
march calls at every stage, build their products in a buffer with the slots
leading, so that each pass runs along the grid axes.
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


def _lead(x, k) -> np.ndarray:
    """View of x with its last k axes (the slots) first: a product written
    from such views into a C-ordered buffer runs along the grid axes, not
    along a slot of length 2."""
    n = x.ndim - k
    return x.transpose(tuple(range(n, x.ndim)) + tuple(range(n)))


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

    Returns shape (batch, n1, n2, 2, *slots) with the derivative slot leading.
    """
    rank = phi.ndim - gam.ndim + 3
    if rank not in (0, 1, 2):
        raise RankError(f"rank-{rank} covariant derivative not supported")
    d = partial(chart, phi, gam.ndim - 5)
    if rank == 1:  # Gamma^e_{ca} phi_e
        d -= _sum2(gam[..., 0, :, :], phi[..., :1, None], gam[..., 1, :, :], phi[..., 1:, None])
    elif rank == 2:  # Gamma^e_{ca} phi_{eb}, then Gamma^e_{cb} phi_{ae}
        d -= _sum2(gam[..., 0, :, :, None], phi[..., None, None, 0, :],
                   gam[..., 1, :, :, None], phi[..., None, None, 1, :])
        d -= _sum2(gam[..., 0, :, None, :], phi[..., None, :, 0, None],
                   gam[..., 1, :, None, :], phi[..., None, :, 1, None])
    return d


def div_sym2(chart, ginv, T, gam) -> np.ndarray:
    """(div T)_a = gamma^{bc} nabla_b T_{ca} for totally symmetric T."""
    if T.ndim != ginv.ndim:
        raise RankError("div_sym2 expects a 2-tensor")
    nab = covariant_deriv(chart, T, gam)  # [..., c, a, b] = nabla_c T_{ab}
    nab *= ginv[..., None]
    return _in_order(nab[..., b, c, :] for b in (0, 1) for c in (0, 1))


def dot11(ginv, phi, psi) -> np.ndarray:
    """gamma^{ab} phi_a psi_b for one-forms."""
    g = _lead(ginv, 2)
    p = np.empty(g.shape)  # [a, b, ...]
    np.multiply(g, _lead(phi, 1)[:, None], out=p)
    p *= _lead(psi, 1)
    return _in_order(p.reshape((4,) + p.shape[2:]))


def dot22(ginv, T, S) -> np.ndarray:
    """gamma^{ac} gamma^{bd} T_{ab} S_{cd} for symmetric 2-tensors."""
    g = _lead(ginv, 2)
    p = np.empty((2, 2) + g.shape)  # [a, b, c, d, ...]
    np.multiply(g[:, None, :, None], g[None, :, None, :], out=p)
    p *= _lead(T, 2)[:, :, None, None]
    p *= _lead(S, 2)
    return _in_order(p.reshape((16,) + p.shape[4:]))


def dot21(ginv, T, X) -> np.ndarray:
    """gamma^{bc} T_{ab} X_c for a 2-tensor and a one-form."""
    g = _lead(ginv, 2)
    p = np.empty((2,) + g.shape)  # [a, b, c, ...]
    np.multiply(g, _lead(T, 2)[:, :, None], out=p)
    p *= _lead(X, 1)
    q = p[:, :, 0] + p[:, :, 1]
    out = np.empty(X.shape)
    np.add(q[:, 0], q[:, 1], out=_lead(out, 1))
    return out


def hat(gamma, T, tr) -> np.ndarray:
    """T_{ab} + T_{ba} - gamma_{ab} tr, trace-free for tr = trace(ginv, T): nabla (x) phi
    for T = nabla phi, phi (x)^ psi for T = phi (x) psi."""
    return T + np.swapaxes(T, -1, -2) - gamma * tr[..., None, None]


def move_index(g, X) -> np.ndarray:
    """g_{ab} X^b...: lowers the first slot of a vector or 2-tensor X with
    gamma, raises that of a one-form or 2-tensor with ginv."""
    if X.ndim == g.ndim - 1:
        return _sum2(g[..., 0], X[..., :1], g[..., 1], X[..., 1:])
    return _sum2(g[..., 0, None], X[..., None, 0, :], g[..., 1, None], X[..., None, 1, :])


def chi_connection(chi_mix, X) -> np.ndarray:
    """chi-terms of nabla_4 = Omega^-1 d_ub - (these), with chi_mix[..., b, a] = chi^b_a:
    chi^b_a X_b for a one-form, chi^c_a X_cb + chi^c_b X_ac for a 2-tensor."""
    if X.ndim == chi_mix.ndim - 1:
        return _sum2(chi_mix[..., 0, :], X[..., :1], chi_mix[..., 1, :], X[..., 1:])
    m, x = _lead(chi_mix, 2), _lead(X, 2)
    out = np.empty(X.shape)
    o = _lead(out, 2)
    p = np.empty(m.shape[:1] + x.shape)  # [c, a, b, ...]
    np.multiply(m[:, :, None], x[:, None, :], out=p)  # chi^c_a X_cb
    np.add(p[0], p[1], out=o)
    np.multiply(m[:, None, :], x.swapaxes(0, 1)[:, :, None], out=p)  # chi^c_b X_ac
    p[0] += p[1]
    o += p[0]
    return out
