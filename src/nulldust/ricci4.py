"""Finite-difference Ricci/Einstein evaluator for diagonal 4-metrics depending
on at most two coordinates.

Derivatives along active axes are 4th-order central with one-sided closures
(periodic axes use pure central wrap-around stencils), so the curvature of a
smooth metric self-converges at 4th order under grid refinement.
"""

from dataclasses import dataclass

import numpy as np

from .fields import MetricBlock
from .stencils import deriv1_fd4, deriv1_fd4_periodic

_BLOCK_ROWS = 32  # rows per block along a non-periodic first axis (at least this many)
_HALO = 4  # rows read beyond a block: two 4th-order stencils of half-width 2


@dataclass
class CurvatureResult:
    ricci: np.ndarray     # grid_shape + (4, 4)
    einstein: np.ndarray  # grid_shape + (4, 4)
    warnings: list        # under-resolution diagnostics of _oscillation_warning


def _block_deriv(m: MetricBlock, arr: np.ndarray, mu: int) -> np.ndarray:
    """d arr / d x^mu: zero for inactive coordinates, stenciled otherwise."""
    if mu not in m.active:
        return np.zeros_like(arr)
    axis = m.active.index(mu)
    if m.periodic[axis]:
        # a periodic axis stores n nodes over one period, no duplicate endpoint
        step = (m.grids[axis].b - m.grids[axis].a) / m.grids[axis].n
        return deriv1_fd4_periodic(arr, step, axis=axis)
    return deriv1_fd4(arr, m.grids[axis].h, axis=axis)


def _oscillation_warning(m: MetricBlock) -> list:
    """Flag diagonal entries whose spectral tail suggests under-resolved oscillation."""
    warns = []
    for axis in range(len(m.active)):
        n = m.grids[axis].n
        for a in range(4):
            sl = np.moveaxis(m.diag[..., a], axis, 0)
            line = sl.reshape(sl.shape[0], -1)[:, 0]
            spec = np.abs(np.fft.rfft(line - line.mean()))
            total = spec.sum()
            if total == 0.0:
                continue
            tail = spec[int(len(spec) * 2 / 3):].sum()
            if tail / total > 1e-8:
                warns.append(
                    f"component {a + 1}{a + 1}: spectral tail fraction "
                    f"{tail / total:.2e} along axis {axis} (n={n}); oscillation may be under-resolved"
                )
                break
    return warns


def spacetime_ricci(m: MetricBlock) -> CurvatureResult:
    """Ricci and Einstein tensors, both full (4, 4), of a sampled diagonal metric block.

    A non-periodic first grid axis is evaluated in blocks of _BLOCK_ROWS to
    2 _BLOCK_ROWS rows, so the rank-5 temporaries span one block at a time.
    Each block reads _HALO rows beyond its own on both sides, enough for
    the two stencils g -> Gamma -> d Gamma, so every kept row sees the same
    stencils as in one evaluation of the whole grid.
    """
    m.check_lorentzian()
    n = m.diag.shape[0]
    blocks = 1 if m.periodic[0] else max(1, n // _BLOCK_ROWS)
    edges = [n * i // blocks for i in range(blocks + 1)]  # each block but a lone one has >= _BLOCK_ROWS
    ric, ein = (np.empty(m.diag.shape + (4,)) for _ in range(2))
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, b = max(lo - _HALO, 0), min(hi + _HALO, n)
        r, e = _curvature(m, m.diag[a:b])
        ric[lo:hi], ein[lo:hi] = r[lo - a:hi - a], e[lo - a:hi - a]
    return CurvatureResult(ric, ein, _oscillation_warning(m))


def _curvature(m: MetricBlock, diag: np.ndarray):
    """(Ricci, Einstein) of rows diag of the block m, with the stencils of m's grids."""
    inv = 1.0 / diag  # g^{aa}

    # dg[..., d, a, b] = d_d g_{ab}, nonzero only for a = b, freed once the connection
    # gam[..., c, a, b] = Gamma^c_{ab} = (1/2) g^{cc} (d_a g_{bc} + d_b g_{ac} - d_c g_{ab}) is built
    dg = np.stack([_block_deriv(m, diag, mu) for mu in range(4)], axis=-2)[..., None] * np.eye(4)
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    del dg
    gam = inv[..., :, None, None] * low

    # derivative terms accumulated per axis (no rank-6 temporary)
    term1 = np.zeros(diag.shape + (4,))  # d_r Gamma^r_{mn}
    for r in m.active:
        term1 += _block_deriv(m, gam[..., r, :, :], r)
    gam_tr = np.einsum("...rrn->...n", gam)  # Gamma^r_{rn}
    term2 = np.stack([_block_deriv(m, gam_tr, mu) for mu in range(4)], axis=-2)  # [..., m, n]

    # Gamma^r_{rl} Gamma^l_{mn} and Gamma^r_{ml} Gamma^l_{rn} as (4, 16) products
    batch = diag.shape[:-1]
    term3 = (gam_tr[..., None, :] @ gam.reshape(batch + (4, 16))).reshape(term1.shape)
    swapped = np.ascontiguousarray(np.swapaxes(gam, -3, -2))  # [..., a, b, c] = Gamma^b_{ac}
    # [..., m, (r, l)] = Gamma^r_{ml} times [..., (r, l), n] = Gamma^l_{rn}
    term4 = (swapped.reshape(batch + (4, 16)) @ swapped.reshape(batch + (16, 4))).reshape(term1.shape)
    ric = term1 - term2 + term3 - term4

    # R = g^{aa} R_aa, in the order numpy 2.4.6's einsum sums g^{ab} R_ab on these blocks
    p = inv * np.diagonal(ric, axis1=-2, axis2=-1)
    rs = (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])
    ein = ric.copy()
    ein[..., range(4), range(4)] -= 0.5 * rs[..., None] * diag
    return ric, ein
