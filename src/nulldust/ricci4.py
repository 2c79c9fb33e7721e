"""Finite-difference Ricci/Einstein evaluator for 4-metrics depending on at
most two coordinates.

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
    """Flag components whose spectral tail suggests under-resolved oscillation."""
    warns = []
    for axis in range(len(m.active)):
        n = m.grids[axis].n
        comp = m.g.reshape(m.g.shape[: len(m.active)] + (16,))
        for j in range(16):
            sl = np.moveaxis(comp[..., j], axis, 0)
            line = sl.reshape(sl.shape[0], -1)[:, 0]
            spec = np.abs(np.fft.rfft(line - line.mean()))
            total = spec.sum()
            if total == 0.0:
                continue
            tail = spec[int(len(spec) * 2 / 3):].sum()
            if tail / total > 1e-8:
                warns.append(
                    f"component {j // 4 + 1}{j % 4 + 1}: spectral tail fraction "
                    f"{tail / total:.2e} along axis {axis} (n={n}); oscillation may be under-resolved"
                )
                break
    return warns


def spacetime_ricci(m: MetricBlock) -> CurvatureResult:
    """Ricci and Einstein tensors of a sampled metric block.

    A non-periodic first grid axis is evaluated in blocks of _BLOCK_ROWS to
    2 _BLOCK_ROWS rows, so the rank-5 temporaries span one block at a time.
    Each block reads _HALO rows beyond its own on both sides, enough for
    the two stencils g -> Gamma -> d Gamma, so every kept row sees the same
    stencils as in one evaluation of the whole grid.
    """
    m.check_lorentzian()
    n = m.g.shape[0]
    blocks = 1 if m.periodic[0] else max(1, n // _BLOCK_ROWS)
    edges = [n * i // blocks for i in range(blocks + 1)]  # each block but a lone one has >= _BLOCK_ROWS
    ric, ein = np.empty_like(m.g), np.empty_like(m.g)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, b = max(lo - _HALO, 0), min(hi + _HALO, n)
        r, e = _curvature(m, m.g[a:b])
        ric[lo:hi], ein[lo:hi] = r[lo - a:hi - a], e[lo - a:hi - a]
    return CurvatureResult(ric, ein, _oscillation_warning(m))


def _curvature(m: MetricBlock, g: np.ndarray):
    """(Ricci, Einstein) of rows g of the block m, with the stencils of m's grids."""
    ginv = np.linalg.inv(g)

    # dg[..., d, a, b] = d_d g_{ab}, freed once the connection
    # gam[..., c, a, b] = Gamma^c_{ab} = (1/2) g^{cd} (d_a g_{bd} + d_b g_{ad} - d_d g_{ab}) is built
    dg = np.stack([_block_deriv(m, g, mu) for mu in range(4)], axis=-3)
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    del dg
    gam = np.einsum("...cd,...dab->...cab", ginv, low)

    # derivative terms accumulated per axis (no rank-6 temporary)
    term1 = np.zeros_like(g)  # d_r Gamma^r_{mn}
    for r in m.active:
        term1 += _block_deriv(m, gam[..., r, :, :], r)
    gam_tr = np.einsum("...rrn->...n", gam)  # Gamma^r_{rn}
    term2 = np.stack([_block_deriv(m, gam_tr, mu) for mu in range(4)], axis=-2)  # [..., m, n]

    # Gamma^r_{rl} Gamma^l_{mn} and Gamma^r_{ml} Gamma^l_{rn} as (4, 16) products
    batch = g.shape[:-2]
    term3 = (gam_tr[..., None, :] @ gam.reshape(batch + (4, 16))).reshape(g.shape)
    swapped = np.ascontiguousarray(np.swapaxes(gam, -3, -2))  # [..., a, b, c] = Gamma^b_{ac}
    # [..., m, (r, l)] = Gamma^r_{ml} times [..., (r, l), n] = Gamma^l_{rn}
    term4 = (swapped.reshape(batch + (4, 16)) @ swapped.reshape(batch + (16, 4))).reshape(g.shape)
    ric = term1 - term2 + term3 - term4

    rs = np.einsum("...ab,...ab->...", ginv, ric)
    return ric, ric - 0.5 * rs[..., None, None] * g
