"""Finite-difference Ricci/Einstein evaluator for diagonal 4-metrics depending
on at most two coordinates.

Only the Christoffel symbols a diagonal metric can have are built:
Gamma^c_{cd} = Gamma^c_{dc} = (1/2) g^{cc} d_d g_cc for active d, and
Gamma^c_{bb} = -(1/2) g^{cc} d_c g_bb for active c and b != c; every other
entry vanishes. Derivatives along active axes are 4th-order central with
one-sided closures (periodic axes use pure central wrap-around stencils), so
the curvature of a smooth metric self-converges at 4th order under grid
refinement.

ricci_row_blocks evaluates Ricci alone, one row block at a time, and
spacetime_ricci keeps it whole; Einstein is formed from Ricci and the metric
diagonal only when CurvatureResult.einstein is read.
"""

from dataclasses import dataclass

import numpy as np

from .fields import MetricBlock
from .stencils import deriv1_fd4, deriv1_fd4_periodic

_BLOCK_ROWS = 32  # rows per block along a non-periodic first axis (at least this many)
_HALO = 4  # rows read beyond a block: two 4th-order stencils of half-width 2


@dataclass
class CurvatureResult:
    """Ricci of a sampled diagonal metric, and its Einstein tensor on demand.

    einstein is derived from ricci and diag each time it is read, with the
    Ricci scalar summed as (p0 + p2) + (p1 + p3), p_a = g^{aa} R_aa, so a
    caller that reads only ricci never holds a second (4, 4) field.
    """

    ricci: np.ndarray  # grid_shape + (4, 4)
    diag: np.ndarray   # grid_shape + (4,), the metric diagonal g_aa

    @property
    def einstein(self) -> np.ndarray:
        """G_ab = R_ab - (1/2) R g_ab, grid_shape + (4, 4)."""
        # R = g^{aa} R_aa, in the order numpy 2.4.6's einsum sums g^{ab} R_ab on these blocks
        p = (1.0 / self.diag) * np.diagonal(self.ricci, axis1=-2, axis2=-1)
        rs = (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])
        ein = self.ricci.copy()
        ein[..., range(4), range(4)] -= 0.5 * rs[..., None] * self.diag
        return ein


def _block_deriv(m: MetricBlock, arr: np.ndarray, mu: int) -> np.ndarray:
    """d arr / d x^mu along the active coordinate mu (mu in m.active)."""
    axis = m.active.index(mu)
    if m.periodic[axis]:
        # a periodic axis stores n nodes over one period, no duplicate endpoint
        step = (m.grids[axis].b - m.grids[axis].a) / m.grids[axis].n
        return deriv1_fd4_periodic(arr, step, axis=axis)
    return deriv1_fd4(arr, m.grids[axis].h, axis=axis)


def ricci_row_blocks(m: MetricBlock):
    """Ricci of a sampled diagonal metric block, one row block after another:
    pairs (rows, Ricci on rows), rows slices of the first grid axis that
    cover the grid once, in order.  A block with no active coordinate is a
    constant, flat metric: one pair (Ellipsis, the zero (4, 4)).

    A non-periodic first grid axis is evaluated in blocks of _BLOCK_ROWS to
    2 _BLOCK_ROWS rows, so the connection's temporaries span one block at a
    time. Each block reads _HALO rows beyond its own on both sides, enough
    for the two stencils g -> Gamma -> d Gamma, so every row sees the same
    stencils as in one evaluation of the whole grid.
    """
    m.check_lorentzian()
    if not m.active:  # a constant metric is flat
        yield ..., np.zeros((4, 4))
        return
    n = m.diag.shape[0]
    blocks = 1 if m.periodic[0] else max(1, n // _BLOCK_ROWS)
    edges = [n * i // blocks for i in range(blocks + 1)]  # each block but a lone one has >= _BLOCK_ROWS
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, b = max(lo - _HALO, 0), min(hi + _HALO, n)
        yield slice(lo, hi), _ricci(m, m.diag[a:b])[lo - a:hi - a]


def spacetime_ricci(m: MetricBlock) -> CurvatureResult:
    """Ricci tensor, full (4, 4), of a sampled diagonal metric block, kept
    whole from ricci_row_blocks; Einstein on demand (CurvatureResult).

    A block with no active coordinate is a constant metric, which is flat:
    its Ricci, and so its Einstein, is the zero (4, 4).
    """
    ric = np.empty(m.diag.shape + (4,))
    for rows, block in ricci_row_blocks(m):
        ric[rows] = block
    return CurvatureResult(ric, m.diag)


def _ricci(m: MetricBlock, diag: np.ndarray) -> np.ndarray:
    """Ricci of rows diag of the block m, with the stencils of m's grids."""
    act = m.active
    inv = 1.0 / diag  # g^{aa}

    # gam[c, a, b] = Gamma^c_{ab}, the nonzero entries only; both lower orders share one array
    gam = {}
    for d in act:
        dg = _block_deriv(m, diag, d)  # [..., a] = d_d g_aa
        half = 0.5 * inv * dg
        for c in range(4):
            gam[c, c, d] = gam[c, d, c] = half[..., c]  # (1/2) g^{cc} d_d g_cc
            if c != d:
                gam[d, c, c] = -0.5 * inv[..., d] * dg[..., c]  # -(1/2) g^{dd} d_d g_cc
    tr = {n: sum(gam[r, r, n] for r in range(4)) for n in act}  # Gamma^r_{rn}

    # R_ab = d_r Gamma^r_{ab} - d_a Gamma^r_{rb} + Gamma^r_{rl} Gamma^l_{ab} - Gamma^r_{al} Gamma^l_{rb},
    # each sum over its nonzero terms; both triangles, since d_a Gamma^r_{rb} != d_b Gamma^r_{ra} in differences
    ric = np.zeros(diag.shape + (4,))
    for a in range(4):
        for b in range(4):
            t1 = sum(_block_deriv(m, gam[r, a, b], r) for r in act if (r, a, b) in gam)
            t2 = _block_deriv(m, tr[b], a) if a in act and b in act else 0.0
            t3 = sum(tr[l] * gam[l, a, b] for l in act if (l, a, b) in gam)
            t4 = sum(gam[r, a, l] * gam[l, r, b] for r in range(4) for l in range(4)
                     if (r, a, l) in gam and (l, r, b) in gam)
            ric[..., a, b] = t1 - t2 + t3 - t4
    return ric
