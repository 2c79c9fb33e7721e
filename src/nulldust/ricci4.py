"""Finite-difference Ricci/Einstein evaluator for 4-metrics depending on at
most two coordinates.

Derivatives along active axes are 4th-order central with one-sided closures
(periodic axes use pure central wrap-around stencils), so the curvature of a
smooth metric self-converges at 4th order under grid refinement.
"""

from dataclasses import dataclass

import numpy as np

from .fields import MetricBlock, levi_civita, trace
from .stencils import deriv1_fd4, deriv1_fd4_periodic


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
    """Ricci and Einstein tensors of a sampled metric block."""
    m.check_lorentzian()
    g = m.g
    ginv = np.linalg.inv(g)

    # dg[..., s, m, n] = d_s g_{mn}, freed once the connection is built
    gam = levi_civita(ginv, np.stack([_block_deriv(m, g, mu) for mu in range(4)], axis=-3))

    # derivative terms accumulated per axis (no rank-6 temporary)
    term1 = np.zeros_like(g)  # d_r Gamma^r_{mn}
    for r in m.active:
        term1 += _block_deriv(m, gam[..., r, :, :], r)
    gam_tr = np.einsum("...rrn->...n", gam)  # Gamma^r_{rn}
    term2 = np.stack([_block_deriv(m, gam_tr, mu) for mu in range(4)], axis=-2)  # [..., m, n]

    term3 = np.einsum("...rrl,...lmn->...mn", gam, gam)   # Gamma^r_{rl} Gamma^l_{mn}
    term4 = np.einsum("...rml,...lrn->...mn", gam, gam)   # Gamma^r_{ml} Gamma^l_{rn}
    ric = term1 - term2 + term3 - term4

    rs = trace(ginv, ric)
    ein = ric - 0.5 * rs[..., None, None] * g
    return CurvatureResult(ric, ein, _oscillation_warning(m))
