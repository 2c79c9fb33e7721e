"""Finite-difference 4-metric curvature evaluator."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nulldust import gowdy, ricci4
from nulldust.fields import MetricBlock
from nulldust.grids import Grid1D
from nulldust.ricci4 import spacetime_ricci


def deriv(chart, arr, mu):
    """d arr / d x^mu: zero for inactive coordinates, the evaluator's stencil otherwise."""
    return ricci4._block_deriv(chart, arr, mu) if mu in chart.active else np.zeros_like(arr)


def general_curvature(chart, g):
    """(Ricci, Einstein) of a general sampled 4-metric g, shape grid + (4, 4), in
    one evaluation of the whole grid: the oracle of the diagonal evaluator.

    chart carries the active, grids and periodic fields of a MetricBlock.
    """
    ginv = np.linalg.inv(g)

    # dg[..., d, a, b] = d_d g_{ab}
    # gam[..., c, a, b] = Gamma^c_{ab} = (1/2) g^{cd} (d_a g_{bd} + d_b g_{ad} - d_d g_{ab})
    dg = np.stack([deriv(chart, g, mu) for mu in range(4)], axis=-3)
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    gam = np.einsum("...cd,...dab->...cab", ginv, low)

    term1 = np.zeros_like(g)  # d_r Gamma^r_{mn}
    for r in chart.active:
        term1 += ricci4._block_deriv(chart, gam[..., r, :, :], r)
    gam_tr = np.einsum("...rrn->...n", gam)  # Gamma^r_{rn}
    term2 = np.stack([deriv(chart, gam_tr, mu) for mu in range(4)], axis=-2)  # [..., m, n]

    batch = g.shape[:-2]
    term3 = (gam_tr[..., None, :] @ gam.reshape(batch + (4, 16))).reshape(g.shape)
    swapped = np.ascontiguousarray(np.swapaxes(gam, -3, -2))  # [..., a, b, c] = Gamma^b_{ac}
    term4 = (swapped.reshape(batch + (4, 16)) @ swapped.reshape(batch + (16, 4))).reshape(g.shape)
    ric = term1 - term2 + term3 - term4

    rs = np.einsum("...ab,...ab->...", ginv, ric)
    return ric, ric - 0.5 * rs[..., None, None] * g


def minkowski_block(n=33):
    return MetricBlock((0,), (Grid1D(0, 1, n),), (False,), np.broadcast_to([-1.0, 1.0, 1.0, 1.0], (n, 4)))


def test_minkowski_vanishes():
    out = spacetime_ricci(minkowski_block())
    assert np.abs(out.ricci).max() < 1e-12
    assert np.abs(out.einstein).max() < 1e-12


def test_constant_metric_with_no_active_coordinate_is_flat():
    out = spacetime_ricci(MetricBlock((), (), (), [-1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(out.ricci, np.zeros((4, 4)))
    assert np.array_equal(out.einstein, np.zeros((4, 4)))


def test_plane_wave_hand_value():
    # null-form metric with quadratic polarization and unit wave factor, on the
    # general oracle: the diagonal evaluator cannot hold its g_{u ub} entry
    grid = Grid1D(0.0, 1.0, 513)
    ub = grid.points()
    g = np.zeros((grid.n, 4, 4))
    g[..., 0, 1] = g[..., 1, 0] = -1.0
    g[..., 2, 2] = np.exp(ub**2)
    g[..., 3, 3] = np.exp(-(ub**2))
    ric, _ = general_curvature(SimpleNamespace(active=(1,), grids=(grid,), periodic=(False,)), g)
    assert np.abs(ric[..., 1, 1] - (-2.0 * ub**2)).max() < 1e-6
    others = ric.copy()
    others[..., 1, 1] = 0.0
    assert np.abs(others).max() < 1e-10


def test_lorentzian_signature_enforced():
    blk = MetricBlock((0,), (Grid1D(0, 1, 17),), (False,), np.ones((17, 4)))  # Euclidean
    with pytest.raises(ValueError, match="Lorentzian"):
        spacetime_ricci(blk)


@pytest.mark.parametrize("bad", [[-1.0, -1.0, 1.0, 1.0], [-1.0, 0.0, 1.0, 1.0]])
def test_lorentzian_signature_checked_at_every_point(bad):
    # grid point 1 of 17, between the points a five-point sample would take
    diag = np.broadcast_to([-1.0, 1.0, 1.0, 1.0], (17, 4)).copy()
    diag[1] = bad
    blk = MetricBlock((0,), (Grid1D(0, 1, 17),), (False,), diag)
    with pytest.raises(ValueError, match=r"Lorentzian at grid point \(1,\)"):
        spacetime_ricci(blk)


def two_axis_block(rows, periodic_first):
    """A smooth Lorentzian diagonal metric on a non-periodic tau axis and a
    periodic theta axis, with the periodic axis first if periodic_first."""
    tau = Grid1D(0.0, 1.0, rows if not periodic_first else 40)
    theta = Grid1D(0.0, 2.0 * np.pi, rows if periodic_first else 24)
    t, th = np.meshgrid(tau.points(), theta.points_periodic(), indexing="ij")
    diag = np.stack([
        -np.exp(0.3 * np.sin(2.0 * t) * np.cos(th)),
        1.0 + 0.2 * t**2 + 0.1 * np.sin(t) * np.sin(th),
        np.exp(0.1 * np.cos(th) + t),
        np.exp(-t),
    ], axis=-1)
    if periodic_first:
        return MetricBlock((1, 0), (theta, tau), (True, False), np.swapaxes(diag, 0, 1))
    return MetricBlock((0, 1), (tau, theta), (False, True), diag)


BLOCKS = {
    "two_axes": lambda: two_axis_block(3 * ricci4._BLOCK_ROWS + 5, False),  # not a multiple of the block size
    "limit_513": lambda: gowdy.limit_metric_block(1.0, Grid1D(-0.5, 0.5, 513)),
    "periodic_first": lambda: two_axis_block(3 * ricci4._BLOCK_ROWS + 5, True),
    # the coarsest member of criterion 3's residual scan
    "scan_member": lambda: gowdy.family_metric(8, 1.0, Grid1D(0.0, 1.0, 129), Grid1D(0.0, 2.0 * np.pi, 128)),
}


@pytest.mark.parametrize("case", ["two_axes", "limit_513", "periodic_first"])
def test_row_blocks_equal_one_evaluation(case, monkeypatch):
    blk = BLOCKS[case]()
    assert blk.diag.shape[0] >= 2 * ricci4._BLOCK_ROWS  # long enough to be split if not periodic
    blocked = spacetime_ricci(blk)
    monkeypatch.setattr(ricci4, "_BLOCK_ROWS", blk.diag.shape[0])  # one block: the whole grid
    whole = spacetime_ricci(blk)
    assert np.array_equal(blocked.ricci, whole.ricci)
    assert np.array_equal(blocked.einstein, whole.einstein)


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_diagonal_evaluator_equals_general_oracle(case):
    # row blocks of the diagonal path against one general evaluation of the
    # whole grid. The diagonal path sums only the nonzero Christoffel products,
    # sequentially, where the oracle's (4, 16) matrix products sum all of them
    # through BLAS, so the two agree to round-off, not bit for bit: measured at
    # most 2.5e-12 of the field's max (limit_513), 8.6e-14 (scan_member) and
    # 5.2e-15 (the two smooth blocks). Copying R_10 from R_01, halving
    # Gamma^c_{bb} or dropping Gamma^r_{rl} Gamma^l_{ab} moves scan_member's
    # fields by 0.11, 21 and 76 of their max.
    blk = BLOCKS[case]()
    ric, ein = general_curvature(blk, blk.diag[..., None] * np.eye(4))
    out = spacetime_ricci(blk)
    assert np.abs(out.ricci - ric).max() <= 1e-11 * np.abs(ric).max()
    assert np.abs(out.einstein - ein).max() <= 1e-11 * np.abs(ein).max()


def test_curvature_of_largest_scan_member_stays_small():
    # the largest member of criterion 3's residual scan
    blk = gowdy.family_metric(8, 1.0, Grid1D(0.0, 1.0, 321), Grid1D(0.0, 2.0 * np.pi, 320))
    # the peak of the memory numpy and Python allocate during the call alone,
    # the two (4, 4) results included, not the process's high-water mark
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spacetime_ricci(blk)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # about 17.3 MiB with Ricci alone in row blocks; 35.4 MiB when each block
    # also forms Einstein, and about 82 MiB in one evaluation of all 321 x 320 points
    assert peak / 2**20 < 30.0
