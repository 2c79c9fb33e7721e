"""Finite-difference 4-metric curvature evaluator."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nulldust
from nulldust import gowdy, ricci4
from nulldust.fields import MetricBlock
from nulldust.grids import Grid1D
from nulldust.ricci4 import spacetime_ricci


def minkowski_block(n=33):
    g = np.zeros((n, 4, 4))
    g[..., 0, 0] = -1.0
    for i in (1, 2, 3):
        g[..., i, i] = 1.0
    return MetricBlock((0,), (Grid1D(0, 1, n),), (False,), g)


def test_minkowski_vanishes():
    out = spacetime_ricci(minkowski_block())
    assert np.abs(out.ricci).max() < 1e-12
    assert np.abs(out.einstein).max() < 1e-12


def test_plane_wave_hand_value():
    # null-form metric with quadratic polarization and unit wave factor
    grid = Grid1D(0.0, 1.0, 513)
    ub = grid.points()
    g = np.zeros((grid.n, 4, 4))
    g[..., 0, 1] = g[..., 1, 0] = -1.0
    g[..., 2, 2] = np.exp(ub**2)
    g[..., 3, 3] = np.exp(-(ub**2))
    blk = MetricBlock((1,), (grid,), (False,), g)
    out = spacetime_ricci(blk)
    assert np.abs(out.ricci[..., 1, 1] - (-2.0 * ub**2)).max() < 1e-6
    others = out.ricci.copy()
    others[..., 1, 1] = 0.0
    assert np.abs(others).max() < 1e-10


def test_lorentzian_signature_enforced():
    g = np.zeros((17, 4, 4))
    for i in range(4):
        g[..., i, i] = 1.0  # Euclidean
    blk = MetricBlock((0,), (Grid1D(0, 1, 17),), (False,), g)
    with pytest.raises(ValueError, match="Lorentzian"):
        spacetime_ricci(blk)


def test_symmetry_enforced():
    g = np.zeros((17, 4, 4))
    g[..., 0, 0] = -1.0
    for i in (1, 2, 3):
        g[..., i, i] = 1.0
    g[..., 0, 1] = 0.1  # not symmetrized
    with pytest.raises(ValueError, match="symmetric"):
        MetricBlock((0,), (Grid1D(0, 1, 17),), (False,), g)


def test_under_resolved_oscillation_warns():
    grid = Grid1D(0.0, 1.0, 65)
    ub = grid.points()
    g = np.zeros((grid.n, 4, 4))
    g[..., 0, 1] = g[..., 1, 0] = -1.0
    g[..., 2, 2] = np.exp(0.3 * np.sin(55.0 * ub))  # ~7 nodes per wavelength
    g[..., 3, 3] = np.exp(-0.3 * np.sin(55.0 * ub))
    blk = MetricBlock((1,), (grid,), (False,), g)
    out = spacetime_ricci(blk)
    assert out.warnings


def test_smooth_block_clean():
    out = spacetime_ricci(minkowski_block())
    assert out.warnings == []


def two_axis_block(rows, periodic_first):
    """A smooth Lorentzian metric on a non-periodic tau axis and a periodic theta
    axis, with the periodic axis first if periodic_first."""
    tau = Grid1D(0.0, 1.0, rows if not periodic_first else 40)
    theta = Grid1D(0.0, 2.0 * np.pi, rows if periodic_first else 24)
    t, th = np.meshgrid(tau.points(), theta.points_periodic(), indexing="ij")
    g = np.zeros(t.shape + (4, 4))
    g[..., 0, 0] = -np.exp(0.3 * np.sin(2.0 * t) * np.cos(th))
    g[..., 1, 1] = 1.0 + 0.2 * t**2
    g[..., 2, 2] = np.exp(0.1 * np.cos(th) + t)
    g[..., 3, 3] = np.exp(-t)
    g[..., 0, 1] = g[..., 1, 0] = 0.1 * np.sin(t) * np.sin(th)
    if periodic_first:
        return MetricBlock((1, 0), (theta, tau), (True, False), np.swapaxes(g, 0, 1))
    return MetricBlock((0, 1), (tau, theta), (False, True), g)


@pytest.mark.parametrize("case", ["two_axes", "limit_513", "periodic_first"])
def test_row_blocks_equal_one_evaluation(case, monkeypatch):
    rows = 3 * ricci4._BLOCK_ROWS + 5  # not a multiple of the block size
    blk = {
        "two_axes": lambda: two_axis_block(rows, False),
        "limit_513": lambda: gowdy.limit_metric_block(1.0, Grid1D(-0.5, 0.5, 513)),
        "periodic_first": lambda: two_axis_block(rows, True),
    }[case]()
    assert blk.g.shape[0] >= 2 * ricci4._BLOCK_ROWS  # long enough to be split if not periodic
    blocked = spacetime_ricci(blk)
    monkeypatch.setattr(ricci4, "_BLOCK_ROWS", blk.g.shape[0])  # one block: the whole grid
    whole = spacetime_ricci(blk)
    assert np.array_equal(blocked.ricci, whole.ricci)
    assert np.array_equal(blocked.einstein, whole.einstein)
    assert blocked.warnings == whole.warnings


_MEMORY_PROBE = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from nulldust import gowdy
    from nulldust.grids import Grid1D
    from nulldust.ricci4 import spacetime_ricci

    # the largest member of criterion 3's residual scan
    blk = gowdy.family_metric(8, 1.0, Grid1D(0.0, 1.0, 321), Grid1D(0.0, 2.0 * np.pi, 320))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spacetime_ricci(blk)
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(grown / (2**20 if sys.platform == "darwin" else 2**10))  # bytes on macOS, KiB on Linux
""")


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_curvature_of_largest_scan_member_stays_small():
    src = os.path.dirname(os.path.dirname(nulldust.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], capture_output=True, text=True, env=env, check=True)
    # one evaluation of all 321 x 320 points at once grows the peak by about 136 MB
    assert float(out.stdout) < 90.0
