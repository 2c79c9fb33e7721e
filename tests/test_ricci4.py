"""Finite-difference 4-metric curvature evaluator."""

import numpy as np
import pytest

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
