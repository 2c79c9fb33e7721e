"""Grids, stencils, rate fits."""

import numpy as np
import pytest

from nulldust.grids import AngularGrid, Grid1D
from nulldust.rates import fit_rate
from nulldust.stencils import deriv1_fd4, deriv1_fd4_periodic, spectral_deriv


def test_grid1d_invariants():
    g = Grid1D(0.0, 1.0, 11)
    assert g.h == 0.1
    assert len(g.points()) == 11
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)
    fine = g.refined(2)
    assert fine.n == 21
    assert np.allclose(fine.points()[::2], g.points())


def test_angular_grid_invariants():
    with pytest.raises(ValueError):
        AngularGrid(2, 8)
    chart = AngularGrid(8, 16, 1.0, 2.0)
    t1, t2 = chart.mesh()
    assert t1.shape == (8, 16)
    assert t1.max() < 1.0  # no duplicate wrap node
    assert abs(chart.cell_area - (1.0 / 8) * (2.0 / 16)) < 1e-15


def test_fd4_matches_quartic_exactly():
    grid = Grid1D(0.0, 1.0, 21)
    x = grid.points()
    y = x**4 - 2 * x**3 + x
    dy = 4 * x**3 - 6 * x**2 + 1
    assert np.abs(deriv1_fd4(y, grid.h) - dy).max() < 1e-12


def test_fd4_order():
    errs, hs = [], []
    for n in (33, 65, 129, 257):
        grid = Grid1D(0.0, 1.0, n)
        x = grid.points()
        err = np.abs(deriv1_fd4(np.exp(np.sin(3 * x)), grid.h)
                     - 3 * np.cos(3 * x) * np.exp(np.sin(3 * x))).max()
        errs.append(err)
        hs.append(grid.h)
    assert fit_rate(hs, errs).slope >= 3.8


def test_periodic_fd4_wraps():
    n = 64
    x = np.arange(n) * (2 * np.pi / n)
    y = np.sin(x)
    d = deriv1_fd4_periodic(y, 2 * np.pi / n)
    assert np.abs(d - np.cos(x)).max() < 1e-5  # h^4 truncation at this n


def test_spectral_derivative_exact_for_band_limited():
    n = 32
    x = np.arange(n) * (2 * np.pi / n)
    y = np.sin(5 * x) + 0.3 * np.cos(3 * x)
    d = spectral_deriv(y, 2 * np.pi)
    assert np.abs(d - (5 * np.cos(5 * x) - 0.9 * np.sin(3 * x))).max() < 1e-12


def test_rate_fit_exact_and_noisy():
    xs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    fit = fit_rate(xs, 1.0 / xs)
    assert abs(fit.slope + 1.0) < 1e-10
    rng = np.random.default_rng(0)
    ys = (1.0 / xs) * (1.0 + 0.01 * rng.standard_normal(len(xs)))
    assert abs(fit_rate(xs, ys).slope + 1.0) < 0.05
    assert abs(fit_rate(xs, np.full(len(xs), 3.3)).slope) < 1e-12


def test_rate_fit_needs_four_points():
    with pytest.raises(ValueError, match="4 points"):
        fit_rate([1.0, 0.5, 0.25], [1.0, 2.0, 4.0])
