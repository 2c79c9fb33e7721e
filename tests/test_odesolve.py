"""The RK4 march: both chunk kernels, their dispatch, failures, node values."""

import numpy as np
import pytest

from nulldust import odesolve
from nulldust.grids import Grid1D
from nulldust.odesolve import FocusingError, solve_linear_second_order

KERNELS = {"points": odesolve._rk4_points, "rows": odesolve._rk4_rows}


def chunk_inputs(M, nc, seed):
    rng = np.random.default_rng(seed)
    gl = 0.3 * rng.standard_normal((2 * nc + 1, M))
    cc = 0.5 * rng.standard_normal((2 * nc + 1, M))
    ff = rng.uniform(0.0, 0.2, (2 * nc + 1, M))
    return rng.uniform(1.0, 2.0, M), 0.1 * rng.standard_normal(M), gl, cc, ff


@pytest.mark.parametrize("M", [1, 4, 8, 32, 256])
def test_row_kernel_bit_identical_to_point_loop(M):
    nc = 60
    phi0, psi0, gl, cc, ff = chunk_inputs(M, nc, seed=M)
    runs = []
    for kernel in KERNELS.values():
        phi, psi = phi0.copy(), psi0.copy()
        out_phi, out_psi = np.empty((nc + 1, M)), np.empty((nc + 1, M))
        bad = kernel(phi, psi, gl, cc, ff, 0.01, out_phi, out_psi)
        runs.append((bad, phi, psi, out_phi, out_psi))
    (bad_p, *arrays_p), (bad_r, *arrays_r) = runs
    assert bad_p == bad_r == -1
    for a, b in zip(arrays_p, arrays_r):
        assert np.array_equal(a, b)


def test_dispatch_on_point_count(monkeypatch):
    monkeypatch.setattr(odesolve, "_rk4_points", lambda *args: "points")
    monkeypatch.setattr(odesolve, "_rk4_rows", lambda *args: "rows")
    n = odesolve._ROWS_MIN_POINTS
    below = np.ones(n - 1)
    at = np.ones(n)
    assert odesolve._rk4_chunk(below, *[None] * 7) == "points"
    expected = "points" if odesolve._HAVE_NUMBA else "rows"
    assert odesolve._rk4_chunk(at, *[None] * 7) == expected


def chart_coeffs(M):
    """Smooth ub-dependent coefficients, different on each of M points."""
    k = np.arange(M)
    glog = lambda ub: 0.2 * np.sin(ub[:, None] + k)
    coeff = lambda ub: 0.5 + 0.1 * np.cos(3.0 * ub[:, None] * (1 + k % 3))
    source = lambda ub: 0.05 * (1.0 + np.sin(ub[:, None] - k) ** 2)
    return glog, coeff, source


def test_focusing_location_same_for_both_kernels(monkeypatch):
    M = 32
    glog, coeff, _ = chart_coeffs(M)
    # points 13 and 20 follow phi = cos(ub) and cross zero at pi/2 on the same
    # step; the kernel must name the first of them
    crushed = np.isin(np.arange(M), [13, 20])
    locations = []
    for kernel in KERNELS.values():
        monkeypatch.setattr(odesolve, "_rk4_chunk", kernel)
        with pytest.raises(FocusingError) as err:
            solve_linear_second_order(
                Grid1D(0.0, 3.0, 601),
                lambda ub: np.where(crushed, 0.0, glog(ub)),
                lambda ub: np.where(crushed, 1.0, coeff(ub)),
                None,
                np.ones(M),
                np.zeros(M),
            )
        locations.append(err.value.location)
    assert locations[0] == locations[1]
    ub, j = locations[0]
    assert j == 13
    assert ub == 315 * (3.0 / 600)  # the first node past pi/2


def test_nan_coefficient_is_focusing_error_at_many_points():
    M = 32
    glog, coeff, source = chart_coeffs(M)
    poisoned = lambda ub: np.where((ub[:, None] > 0.5) & (np.arange(M) == 7), np.nan, coeff(ub))
    assert M >= odesolve._ROWS_MIN_POINTS  # the row kernel runs without numba
    with pytest.raises(FocusingError) as err:
        solve_linear_second_order(
            Grid1D(0.0, 1.0, 201), glog, poisoned, source, np.ones(M), np.zeros(M)
        )
    ub, j = err.value.location
    assert j == 7
    assert abs(ub - 0.5) < 0.01


@pytest.mark.parametrize("M, n", [(32, 513), (8, odesolve._CHUNK + 301)])
def test_node_second_derivative_is_rhs_on_grid_points(M, n):
    """ddphi reuses the lattice coefficients; it must equal the ODE at grid.points()."""
    grid = Grid1D(0.0, 1.0, n)
    glog, coeff, source = chart_coeffs(M)
    sol = solve_linear_second_order(grid, glog, coeff, source, np.ones(M), np.zeros(M))
    ub = grid.points()
    rhs = 2.0 * glog(ub) * sol.dphi - coeff(ub) * sol.phi - 0.5 * source(ub) / sol.phi
    assert np.abs(sol.ddphi - rhs).max() <= 1e-14 * np.abs(rhs).max()
