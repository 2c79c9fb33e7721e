"""The RK4 march: the chunk kernels, their dispatch, failures, node values."""

import numpy as np
import pytest

from nulldust import odesolve
from nulldust.grids import Grid1D
from nulldust.odesolve import FocusingError, solve_linear_second_order

ROWS = odesolve._ROWS_MIN_POINTS


def _rk4_points(phi, psi, gl, cc, ff, h, out_phi, out_psi):
    """Oracle: the classical step, point by point on numpy scalars."""
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    for j in range(M):
        out_phi[0, j] = phi[j]
        out_psi[0, j] = psi[j]
    for i in range(nc):
        i0 = 2 * i
        for j in range(M):
            p, q = phi[j], psi[j]
            k1p = q
            k1q = 2.0 * gl[i0, j] * q - cc[i0, j] * p - 0.5 * ff[i0, j] / p
            p1 = p + 0.5 * h * k1p
            q1 = q + 0.5 * h * k1q
            k2p = q1
            k2q = 2.0 * gl[i0 + 1, j] * q1 - cc[i0 + 1, j] * p1 - 0.5 * ff[i0 + 1, j] / p1
            p2 = p + 0.5 * h * k2p
            q2 = q + 0.5 * h * k2q
            k3p = q2
            k3q = 2.0 * gl[i0 + 1, j] * q2 - cc[i0 + 1, j] * p2 - 0.5 * ff[i0 + 1, j] / p2
            p3 = p + h * k3p
            q3 = q + h * k3q
            k4p = q3
            k4q = 2.0 * gl[i0 + 2, j] * q3 - cc[i0 + 2, j] * p3 - 0.5 * ff[i0 + 2, j] / p3
            pn = p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            qn = q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            phi[j] = pn
            psi[j] = qn
            out_phi[i + 1, j] = pn
            out_psi[i + 1, j] = qn
            if not pn > 0.0:
                return i * M + j
    return -1


def _columns_on_views(*args):
    """The column driver as numba runs it, on array views (here uncompiled)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odesolve, "_HAVE_NUMBA", True)
        return odesolve._rk4_columns(*args)


KERNELS = {
    "columns": odesolve._rk4_columns,
    "column_views": _columns_on_views,
    "rows": odesolve._rk4_rows,
}
POINT_COUNTS = [1, 2, 4, 5, 8, ROWS - 1, ROWS, 32, 256]


def chunk_inputs(M, nc, seed):
    rng = np.random.default_rng(seed)
    gl = 0.3 * rng.standard_normal((2 * nc + 1, M))
    cc = 0.5 * rng.standard_normal((2 * nc + 1, M))
    ff = rng.uniform(0.0, 0.2, (2 * nc + 1, M))
    return rng.uniform(1.0, 2.0, M), 0.1 * rng.standard_normal(M), gl, cc, ff


def run_kernel(kernel, inputs, h):
    phi0, psi0, gl, cc, ff = inputs
    M, nc = phi0.shape[0], (gl.shape[0] - 1) // 2
    phi, psi = phi0.copy(), psi0.copy()
    out_phi, out_psi = np.empty((nc + 1, M)), np.empty((nc + 1, M))
    with np.errstate(all="ignore"):  # the oracle divides by a zero stage value
        bad = kernel(phi, psi, gl, cc, ff, h, out_phi, out_psi)
    return bad, phi, psi, out_phi, out_psi


def assert_same_march(got, want):
    assert got[0] == want[0] == -1
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("M", POINT_COUNTS)
def test_row_kernel_bit_identical_to_point_loop(M):
    inputs = chunk_inputs(M, 60, seed=M)
    assert_same_march(run_kernel(odesolve._rk4_rows, inputs, 0.01), run_kernel(_rk4_points, inputs, 0.01))


@pytest.mark.parametrize("M", POINT_COUNTS)
@pytest.mark.parametrize("kernel", ["columns", "column_views"])
def test_column_kernel_bit_identical_to_point_loop(kernel, M):
    nc = 60 if kernel == "column_views" or M > 32 else 300
    inputs = chunk_inputs(M, nc, seed=M)
    assert_same_march(run_kernel(KERNELS[kernel], inputs, 0.01), run_kernel(_rk4_points, inputs, 0.01))


def oscillators(omega, nc):
    """phi'' = -omega_j^2 phi from phi = 1, phi' = 0: phi = cos(omega_j ub)."""
    M = len(omega)
    lattice = (2 * nc + 1, M)
    cc = np.broadcast_to(np.asarray(omega, float) ** 2, lattice).copy()
    return np.ones(M), np.zeros(M), np.zeros(lattice), cc, np.full(lattice, 0.01)


def test_first_failure_is_step_major_across_columns():
    # point 3 crosses zero first, points 0 and 4 together on a later step,
    # points 1 and 2 later still or not at all: the march must name point 3,
    # and each kernel must name the same flat index as the point loop
    M = 5
    assert M < ROWS
    h, nc = 0.01, 200
    inputs = oscillators([1.4, 0.5, 0.9, 2.0, 1.4], nc)
    want = run_kernel(_rk4_points, inputs, h)
    step, j = divmod(want[0], M)
    assert j == 3 and step < nc
    for kernel in KERNELS.values():
        got = run_kernel(kernel, inputs, h)
        assert got[0] == want[0]
        # rows past the failing step are unspecified; the ones before it are not
        assert np.array_equal(got[3][: step + 1], want[3][: step + 1])
        assert np.array_equal(got[4][: step + 1], want[4][: step + 1])
    # without point 3, the tie between points 0 and 4 goes to point 0
    inputs = tuple(x[..., [0, 1, 2, 4]] for x in inputs)
    want = run_kernel(_rk4_points, inputs, h)
    assert want[0] % 4 == 0 and want[0] // 4 > step
    for kernel in KERNELS.values():
        assert run_kernel(kernel, inputs, h)[0] == want[0]


def test_zero_stage_value_is_focusing_at_that_step(monkeypatch):
    # h = 0.5, phi0 = 1, psi0 = -4: the first half-step stage p1 = 1 + 0.25 * -4
    # is exactly 0, and with a positive source the stage divides by it
    grid = Grid1D(0.0, 1.0, 3)
    assert grid.h == 0.5
    march = lambda: solve_linear_second_order(
        grid, np.zeros_like, np.zeros_like, lambda ub: np.full_like(ub, 0.3), 1.0, -4.0
    )
    locations = []
    for kernel in [_rk4_points, *KERNELS.values()]:
        monkeypatch.setattr(odesolve, "_rk4_chunk", kernel)
        with np.errstate(all="ignore"), pytest.raises(FocusingError) as err:
            march()
        locations.append(err.value.location)
    monkeypatch.undo()
    with pytest.raises(FocusingError) as err:
        march()
    assert locations == [(0.5, 0)] * 4
    assert err.value.location == (0.5, 0)


def test_dispatch_on_point_count(monkeypatch):
    monkeypatch.setattr(odesolve, "_rk4_columns", lambda *args: "columns")
    monkeypatch.setattr(odesolve, "_rk4_rows", lambda *args: "rows")
    below = np.ones(ROWS - 1)
    at = np.ones(ROWS)
    for numba in (False, True):
        monkeypatch.setattr(odesolve, "_HAVE_NUMBA", numba)
        assert odesolve._rk4_chunk(below, *[None] * 7) == "columns"
        assert odesolve._rk4_chunk(at, *[None] * 7) == ("columns" if numba else "rows")


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
    for kernel in [_rk4_points, *KERNELS.values()]:
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
    assert locations == [locations[0]] * len(locations)
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


@pytest.mark.parametrize("M", [1, ROWS])
def test_nan_in_last_stage_is_focusing_error(M):
    # the last lattice point enters only the k4 stage of the last step: phi at
    # the final node stays finite and positive while phi' is NaN
    grid = Grid1D(0.0, 1.0, 65)
    glog, coeff, source = chart_coeffs(M)
    poisoned = lambda ub: np.where(ub[:, None] == grid.b, np.nan, coeff(ub))
    with pytest.raises(FocusingError) as err:
        solve_linear_second_order(grid, glog, poisoned, source, np.ones(M), np.zeros(M))
    assert err.value.location == (grid.b, 0)


@pytest.mark.parametrize("M, n", [(32, 513), (8, odesolve._CHUNK + 301)])
def test_node_second_derivative_is_rhs_on_grid_points(M, n):
    """ddphi reuses the lattice coefficients; it must equal the ODE at grid.points()."""
    grid = Grid1D(0.0, 1.0, n)
    glog, coeff, source = chart_coeffs(M)
    sol = solve_linear_second_order(grid, glog, coeff, source, np.ones(M), np.zeros(M))
    ub = grid.points()
    rhs = 2.0 * glog(ub) * sol.dphi - coeff(ub) * sol.phi - 0.5 * source(ub) / sol.phi
    assert np.abs(sol.ddphi - rhs).max() <= 1e-14 * np.abs(rhs).max()
