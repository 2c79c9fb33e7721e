"""The RK4 march: the chunk kernels, their dispatch, failures, node values,
and the lockstep march of several problems."""

import numpy as np
import pytest

from nulldust import odesolve
from nulldust.grids import Grid1D
from nulldust.odesolve import DenseSolution, FocusingError

ROWS = odesolve._ROWS_MIN_POINTS


def solve(grid, glog_fn, coeff_fn, source_fn, phi0, dphi0):
    """The march of one problem on one grid."""
    return odesolve.march([odesolve.Problem([grid], glog_fn, coeff_fn, source_fn, phi0, dphi0)])[0]


def _rk4_points(phi, psi, gl, cc, ff, hs, out_phi, out_psi):
    """Oracle: the classical step, point by point on numpy scalars, each
    point at its own step hs[j]; it fails where phi is not positive or psi
    not finite."""
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    for j in range(M):
        out_phi[0, j] = phi[j]
        out_psi[0, j] = psi[j]
    for i in range(nc):
        i0 = 2 * i
        for j in range(M):
            p, q, h = phi[j], psi[j], hs[j]
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
            if not (pn > 0.0 and np.isfinite(qn)):
                return i * M + j
    return -1


KERNELS = {
    "columns": odesolve._rk4_columns,
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
    """One kernel call on chunk inputs; h: one step for every column, or (M,) steps."""
    phi0, psi0, gl, cc, ff = inputs
    M, nc = phi0.shape[0], (gl.shape[0] - 1) // 2
    phi, psi = phi0.copy(), psi0.copy()
    out_phi, out_psi = np.empty((nc + 1, M)), np.empty((nc + 1, M))
    with np.errstate(all="ignore"):  # the oracle divides by a zero stage value
        bad = kernel(phi, psi, gl, cc, ff, np.broadcast_to(h, M).copy(), out_phi, out_psi)
    return bad, phi, psi, out_phi, out_psi


def chunk_problem(inputs, h, shape=None):
    """A one-grid Problem of nc steps h whose providers return the chunk
    inputs, on the points of shape (default (M,)) in C order."""
    shape = inputs[0].shape if shape is None else shape
    phi0, psi0, gl, cc, ff = on_shape(inputs, shape)
    nc = (gl.shape[0] - 1) // 2
    grid = Grid1D(0.0, nc * h, nc + 1)
    assert grid.h == h and nc <= odesolve._CHUNK  # one chunk, on this lattice
    return odesolve.Problem([grid], lambda ub: gl, lambda ub: cc, lambda ub: ff, phi0[0].copy(), psi0[0].copy())


def on_shape(arrays, shape):
    """Chunk inputs (..., M) on the points of shape in C order, each (L, *shape):
    the state (1, *shape), the coefficients (2*nc+1, *shape)."""
    return [x.reshape(-1, *shape) for x in arrays]


def on_shape_rows(a, shape):
    """A solution array (rows, *s), s of size 1 on each axis it is constant
    along, broadcast to the rows of every point of shape: (rows, *shape)."""
    return np.ascontiguousarray(np.broadcast_to(a, (len(a), *shape)))


def march_chunk(inputs, h, shape=None):
    """run_kernel's result, from the march of chunk_problem(inputs, h, shape):
    its failure as the flat index step*M + j, or its state and nodes, the
    solution broadcast to the problem's shape."""
    M = inputs[0].shape[0]
    try:
        sol = odesolve.march([chunk_problem(inputs, h, shape)])[0]
    except FocusingError as err:
        ub, j = err.location
        return (round(ub / h) - 1) * M + j, None, None, None, None
    phi, dphi = (on_shape_rows(a, inputs[0].shape if shape is None else shape) for a in (sol.phi, sol.dphi))
    return -1, phi[-1], dphi[-1], phi, dphi


def assert_same_march(got, want):
    assert got[0] == want[0] == -1
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("M", POINT_COUNTS)
def test_row_kernel_bit_identical_to_point_loop(M):
    inputs = chunk_inputs(M, 60, seed=M)
    assert_same_march(run_kernel(odesolve._rk4_rows, inputs, 0.01), run_kernel(_rk4_points, inputs, 0.01))


@pytest.mark.parametrize("M", POINT_COUNTS)
@pytest.mark.parametrize("kernel", ["columns"])
def test_column_kernel_bit_identical_to_point_loop(kernel, M):
    inputs = chunk_inputs(M, 60 if M > 32 else 300, seed=M)
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
    march = lambda: solve(
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
    assert locations == [(0.5, 0)] * 3
    assert err.value.location == (0.5, 0)


def test_dispatch_on_point_count(monkeypatch):
    # one nonzero coefficient, at lattice point 10, makes steps 4 and 5 the
    # one run that needs a kernel; the free steps around it coast
    calls = []
    for name in KERNELS:
        monkeypatch.setattr(odesolve, f"_rk4_{name}", lambda *args, name=name: calls.append(name) or -1)
    for M, want in ((ROWS - 1, "columns"), (ROWS, "rows")):
        lattice = (2 * 12 + 1, M)
        cc = np.zeros(lattice)
        cc[10, 0] = 1.0
        calls.clear()
        run_kernel(odesolve._rk4_chunk, (np.ones(M), np.zeros(M), np.zeros(lattice), cc, np.zeros(lattice)), 0.01)
        assert calls == [want]


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
            solve(
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
    assert M >= odesolve._ROWS_MIN_POINTS  # the row kernel runs
    with pytest.raises(FocusingError) as err:
        solve(
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
        solve(grid, glog, poisoned, source, np.ones(M), np.zeros(M))
    assert err.value.location == (grid.b, 0)


@pytest.mark.parametrize("M, n", [(32, 513), (8, odesolve._CHUNK + 301)])
def test_node_second_derivative_is_rhs_on_grid_points(M, n):
    """ddphi reuses the lattice coefficients; it must equal the ODE at grid.points()."""
    grid = Grid1D(0.0, 1.0, n)
    glog, coeff, source = chart_coeffs(M)
    sol = solve(grid, glog, coeff, source, np.ones(M), np.zeros(M))
    ub = grid.points()
    rhs = 2.0 * glog(ub) * sol.dphi - coeff(ub) * sol.phi - 0.5 * source(ub) / sol.phi
    assert np.abs(sol.ddphi - rhs).max() <= 1e-14 * np.abs(rhs).max()


# --- angular axes a chunk is constant along are marched once -------------------


def _full_march(monkeypatch):
    """Make the march keep every axis of the shape: each point is a column."""
    monkeypatch.setattr(odesolve, "_compact_shape", lambda shape, arrays: shape)


def record_chunk_points(monkeypatch):
    """Wrap _rk4_chunk to record the number of columns it is handed."""
    seen = []
    chunk = odesolve._rk4_chunk

    def recorder(phi, *args):
        seen.append(phi.shape[0])
        return chunk(phi, *args)

    monkeypatch.setattr(odesolve, "_rk4_chunk", recorder)
    return seen


def spread(x, compact, shape):
    """x (..., U) on the points of compact, broadcast to the points of shape:
    (..., M) in C order."""
    lead = x.shape[:-1]
    return np.ascontiguousarray(np.broadcast_to(x.reshape(lead + compact), lead + shape)).reshape(lead + (-1,))


def axis_inputs(shape, varying, nc, seed):
    """Chunk inputs on the points of shape that vary only along the axes in
    varying, and their compact shape."""
    compact = tuple(n if ax in varying else 1 for ax, n in enumerate(shape))
    base = chunk_inputs(int(np.prod(compact)), nc, seed)
    return tuple(spread(x, compact, shape) for x in base), compact


def bytes_compact_shape(shape, arrays):
    """Oracle of _compact_shape: each axis's slices of the arrays broadcast to
    (L, *shape), keyed by their raw bytes."""
    lines = lambda a, ax: np.moveaxis(np.broadcast_to(a, a.shape[:1] + shape), ax + 1, 0)
    return tuple(1 if all(len({line.tobytes() for line in lines(a, ax)}) == 1 for a in arrays) else n
                 for ax, n in enumerate(shape))


def same_bytes(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


def same_outcome(got, want):
    """Two marches fail at the same flat index, or give the same bytes."""
    if want[0] >= 0:
        assert got[0] == want[0]
    else:
        same_bytes(got, want)


# M: (shape of M points, the axes the data vary along)
AXIS_CASES = {2: ((2,), ()), 22: ((11, 2), (0,)), 32: ((8, 4), (1,)), 256: ((4, 8, 8), (0, 2))}


@pytest.mark.parametrize("M", list(AXIS_CASES))
def test_duplicated_columns_march_as_separate_columns(M, monkeypatch):
    shape, varying = AXIS_CASES[M]
    inputs, compact = axis_inputs(shape, varying, 60, seed=M)
    U = int(np.prod(compact))
    assert U < M
    seen = record_chunk_points(monkeypatch)
    got = march_chunk(inputs, 0.01, shape)
    assert seen == [U]
    same_bytes(got, run_kernel(_rk4_points, inputs, 0.01))
    # the whole march, every point run separately as a problem of its own
    glog, coeff, source = chart_coeffs(U)
    cols = spread(np.arange(U), compact, shape)
    grid = Grid1D(0.0, 1.0, 129)
    phi0 = np.linspace(1.0, 2.0, U)[cols]
    psi0 = np.linspace(-0.1, 0.1, U)[cols]
    sol = solve(
        grid, lambda ub: glog(ub)[:, cols].reshape(-1, *shape), lambda ub: coeff(ub)[:, cols].reshape(-1, *shape),
        lambda ub: source(ub)[:, cols].reshape(-1, *shape), phi0.reshape(shape), psi0.reshape(shape),
    )
    for j in range(M):
        one = solve(
            grid, lambda ub: glog(ub)[:, cols[j]], lambda ub: coeff(ub)[:, cols[j]],
            lambda ub: source(ub)[:, cols[j]], phi0[j], psi0[j],
        )
        for a, b in zip((sol.phi, sol.dphi, sol.ddphi), (one.phi, one.dphi, one.ddphi)):
            assert on_shape_rows(a, shape).reshape(len(a), M)[:, j].tobytes() == b.tobytes()


def test_theta1_only_data_marches_one_column_per_theta1(monkeypatch):
    # (8, 4) chart, coefficients that vary in the first angle only
    th = np.arange(8)[:, None] + np.zeros((8, 4))
    grid = Grid1D(0.0, 1.0, odesolve._CHUNK + 101)
    march = lambda: solve(
        grid,
        lambda ub: 0.1 * np.sin(ub[:, None, None] + th),
        lambda ub: 0.5 + 0.1 * np.cos(ub[:, None, None] * (1.0 + th)),
        lambda ub: np.full((len(ub), 8, 4), 0.05),
        np.ones((8, 4)),
        np.zeros((8, 4)),
    )
    seen = record_chunk_points(monkeypatch)
    sol = march()
    assert seen == [8, 8]  # two chunks, eight columns each
    _full_march(monkeypatch)
    seen.clear()
    full = march()
    assert seen == [32, 32]
    for a, b in zip((sol.phi, sol.dphi, sol.ddphi), (full.phi, full.dphi, full.ddphi)):
        assert a.shape == (grid.n, 8, 1) and b.shape == (grid.n, 8, 4)
        assert on_shape_rows(a, (8, 4)).tobytes() == b.tobytes()


def test_solution_has_the_axes_any_chunk_varied_along(monkeypatch):
    # (8, 4) chart: the coefficients are constant in chunk 1, up to and with
    # the node the two chunks share, and vary along theta1 in chunk 2
    th = np.arange(8.0)[:, None]
    grid = Grid1D(0.0, 1.0, odesolve._CHUNK + 101)
    split = grid.a + odesolve._CHUNK * grid.h
    late = lambda ub: ub[:, None, None] > split
    march = lambda: solve(
        grid,
        lambda ub: 0.1 * np.sin(ub[:, None, None]) + np.where(late(ub), 0.05 * np.sin(th * ub[:, None, None]), 0.0),
        lambda ub: 0.5 + np.where(late(ub), 0.1 * np.cos(ub[:, None, None] * (1.0 + th)), 0.0),
        lambda ub: np.full((len(ub), 1, 1), 0.05),
        np.ones((8, 4)),
        np.zeros((8, 4)),
    )
    seen = record_chunk_points(monkeypatch)
    sol = march()
    assert seen == [1, 8]
    _full_march(monkeypatch)
    seen.clear()
    full = march()
    assert seen == [32, 32]
    for a, b in zip((sol.phi, sol.dphi, sol.ddphi), (full.phi, full.dphi, full.ddphi)):
        assert a.shape == (grid.n, 8, 1) and b.shape == (grid.n, 8, 4)
        assert on_shape_rows(a, (8, 4)).tobytes() == b.tobytes()


def test_single_point_march_skips_the_keying(monkeypatch):
    # an empty shape, or one of size-1 axes, is returned without a look at the arrays
    assert odesolve._compact_shape((), [None] * 5) == ()
    assert odesolve._compact_shape((1, 1), [None] * 5) == (1, 1)
    shapes = []
    rule = odesolve._compact_shape
    monkeypatch.setattr(odesolve, "_compact_shape", lambda shape, arrays: shapes.append(shape) or rule(shape, arrays))
    sol = solve(Grid1D(0.0, 1.0, 33), np.zeros_like, np.ones_like, None, 1.0, 0.0)
    assert shapes == [()]
    assert abs(sol.phi[-1] - np.cos(1.0)) < 1e-8


def nudged(target, points, nudge):
    """target with its entries at points given another bit pattern."""
    if nudge == "signed_zero":
        target[:] = 0.0
        target[points] = -0.0
    elif nudge == "nan_payload":
        bits = target.view(np.uint64)
        bits[:] = 0x7FF8000000000001
        bits[points] = 0x7FF8000000000002
    else:
        target[points] = np.nextafter(target[points], np.inf)


@pytest.mark.parametrize("where", ["psi0", "coefficient"])
@pytest.mark.parametrize("nudge", ["signed_zero", "one_ulp", "nan_payload"])
def test_columns_differing_in_one_bit_pattern_march_separately(where, nudge, monkeypatch):
    # a (4, 3) shape of equal columns but at point (2, 1), or on the theta1 line 2
    shape = (4, 3)
    for points, compact in (([7], (4, 3)), ([6, 7, 8], (4, 1))):
        inputs, _ = axis_inputs(shape, (), 40, seed=7)
        phi0, psi0, gl, cc, ff = (x.copy() for x in inputs)
        nudged(psi0 if where == "psi0" else cc[17], points, nudge)
        inputs = (phi0, psi0, gl, cc, ff)
        arrays = on_shape(inputs, shape)
        assert odesolve._compact_shape(shape, arrays) == bytes_compact_shape(shape, arrays) == compact
        seen = record_chunk_points(monkeypatch)
        got = march_chunk(inputs, 0.01, shape)
        assert seen == [int(np.prod(compact))]
        monkeypatch.undo()
        want = run_kernel(_rk4_points, inputs, 0.01)
        assert (want[0] >= 0) == (nudge == "nan_payload")
        same_outcome(got, want)
        if where == "psi0" and nudge == "signed_zero":
            assert np.flatnonzero(np.signbit(got[4][0])).tolist() == points


@pytest.mark.parametrize("case", ["signed_zero", "nan_payload", "equal_wrapping_sums"])
def test_columns_differing_deep_in_a_coefficient_row_stay_distinct(case, monkeypatch):
    # a (2, 4) shape with one column, but for points 2 and 6 (the theta2 line 2),
    # whose column differs from it only in row 1234 of cc (rows 1234 and 1235 when swapped)
    shape = (2, 4)
    inputs, _ = axis_inputs(shape, (), 2048, seed=11)
    phi0, psi0, gl, cc, ff = (x.copy() for x in inputs)
    twin = [2, 6]
    if case == "equal_wrapping_sums":  # the two values swapped: equal sums, first and last rows
        cc[1234:1236, twin] = cc[1234:1236, twin][::-1]
    else:
        nudged(cc[1234], twin, case)
    inputs = (phi0, psi0, gl, cc, ff)
    arrays = on_shape(inputs, shape)
    assert odesolve._compact_shape(shape, arrays) == bytes_compact_shape(shape, arrays) == (1, 4)
    seen = record_chunk_points(monkeypatch)
    got = march_chunk(inputs, 0.01, shape)
    _full_march(monkeypatch)
    same_outcome(got, march_chunk(inputs, 0.01, shape))
    assert seen == [4, 8]


@pytest.mark.parametrize("twin", [[2, 3], [1, 2, 3], [6, 7]])
def test_run_of_colliding_columns_stays_apart_from_the_first(twin, monkeypatch):
    # on an (8, 2) shape the theta1 lines twin equal each other, and differ from
    # the others only by two swapped values: a line equal to its neighbour but
    # not to the first makes the axis vary
    shape = (8, 2)
    inputs, _ = axis_inputs(shape, (), 2048, seed=11)
    phi0, psi0, gl, cc, ff = (x.copy() for x in inputs)
    lines = cc.reshape(-1, *shape)
    lines[1234:1236, twin] = lines[1234:1236, twin][::-1]
    inputs = (phi0, psi0, gl, cc, ff)
    arrays = on_shape(inputs, shape)
    assert odesolve._compact_shape(shape, arrays) == bytes_compact_shape(shape, arrays) == (8, 1)
    seen = record_chunk_points(monkeypatch)
    got = march_chunk(inputs, 0.01, shape)
    _full_march(monkeypatch)
    same_outcome(got, march_chunk(inputs, 0.01, shape))
    assert seen == [8, 16]


def crossing_step(omega, h, nc):
    """The step on which phi = cos(omega ub) fails, from the point loop."""
    bad = run_kernel(_rk4_points, oscillators([omega], nc), h)[0]
    assert bad >= 0
    return bad


def test_failure_in_duplicated_column_names_its_first_point(monkeypatch):
    h, nc = 0.01, 200
    fast, tie = 2.0, 2.0 + 1e-9
    assert crossing_step(fast, h, nc) == crossing_step(tie, h, nc)
    # (shape, varying axis, omega of its lines, the first failing point, and
    # (other line, the point that wins the tie) when that line fails too)
    cases = [
        ((4, 2), 0, [0.5, 0.6, fast, 0.7], 4, ((3, 4), (1, 2))),  # points 4 and 5 fail first
        ((2, 4), 1, [0.5, fast, 0.6, 0.7], 1, ((3, 1), (0, 0))),  # points 1 and 5 fail first
    ]
    for shape, axis, omega, first, ties in cases:
        compact = tuple(n if ax == axis else 1 for ax, n in enumerate(shape))
        lines = lambda om: oscillators(spread(np.array(om), compact, shape), nc)
        want = run_kernel(_rk4_points, lines(omega), h)
        assert want[0] % 8 == first
        seen = record_chunk_points(monkeypatch)
        assert march_chunk(lines(omega), h, shape)[0] == want[0]
        assert seen == [4]
        monkeypatch.undo()
        # another line failing on the same step: the smaller point wins,
        # whether it is the first line's point or the other's
        for other, j in ties:
            omega_tie = list(omega)
            omega_tie[other] = tie
            want = run_kernel(_rk4_points, lines(omega_tie), h)
            assert want[0] % 8 == j
            assert march_chunk(lines(omega_tie), h, shape)[0] == want[0]


@pytest.mark.parametrize("n", [601, odesolve._CHUNK + 601])
def test_focusing_location_same_as_undeduplicated_march(n, monkeypatch):
    # a (4, 8) shape whose data vary by theta1 line; line 2, points 16-23,
    # crosses zero in the last chunk
    shape = (4, 8)
    glog, coeff, _ = chart_coeffs(4)
    k = spread(np.arange(4), (4, 1), shape)
    crushed = k == 2
    omega = 0.5 * np.pi * (n - 1) / (n - 301)
    march = lambda: solve(
        Grid1D(0.0, 1.0, n),
        lambda ub: np.where(crushed, 0.0, glog(ub)[:, k]).reshape(-1, *shape),
        lambda ub: np.where(crushed, omega**2, coeff(ub)[:, k]).reshape(-1, *shape),
        None,
        np.ones(shape),
        np.zeros(shape),
    )
    seen = record_chunk_points(monkeypatch)
    with pytest.raises(FocusingError) as err:
        march()
    assert max(seen) == 4
    _full_march(monkeypatch)
    seen.clear()
    with pytest.raises(FocusingError) as full:
        march()
    assert max(seen) == 32
    assert err.value.location == full.value.location
    assert err.value.location[1] == 16


# --- providers return an axis of size 1 for each angle they do not vary in -----


def compact_maps(shape, varying, source):
    """glog, coeff and source maps (source None without one) that vary along
    the angular axes in varying only, each (K, *s) with s of size 1 on every
    other axis of shape."""
    k = np.arange(int(np.prod([shape[ax] for ax in varying]))).reshape(
        [n if ax in varying else 1 for ax, n in enumerate(shape)])
    col = lambda ub: ub.reshape((-1,) + (1,) * len(shape))
    glog = lambda ub: 0.2 * np.sin(col(ub) + k)
    coeff = lambda ub: 0.5 + 0.1 * np.cos(3.0 * col(ub) * (1 + k % 3))
    src = lambda ub: 0.05 * (1.0 + np.sin(col(ub) - k) ** 2)
    return glog, coeff, src if source else None


@pytest.mark.parametrize("source", [True, False])
@pytest.mark.parametrize("varying", [(), (0,), (1,), (0, 1)])
def test_size_one_axes_march_as_the_maps_padded_to_the_chart(varying, source, monkeypatch):
    shape = (8, 4)
    maps = compact_maps(shape, varying, source)
    padded = [fn and (lambda ub, fn=fn: np.broadcast_to(fn(ub), (len(ub),) + shape).copy()) for fn in maps]
    grid = Grid1D(0.0, 1.0, odesolve._CHUNK + 101)
    marches = []
    for fns in (maps, padded):
        seen = record_chunk_points(monkeypatch)
        marches.append((solve(grid, *fns, np.ones(shape), np.full(shape, 0.1)), seen))
        monkeypatch.undo()
    (sol, seen), (full, seen_full) = marches
    compact = tuple(n if ax in varying else 1 for ax, n in enumerate(shape))
    U = int(np.prod(compact))
    assert seen == seen_full == [U, U]  # two chunks
    for a, b in zip((sol.phi, sol.dphi, sol.ddphi), (full.phi, full.dphi, full.ddphi)):
        assert a.shape == b.shape == (grid.n,) + compact
        assert on_shape_rows(a, shape).tobytes() == on_shape_rows(b, shape).tobytes()


@pytest.mark.parametrize("bad", [(5,), (5, 4), (4, 5), (5, 1, 5)])
def test_provider_array_of_the_wrong_shape_is_refused(bad):
    # a 3-node grid has a 5-point lattice, so a (5,) array would broadcast
    # against the (5,) shape and be read as varying with the angle
    good = lambda ub: np.zeros((len(ub), 5))
    wrong = lambda ub: np.ones(bad)
    for name, fns in (("glog_fn", (wrong, good, None)), ("coeff_fn", (good, wrong, None)),
                      ("source_fn", (good, good, wrong))):
        with pytest.raises(ValueError, match=name):
            solve(Grid1D(0.0, 1.0, 3), *fns, np.ones(5), np.zeros(5))


# --- dense output --------------------------------------------------------------


def _eval_oracle(sol, ub, basis_fn):
    """DenseSolution._eval of a one-segment solution as one expression of six
    gathered terms."""
    (grid,) = sol.grids
    ub, h = np.asarray(ub, float), grid.h
    idx = np.clip(((ub - grid.a) / h).astype(int), 0, grid.n - 2)
    t = (ub - (grid.a + idx * h)) / h
    tt = t[(...,) + (None,) * (sol.phi.ndim - 1)] if sol.phi.ndim > 1 else t
    f0, f1 = sol.phi[idx], sol.phi[idx + 1]
    d0, d1 = sol.dphi[idx], sol.dphi[idx + 1]
    s0, s1 = sol.ddphi[idx], sol.ddphi[idx + 1]
    return (
        f0 * basis_fn(odesolve._H0, tt)
        + h * d0 * basis_fn(odesolve._H1, tt)
        + h * h * s0 * basis_fn(odesolve._H2, tt)
        + f1 * basis_fn(odesolve._H3, tt)
        + h * d1 * basis_fn(odesolve._H4, tt)
        + h * h * s1 * basis_fn(odesolve._H5, tt)
    )


def chart_solution(n=257, shape=(8, 4)):
    M = int(np.prod(shape))
    glog, coeff, source = chart_coeffs(M)
    grid = Grid1D(0.1, 0.9, n)
    ones = np.ones(shape)
    fields = lambda fn: (lambda ub: fn(ub).reshape((len(ub),) + shape))
    return solve(grid, fields(glog), fields(coeff), fields(source), ones, 0.1 * ones)


@pytest.mark.parametrize("shape", [(), (3,), (8, 4)])
def test_dense_output_bit_identical_to_six_term_sum(shape):
    sol = chart_solution(shape=shape)
    rng = np.random.default_rng(5)
    points = [
        rng.uniform(0.1, 0.9, 1000),
        sol.nodes(),
        rng.uniform(0.1, 0.9, (7, 3)),
        np.float64(0.37),
        0.9,
        np.array([0.1 - 1e-3, 0.9 + 1e-3]),  # the end cells' quintics, extrapolated
    ]
    for ub in points:
        for method, basis_fn, scale in ((sol, odesolve._poly, 1.0), (sol.deriv, odesolve._dpoly, sol.grids[0].h)):
            got, want = method(ub), _eval_oracle(sol, ub, basis_fn) / scale
            assert np.shape(got) == np.shape(want) and type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_dense_output_keeps_two_result_buffers():
    import tracemalloc

    sol = chart_solution(n=2049)
    ub = np.random.default_rng(2).uniform(0.1, 0.9, 20480)
    result = 20480 * 32 * 8
    peaks = []
    for fn in (lambda: sol(ub), lambda: _eval_oracle(sol, ub, odesolve._poly), lambda: sol.deriv(ub)):
        tracemalloc.start()
        fn()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] > 8 * result  # the six-term sum keeps about nine results alive
    assert peaks[0] < 2.5 * result and peaks[2] < 2.5 * result


def test_one_segment_solution_has_no_interior_breakpoint():
    sol = chart_solution()
    (grid,) = sol.grids
    assert sol.breakpoints.tolist() == [grid.a, grid.b]
    assert sol.deriv_jumps() == []
    assert sol.nodes().tobytes() == grid.points().tobytes()


def _segments_oracle(sol, ub, name):
    """Multi-segment dense output as one boolean mask per segment, each
    segment a one-segment DenseSolution on its node-row slice."""
    ub = np.atleast_1d(np.asarray(ub, float))
    seg = np.clip(np.searchsorted(sol.breakpoints, ub, side="right") - 1, 0, len(sol.grids) - 1)
    starts = np.cumsum([0] + [g.n for g in sol.grids])
    out = np.empty((len(ub),) + sol.phi.shape[1:])
    for k in np.unique(seg):
        rows = slice(starts[k], starts[k + 1])
        piece = DenseSolution([sol.grids[k]], sol.phi[rows], sol.dphi[rows], sol.ddphi[rows])
        sel = seg == k
        out[sel] = getattr(piece, name)(ub[sel])
    return out


@pytest.mark.parametrize("shape", [(), (8, 4)])
def test_piecewise_output_bit_identical_to_mask_loop(shape):
    breakpoints = [0.0, 0.25, 0.3, 0.7, 1.0]
    ones = np.ones(shape)
    M = max(1, int(np.prod(shape)))
    glog, coeff, source = chart_coeffs(M)
    fields = lambda fn: (lambda ub: fn(ub).reshape((len(ub),) + shape))
    grids = odesolve.segmented_grids([(lo, hi, 0.01) for lo, hi in zip(breakpoints[:-1], breakpoints[1:])])
    sol = odesolve.march([odesolve.Problem(
        grids, fields(glog), fields(coeff), fields(source), ones, 0.1 * ones,
        [lambda phi: -0.1 / phi, None, lambda phi: -0.2 / phi],
    )])[0]
    assert sol.breakpoints.tolist() == breakpoints
    assert len(sol.phi) == sum(g.n for g in grids)
    assert sol.nodes().tolist() == [x for g in grids for x in g.points().tolist()]
    assert [loc for loc, _ in sol.deriv_jumps()] == breakpoints[1:-1]
    assert not np.any(sol.deriv_jumps()[1][1])  # no jump at 0.3: dphi carries over
    rng = np.random.default_rng(9)
    on_breaks = np.array(breakpoints)
    points = [
        rng.uniform(0.0, 1.0, 500),
        np.r_[on_breaks, rng.uniform(0.0, 1.0, 40), on_breaks[::-1]],  # exactly on every breakpoint
        np.sort(rng.uniform(0.26, 0.29, 9)),  # one piece only
        0.3,
    ]
    for ub in points:
        for name in ("__call__", "deriv"):
            got = getattr(sol, name)(ub)
            assert got.tobytes() == _segments_oracle(sol, ub, name).tobytes()


@pytest.mark.parametrize("shape", [(), (3, 2)])
@pytest.mark.parametrize("breakpoints", [[0.0, 1.0], [0.0, 0.25, 0.7, 1.0]])
def test_any_ub_shape_gives_its_shape_times_the_field_shape(shape, breakpoints):
    # one segment or several: a scalar ub gives field_shape, an array ub its own shape first
    M = int(np.prod(shape))
    glog, coeff, source = chart_coeffs(M)
    fields = lambda fn: (lambda ub: fn(ub).reshape((len(ub),) + shape))
    grids = odesolve.segmented_grids([(lo, hi, 0.01) for lo, hi in zip(breakpoints[:-1], breakpoints[1:])])
    sol = odesolve.march([odesolve.Problem(grids, fields(glog), fields(coeff), fields(source),
                                           np.ones(shape), 0.1 * np.ones(shape))])[0]
    grid_ub = np.array([[0.1, 0.3, 0.8], [0.25, 0.7, 1.0]])
    for method in (sol, sol.deriv):
        for ub in (0.3, np.float64(0.25), 1.0):
            got, want = method(ub), method(np.array([ub]))[0]
            assert np.shape(got) == shape and type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got = method(grid_ub)
        assert got.shape == grid_ub.shape + shape
        assert got.tobytes() == method(grid_ub.ravel()).tobytes()


# --- lockstep march of several problems ----------------------------------------


@pytest.mark.parametrize("kernel", ["columns", "rows"])
def test_kernels_take_a_step_per_column(kernel):
    inputs = chunk_inputs(ROWS + 3, 80, seed=4)
    h = np.random.default_rng(4).uniform(0.005, 0.02, ROWS + 3)
    assert_same_march(run_kernel(KERNELS[kernel], inputs, h), run_kernel(_rk4_points, inputs, h))


def shaped_problem(shape, grids, seed, source=True, jumps=None):
    """A Problem with smooth coefficients, different on each point of shape."""
    M = int(np.prod(shape))
    glog, coeff, src = chart_coeffs(M)
    k = np.random.default_rng(seed).uniform(0.5, 1.5)
    fields = lambda fn: (lambda ub: fn(k * ub).reshape((len(ub),) + shape))
    return odesolve.Problem(grids, fields(glog), fields(coeff), fields(src) if source else None,
                            np.full(shape, 1.0 + 0.1 * k), np.full(shape, 0.1 * k), jumps)


def lockstep_problems():
    chunk = odesolve._CHUNK
    return [
        shaped_problem((8, 4), [Grid1D(0.0, 1.0, 301)], seed=0),
        shaped_problem((), [Grid1D(0.0, 2.0, chunk + 517)], seed=1),  # crosses a chunk boundary
        shaped_problem((8, 4), [Grid1D(0.0, 0.5, 97), Grid1D(0.5, 0.6, 41), Grid1D(0.6, 1.5, 1201)], seed=2,
                       source=False, jumps=[lambda phi: -0.1 / phi, None]),
        shaped_problem((), [Grid1D(0.0, 0.4, 51), Grid1D(0.4, 1.0, chunk + 9)], seed=3,
                       jumps=[lambda phi: 0.05 * phi]),
        shaped_problem((8, 4), [Grid1D(0.0, 1.0, 3)], seed=4, source=False),
    ]


def same_solution(a, b):
    assert a.grids == b.grids
    assert a.breakpoints.tobytes() == b.breakpoints.tobytes()
    for x, y in zip((a.phi, a.dphi, a.ddphi), (b.phi, b.dphi, b.ddphi)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_lockstep_march_equals_marching_each_problem_alone(monkeypatch):
    seen = record_chunk_points(monkeypatch)
    batch = odesolve.march(lockstep_problems())
    rounds = list(seen)
    assert max(rounds) >= ROWS > min(rounds)  # the round's total picks the kernel
    for problem, sol in zip(lockstep_problems(), batch):
        assert len(sol.phi) == sum(g.n for g in problem.grids)
        same_solution(sol, odesolve.march([problem])[0])
    assert batch[2].breakpoints.tolist() == [0.0, 0.5, 0.6, 1.5]


def test_lockstep_providers_see_the_chunks_of_a_lone_march():
    def logged(problem, log):
        def provider(ub):
            log.append(ub.tobytes())
            return problem.coeff_fn(ub)
        return odesolve.Problem(problem.grids, problem.glog_fn, provider, problem.source_fn,
                                problem.phi0, problem.dphi0, problem.jumps)

    batch_logs = [[] for _ in lockstep_problems()]
    odesolve.march([logged(p, log) for p, log in zip(lockstep_problems(), batch_logs)])
    for problem, log in zip(lockstep_problems(), batch_logs):
        alone = []
        odesolve.march([logged(problem, alone)])
        assert log == alone


def test_equal_columns_with_different_steps_stay_apart(monkeypatch):
    # the same constant coefficients and state on two grids whose steps differ
    grids = [Grid1D(0.0, 1.0, 101), Grid1D(0.0, 1.0, 121)]
    make = lambda grid: odesolve.Problem([grid], lambda ub: np.zeros((len(ub), 4)), lambda ub: np.ones((len(ub), 4)),
                                         None, np.ones(4), np.zeros(4))
    seen = record_chunk_points(monkeypatch)
    batch = odesolve.march([make(g) for g in grids])
    assert seen == [2, 1]  # one distinct column each; the first problem finishes first
    for grid, sol in zip(grids, batch):
        same_solution(sol, odesolve.march([make(grid)])[0])
        assert abs(sol.phi[-1, 0] - np.cos(1.0)) < 1e-8


def crushing_problem(n, crush_at, M=4):
    """Point 2 of M follows phi = cos(omega ub) and crosses zero near ub = crush_at."""
    omega = 0.5 * np.pi / crush_at
    crushed = np.arange(M) == 2
    glog, coeff, _ = chart_coeffs(M)
    return odesolve.Problem([Grid1D(0.0, 1.0, n)], lambda ub: np.where(crushed, 0.0, glog(ub)),
                            lambda ub: np.where(crushed, omega**2, coeff(ub)), None, np.ones(M), np.zeros(M))


def failure_of(problems):
    with pytest.raises(Exception) as err:
        odesolve.march(problems)
    return err.value


def test_first_failing_problem_in_list_order_is_raised():
    late = crushing_problem(odesolve._CHUNK + 201, 0.97)  # fails in its second chunk
    early = crushing_problem(301, 0.2)
    want = failure_of([late])
    assert isinstance(want, FocusingError) and abs(want.location[0] - 0.97) < 0.01 and want.location[1] == 2
    got = failure_of([late, early, crushing_problem(501, 0.1)])
    assert type(got) is FocusingError and got.location == want.location and str(got) == str(want)
    # a later problem's failure is raised when the ones before it finish
    fine = shaped_problem((8, 4), [Grid1D(0.0, 1.0, 301)], seed=0)
    assert failure_of([fine, early]).location == failure_of([early]).location


def test_provider_errors_follow_the_same_order():
    def broken(ub):
        raise ValueError("provider")

    late = crushing_problem(odesolve._CHUNK + 201, 0.97)
    bad = odesolve.Problem([Grid1D(0.0, 1.0, 11)], broken, np.ones_like, None, 1.0, 0.0)
    assert type(failure_of([late, bad])) is FocusingError
    assert type(failure_of([bad, late])) is ValueError


# --- free steps coast ----------------------------------------------------------


def record_coasts(monkeypatch):
    """Wrap _coast to record the number of steps of each run it is handed."""
    seen = []
    coast = odesolve._coast

    def recorder(phi, psi, h, out_phi, out_psi):
        seen.append(out_phi.shape[0] - 1)
        return coast(phi, psi, h, out_phi, out_psi)

    monkeypatch.setattr(odesolve, "_coast", recorder)
    return seen


def free_inputs(M, nc, busy=(), phi0=None, psi0=None, seed=0):
    """chunk_inputs whose coefficients are +0.0 outside the lattice rows busy."""
    phi, psi, gl, cc, ff = chunk_inputs(M, nc, seed)
    free = np.ones(2 * nc + 1, bool)
    free[list(busy)] = False
    for x in (gl, cc, ff):
        x[free] = 0.0
    phi = phi if phi0 is None else np.array(phi0, float)
    psi = psi if psi0 is None else np.array(psi0, float)
    return phi, psi, gl, cc, ff


def assert_exact_march(inputs, h):
    """_rk4_chunk, alone and in the march, against the point loop and both
    kernels, byte for byte; after a failure, the flat index and the rows up
    to its step.  Returns the point loop's failure index."""
    want = run_kernel(_rk4_points, inputs, h)
    kernels = [run_kernel(kernel, inputs, h) for kernel in (odesolve._rk4_chunk, *KERNELS.values())]
    marched = march_chunk(inputs, h)
    if want[0] < 0:
        for got in kernels + [marched]:
            same_bytes(got, want)
        return -1
    step = want[0] // inputs[0].shape[0]
    assert marched[0] == want[0]
    for got in kernels:
        assert got[0] == want[0]
        for a, b in zip(got[3:], want[3:]):
            assert a[: step + 1].tobytes() == b[: step + 1].tobytes()
    return want[0]


@pytest.mark.parametrize("M", [1, 3, ROWS + 2])
def test_all_free_chunk_coasts_in_one_run(M, monkeypatch):
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(free_inputs(M, 300, seed=M), 0.01) == -1
    assert seen == [300] * 2  # _rk4_chunk alone, then in the march


@pytest.mark.parametrize("M", [2, ROWS + 2])
def test_free_runs_start_and_end_mid_chunk(M, monkeypatch):
    # lattice point 50 is shared by steps 24 and 25, points 199-201 by steps 99 and 100
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(free_inputs(M, 120, busy=[50, 199, 200, 201], seed=M), 0.01) == -1
    assert seen == [24, 73, 19] * 2


@pytest.mark.parametrize("M", [4, ROWS + 2])
def test_free_columns_beside_busy_ones_do_not_coast(M, monkeypatch):
    inputs = chunk_inputs(M, 100, seed=M)
    for x in inputs[2:]:
        x[:, : M // 2] = 0.0
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(inputs, 0.01) == -1
    assert seen == []


def test_coast_keeps_the_sign_of_a_zero_psi(monkeypatch):
    psi0 = [0.0, -0.0, -0.4, 0.7, -0.0]
    inputs = free_inputs(5, 200, busy=[100], phi0=[1.0, 2.0, 1.5, 1.0, 0.5], psi0=psi0)
    for x in inputs[2:]:
        x[100, [0, 1, 2, 4]] = 0.0  # the kernel marches steps 49 and 50, for column 3
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(inputs, 0.01) == -1
    assert seen == [49, 149] * 2
    _, _, psi, _, out_psi = run_kernel(odesolve._rk4_chunk, inputs, 0.01)
    assert np.signbit(psi).tolist() == np.signbit(psi0).tolist()
    assert np.signbit(out_psi[:, 1]).all()


@pytest.mark.parametrize("M", [3, ROWS + 2])
def test_phi_crossing_zero_inside_a_free_run(M, monkeypatch):
    # column 1 falls from 1 with slope -3: it reaches 0 near ub = 1/3, step 33,
    # after the busy steps 9 and 10 and inside the free run that follows
    psi0 = np.full(M, 0.5)
    psi0[1] = -3.0
    inputs = free_inputs(M, 100, busy=[20], phi0=np.ones(M), psi0=psi0, seed=M)
    seen = record_coasts(monkeypatch)
    bad = assert_exact_march(inputs, 0.01)
    assert divmod(bad, M) == (33, 1)
    assert seen[0] == 9 and len(seen) == 4
    # the march names the node that the point loop names
    with pytest.raises(FocusingError) as err:
        odesolve.march([chunk_problem(inputs, 0.01)])
    monkeypatch.setattr(odesolve, "_rk4_chunk", _rk4_points)
    with pytest.raises(FocusingError) as loop:
        odesolve.march([chunk_problem(inputs, 0.01)])
    assert err.value.location == loop.value.location == (0.34, 1)


@pytest.mark.parametrize("h, phi0, psi0", [
    (0.01, 0.005, -1.0),  # p1 = phi0 + (0.5 * h) * psi0 is 0.0
    (13 / 1024, 13 / 1024 * 33 / 64, -33 / 64),  # p3 = phi0 + h * psi0 is 0.0, yet phi0 + d > 0
])
def test_zero_stage_value_in_a_free_run(h, phi0, psi0, monkeypatch):
    M = 4
    inputs = free_inputs(M, 64, phi0=[1.0, 1.0, phi0, 1.0], psi0=[0.1, 0.2, psi0, 0.3])
    d = (h / 6.0) * (psi0 + 2.0 * psi0 + 2.0 * psi0 + psi0)
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(inputs, h) == 2  # step 0, column 2
    assert seen[0] == 64
    if phi0 + h * psi0 == 0.0:
        assert phi0 + d > 0.0  # the node check alone would pass step 0


def test_negative_zero_coefficient_is_not_free(monkeypatch):
    inputs = free_inputs(3, 80, psi0=[0.1, -0.0, -0.2])
    inputs[3][41, 1] = -0.0  # the midpoint of step 20
    seen = record_coasts(monkeypatch)
    assert assert_exact_march(inputs, 0.01) == -1
    assert seen == [20, 59] * 2
    # that step's stages are -0.0 - (-0.0) = +0.0, so psi = -0.0 becomes +0.0
    assert not np.signbit(run_kernel(odesolve._rk4_chunk, inputs, 0.01)[2][1])


@pytest.mark.parametrize("phi0, psi0, h", [
    ([1.0, 0.0], [0.5, 1.0], 0.01),  # phi = 0.0 is a stage value: 0.0 / 0.0 on step 0
    ([1.0, -0.0], [0.5, 1.0], 0.01),
    ([1.0, -0.001], [0.5, 1.0], 0.01),  # phi < 0 rises past 0 within step 0
    ([1.0, -0.5], [0.5, -0.0], 0.01),  # phi < 0 turns psi = -0.0 into +0.0, and fails
    ([1.0, 1.0], [np.inf, 0.5], 0.01),
    ([1.0, np.nan], [0.5, 0.5], 0.01),
    ([1.0, 1.0], [-0.0, 0.3], -0.01),  # no grid has a negative step, but the kernels take it
    ([1.0, 1.0], [0.0, 0.3], np.inf),
])
def test_coast_from_any_entry_state(phi0, psi0, h, monkeypatch):
    inputs = free_inputs(2, 50, phi0=phi0, psi0=psi0)
    want = run_kernel(_rk4_points, inputs, h)
    seen = record_coasts(monkeypatch)
    for kernel in (odesolve._rk4_chunk, *KERNELS.values()):
        got = run_kernel(kernel, inputs, h)
        if want[0] < 0:
            same_bytes(got, want)
        else:
            assert got[0] == want[0]
            step = want[0] // 2
            assert got[3][: step + 1].tobytes() == want[3][: step + 1].tobytes()
            assert got[4][: step + 1].tobytes() == want[4][: step + 1].tobytes()
    assert seen == [50]
