"""Fixed-step RK4 integrator and dense solution output.

The hypersurface constraint is a second-order ODE per angular point; the
plane-wave wave factor H'' = -(1/4) G'^2 H is its linear case (no lapse term,
no source, one point), so both are marched by solve_linear_second_order.  The
classical RK4 step needs coefficient values at half-steps, so coefficient
providers are evaluated once on the half-step lattice; the even lattice points
are the grid nodes, and their values also give the second derivative stored
for dense output.

Shells and dusts often vary in one angle or in none, so many of the M angular
points of a chunk carry byte-identical columns of initial state and
coefficients.  Each chunk marches only its U distinct columns and scatters the
nodes back to all M points (_rk4_distinct); byte-equal inputs give byte-equal
marches, so the result is bit-identical to marching every point.

_rk4_chunk marches the U columns of one chunk with one of two kernels.  For
U < _ROWS_MIN_POINTS the column kernel, _rk4_column, marches one point at a
time through the whole chunk on flat lists of Python floats; from
_ROWS_MIN_POINTS up a numpy kernel loops over steps and does each RK4 stage
as one array operation over all U columns.  Both kernels do the same IEEE
operations in the same order, so their results are bit-identical, the index
of a failure included.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .grids import Grid1D

_HAVE_NUMBA = False  # no compiled backend; perfbench/worker.py reads it for its "backend" field


class FocusingError(NumericalFailure):
    """The conformal factor became nonpositive or NaN, or its derivative not
    finite: the metric degenerates."""


_CHUNK = 4096  # steps marched per coefficient batch
# Smallest M for which the numpy row kernel beats the column kernel on Python
# floats.  Per 4,096-step chunk on a 2-core x86 host with numpy 2.4, its speed
# relative to the column kernel is 0.05x at M = 1, 0.15x at M = 4, 0.32x at
# M = 8, 0.6-0.7x at M = 16, 0.8x at M = 20, 1.0x at M = 22 and 1.4x at M = 32.
_ROWS_MIN_POINTS = 22


def _rk4_column(p, q, g2, cr, f2, hh, hv, h6, out_p, out_q):
    """March one angular point through a chunk on Python floats.

    g2, cr, f2 are the point's 2.0*gl, cc and 0.5*ff on the half-step
    lattice; hh, hv, h6 are 0.5*h, h and h/6.0.  Each is the leftmost
    operation of its expression in the classical step, so hoisting it keeps
    every rounding.  Returns the first step whose phi is not positive or
    whose psi is not finite, or -1.
    """
    nc = len(out_p) - 1
    out_p[0] = p
    out_q[0] = q
    for i in range(nc):
        i0, im, ie = 2 * i, 2 * i + 1, 2 * i + 2
        try:
            k1q = g2[i0] * q - cr[i0] * p - f2[i0] / p
            p1 = p + hh * q
            q1 = q + hh * k1q
            k2q = g2[im] * q1 - cr[im] * p1 - f2[im] / p1
            p2 = p + hh * q1
            q2 = q + hh * k2q
            k3q = g2[im] * q2 - cr[im] * p2 - f2[im] / p2
            p3 = p + hv * q2
            q3 = q + hv * k3q
            k4q = g2[ie] * q3 - cr[ie] * p3 - f2[ie] / p3
        except ZeroDivisionError:  # only x / 0.0 can raise here: a stage value of exactly 0.0
            return i
        p = p + h6 * (q + 2.0 * q1 + 2.0 * q2 + q3)
        q = q + h6 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        out_p[i + 1] = p
        out_q[i + 1] = q
        if not (p > 0.0 and q - q == 0.0):  # NaN compares false; q - q is NaN for inf
            return i
    return -1


def _rk4_columns(phi, psi, gl, cc, ff, h, out_phi, out_psi):
    """Column kernel of _rk4_chunk: _rk4_column once per angular point.

    Each column is handed over as flat lists of Python floats, on which the
    scalar arithmetic is several times cheaper than on numpy scalars, and its
    nodes are written back.  The failure returned is the smallest i*M + j
    over the columns' first failures, the step-major first.
    """
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    hh, hv, h6 = float(0.5 * h), float(h), float(h / 6.0)
    g2, cr, f2 = (2.0 * gl).T.tolist(), cc.T.tolist(), (0.5 * ff).T.tolist()
    out_p = [[0.0] * (nc + 1) for _ in range(M)]
    out_q = [[0.0] * (nc + 1) for _ in range(M)]
    bad = -1
    for j in range(M):
        i = _rk4_column(float(phi[j]), float(psi[j]), g2[j], cr[j], f2[j], hh, hv, h6, out_p[j], out_q[j])
        if i >= 0:
            bad = i * M + j if bad < 0 else min(bad, i * M + j)
    out_phi[:] = np.array(out_p).T
    out_psi[:] = np.array(out_q).T
    if bad < 0:
        phi[:] = out_phi[nc]
        psi[:] = out_psi[nc]
    return bad


def _rk4_rows(phi, psi, gl, cc, ff, h, out_phi, out_psi):
    """Row kernel of _rk4_chunk: one numpy operation per stage over all M points.

    It hoists the same factors as _rk4_column and fails on the same steps, so
    the two kernels are bit-identical.  At the M of a chunk the cost is per
    numpy call, not per point: the rows are split into lists of views once,
    and the scalar factors are (M,) arrays because a scalar operand costs
    about twice an array one.
    """
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    g2 = list(2.0 * gl)
    f2 = list(0.5 * ff)
    cr = list(cc)
    hh, hv, h6, two = (np.full(M, c) for c in (0.5 * h, h, h / 6.0, 2.0))
    out_phi[0] = phi
    out_psi[0] = psi
    P = list(out_phi)
    Q = list(out_psi)
    with np.errstate(all="ignore"):  # a march past a failure divides by zero or NaN
        for i in range(nc):
            i0, im, ie = 2 * i, 2 * i + 1, 2 * i + 2
            p, q = P[i], Q[i]
            k1q = g2[i0] * q - cr[i0] * p - f2[i0] / p
            p1 = p + hh * q
            q1 = q + hh * k1q
            k2q = g2[im] * q1 - cr[im] * p1 - f2[im] / p1
            p2 = p + hh * q1
            q2 = q + hh * k2q
            k3q = g2[im] * q2 - cr[im] * p2 - f2[im] / p2
            p3 = p + hv * q2
            q3 = q + hv * k3q
            k4q = g2[ie] * q3 - cr[ie] * p3 - f2[ie] / p3
            np.add(p, h6 * (q + two * q1 + two * q2 + q3), P[i + 1])
            np.add(q, h6 * (k1q + two * k2q + two * k3q + k4q), Q[i + 1])
    # once per chunk, not per step; NaN compares false
    bad = ~(out_phi[1:] > 0.0) | ~np.isfinite(out_psi[1:])
    if bad.any():
        return int(np.argmax(bad))  # row-major: the first step i, then the first point j
    phi[:] = P[nc]
    psi[:] = Q[nc]
    return -1


def _rk4_chunk(phi, psi, gl, cc, ff, h, out_phi, out_psi):
    """March phi'' = 2*gl*phi' - cc*phi - 0.5*ff/phi over one chunk.

    gl, cc, ff: (2*nc+1, M) at half-steps; phi, psi: (M,) state, updated in
    place; out_phi/out_psi: (nc+1, M) node storage including the entry state.
    Returns the flat index i*M + j of the first step i at which the phi of
    point j is nonpositive or NaN or its psi is not finite, or -1; after a
    failure the state and the rows past step i are unspecified.
    """
    if phi.shape[0] < _ROWS_MIN_POINTS:
        return _rk4_columns(phi, psi, gl, cc, ff, h, out_phi, out_psi)
    return _rk4_rows(phi, psi, gl, cc, ff, h, out_phi, out_psi)


def _distinct_columns(phi, psi, gl, cc, ff):
    """The byte-distinct angular columns of one chunk's problem.

    Column j is (phi[j], psi[j], gl[:, j], cc[:, j], ff[:, j]), compared by
    its raw bits, so -0.0 and 0.0, or two NaN payloads, are different columns.
    Returns the first occurrence of each distinct column, in increasing
    order, and the distinct column of every point.

    Columns are first keyed by a fingerprint of their uint64 views: the
    state, and each coefficient's wrapping sum, first and last row.  Only
    columns with equal fingerprints are compared in full, all at once.
    """
    bits = [a.view(np.uint64) for a in (phi, psi, gl, cc, ff)]
    rows = bits[:2] + [r for b in bits[2:] for r in (b.sum(axis=0, dtype=np.uint64), b[0], b[-1])]
    seen = {}
    firsts = np.array([seen.setdefault(key, j) for j, key in enumerate(zip(*(r.tolist() for r in rows)))])
    dup = np.flatnonzero(firsts != np.arange(len(firsts)))
    same = np.ones(len(dup), bool)
    for b in bits[2:]:
        same &= (b[:, dup] == b[:, firsts[dup]]).all(axis=0)
    # a fingerprint collision: the column's first byte-equal column, if any,
    # is an earlier first occurrence
    for j in dup[~same]:
        firsts[j] = next((i for i in range(j) if firsts[i] == i
                          and all(np.array_equal(b[..., i], b[..., j]) for b in bits)), j)
    return np.unique(firsts, return_inverse=True)


def _rk4_distinct(phi, psi, gl, cc, ff, h, out_phi, out_psi):
    """_rk4_chunk over the distinct columns only, scattered back to all M points.

    Byte-equal columns march to byte-equal nodes in every kernel, so this is
    bit-identical to marching each point.  The failure returned is the flat
    index over the M points: the kernel's first failing step, and the
    smallest point whose column fails on it (first occurrences are in
    increasing order, so that is the first occurrence of the kernel's
    smallest failing distinct column).
    """
    M = phi.shape[0]
    first, inverse = _distinct_columns(phi, psi, gl, cc, ff) if M > 1 else ([0], None)
    U = len(first)
    if U == M:
        return _rk4_chunk(phi, psi, gl, cc, ff, h, out_phi, out_psi)
    u_phi, u_psi = phi[first], psi[first]
    u_out_phi, u_out_psi = np.empty((out_phi.shape[0], U)), np.empty((out_psi.shape[0], U))
    bad = _rk4_chunk(u_phi, u_psi, gl[:, first], cc[:, first], ff[:, first], h, u_out_phi, u_out_psi)
    if bad >= 0:
        step, u = divmod(bad, U)
        return step * M + int(first[u])
    out_phi[:] = u_out_phi[:, inverse]
    out_psi[:] = u_out_psi[:, inverse]
    phi[:] = out_phi[-1]
    psi[:] = out_psi[-1]
    return -1


_H0 = np.array([1.0, 0.0, 0.0, -10.0, 15.0, -6.0])
_H1 = np.array([0.0, 1.0, 0.0, -6.0, 8.0, -3.0])
_H2 = np.array([0.0, 0.0, 0.5, -1.5, 1.5, -0.5])
_H3 = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
_H4 = np.array([0.0, 0.0, 0.0, -4.0, 7.0, -3.0])
_H5 = np.array([0.0, 0.0, 0.0, 0.5, -1.0, 0.5])


def _poly(coeffs, t):
    r = np.zeros_like(t)
    for c in coeffs[::-1]:
        r = r * t + c
    return r


def _dpoly(coeffs, t):
    r = np.zeros_like(t)
    for k in range(len(coeffs) - 1, 0, -1):
        r = r * t + k * coeffs[k]
    return r


@dataclass
class DenseSolution:
    """Node values plus quintic two-point Hermite dense output.

    Arrays are (n_nodes, *field_shape); the second derivative comes from the
    ODE right-hand side, making the interpolant O(h^6)-accurate for smooth
    coefficients.
    """

    grid: Grid1D
    phi: np.ndarray
    dphi: np.ndarray
    ddphi: np.ndarray

    def _locate(self, ub):
        ub = np.asarray(ub, dtype=float)
        h = self.grid.h
        idx = np.clip(((ub - self.grid.a) / h).astype(int), 0, self.grid.n - 2)
        t = (ub - (self.grid.a + idx * h)) / h
        return idx, t, h

    def _eval(self, ub, basis_fn):
        """f0*B0 + (h*d0)*B1 + ((h*h)*s0)*B2 + f1*B3 + (h*d1)*B4 + ((h*h)*s1)*B5,
        summed left to right in one output buffer with one scratch buffer, so
        no more than two result-sized arrays are alive at once."""
        idx, t, h = self._locate(ub)
        extra = (None,) * (self.phi.ndim - 1)
        tt = t[(...,) + extra] if self.phi.ndim > 1 else t
        out = np.take(self.phi, idx, axis=0)
        out *= basis_fn(_H0, tt)
        term = np.empty_like(out)
        for values, cell, scale, coeffs in (
            (self.dphi, idx, h, _H1),
            (self.ddphi, idx, h * h, _H2),
            (self.phi, idx + 1, None, _H3),
            (self.dphi, idx + 1, h, _H4),
            (self.ddphi, idx + 1, h * h, _H5),
        ):
            np.take(values, cell, axis=0, out=term, mode="clip")  # "raise" buffers out; cell is in range
            if scale is not None:
                term *= scale
            term *= basis_fn(coeffs, tt)
            out += term
        return out

    def __call__(self, ub):
        return self._eval(ub, _poly)

    def deriv(self, ub):
        out = self._eval(ub, _dpoly)
        out /= self.grid.h
        return out


def solve_linear_second_order(
    grid: Grid1D,
    glog_fn: Callable[[np.ndarray], np.ndarray],
    coeff_fn: Callable[[np.ndarray], np.ndarray],
    source_fn,
    phi0: np.ndarray,
    dphi0: np.ndarray,
) -> DenseSolution:
    """March phi'' = 2*glog*phi' - coeff*phi - source/(2 phi) on grid nodes.

    glog_fn/coeff_fn/source_fn map a batch of ub values (K,) to (K, *shape)
    coefficient arrays (source_fn may be None for the homogeneous equation);
    each is called once per chunk, on the chunk's half-step lattice.
    Raises FocusingError at the first node where phi is nonpositive or NaN or
    phi' is not finite.
    """
    shape = np.shape(phi0)
    M = int(np.prod(shape)) if shape else 1
    phi = np.array(phi0, dtype=float).reshape(M).copy()
    psi = np.array(dphi0, dtype=float).reshape(M).copy()
    n = grid.n
    h = grid.h
    out_phi = np.empty((n, M))
    out_psi = np.empty((n, M))
    acc = np.empty((n, M))
    pos = 0
    while pos < n - 1:
        nc = min(_CHUNK, n - 1 - pos)
        ub = grid.a + (pos + 0.5 * np.arange(2 * nc + 1)) * h
        gl = _broadcast_coeff(glog_fn, ub, M)
        cc = _broadcast_coeff(coeff_fn, ub, M)
        ff = _broadcast_coeff(source_fn, ub, M) if source_fn is not None else np.zeros((2 * nc + 1, M))
        o_phi = out_phi[pos : pos + nc + 1]
        o_psi = out_psi[pos : pos + nc + 1]
        bad = _rk4_distinct(phi, psi, gl, cc, ff, h, o_phi, o_psi)
        if bad >= 0:
            step, j = divmod(int(bad), M)
            loc = grid.a + (pos + step + 1) * h
            raise FocusingError(
                f"conformal factor nonpositive or NaN, or its derivative not finite, near ub={loc:.6g}"
                f" (angular flat index {j})",
                location=(loc, j),
            )
        # the even lattice points are the nodes pos..pos+nc
        acc[pos : pos + nc + 1] = 2.0 * gl[::2] * o_psi - cc[::2] * o_phi - 0.5 * ff[::2] / o_phi
        pos += nc
    final_shape = (n,) + (shape if shape else ())
    return DenseSolution(
        grid,
        out_phi.reshape(final_shape),
        out_psi.reshape(final_shape),
        acc.reshape(final_shape),
    )


def _broadcast_coeff(fn, ub, M):
    vals = np.asarray(fn(ub), dtype=float)
    if vals.ndim == 1:
        vals = np.repeat(vals[:, None], M, axis=1)
    else:
        vals = vals.reshape(len(ub), M)
    return np.ascontiguousarray(vals)


@dataclass
class PiecewiseSolution:
    """Solutions on consecutive segments; continuous value, derivative may jump."""

    pieces: list  # list[DenseSolution]
    breakpoints: np.ndarray  # segment boundaries including interval ends

    def _piece(self, ub):
        return np.clip(
            np.searchsorted(self.breakpoints, ub, side="right") - 1, 0, len(self.pieces) - 1
        )

    def _apply(self, ub, method):
        ub = np.atleast_1d(np.asarray(ub, float))
        idx = self._piece(ub)
        # a stable sort keeps each piece's points in their input order
        order = np.argsort(idx, kind="stable")
        cuts = np.searchsorted(idx[order], np.arange(len(self.pieces) + 1))
        out = np.empty((len(ub),) + self.pieces[0].phi.shape[1:])
        for p, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            if lo < hi:
                sel = order[lo:hi]
                out[sel] = method(self.pieces[p], ub[sel])
        return out

    def __call__(self, ub):
        return self._apply(ub, lambda piece, x: piece(x))

    def deriv(self, ub):
        return self._apply(ub, lambda piece, x: piece.deriv(x))

    def deriv_jumps(self):
        """(location, jump of the derivative) at each interior breakpoint."""
        out = []
        for i in range(len(self.pieces) - 1):
            left = self.pieces[i].dphi[-1]
            right = self.pieces[i + 1].dphi[0]
            out.append((self.breakpoints[i + 1], right - left))
        return out


def solve_linear_segmented(
    pieces,
    glog_fn,
    coeff_fn,
    source_fn,
    phi0,
    dphi0,
    jumps=None,
) -> PiecewiseSolution:
    """Segment-by-segment march with per-segment step sizes.

    pieces: consecutive (lo, hi, step) segments, each marched at the target
    step, in the (lo, hi, ...) form of quadrature.composite_rule's pieces;
    jumps: optional derivative increments applied at interior breakpoints,
    each a callable (phi_values -> dphi_increment) or None.
    """
    phi = np.array(phi0, dtype=float)
    dphi = np.array(dphi0, dtype=float)
    sols = []
    for j, (a, b, step) in enumerate(pieces):
        n = max(9, int(np.ceil((b - a) / step)) + 1)
        sol = solve_linear_second_order(
            Grid1D(a, b, n), glog_fn, coeff_fn, source_fn, phi, dphi
        )
        sols.append(sol)
        phi = sol.phi[-1].copy()
        dphi = sol.dphi[-1].copy()
        if jumps is not None and j < len(pieces) - 1 and jumps[j] is not None:
            dphi = dphi + jumps[j](phi)
    breakpoints = np.array([pieces[0][0]] + [hi for _, hi, _ in pieces], dtype=float)
    return PiecewiseSolution(sols, breakpoints)
