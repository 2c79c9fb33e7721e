"""Fixed-step RK4 integrator and dense solution output.

The hypersurface constraint is a second-order ODE per angular point; the
plane-wave wave factor H'' = -(1/4) G'^2 H is its linear case (no lapse term,
no source, one point), so both are marched by one loop, march.  The
classical RK4 step needs coefficient values at half-steps, so coefficient
providers are evaluated once on the half-step lattice; the even lattice points
are the grid nodes, and their values also give the second derivative stored
for dense output.

Shells and dusts often vary in one angle or in none, and a provider gives
each angle it does not vary in an axis of size 1 (Problem).  Each chunk cuts
every axis of the problem's shape along which its state and coefficients are
constant, of size 1 or equal by raw bits, to its first index and marches only
the U columns left, the compact shape; the node rows, and the DenseSolution,
have size 1 along every axis no chunk varied along.  Byte-equal inputs give
byte-equal marches, bit-identical to marching every point.

A chunk is at most _CHUNK steps and at most _POINT_STEPS point-steps, steps
times compact columns, counted at the width of the segment's chunk before it,
or at the full angular size for a segment's first chunk, whose data may vary
along angles the last segment's did not: a 32-column march loads 512-step
chunks, a one-column march 2,048-step ones.  Chunk boundaries move no bit,
since every node is a column's own march from the one before.

Each closed chunk's node rows go to the problem's consumer (Problem): by
default NodeTables, the tables the DenseSolution is built from; a caller that
needs only a statistic of the nodes folds it chunk by chunk and never holds
the solution.  The next chunk starts from the chunk's last node row.

The kernels read the factors of the classical step that do not change along
it, the hoisted tables 2*gl, cc and 0.5*ff on the half-step lattice, each
with a column axis of M, one entry per column, or of 1, one entry that every
column reads.  A chunk builds them once when it loads: a coefficient its
provider gives size 1 along every angular axis stays (L, 1), the lapse term
and the absent source of most marches, and the others are cut to (L, U).

march takes a list of independent problems (a sequence's members, each its
own constraint ODE) and advances the unfinished ones in lockstep.  Each round
hands _rk4_chunk the compact columns of every active problem side by side,
each column with its problem's step h, and moves them all by the fewest steps
any of them has left in its current chunk: a lone problem's tables as views,
several problems' rows written once into their column blocks of one table.
Every problem still calls its providers once per chunk on that chunk's
lattice and is compacted on its own, and a round that stops inside a chunk
resumes from the stored node state; the RK4 step acts on each column alone,
so every problem's nodes are bit-identical to marching it by itself.  The
error raised is the one marching the problems one after another would raise:
that of the first failing problem in list order, at the location it reports
alone.  Each problem gives its consumer's result: by default one
DenseSolution over all its segments.

_rk4_chunk marches the U columns of one round with one of two kernels, U being
the round's total over its problems.  For U < _ROWS_MIN_POINTS the column
kernel, _rk4_column, marches one point at a time through the whole round on
flat lists of Python floats; from _ROWS_MIN_POINTS up a numpy kernel loops
over steps and does each RK4 stage as one array operation over all U columns.
Both kernels do the same IEEE operations in the same order, so their results
are bit-identical, the index of a failure included.

Shells and impulsive waves are concentrated: away from them every
coefficient is exactly zero and the march streams freely, phi'' = 0.
_rk4_chunk splits a round's steps into runs and hands the runs of free steps,
whose hoisted tables are +0.0 in every column, to _coast, which moves psi not
at all and phi by one np.add.accumulate, with the bits the kernels give.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .grids import Grid1D

_HAVE_NUMBA = False  # no compiled backend; perfbench/worker.py reads it for its "backend" field


class FocusingError(NumericalFailure):
    """The conformal factor became nonpositive or NaN, or its derivative not
    finite: the metric degenerates."""


_CHUNK = 2048  # most steps marched per coefficient batch
# Most point-steps (steps times compact columns) per coefficient batch: a
# chunk's hoisted tables, nodes and the row kernel's row views grow with it, so
# a 32-column chunk is 512 steps.  _CHUNK still caps a one-column march at
# 2,048 steps: 16,384-step one-column chunks would save the fixed per-chunk
# cost (about 110 us) but raised criterion 1's tracemalloc peak from 2.4 to
# 7.1 MiB.
_POINT_STEPS = 2**14
# Smallest U, the columns of one round summed over its problems, for which the
# numpy row kernel beats the column kernel on Python floats.  The row kernel
# costs about 25-40 us a step almost whatever U (on a shared 2-core x86 host
# with numpy 2.4.6), the column kernel about 1.2-1.7 us a step per column, so
# relative to the column kernel the row kernel runs at 0.04x at U = 1, 0.4x at
# U = 8, 0.85x at U = 16, 1.0-1.3x at U = 20-22 and 1.8x at U = 32.  A flat
# per-step cost is why march puts the problems of a batch side by side.
_ROWS_MIN_POINTS = 22


def _rk4_column(p, q, g2, cr, f2, hh, hv, h6, out_p, out_q):
    """March one angular point through a chunk on Python floats.

    g2, cr, f2 are the point's 2.0*gl, cc and 0.5*ff on the half-step
    lattice; hh, hv, h6 are 0.5*h, h and h/6.0 of the point's step h.  Each
    is the leftmost operation of its expression in the classical step, so
    hoisting it keeps every rounding.  Returns the first step whose phi is not positive or
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


def _rk4_columns(phi, psi, g2, cr, f2, h, out_phi, out_psi):
    """Column kernel of _rk4_chunk: _rk4_column once per column.

    g2, cr, f2 are the hoisted tables 2*gl, cc and 0.5*ff, each (2*nc+1, M)
    or (2*nc+1, 1); a table of one column is the same flat list for every
    column.  Each column is handed over as flat lists of Python floats, on
    which the scalar arithmetic is several times cheaper than on numpy
    scalars, and its nodes are written back.  The failure returned is the
    smallest i*M + j over the columns' first failures, the step-major first.
    """
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    hh, hv, h6 = (0.5 * h).tolist(), h.tolist(), (h / 6.0).tolist()
    g2, cr, f2 = (t.T.tolist() * (M if t.shape[1] == 1 else 1) for t in (g2, cr, f2))
    out_p = [[0.0] * (nc + 1) for _ in range(M)]
    out_q = [[0.0] * (nc + 1) for _ in range(M)]
    bad = -1
    for j in range(M):
        i = _rk4_column(float(phi[j]), float(psi[j]), g2[j], cr[j], f2[j], hh[j], hv[j], h6[j], out_p[j], out_q[j])
        if i >= 0:
            bad = i * M + j if bad < 0 else min(bad, i * M + j)
    out_phi[:] = np.array(out_p).T
    out_psi[:] = np.array(out_q).T
    if bad < 0:
        phi[:] = out_phi[nc]
        psi[:] = out_psi[nc]
    return bad


def _rk4_rows(phi, psi, g2, cr, f2, h, out_phi, out_psi):
    """Row kernel of _rk4_chunk: one numpy operation per stage over all M columns.

    It reads the same hoisted tables as _rk4_columns, each (2*nc+1, M) or
    (2*nc+1, 1), whose single column broadcasts against the (M,) state, and
    fails on the same steps, so the two kernels are bit-identical.  At the M
    of a round the cost is per numpy call, not per column: the rows are split
    into lists of views once, the factors of h and 2.0 are (M,) arrays,
    because a scalar operand costs about twice an array one, and every
    operation writes into a preallocated (M,) buffer.  Each step does the
    operations of the classical step, in its order, as written in the
    comments.
    """
    nc = out_phi.shape[0] - 1
    M = phi.shape[0]
    g2, cr, f2 = list(g2), list(cr), list(f2)
    hh, hv, h6, two = 0.5 * h, h, h / 6.0, np.full(M, 2.0)
    out_phi[0] = phi
    out_psi[0] = psi
    P = list(out_phi)
    Q = list(out_psi)
    mul, sub, add, div = np.multiply, np.subtract, np.add, np.divide
    k1q, k2q, k3q, k4q, p1, q1, p2, q2, p3, q3, t, u = np.empty((12, M))
    with np.errstate(all="ignore"):  # a march past a failure divides by zero or NaN
        for i in range(nc):
            i0, im, ie = 2 * i, 2 * i + 1, 2 * i + 2
            p, q = P[i], Q[i]
            # k1q = g2[i0] * q - cr[i0] * p - f2[i0] / p
            mul(g2[i0], q, t); mul(cr[i0], p, u); sub(t, u, k1q); div(f2[i0], p, u); sub(k1q, u, k1q)
            mul(hh, q, t); add(p, t, p1)  # p1 = p + hh * q
            mul(hh, k1q, t); add(q, t, q1)  # q1 = q + hh * k1q
            # k2q = g2[im] * q1 - cr[im] * p1 - f2[im] / p1
            mul(g2[im], q1, t); mul(cr[im], p1, u); sub(t, u, k2q); div(f2[im], p1, u); sub(k2q, u, k2q)
            mul(hh, q1, t); add(p, t, p2)  # p2 = p + hh * q1
            mul(hh, k2q, t); add(q, t, q2)  # q2 = q + hh * k2q
            # k3q = g2[im] * q2 - cr[im] * p2 - f2[im] / p2
            mul(g2[im], q2, t); mul(cr[im], p2, u); sub(t, u, k3q); div(f2[im], p2, u); sub(k3q, u, k3q)
            mul(hv, q2, t); add(p, t, p3)  # p3 = p + hv * q2
            mul(hv, k3q, t); add(q, t, q3)  # q3 = q + hv * k3q
            # k4q = g2[ie] * q3 - cr[ie] * p3 - f2[ie] / p3
            mul(g2[ie], q3, t); mul(cr[ie], p3, u); sub(t, u, k4q); div(f2[ie], p3, u); sub(k4q, u, k4q)
            # P[i + 1] = p + h6 * (q + two * q1 + two * q2 + q3)
            mul(two, q1, t); add(q, t, t); mul(two, q2, u); add(t, u, t); add(t, q3, t)
            mul(h6, t, t); add(p, t, P[i + 1])
            # Q[i + 1] = q + h6 * (k1q + two * k2q + two * k3q + k4q)
            mul(two, k2q, t); add(k1q, t, t); mul(two, k3q, u); add(t, u, t); add(t, k4q, t)
            mul(h6, t, t); add(q, t, Q[i + 1])
    bad = _first_failure(out_phi, out_psi)  # once per run, not per step
    if bad < 0:
        phi[:] = P[nc]
        psi[:] = Q[nc]
    return bad


def _first_failure(out_phi, out_psi):
    """The flat index i*M + j of the first node row i + 1 whose phi is not
    positive or whose psi is not finite, row-major, or -1; NaN compares false."""
    bad = ~(out_phi[1:] > 0.0) | ~np.isfinite(out_psi[1:])
    return int(np.argmax(bad)) if bad.any() else -1


def _coast(phi, psi, h, out_phi, out_psi):
    """The kernels' march through free steps, on which every coefficient is +0.0.

    With phi > 0 and psi finite, each stage k of such a step is a zero with
    psi's sign, so q1 = q2 = q3 = psi and psi keeps its bits, and phi gains
    the same d = h6 * (psi + 2.0 * psi + 2.0 * psi + psi) on every step: the
    kernels' p + h6 * (q + 2.0 * q1 + 2.0 * q2 + q3).  np.add.accumulate adds
    along the steps strictly left to right, as the kernels' p = p + d does.
    A stage value p, p + hh * psi (= p1 = p2) or p + hv * psi (= p3) that is
    0.0 or not finite makes the kernels' stage NaN (0.0 / 0.0, 0.0 * inf), so
    its step gets a NaN psi and fails where theirs does.  From any other
    entry state both fail on step 0, or (phi < 0, psi nonzero) march alike:
    a nonzero psi plus a zero of either sign is psi.  The temporaries are
    (nc, M), smaller than the round's (2*nc+1, M) hoisted tables.
    """
    out_psi[:] = psi
    out_phi[0] = phi
    with np.errstate(all="ignore"):  # a coast past a failure overflows, as the kernels do
        out_phi[1:] = (h / 6.0) * (psi + 2.0 * psi + 2.0 * psi + psi)
        np.add.accumulate(out_phi, axis=0, out=out_phi)
        p = out_phi[:-1]
        for stage in (p, p + (0.5 * h) * psi, p + h * psi):
            out_psi[1:][(stage == 0.0) | ~np.isfinite(stage)] = np.nan
    bad = _first_failure(out_phi, out_psi)
    if bad < 0:
        phi[:] = out_phi[-1]
    return bad


def _rk4_chunk(phi, psi, g2, cr, f2, h, out_phi, out_psi):
    """March phi'' = 2*gl*phi' - cc*phi - 0.5*ff/phi by nc steps.

    g2, cr, f2: the hoisted tables 2*gl, cc and 0.5*ff at half-steps, each
    (2*nc+1, M) or (2*nc+1, 1), one column read by all M; phi, psi: (M,)
    state, updated in place; h: (M,) step of each column; out_phi/out_psi:
    (nc+1, M) node storage including the entry state.
    Returns the flat index i*M + j of the first step i at which the phi of
    point j is nonpositive or NaN or its psi is not finite, or -1; after a
    failure the state and the rows past step i are unspecified.

    The steps split into runs.  A step is free when the three tables are
    +0.0, by their raw bits, in every column at its three lattice points;
    runs of free steps go to _coast, the others to the column or the row
    kernel, and a failure inside a run is offset by the run's first step.
    The test reads the hoisted factors, not the ODE's coefficients: a factor
    that rounds to +0.0, such as 0.5 times the smallest subnormal, is what the
    kernels would read anyway, so coasting through its step gives their bits.
    """
    M, nc = phi.shape[0], out_phi.shape[0] - 1
    kernel = _rk4_columns if M < _ROWS_MIN_POINTS else _rk4_rows
    busy = g2.view(np.uint64).any(axis=1) | cr.view(np.uint64).any(axis=1) | f2.view(np.uint64).any(axis=1)
    free = ~(busy[:-1:2] | busy[1::2] | busy[2::2])
    edges = [0, *(np.flatnonzero(free[1:] != free[:-1]) + 1).tolist(), nc]
    for s, e in zip(edges[:-1], edges[1:]):
        rows = slice(s, e + 1)
        if free[s]:
            bad = _coast(phi, psi, h, out_phi[rows], out_psi[rows])
        else:
            lattice = slice(2 * s, 2 * e + 1)
            bad = kernel(phi, psi, g2[lattice], cr[lattice], f2[lattice], h, out_phi[rows], out_psi[rows])
        if bad >= 0:
            return bad + s * M
    return -1


def _compact_shape(shape, arrays):
    """shape, with each axis along which every one of arrays is constant cut
    to size 1.  Each array is (L, *s), each axis of s of size 1, on which it
    is constant and not read, or that of shape, on which it is compared by its
    raw bits: -0.0 against 0.0, or two NaN payloads, make an axis vary.  An
    empty shape, or an axis of size 1, reads no array.
    """
    compact = list(shape)
    for ax, n in enumerate(shape):
        first = (slice(None),) * (ax + 1) + (slice(0, 1),)  # index 0 of axis ax, behind the leading axis
        bits = (a.view(np.uint64) for a in arrays if a.shape[ax + 1] > 1)
        if n > 1 and all((b == b[first]).all() for b in bits):
            compact[ax] = 1
    return tuple(compact)


def angular_array(name, a, lead, shape):
    """a as a float array, if it is lead + s with each axis of s of size 1 or
    that of the angular shape, else a ValueError that names it: the shape
    contract of angular batch maps (lead (K,) for K ub values) and their data."""
    a = np.asarray(a, dtype=float)
    s = a.shape[len(lead):]
    if len(s) != len(shape) or a.shape != lead + tuple(1 if m == 1 else n for m, n in zip(s, shape)):
        raise ValueError(f"{name} shape {a.shape} is not {lead} + s, each axis of s of size 1"
                         f" or that of the angular shape {shape}")
    return a


class NodeTables:
    """The default consumer of a problem's node rows: the phi, dphi and ddphi
    rows of all its segments' nodes, of size 1 along each angular axis no
    chunk has varied along yet; its result is the DenseSolution over them."""

    def __init__(self, problem):
        self.grids = problem.grids
        self.starts = np.cumsum([0] + [g.n for g in problem.grids]).tolist()
        self.tables = [np.empty((self.starts[-1],) + (1,) * np.ndim(problem.phi0)) for _ in range(3)]

    def take(self, seg, rows, phi, dphi, ddphi):
        """Write a chunk's node rows, rows of segment seg, first widening the
        tables along each axis the chunk is the first to vary along; a later
        chunk of the segment overwrites the node the two share."""
        shape = np.broadcast_shapes(self.tables[0].shape[1:], phi.shape[1:])
        if shape != self.tables[0].shape[1:]:
            self.tables = [np.array(np.broadcast_to(t, t.shape[:1] + shape)) for t in self.tables]
        base = self.starts[seg]
        for table, nodes in zip(self.tables, (phi, dphi, ddphi)):
            table[base + rows.start : base + rows.stop] = nodes

    def result(self):
        return DenseSolution(self.grids, *self.tables)


@dataclass
class Problem:
    """One march: phi'' = 2*glog*phi' - coeff*phi - source/(2 phi) from phi0, dphi0.

    grids: consecutive segments, each marched at its own step from the end
    state of the one before; glog_fn/coeff_fn/source_fn map a batch of ub
    values (K,) to a coefficient array (K, *s), each axis of s of size 1 or
    that of np.shape(phi0) (source_fn may be None for the homogeneous
    equation), each called once per chunk on the chunk's half-step lattice;
    jumps: optional derivative increments applied at the interior
    breakpoints, each a callable (phi_values -> dphi_increment) or None.
    phi_values and the solution are (..., *s), s as the march keeps it.
    consumer maps the problem to what takes its node rows: an object whose
    take(seg, rows, phi, dphi, ddphi) receives each closed chunk's rows, the
    slice rows of segment seg's nodes, each (len, *s), and whose result() is
    what march returns for the problem (NodeTables: the DenseSolution).

    A chunk keeps a coefficient whose provider gives it size 1 along every
    angular axis as one column, (L, 1), that every compact column reads, and
    hands the kernels the hoisted tables 2*glog, coeff and 0.5*source
    (module docstring).
    """

    grids: list  # list[Grid1D]
    glog_fn: Callable[[np.ndarray], np.ndarray]
    coeff_fn: Callable[[np.ndarray], np.ndarray]
    source_fn: Callable[[np.ndarray], np.ndarray] | None
    phi0: np.ndarray
    dphi0: np.ndarray
    jumps: list | None = None
    consumer: Callable = NodeTables


class _March:
    """One problem inside march: the consumer of its node rows; the segment
    being marched, its state phi, dphi at the last node, and the compact
    columns of its current chunk.

    Of the chunk it holds its compact shape, the hoisted tables g2, cc, f2
    of its U columns on the lattice, each (L, U) or (L, 1), and their nodes
    o_phi, o_psi, of which the first done + 1 (of nc + 1) are marched.  U
    outlives the chunk: it sizes the segment's next one.
    """

    def __init__(self, problem):
        self.problem = problem
        self.shape = np.shape(problem.phi0)
        self.consumer = problem.consumer(problem)
        self.seg = 0
        self._start_segment(problem.phi0, problem.dphi0)

    @property
    def finished(self):
        return self.seg == len(self.problem.grids)

    def _start_segment(self, phi0, dphi0):
        self.grid = self.problem.grids[self.seg]
        self.state = phi0, dphi0
        self.pos = self.nc = self.done = 0
        self.U = int(np.prod(self.shape))  # the full angular size sizes the segment's first chunk

    def advance(self):
        """Close a fully marched chunk, and its segment if that ends with it;
        then load the next chunk.  Calls the problem's providers and jumps."""
        if self.done < self.nc:
            return
        if self.nc:
            self._close_chunk()
        if not self.finished:
            self._load()

    def _load(self):
        grid, p, pos, shape = self.grid, self.problem, self.pos, self.shape
        nc = min(_CHUNK, max(1, _POINT_STEPS // self.U), grid.n - 1 - pos)
        ub = grid.a + (pos + 0.5 * np.arange(2 * nc + 1)) * grid.h
        zero = lambda ub: np.zeros((len(ub),) + (1,) * len(shape))
        state = [angular_array(name, np.asarray(a, float)[None], (1,), shape)
                 for name, a in zip(("phi", "dphi"), self.state)]
        fns = {"glog_fn": p.glog_fn, "coeff_fn": p.coeff_fn, "source_fn": p.source_fn or zero}
        coeffs = [angular_array(name, fn(ub), (len(ub),), shape) for name, fn in fns.items()]
        self.compact = _compact_shape(shape, state + coeffs)
        self.U = int(np.prod(self.compact))
        cut = (slice(None),) + tuple(slice(0, c) for c in self.compact)  # index 0 on each constant axis
        columns = lambda a: np.ascontiguousarray(np.broadcast_to(a, (len(a), *shape))[cut]).reshape(len(a), self.U)
        # a coefficient of size 1 along every angular axis stays one column, which all U columns read
        gl, self.cc, ff = (np.ascontiguousarray(a.reshape(len(a), 1)) if a.size == len(a) else columns(a)
                           for a in coeffs)
        self.g2, self.f2 = 2.0 * gl, 0.5 * ff
        self.o_phi, self.o_psi = np.empty((2, nc + 1, self.U))
        self.o_phi[0], self.o_psi[0] = (columns(a)[0] for a in state)
        self.nc, self.done = nc, 0

    def failure(self, step, u):
        """The FocusingError of compact column u failing on a round's step.

        Its point has index 0 on every constant axis.  That map is monotone,
        so the point of the kernel's smallest failing column is the smallest
        failing point, the one a march of every point would name.
        """
        j = int(np.ravel_multi_index(np.unravel_index(u, self.compact), self.shape))
        loc = self.grid.a + (self.pos + self.done + step + 1) * self.grid.h
        return FocusingError(
            f"conformal factor nonpositive or NaN, or its derivative not finite, near ub={loc:.6g}"
            f" (angular flat index {j})",
            location=(loc, j),
        )

    def _close_chunk(self):
        """Hand the chunk's node rows to the consumer and keep its last node
        as the state.  When the chunk ends its segment, start the next one,
        if any, from that node: the same phi, and dphi plus the breakpoint's
        jump."""
        # the even lattice points are the nodes pos..pos+nc
        acc = self.g2[::2] * self.o_psi - self.cc[::2] * self.o_phi - self.f2[::2] / self.o_phi
        rows = slice(self.pos, self.pos + self.nc + 1)
        self.consumer.take(self.seg, rows, *(a.reshape((-1, *self.compact)) for a in (self.o_phi, self.o_psi, acc)))
        self.state = phi, dphi = tuple(a[-1].reshape(self.compact).copy() for a in (self.o_phi, self.o_psi))
        self.g2 = self.cc = self.f2 = self.o_phi = self.o_psi = None
        self.pos += self.nc
        self.nc = self.done = 0
        if self.pos == self.grid.n - 1:
            self.seg += 1
            if not self.finished:
                jumps = self.problem.jumps
                jump = jumps[self.seg - 1] if jumps is not None else None
                self._start_segment(phi, dphi if jump is None else dphi + jump(phi.copy()))


def _tables(marches, rows, cut):
    """The round's hoisted tables g2, cc, f2: a lone march's rows as views,
    several marches' rows written into their column blocks of one
    (2*k+1, U) table each."""
    if len(marches) == 1:
        return [getattr(marches[0], name)[rows[0]] for name in ("g2", "cc", "f2")]
    tables = np.empty((3, rows[0].stop - rows[0].start, cut[-1]))
    for m, r, lo, hi in zip(marches, rows, cut[:-1], cut[1:]):
        tables[0, :, lo:hi], tables[1, :, lo:hi], tables[2, :, lo:hi] = m.g2[r], m.cc[r], m.f2[r]
    return list(tables)


def _round(marches):
    """One kernel call: every march in marches moves by the fewest steps any
    has left in its chunk, its compact columns side by side with the others'.

    When the kernel names a failing column, the marches before its problem
    run the round again without it and the ones after it are dropped.
    Returns the marches that moved, and the FocusingError of the first
    problem in list order that failed, or None.
    """
    failure = None
    while marches:
        k = min(m.nc - m.done for m in marches)
        cut = np.cumsum([0] + [m.U for m in marches]).tolist()
        rows = [slice(2 * m.done, 2 * (m.done + k) + 1) for m in marches]
        g2, cc, f2 = _tables(marches, rows, cut)
        phi = np.concatenate([m.o_phi[m.done] for m in marches])
        psi = np.concatenate([m.o_psi[m.done] for m in marches])
        h = np.concatenate([np.full(m.U, m.grid.h) for m in marches])
        out_phi, out_psi = np.empty((2, k + 1, cut[-1]))
        bad = _rk4_chunk(phi, psi, g2, cc, f2, h, out_phi, out_psi)
        if bad < 0:
            for m, lo, hi in zip(marches, cut[:-1], cut[1:]):
                m.o_phi[m.done : m.done + k + 1] = out_phi[:, lo:hi]
                m.o_psi[m.done : m.done + k + 1] = out_psi[:, lo:hi]
                m.done += k
            return marches, failure
        step, col = divmod(bad, cut[-1])
        j = int(np.searchsorted(cut, col, side="right")) - 1
        failure = marches[j].failure(step, col - cut[j])
        marches = marches[:j]
    return marches, failure


def march(problems) -> list:
    """March every problem; returns its consumer's result per problem, by
    default one DenseSolution over all its grids.

    The unfinished problems advance together, one _round at a time; each
    problem's nodes are bit-identical to marching it alone (module
    docstring).  When problems fail, the one raised is the exception a loop
    over the problems would raise: the first failing problem's, in list
    order, whether a FocusingError of the march or an error of its providers
    or jumps.  Once problem j has failed the problems after it are dropped,
    and the ones before it march on.
    """
    marches = [_March(p) for p in problems]
    active, failure = marches, None
    while active:
        for i, m in enumerate(active):
            try:
                m.advance()
            except Exception as exc:  # raised once the problems before this one are done
                active, failure = active[:i], exc
                break
        active = [m for m in active if not m.finished]
        if active:
            active, failed = _round(active)
            if failed is not None:
                failure = failed
    if failure is not None:
        raise failure
    return [m.consumer.result() for m in marches]


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
    """Node values on consecutive segments plus quintic two-point Hermite
    dense output on each.

    Arrays are (rows, *field_shape): each grid's node rows follow the previous
    grid's, so a breakpoint is a node of both segments; the value is
    continuous there and the derivative may jump.  A march's field_shape has
    size 1 along each angle the solution does not vary in (Problem).  The
    second derivative comes from the ODE right-hand side, making the
    interpolant O(h^6)-accurate for smooth coefficients.
    """

    grids: list  # list[Grid1D], consecutive
    phi: np.ndarray
    dphi: np.ndarray
    ddphi: np.ndarray
    breakpoints: np.ndarray = field(init=False)  # segment boundaries including interval ends

    def __post_init__(self):
        self.breakpoints = np.array([self.grids[0].a] + [g.b for g in self.grids], dtype=float)
        self._starts = np.cumsum([0] + [g.n for g in self.grids]).tolist()

    def nodes(self):
        """The ub of every node row."""
        return np.concatenate([g.points() for g in self.grids])

    def deriv_jumps(self):
        """(location, jump of the derivative) at each interior breakpoint."""
        return [(self.breakpoints[k], self.dphi[s] - self.dphi[s - 1]) for k, s in enumerate(self._starts[1:-1], 1)]

    def _eval(self, ub, basis_fn):
        """Each point on the segment that holds it (clipped to the end
        segments), in its input order; one segment takes every point as is.
        Either way the result is (*ub.shape, *field_shape)."""
        if len(self.grids) == 1:
            return self._segment(0, ub, basis_fn)
        ub = np.asarray(ub, float)
        flat = ub.reshape(-1)
        seg = np.clip(np.searchsorted(self.breakpoints, flat, side="right") - 1, 0, len(self.grids) - 1)
        # a stable sort keeps each segment's points in their input order
        order = np.argsort(seg, kind="stable")
        cuts = np.searchsorted(seg[order], np.arange(len(self.grids) + 1))
        out = np.empty((len(flat),) + self.phi.shape[1:])
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            if lo < hi:
                sel = order[lo:hi]
                out[sel] = self._segment(k, flat[sel], basis_fn)
        return out.reshape(ub.shape + self.phi.shape[1:])[()]  # a 0-d result as a scalar, as _segment gives it

    def _segment(self, k, ub, basis_fn):
        """f0*B0 + (h*d0)*B1 + ((h*h)*s0)*B2 + f1*B3 + (h*d1)*B4 + ((h*h)*s1)*B5
        on segment k, with its scalar a and h, summed left to right in one
        output buffer with one scratch buffer, so no more than two
        result-sized arrays are alive at once; divided by h for _dpoly."""
        g, rows = self.grids[k], slice(self._starts[k], self._starts[k + 1])
        ub, h = np.asarray(ub, dtype=float), g.h
        idx = np.clip(((ub - g.a) / h).astype(int), 0, g.n - 2)
        t = (ub - (g.a + idx * h)) / h
        tt = t[(...,) + (None,) * (self.phi.ndim - 1)] if self.phi.ndim > 1 else t
        out = np.take(self.phi[rows], idx, axis=0)
        out *= basis_fn(_H0, tt)
        term = np.empty_like(out)
        for values, cell, scale, coeffs in (
            (self.dphi, idx, h, _H1),
            (self.ddphi, idx, h * h, _H2),
            (self.phi, idx + 1, None, _H3),
            (self.dphi, idx + 1, h, _H4),
            (self.ddphi, idx + 1, h * h, _H5),
        ):
            np.take(values[rows], cell, axis=0, out=term, mode="clip")  # "raise" buffers out; cell is in range
            if scale is not None:
                term *= scale
            term *= basis_fn(coeffs, tt)
            out += term
        if basis_fn is _dpoly:  # d/dub = (d/dt) / h
            out /= h
        return out

    def __call__(self, ub):
        return self._eval(ub, _poly)

    def deriv(self, ub):
        return self._eval(ub, _dpoly)


def segmented_grids(pieces) -> list:
    """Grids of consecutive (lo, hi, step) segments, each at the target step
    and at least 9 nodes, in the (lo, hi, ...) form of
    quadrature.composite_rule's pieces."""
    return [Grid1D(a, b, max(9, int(np.ceil((b - a) / step)) + 1)) for a, b, step in pieces]
