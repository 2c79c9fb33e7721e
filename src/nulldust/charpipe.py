"""Reduced-to-full characteristic data: derive outgoing connection
coefficients from (Omega, Phi, gamma_hat), integrate the coupled transport
system for the remaining coefficients along the hypersurface, and evaluate
structure-equation residuals.

Transport state per slice: (eta, b, omb, trchb, chibhat), with etab
eliminated algebraically through (eta + etab)/2 = grad(log Omega), which
makes that constraint exact by construction.  The frame derivative of a
covariant angular tensor is  nabla_4 phi = Omega^-1 d_ub phi - chi-corrections,
so the coordinate-time right-hand sides carry an overall factor Omega and
connection terms with the mixed outgoing second fundamental form.

Fields put their slots first and the grid axes last (fields): a batch of N
slices holds a one-form as (2, N, m1, m2) and a scalar as (N, m1, m2), so the
slice axis is -3 for every field and a scalar multiplies a tensor as it is.
The angular shape (m1, m2) keeps only the axes the data vary along, each m 1
or the chart's size, as the data's batch maps and the corner fields state it
(odesolve.angular_array): the cone data vary along theta1 alone and march
(n1, 1), and data that vary along both angles march the chart.  Along an axis
of size 1 a spectral derivative is an exact 0 (stencils.spectral_deriv).

One march serves a list of members on one chart (solve_transport_system):
their fields stack on a member axis between the slots and the slice axis,
so a one-form of the march state is (2, M, m1, m2) and calculus, geometry
and the spectral derivatives see one more batch axis.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import calculus as calc
from .constraints import ReducedCharData
from .errors import NumericalFailure
from .fields import sym2_inverse, sym2_pack, trace
from .geometry import christoffel, gauss_curvature
from .grids import Grid1D
from .odesolve import angular_array
from .stencils import deriv1_fd4


class TransportBlowupError(NumericalFailure):
    """The transported state left its bound or became non-finite."""


_FIELD_BOUND = 1e6  # largest |component| of the transport state before the march stops
_CHUNK = 64  # march steps per batch of slice fields


@dataclass
class CornerData:
    """Values at the corner sphere: the transversal derivative of the shift
    fixes eta - etab; the ingoing coefficients seed their transport.  Each
    angular axis (m1, m2) is of size 1 or the chart's size."""

    dub_b0: np.ndarray  # (2, m1, m2), contravariant
    omb0: np.ndarray  # (m1, m2)
    trchb0: np.ndarray  # (m1, m2)
    chibhat0: np.ndarray  # (2, 2, m1, m2)

    @classmethod
    def zeros(cls, chart):
        """Zero shift derivative, omb and chibhat, and trchb = -2, constant on
        the chart: every angular axis of size 1."""
        one = (1,) * len(chart.shape)
        return cls(np.zeros((2,) + one), np.zeros(one), np.full(one, -2.0), np.zeros((2, 2) + one))


_CORNER_SLOTS = ((2,), (), (), (2, 2))  # the slots of CornerData's fields, in order


def _unpack(packed):
    """(eta, b, omb, trchb, chibhat) of a packed state (10, ...), as views."""
    return packed[0:2], packed[2:4], packed[4], packed[5], packed[6:10].reshape((2, 2) + packed.shape[1:])


@dataclass
class SliceFields:
    """Geometry and outgoing coefficients on a batch of ub slices, the ub
    axis just before the angular axes (m1, m2), with the state-independent
    terms of the transport right-hand side; sf[k] is slice k, as views of the
    batch arrays."""

    gamma: np.ndarray
    ginv: np.ndarray
    kgauss: np.ndarray
    omega: np.ndarray
    om: np.ndarray       # outgoing expansion-rate potential: -(1/2) e4(log Omega)
    grad_log_omega: np.ndarray
    trchi: np.ndarray
    chihat: np.ndarray
    chi_mix: np.ndarray  # chi^b_a
    gam: np.ndarray      # Christoffel symbols [c, a, b] = Gamma^c_{ab}
    div_chihat: np.ndarray
    grad_trchi: np.ndarray

    def __getitem__(self, k) -> "SliceFields":
        return SliceFields(*(getattr(self, f.name)[..., k, :, :] for f in fields(self)))

    def __setitem__(self, k, batch: "SliceFields"):
        for f in fields(self):
            getattr(self, f.name)[..., k, :, :] = getattr(batch, f.name)

    def member(self, j) -> "SliceFields":
        """Member j (an index, or a slice of members) of a stacked batch, whose
        member axis sits just before the slice axis, as views."""
        return SliceFields(*(getattr(self, f.name)[..., j, :, :, :] for f in fields(self)))

    def stacked(self, m, n, shape) -> "SliceFields":
        """Uninitialised fields with this batch's slots, over m members, n
        slices and the angular shape."""
        arrays = (getattr(self, f.name) for f in fields(self))
        return SliceFields(*(np.empty(a.shape[:-3] + (m, n) + shape) for a in arrays))


@dataclass
class TransportResult:
    grid: Grid1D
    data: ReducedCharData
    eta: np.ndarray      # (2, N, m1, m2), (m1, m2) the march's angular shape
    b: np.ndarray        # (2, N, m1, m2)
    omb: np.ndarray      # (N, m1, m2)
    trchb: np.ndarray    # (N, m1, m2)
    chibhat: np.ndarray  # (2, 2, N, m1, m2)
    nodes: SliceFields   # slice geometry at the grid nodes, batched, (m1, m2) too
    etab: np.ndarray     # (2, N, m1, m2) = 2 grad log Omega - eta


def slice_fields(data: ReducedCharData, solution, ub):
    """SliceFields of the batch ub (K,), from one pass over the whole batch,
    each field (*slots, K, m1, m2) with (m1, m2) the broadcast of the angular
    shapes the maps return.  Raises PositivityError if gamma fails the sign
    test on any slice."""
    chart = data.chart
    gh, dgh = (sym2_pack(*x) for x in data.jet(ub))
    maps = [f(ub) for f in (data.omega, data.dlog_omega, solution, solution.deriv)]
    shape = (len(ub),) + np.broadcast_shapes(gh.shape[3:], dgh.shape[3:], *(np.shape(a)[1:] for a in maps))
    # Omega, Phi and their derivatives take that whole shape, so every field does
    om, dlo, phi, dphi = (np.ascontiguousarray(np.broadcast_to(a, shape)) for a in maps)
    gamma = phi**2 * gh
    ginv = sym2_inverse(gamma)
    chi = (phi * dphi / om) * gh + (phi**2 / (2.0 * om)) * dgh
    trchi = trace(ginv, chi)
    chihat = chi - 0.5 * trchi * gamma
    chi_mix = calc.move_index(ginv, chi)
    gam = christoffel(gamma, ginv, chart)
    kg = gauss_curvature(ginv, chart, gam)
    grad_lo = calc.partial(chart, np.log(om))
    om_scalar = -0.5 * dlo / om
    div_chihat = calc.div_sym2(chart, ginv, chihat, gam)
    grad_trchi = calc.partial(chart, trchi)
    return SliceFields(gamma, ginv, kg, om, om_scalar, grad_lo, trchi, chihat, chi_mix, gam, div_chihat, grad_trchi)


def corner_eta(sl: SliceFields, corner: CornerData) -> np.ndarray:
    """eta at the corner: (eta - etab)^sharp = -dub_b / (2 Omega^2), symmetrized
    against the lapse gradient.  sl is the slice at the corner, ub = grid.a."""
    diff_up = -corner.dub_b0 / (2.0 * sl.omega**2)
    diff = calc.move_index(sl.gamma, diff_up)
    return sl.grad_log_omega + 0.5 * diff


def _rhs(data: ReducedCharData, sl: SliceFields, eta, b, omb, trchb, chibhat, out=None):
    """Coordinate-time derivatives of the transport state on slice sl.  Only
    state-dependent terms are computed here: the contractions use the stored
    inverse metric, and the one angular derivative is nabla etab.  Returns the
    five derivatives, views of out, a packed state (10, ...), when it is given."""
    d_eta, d_b, d_omb, d_trchb, d_chibhat = (None,) * 5 if out is None else _unpack(out)
    gamma, ginv = sl.gamma, sl.ginv
    etab = 2.0 * sl.grad_log_omega - eta
    diff = eta - etab

    chihat_dot_diff = calc.dot21(ginv, sl.chihat, diff)
    d_eta = np.multiply(sl.omega, (
        -0.75 * sl.trchi * diff
        + sl.div_chihat
        - 0.5 * sl.grad_trchi
        - 0.5 * chihat_dot_diff
        + calc.chi_connection(sl.chi_mix, eta)
    ), out=d_eta)

    d_b = np.multiply(-2.0 * sl.omega**2, calc.move_index(ginv, diff), out=d_b)

    d_omb = np.multiply(sl.omega, (
        2.0 * sl.om * omb
        - calc.dot11(ginv, eta, etab)
        + 0.5 * calc.dot11(ginv, eta, eta)
        - 0.5 * (sl.kgauss - 0.5 * calc.dot22(ginv, sl.chihat, chibhat) + 0.25 * sl.trchi * trchb)
    ), out=d_omb)

    nab_etab = calc.covariant_deriv(data.chart, etab, sl.gam)  # [c, a] = nabla_c etab_a
    div_etab = trace(ginv, nab_etab)
    etab_sq = calc.dot11(ginv, etab, etab)
    d_trchb = np.multiply(sl.omega, (
        -sl.trchi * trchb + 2.0 * sl.om * trchb - 2.0 * sl.kgauss + 2.0 * div_etab + 2.0 * etab_sq
    ), out=d_trchb)

    d_chibhat = np.multiply(sl.omega, (
        calc.chi_connection(sl.chi_mix, chibhat)
        - 0.5 * sl.trchi * chibhat
        + calc.hat(gamma, nab_etab, div_etab)
        + 2.0 * sl.om * chibhat
        - 0.5 * trchb * sl.chihat
        + calc.hat(gamma, etab[:, None] * etab, etab_sq)
    ), out=d_chibhat)
    return d_eta, d_b, d_omb, d_trchb, d_chibhat


def solve_transport_system(members) -> list:
    """RK4 march of (eta, b, omb, trchb, chibhat) along the hypersurface, for
    each member (data, solution, corner) of a list on one chart; returns
    their TransportResults in list order.

    The slice geometry (gamma = Phi^2 gamma_hat, its connection and Gauss
    curvature, chi, div chihat, grad trchi) depends on Phi only.  The march
    goes _CHUNK steps at a time: before each chunk, member by member, one
    batched pass computes it on the chunk's node slices not yet computed,
    which fill the kept node batch, and one on the chunk's half-node slices,
    copied into the chunk buffer and dropped.  The batched passes equal one
    pass over every slice, field by field, and the RK4 stages only read
    them.  Each stage takes one spectral covariant derivative, of etab.  A
    slice that fails slice_fields' sign test raises when its chunk is built.

    The members march in lockstep, longest first, each with its own step h:
    every field carries a member axis between its slots and its slice axis,
    so a step's slice is (*slots, M, m1, m2) and one _rhs call per RK4 stage
    serves every member.  The state (eta, b, omb, trchb, chibhat) is packed
    (_unpack), (10, M, m1, m2), as are the trajectory and the stage buffers
    _rhs writes into, so each RK4 sum, bound check and row write is one array
    operation.  A member drops off the active prefix when its
    march ends; only then are the active members' views and their h, h / 2
    and h / 6 columns, (M, 1, 1), built anew (a scalar when they share h).  Each member's trajectory and node batch are, byte for
    byte, those of marching it alone, and its TransportResult holds views of
    its own length into the stacked arrays.  When members fail, the error
    raised is the one a loop over the members raises: the first failing
    member's in list order, at the location it reports marched alone, as
    odesolve.march raises.

    The march keeps the broadcast of every member's slice shape and corner
    fields' shapes, and so do the TransportResults.  Raises ValueError
    before any slice is built if the members' charts differ, or, naming the
    field, if a corner field is not its slots + s, each axis of s of size 1
    or the chart's size.
    """
    chart = members[0][0].chart
    if any(data.chart != chart for data, _, _ in members):
        raise ValueError(f"transport members on different charts: {[data.chart for data, _, _ in members]}")
    corners = [CornerData(*(angular_array(f.name, getattr(c, f.name), slots, chart.shape)
                            for f, slots in zip(fields(CornerData), _CORNER_SLOTS))) for _, _, c in members]
    order = sorted(range(len(members)), key=lambda j: -members[j][0].grid.n)  # longest first
    data = [members[j][0] for j in order]
    sols = [members[j][1] for j in order]
    grids = [d.grid for d in data]
    ends = [g.n - 1 for g in grids]  # each member's step count, descending
    nodes = [g.points() for g in grids]
    # slice i + 1 sits where the step reaches it, nodes[i] + h (nodes[i + 1] may differ by an ulp)
    reach = [np.concatenate([x[:1], x[:-1] + g.h]) for x, g in zip(nodes, grids)]

    def build(s, ub, active):
        try:
            return slice_fields(data[s], sols[s], ub)
        except Exception as exc:  # whatever a member's maps raise, in the order a loop over the members raises it
            _raise_first(members, order, {order[s]: exc}, active)

    m = len(members)
    firsts = [build(s, reach[s][:min(_CHUNK, ends[s]) + 1], m) for s in range(m)]
    etas = [corner_eta(first[0], corners[j]) for first, j in zip(firsts, order)]
    shape = np.broadcast_shapes(*(e.shape[1:] for e in etas),
                                *(a.shape[-2:] for c in corners for a in (c.omb0, c.trchb0, c.chibhat0)))
    node_shape = np.broadcast_shapes(*(first.gamma.shape[-2:] for first in firsts))
    at_node = firsts[0].stacked(m, grids[0].n, node_shape)
    at_half = firsts[0].stacked(m, min(_CHUNK, ends[0]), node_shape)
    traj = np.empty((10, m, grids[0].n) + shape)  # the packed state of every member and node
    ks = np.empty((4, 10, m) + shape)  # the four RK4 stage derivatives, packed
    for s, (first, eta, j) in enumerate(zip(firsts, etas, order)):
        at_node.member(s)[:len(first.omega)] = first
        for f, v in zip(_unpack(traj[:, s, 0]), (eta, 0.0, corners[j].omb0, corners[j].trchb0, corners[j].chibhat0)):
            f[...] = v
    del firsts, first
    y = traj[:, :, 0]  # (10, M, m1, m2)

    hs = np.array([g.h for g in grids])[:, None, None]
    active, live = 0, m
    for i in range(ends[0]):
        while ends[live - 1] <= i:  # the members whose march ends at step i drop off
            live -= 1
        if live != active:  # the active members' views and step columns
            active = live
            h = hs[:active]
            if (h == h[0]).all():  # one step for every member: a scalar, the cheaper broadcast
                h = h[0, 0, 0]
            half_h, sixth_h = 0.5 * h, h / 6.0
            node, half = at_node.member(slice(active)), at_half.member(slice(active))
            y, rows, (k1, k2, k3, k4) = y[:, :active], traj[:, :active], ks[:, :, :active]
            sl_full = None
        if i % _CHUNK == 0:  # a new chunk: its node slices not yet built, then its half-node slices
            for s in range(active):
                hi = min(i + _CHUNK, ends[s])
                if i:
                    at_node.member(s)[i + 1:hi + 1] = build(s, reach[s][i + 1:hi + 1], active)
                at_half.member(s)[:hi - i] = build(s, nodes[s][i:hi] + 0.5 * grids[s].h, active)
        sl = node[i] if sl_full is None else sl_full  # the last step's end slice, while the members stay
        sl_half, sl_full = half[i % _CHUNK], node[i + 1]
        _rhs(data[0], sl, *_unpack(y), k1)
        _rhs(data[0], sl_half, *_unpack(y + half_h * k1), k2)
        _rhs(data[0], sl_half, *_unpack(y + half_h * k2), k3)
        _rhs(data[0], sl_full, *_unpack(y + h * k3), k4)
        y = y + sixth_h * (k1 + 2 * k2 + 2 * k3 + k4)
        if not _within_bound(y):
            _raise_first(members, order, {
                order[s]: TransportBlowupError(
                    f"transport state exceeded bound {_FIELD_BOUND:g} at ub={nodes[s][i + 1]:.6g}",
                    location=nodes[s][i + 1])
                for s in range(active) if not _within_bound(y[:, s])}, active)
        rows[:, :, i + 1] = y

    results = [None] * m
    for s, j in enumerate(order):
        n = grids[s].n
        state, sf = _unpack(traj[:, s, :n]), at_node.member(s)[:n]
        results[j] = TransportResult(grids[s], data[s], *state, sf, 2.0 * sf.grad_log_omega - state[0])
    return results


def _within_bound(state) -> bool:
    """Every component of a packed state finite and at most _FIELD_BOUND in size."""
    return bool(np.abs(state).max() <= _FIELD_BOUND)  # a NaN or an inf compares False


def _raise_first(members, order, failures, active):
    """Raise the error a loop over the members, each marched alone, raises.
    failures maps the list index of each member that failed at this step to
    its error; the first of them in list order is raised, unless one of the
    first `active` members in march order, before it in list order, fails
    later: marched again on their own, they raise that failure."""
    first = min(failures)
    earlier = sorted(j for j in order[:active] if j < first)
    if earlier:
        solve_transport_system([members[j] for j in earlier])
    raise failures[first]


def constraint_reconstruction_gap(result: TransportResult) -> float:
    """max |(eta + etab)/2 - grad log Omega| over the march (exact by elimination)."""
    mid = 0.5 * (result.eta + result.etab)
    return float(np.abs(mid - result.nodes.grad_log_omega).max())


def structure_residuals(result: TransportResult) -> dict:
    """Max-norm residuals of the outgoing-direction structure equations,
    evaluated with independent 4th-order stencils on the stored march."""
    chart = result.data.chart
    h = result.grid.h
    sf = result.nodes
    omega, om, trchi, chihat, kg = sf.omega, sf.om, sf.trchi, sf.chihat, sf.kgauss
    gamma, ginv, chi_mix, gam = sf.gamma, sf.ginv, sf.chi_mix, sf.gam
    eta, etab = result.eta, result.etab
    diff = eta - etab

    d_ub = lambda arr: deriv1_fd4(arr, h, axis=-3)

    # scalar transport: nabla_4 f = Omega^-1 d_ub f
    nab4_trchi = d_ub(trchi) / omega
    res_expansion = nab4_trchi + 0.5 * trchi**2 + calc.dot22(ginv, chihat, chihat) + 2.0 * om * trchi

    # one-form: nabla_4 eta_a = Omega^-1 d_ub eta_a - chi^b_a eta_b
    nab4_eta = d_ub(eta) / omega - calc.chi_connection(chi_mix, eta)
    rhs_eta = (
        sf.div_chihat
        - 0.5 * sf.grad_trchi
        - 0.5 * calc.dot21(ginv, chihat, diff)
    )
    res_eta = nab4_eta + 0.75 * trchi * diff - rhs_eta

    # ingoing expansion
    nab4_trchb = d_ub(result.trchb) / omega
    nab_etab = calc.covariant_deriv(chart, etab, gam)
    div_etab = trace(ginv, nab_etab)
    etab_sq = calc.dot11(ginv, etab, etab)
    res_trchb = (
        nab4_trchb
        + trchi * result.trchb
        - 2.0 * om * result.trchb
        + 2.0 * kg
        - 2.0 * div_etab
        - 2.0 * etab_sq
    )

    # ingoing shear
    nab4_chibhat = d_ub(result.chibhat) / omega - calc.chi_connection(chi_mix, result.chibhat)
    res_chibhat = (
        nab4_chibhat
        + 0.5 * trchi * result.chibhat
        - calc.hat(gamma, nab_etab, div_etab)
        - 2.0 * om * result.chibhat
        + 0.5 * result.trchb * chihat
        - calc.hat(gamma, etab[:, None] * etab, etab_sq)
    )

    # ingoing expansion-rate potential
    nab4_omb = d_ub(result.omb) / omega
    res_omb = (
        nab4_omb
        - 2.0 * om * result.omb
        + calc.dot11(ginv, eta, etab)
        - 0.5 * calc.dot11(ginv, eta, eta)
        + 0.5 * (kg - 0.5 * calc.dot22(ginv, chihat, result.chibhat) + 0.25 * trchi * result.trchb)
    )

    return {
        "expansion_out": float(np.abs(res_expansion).max()),
        "torsion": float(np.abs(res_eta).max()),
        "expansion_in": float(np.abs(res_trchb).max()),
        "shear_in": float(np.abs(res_chibhat).max()),
        "expansion_rate_in": float(np.abs(res_omb).max()),
    }
