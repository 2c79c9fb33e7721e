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
    gh, dgh = sym2_pack(*data.entries(ub)), sym2_pack(*data.dentries(ub))
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


def _rhs(data: ReducedCharData, sl: SliceFields, eta, b, omb, trchb, chibhat):
    """Coordinate-time derivatives of the transport state on slice sl.  Only
    state-dependent terms are computed here: the contractions use the stored
    inverse metric, and the one angular derivative is nabla etab."""
    gamma, ginv = sl.gamma, sl.ginv
    etab = 2.0 * sl.grad_log_omega - eta
    diff = eta - etab

    chihat_dot_diff = calc.dot21(ginv, sl.chihat, diff)
    d_eta = sl.omega * (
        -0.75 * sl.trchi * diff
        + sl.div_chihat
        - 0.5 * sl.grad_trchi
        - 0.5 * chihat_dot_diff
        + calc.chi_connection(sl.chi_mix, eta)
    )

    d_b = -2.0 * sl.omega**2 * calc.move_index(ginv, diff)

    d_omb = sl.omega * (
        2.0 * sl.om * omb
        - calc.dot11(ginv, eta, etab)
        + 0.5 * calc.dot11(ginv, eta, eta)
        - 0.5 * (sl.kgauss - 0.5 * calc.dot22(ginv, sl.chihat, chibhat) + 0.25 * sl.trchi * trchb)
    )

    nab_etab = calc.covariant_deriv(data.chart, etab, sl.gam)  # [c, a] = nabla_c etab_a
    div_etab = trace(ginv, nab_etab)
    etab_sq = calc.dot11(ginv, etab, etab)
    d_trchb = sl.omega * (
        -sl.trchi * trchb + 2.0 * sl.om * trchb - 2.0 * sl.kgauss + 2.0 * div_etab + 2.0 * etab_sq
    )

    d_chibhat = sl.omega * (
        calc.chi_connection(sl.chi_mix, chibhat)
        - 0.5 * sl.trchi * chibhat
        + calc.hat(gamma, nab_etab, div_etab)
        + 2.0 * sl.om * chibhat
        - 0.5 * trchb * sl.chihat
        + calc.hat(gamma, etab[:, None] * etab, etab_sq)
    )
    return d_eta, d_b, d_omb, d_trchb, d_chibhat


def solve_transport_system(data: ReducedCharData, solution, corner: CornerData) -> TransportResult:
    """RK4 march of (eta, b, omb, trchb, chibhat) along the hypersurface.

    The slice geometry (gamma = Phi^2 gamma_hat, its connection and Gauss
    curvature, chi, div chihat, grad trchi) depends on Phi only.  Before the
    march one batched pass computes it on every node slice and one on every
    half-node slice (two batches, not one, so the half-node arrays are freed
    with the march and the peak memory stays lower); the RK4 stages only read
    it.  Each stage takes one spectral covariant derivative, of etab.

    The march keeps the broadcast of the slices' angular shape and the
    corner fields' shapes, and so does the TransportResult.  Raises
    ValueError, naming the field, if a corner field is not its slots + s,
    each axis of s of size 1 or the chart's size.
    """
    grid = data.grid
    h = grid.h
    nodes = grid.points()
    corner = CornerData(*(angular_array(f.name, getattr(corner, f.name), slots, data.chart.shape)
                          for f, slots in zip(fields(CornerData), _CORNER_SLOTS)))
    # slice i + 1 sits where the step reaches it, nodes[i] + h (nodes[i + 1] may differ by an ulp)
    at_node = slice_fields(data, solution, np.concatenate([nodes[:1], nodes[:-1] + h]))
    at_half = slice_fields(data, solution, nodes[:-1] + 0.5 * h)

    eta = corner_eta(at_node[0], corner)  # dub_b0 broadcast against the slices' shape
    omb, trchb, chibhat = corner.omb0, corner.trchb0, corner.chibhat0
    shape = np.broadcast_shapes(eta.shape[1:], omb.shape, trchb.shape, chibhat.shape[2:])
    b = np.zeros((2,) + shape)

    traj = [np.empty(slots + (grid.n,) + shape) for slots in ((2,), (2,), (), (), (2, 2))]

    def store(i):
        for arr, f in zip(traj, (eta, b, omb, trchb, chibhat)):
            arr[..., i, :, :] = f

    store(0)
    for i in range(grid.n - 1):
        sl, sl_half, sl_full = at_node[i], at_half[i], at_node[i + 1]
        k1 = _rhs(data, sl, eta, b, omb, trchb, chibhat)
        y1 = [f + 0.5 * h * k for f, k in zip((eta, b, omb, trchb, chibhat), k1)]
        k2 = _rhs(data, sl_half, *y1)
        y2 = [f + 0.5 * h * k for f, k in zip((eta, b, omb, trchb, chibhat), k2)]
        k3 = _rhs(data, sl_half, *y2)
        y3 = [f + h * k for f, k in zip((eta, b, omb, trchb, chibhat), k3)]
        k4 = _rhs(data, sl_full, *y3)
        eta, b, omb, trchb, chibhat = (
            f + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
            for f, a1, a2, a3, a4 in zip((eta, b, omb, trchb, chibhat), k1, k2, k3, k4)
        )
        worst = np.max([np.abs(x).max() for x in (eta, b, omb, trchb, chibhat)])  # NaN if any is NaN
        if not np.isfinite(worst) or worst > _FIELD_BOUND:
            raise TransportBlowupError(
                f"transport state exceeded bound {_FIELD_BOUND:g} at ub={nodes[i + 1]:.6g}",
                location=nodes[i + 1],
            )
        store(i + 1)
    return TransportResult(grid, data, *traj, at_node, 2.0 * at_node.grad_log_omega - traj[0])


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
