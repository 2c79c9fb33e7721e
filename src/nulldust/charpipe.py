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
"""

from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .constraints import ReducedCharData
from .errors import NumericalFailure
from .fields import sym2_inverse
from .geometry import christoffel, gauss_curvature
from .grids import Grid1D
from .stencils import deriv1_fd4


class TransportBlowupError(NumericalFailure):
    """The transported state left its bound or became non-finite."""


@dataclass
class CornerData:
    """Values at the corner sphere: the transversal derivative of the shift
    fixes eta - etab; the ingoing coefficients seed their transport."""

    dub_b0: np.ndarray  # (n1, n2, 2), contravariant
    omb0: np.ndarray  # (n1, n2)
    trchb0: np.ndarray  # (n1, n2)
    chibhat0: np.ndarray  # (n1, n2, 2, 2)

    @classmethod
    def zeros(cls, chart, trchb0=None):
        z = np.zeros(chart.shape)
        tr = np.full(chart.shape, -2.0) if trchb0 is None else np.asarray(trchb0, float)
        return cls(np.zeros(chart.shape + (2,)), z.copy(), tr, np.zeros(chart.shape + (2, 2)))


@dataclass
class SliceFields:
    """Geometry and outgoing coefficients on one ub slice, with the
    state-independent terms of the transport right-hand side."""

    ub: float
    gamma: np.ndarray
    ginv: np.ndarray
    kgauss: np.ndarray
    omega: np.ndarray
    om: np.ndarray       # outgoing expansion-rate potential: -(1/2) e4(log Omega)
    grad_log_omega: np.ndarray
    trchi: np.ndarray
    chihat: np.ndarray
    chi: np.ndarray
    chi_mix: np.ndarray  # chi^b_a
    gam: np.ndarray      # Christoffel symbols [..., c, a, b] = Gamma^c_{ab}
    div_chihat: np.ndarray
    grad_trchi: np.ndarray


@dataclass
class TransportResult:
    grid: Grid1D
    data: ReducedCharData
    eta: np.ndarray      # (N, n1, n2, 2)
    b: np.ndarray        # (N, n1, n2, 2)
    omb: np.ndarray      # (N, n1, n2)
    trchb: np.ndarray    # (N, n1, n2)
    chibhat: np.ndarray  # (N, n1, n2, 2, 2)
    slices: list         # SliceFields at the grid nodes

    def etab(self, i: int) -> np.ndarray:
        sl = self.slices[i]
        return 2.0 * sl.grad_log_omega - self.eta[i]


def slice_fields(data: ReducedCharData, solution, ubs):
    """SliceFields at each ub of ubs, from one batched pass with ub as the
    leading axis; each returned SliceFields views the batch arrays.  A scalar
    ub gives one SliceFields.  Raises PositivityError if gamma fails the sign
    test on any slice."""
    ub = np.atleast_1d(np.asarray(ubs, float))
    chart = data.chart
    om = np.asarray(data.omega(ub))
    dlo = np.asarray(data.dlog_omega(ub))
    phi = np.asarray(solution(ub))
    dphi = np.asarray(solution.deriv(ub))
    gh, dgh = data.slice_metric(ub)
    gamma = phi[..., None, None] ** 2 * gh
    ginv = sym2_inverse(gamma)
    chi = (phi * dphi / om)[..., None, None] * gh + (phi**2 / (2.0 * om))[..., None, None] * dgh
    trchi = np.einsum("...ab,...ab->...", ginv, chi)
    chihat = chi - 0.5 * trchi[..., None, None] * gamma
    chi_mix = np.einsum("...bc,...ca->...ba", ginv, chi)
    gam = christoffel(gamma, chart)
    kg = gauss_curvature(gamma, chart, check=False, gam=gam)
    grad_lo = calc.partial(chart, np.log(om), 1)
    om_scalar = -0.5 * dlo / om
    div_chihat = calc.div_sym2(chart, gamma, chihat, gam)
    grad_trchi = calc.partial(chart, trchi, 1)
    batch = (gamma, ginv, kg, om, om_scalar, grad_lo, trchi, chihat, chi, chi_mix, gam, div_chihat, grad_trchi)
    out = [SliceFields(u, *(f[k] for f in batch)) for k, u in enumerate(ub)]
    return out if np.ndim(ubs) else out[0]


def corner_eta(sl: SliceFields, corner: CornerData) -> np.ndarray:
    """eta at the corner: (eta - etab)^sharp = -dub_b / (2 Omega^2), symmetrized
    against the lapse gradient.  sl is the slice at the corner, ub = grid.a."""
    diff_up = -corner.dub_b0 / (2.0 * sl.omega[..., None] ** 2)
    diff = calc.lower_index(sl.gamma, diff_up)
    return sl.grad_log_omega + 0.5 * diff


def _rhs(data: ReducedCharData, sl: SliceFields, eta, b, omb, trchb, chibhat):
    """Coordinate-time derivatives of the transport state on slice sl.  Only
    state-dependent terms are computed here: the contractions use the stored
    inverse metric, and the one angular derivative is nabla etab."""
    gamma, ginv = sl.gamma, sl.ginv
    dot11 = lambda phi, psi: np.einsum("...ab,...a,...b->...", ginv, phi, psi)  # calc.dot11 on ginv
    etab = 2.0 * sl.grad_log_omega - eta
    diff = eta - etab

    chihat_dot_diff = np.einsum("...bc,...ab,...c->...a", ginv, sl.chihat, diff)
    conn_eta = np.einsum("...ba,...b->...a", sl.chi_mix, eta)
    d_eta = sl.omega[..., None] * (
        -0.75 * sl.trchi[..., None] * diff
        + sl.div_chihat
        - 0.5 * sl.grad_trchi
        - 0.5 * chihat_dot_diff
        + conn_eta
    )

    d_b = -2.0 * sl.omega[..., None] ** 2 * np.einsum("...ab,...b->...a", ginv, diff)

    eta_dot_etab = dot11(eta, etab)
    eta_sq = dot11(eta, eta)
    chihat_dot_chibhat = np.einsum("...ac,...bd,...ab,...cd->...", ginv, ginv, sl.chihat, chibhat)
    d_omb = sl.omega * (
        2.0 * sl.om * omb
        - eta_dot_etab
        + 0.5 * eta_sq
        - 0.5 * (sl.kgauss - 0.5 * chihat_dot_chibhat + 0.25 * sl.trchi * trchb)
    )

    nab_etab = calc.covariant_deriv(data.chart, gamma, etab, sl.gam)  # [..., c, a] = nabla_c etab_a
    div_etab = np.einsum("...ab,...ab->...", ginv, nab_etab)
    etab_sq = dot11(etab, etab)
    d_trchb = sl.omega * (
        -sl.trchi * trchb + 2.0 * sl.om * trchb - 2.0 * sl.kgauss + 2.0 * div_etab + 2.0 * etab_sq
    )

    conn_chibhat = np.einsum("...ca,...cb->...ab", sl.chi_mix, chibhat) + np.einsum(
        "...cb,...ac->...ab", sl.chi_mix, chibhat
    )
    now = nab_etab + np.swapaxes(nab_etab, -1, -2) - gamma * div_etab[..., None, None]
    etab_etab = etab[..., :, None] * etab[..., None, :]
    d_chibhat = sl.omega[..., None, None] * (
        conn_chibhat
        - 0.5 * sl.trchi[..., None, None] * chibhat
        + now
        + 2.0 * sl.om[..., None, None] * chibhat
        - 0.5 * trchb[..., None, None] * sl.chihat
        + (etab_etab + np.swapaxes(etab_etab, -1, -2) - gamma * etab_sq[..., None, None])
    )
    return d_eta, d_b, d_omb, d_trchb, d_chibhat


def solve_transport_system(
    data: ReducedCharData,
    solution,
    corner: CornerData,
    field_bound: float = 1e6,
) -> TransportResult:
    """RK4 march of (eta, b, omb, trchb, chibhat) along the hypersurface.

    The slice geometry (gamma = Phi^2 gamma_hat, its connection and Gauss
    curvature, chi, div chihat, grad trchi) depends on Phi only.  Before the
    march one batched pass computes it on every node slice and one on every
    half-node slice (two batches, not one, so the half-node arrays are freed
    with the march and the peak memory stays lower); the RK4 stages only read
    it.  Each stage takes one spectral covariant derivative, of etab.
    """
    grid = data.grid
    h = grid.h
    nodes = grid.points()
    chart = data.chart
    # slice i + 1 sits where the step reaches it, nodes[i] + h (nodes[i + 1] may differ by an ulp)
    at_node = slice_fields(data, solution, np.concatenate([nodes[:1], nodes[:-1] + h]))
    at_half = slice_fields(data, solution, nodes[:-1] + 0.5 * h)

    eta = corner_eta(at_node[0], corner)
    b = np.zeros(chart.shape + (2,))
    omb = np.asarray(corner.omb0, float).copy()
    trchb = np.asarray(corner.trchb0, float).copy()
    chibhat = np.asarray(corner.chibhat0, float).copy()

    out = TransportResult(
        grid,
        data,
        np.empty((grid.n,) + chart.shape + (2,)),
        np.empty((grid.n,) + chart.shape + (2,)),
        np.empty((grid.n,) + chart.shape),
        np.empty((grid.n,) + chart.shape),
        np.empty((grid.n,) + chart.shape + (2, 2)),
        [],
    )

    def store(i, sl):
        out.eta[i], out.b[i] = eta, b
        out.omb[i], out.trchb[i], out.chibhat[i] = omb, trchb, chibhat
        out.slices.append(sl)

    store(0, at_node[0])
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
        worst = max(float(np.abs(x).max()) for x in (eta, b, omb, trchb, chibhat))
        if not np.isfinite(worst) or worst > field_bound:
            raise TransportBlowupError(
                f"transport state exceeded bound {field_bound:g} at ub={nodes[i + 1]:.6g}",
                location=nodes[i + 1],
            )
        store(i + 1, sl_full)
    return out


def constraint_reconstruction_gap(result: TransportResult) -> float:
    """max |(eta + etab)/2 - grad log Omega| over the march (exact by elimination)."""
    worst = 0.0
    for i, sl in enumerate(result.slices):
        mid = 0.5 * (result.eta[i] + result.etab(i))
        worst = max(worst, float(np.abs(mid - sl.grad_log_omega).max()))
    return worst


def structure_residuals(result: TransportResult) -> dict:
    """Max-norm residuals of the outgoing-direction structure equations,
    evaluated with independent 4th-order stencils on the stored march."""
    data = result.data
    chart = data.chart
    grid = result.grid
    h = grid.h
    n = grid.n

    omega = np.stack([sl.omega for sl in result.slices])
    om = np.stack([sl.om for sl in result.slices])
    trchi = np.stack([sl.trchi for sl in result.slices])
    chihat = np.stack([sl.chihat for sl in result.slices])
    kg = np.stack([sl.kgauss for sl in result.slices])
    gamma = np.stack([sl.gamma for sl in result.slices])
    chi_mix = np.stack([sl.chi_mix for sl in result.slices])
    eta = result.eta
    etab = np.stack([result.etab(i) for i in range(n)])
    diff = eta - etab

    d_ub = lambda arr: deriv1_fd4(arr, h, axis=0)

    # scalar transport: nabla_4 f = Omega^-1 d_ub f
    nab4_trchi = d_ub(trchi) / omega
    res_expansion = nab4_trchi + 0.5 * trchi**2 + calc.dot22(gamma, chihat, chihat) + 2.0 * om * trchi

    # one-form: nabla_4 eta_a = Omega^-1 d_ub eta_a - chi^b_a eta_b
    nab4_eta = d_ub(eta) / omega[..., None] - np.einsum("t...ba,t...b->t...a", chi_mix, eta)
    gam = np.stack([sl.gam for sl in result.slices])
    ginv = np.stack([sl.ginv for sl in result.slices])
    rhs_eta = (
        calc.div_sym2(chart, gamma, chihat, gam)
        - 0.5 * calc.partial(chart, trchi, 1)
        - 0.5 * np.einsum("...bc,...ab,...c->...a", ginv, chihat, diff)
    )
    res_eta = nab4_eta + 0.75 * trchi[..., None] * diff - rhs_eta

    # ingoing expansion
    nab4_trchb = d_ub(result.trchb) / omega
    div_etab = calc.div_oneform(chart, gamma, etab, gam)
    now_etab = calc.nabla_otimes(chart, gamma, etab, gam)
    res_trchb = (
        nab4_trchb
        + trchi * result.trchb
        - 2.0 * om * result.trchb
        + 2.0 * kg
        - 2.0 * div_etab
        - 2.0 * calc.dot11(gamma, etab, etab)
    )

    # ingoing shear
    conn = np.einsum("t...ca,t...cb->t...ab", chi_mix, result.chibhat) + np.einsum(
        "t...cb,t...ac->t...ab", chi_mix, result.chibhat
    )
    nab4_chibhat = d_ub(result.chibhat) / omega[..., None, None] - conn
    res_chibhat = (
        nab4_chibhat
        + 0.5 * trchi[..., None, None] * result.chibhat
        - now_etab
        - 2.0 * om[..., None, None] * result.chibhat
        + 0.5 * result.trchb[..., None, None] * chihat
        - calc.hat_otimes(gamma, etab, etab)
    )

    # ingoing expansion-rate potential
    nab4_omb = d_ub(result.omb) / omega
    res_omb = (
        nab4_omb
        - 2.0 * om * result.omb
        + calc.dot11(gamma, eta, etab)
        - 0.5 * calc.dot11(gamma, eta, eta)
        + 0.5 * (kg - 0.5 * calc.dot22(gamma, chihat, result.chibhat) + 0.25 * trchi * result.trchb)
    )

    return {
        "expansion_out": float(np.abs(res_expansion).max()),
        "torsion": float(np.abs(res_eta).max()),
        "expansion_in": float(np.abs(res_trchb).max()),
        "shear_in": float(np.abs(res_chibhat).max()),
        "expansion_rate_in": float(np.abs(res_omb).max()),
    }

