"""Batched slice geometry of the transport march against a per-slice oracle.

The oracle below is the per-slice evaluation the march used before the slice
geometry was batched: every slice on its own, and the connection, div chihat
and grad trchi recomputed inside every right-hand-side call.  The batched
path must agree with it bit for bit.  Its einsum strings are those it was
recorded with, on the slots-last layout; test_calculus.einsum_trailing moves
the slots there and back.
"""

import dataclasses
import sys

import numpy as np
import pytest

from nulldust import calculus as calc
from nulldust import charpipe as P
from nulldust import constraints as C
from nulldust import geometry
from nulldust.fields import PositivityError, sym2_inverse, sym2_pack
from nulldust.geometry import christoffel, gauss_curvature
from nulldust.grids import AngularGrid, Grid1D

from test_calculus import div_oneform, einsum_trailing, grad, hat_otimes, nabla_otimes


def oracle_slice(data, solution, ub):
    om = np.asarray(data.omega(np.array([ub])))[0]
    dlo = np.asarray(data.dlog_omega(np.array([ub])))[0]
    phi = np.asarray(solution(np.array([ub])))[0]
    dphi = np.asarray(solution.deriv(np.array([ub])))[0]
    gh = sym2_pack(*(x[0] for x in data.entries(np.array([ub]))))
    dgh = sym2_pack(*(x[0] for x in data.dentries(np.array([ub]))))
    gamma = phi**2 * gh
    ginv = sym2_inverse(gamma)
    chi = (phi * dphi / om) * gh + (phi**2 / (2.0 * om)) * dgh
    trchi = einsum_trailing("...ab,...ab->...", ginv, chi)
    chihat = chi - 0.5 * trchi * gamma
    chi_mix = einsum_trailing("...bc,...ca->...ba", ginv, chi)
    kg = gauss_curvature(ginv, data.chart, christoffel(gamma, ginv, data.chart))
    grad_lo = grad(data.chart, np.log(om))
    om_scalar = -0.5 * dlo / om
    gam = christoffel(gamma, ginv, data.chart)
    return P.SliceFields(gamma, ginv, kg, om, om_scalar, grad_lo, trchi, chihat, chi_mix, gam,
                         calc.div_sym2(data.chart, ginv, chihat, gam), grad(data.chart, trchi))


def oracle_rhs(data, sl, eta, b, omb, trchb, chibhat):
    chart = data.chart
    gamma, ginv = sl.gamma, sl.ginv
    gam = christoffel(gamma, ginv, chart)
    etab = 2.0 * sl.grad_log_omega - eta
    diff = eta - etab

    div_chihat = calc.div_sym2(chart, ginv, sl.chihat, gam)
    grad_trchi = grad(chart, sl.trchi)
    chihat_dot_diff = einsum_trailing("...bc,...ab,...c->...a", ginv, sl.chihat, diff)
    conn_eta = einsum_trailing("...ba,...b->...a", sl.chi_mix, eta)
    d_eta = sl.omega * (
        -0.75 * sl.trchi * diff
        + div_chihat
        - 0.5 * grad_trchi
        - 0.5 * chihat_dot_diff
        + conn_eta
    )

    d_b = -2.0 * sl.omega**2 * einsum_trailing("...ab,...b->...a", sym2_inverse(gamma), diff)

    eta_dot_etab = calc.dot11(ginv, eta, etab)
    eta_sq = calc.dot11(ginv, eta, eta)
    chihat_dot_chibhat = calc.dot22(ginv, sl.chihat, chibhat)
    d_omb = sl.omega * (
        2.0 * sl.om * omb
        - eta_dot_etab
        + 0.5 * eta_sq
        - 0.5 * (sl.kgauss - 0.5 * chihat_dot_chibhat + 0.25 * sl.trchi * trchb)
    )

    div_etab = div_oneform(chart, gamma, etab, gam)
    etab_sq = calc.dot11(ginv, etab, etab)
    d_trchb = sl.omega * (
        -sl.trchi * trchb + 2.0 * sl.om * trchb - 2.0 * sl.kgauss + 2.0 * div_etab + 2.0 * etab_sq
    )

    conn_chibhat = einsum_trailing("...ca,...cb->...ab", sl.chi_mix, chibhat) + einsum_trailing(
        "...cb,...ac->...ab", sl.chi_mix, chibhat
    )
    now = nabla_otimes(chart, gamma, etab, gam)
    d_chibhat = sl.omega * (
        conn_chibhat
        - 0.5 * sl.trchi * chibhat
        + now
        + 2.0 * sl.om * chibhat
        - 0.5 * trchb * sl.chihat
        + hat_otimes(gamma, etab, etab)
    )
    return d_eta, d_b, d_omb, d_trchb, d_chibhat


def shear_data(grid, chart=AngularGrid(16, 8)):
    """Unit-determinant gamma_hat with ub-dependent a, b != 0 and d, and a
    lapse that varies along the cone and around it."""
    t1, t2 = chart.mesh()
    ring = np.zeros((2, 2) + chart.shape)
    ring[0, 0] = ring[1, 1] = 1.0

    def entries(ub):
        u = np.asarray(ub, float)[:, None, None]
        a = np.exp(u) * (1.0 + 0.2 * np.cos(t1))
        b = 0.3 * np.sin(u + t2)
        return a, b, (1.0 + b * b) / a

    def dentries(ub):
        u = np.asarray(ub, float)[:, None, None]
        a, b, d = entries(ub)
        db = 0.3 * np.cos(u + t2)
        return a, db, (2.0 * b * db - d * a) / a

    def omega(ub):
        return np.exp(0.1 * np.sin(t1) * np.cos(t2) + 0.2 * np.asarray(ub, float)[:, None, None])

    def dlog_omega(ub):
        return np.full((len(np.atleast_1d(ub)),) + chart.shape, 0.2)

    return C.ReducedCharData(grid, chart, ring, omega, dlog_omega, entries, dentries)


def corner(chart):
    t1, t2 = chart.mesh()
    chibhat0 = np.zeros((2, 2) + chart.shape)
    chibhat0[0, 1] = chibhat0[1, 0] = 0.05 * np.sin(t2)
    return P.CornerData(
        np.stack([0.1 * np.cos(t1), 0.05 * np.sin(t2)]),
        0.1 * np.cos(t1 + t2),
        -2.0 + 0.1 * np.sin(t1),
        chibhat0,
    )


# SliceFields name -> slots of the field
FIELDS = {"gamma": (2, 2), "ginv": (2, 2), "kgauss": (), "omega": (), "om": (), "grad_log_omega": (2,),
          "trchi": (), "chihat": (2, 2), "chi_mix": (2, 2), "gam": (2, 2, 2), "div_chihat": (2,),
          "grad_trchi": (2,)}


@pytest.fixture(scope="module")
def problem():
    grid = Grid1D(0.0, 0.3, 17)
    data = shear_data(grid)
    return data, C.solve_constraint(data, 1.0, 0.5)


def test_batched_slices_equal_per_slice_oracle(problem):
    data, sol = problem
    nodes, h = data.grid.points(), data.grid.h
    # every slice the march reads: the first node, the nodes the steps reach, the half-nodes
    ubs = [nodes[0]] + [ub + h for ub in nodes[:-1]] + [ub + 0.5 * h for ub in nodes[:-1]]
    batched = P.slice_fields(data, sol, np.array(ubs))
    assert batched.gamma.shape[-3] == len(ubs)
    for k, ub in enumerate(ubs):
        sl = batched[k]
        ref = oracle_slice(data, sol, ub)
        for name in FIELDS:
            assert np.array_equal(getattr(sl, name), getattr(ref, name)), (ub, name)
    assert np.abs(batched[5].chihat).max() > 0.1  # the data carry shear


def test_batched_fields_are_slots_then_batch_then_grid(problem):
    data, sol = problem
    ubs = data.grid.points()
    batched = P.slice_fields(data, sol, ubs)
    assert list(FIELDS) == [f.name for f in dataclasses.fields(batched)]
    for name, slots in FIELDS.items():
        assert getattr(batched, name).shape == slots + (len(ubs),) + data.chart.shape, name
        assert getattr(batched[3], name).shape == slots + data.chart.shape, name


def test_rhs_equals_per_slice_oracle(problem):
    data, sol = problem
    chart = data.chart
    rng = np.random.default_rng(8)
    state = (
        0.1 * rng.standard_normal((2,) + chart.shape),
        0.1 * rng.standard_normal((2,) + chart.shape),
        0.1 * rng.standard_normal(chart.shape),
        -2.0 + 0.1 * rng.standard_normal(chart.shape),
        0.1 * rng.standard_normal((2, 2) + chart.shape),
    )
    sl = P.slice_fields(data, sol, np.array([0.1, 0.2]))[1]
    for got, want in zip(P._rhs(data, sl, *state), oracle_rhs(data, oracle_slice(data, sol, 0.2), *state)):
        assert np.array_equal(got, want)


def test_first_steps_equal_per_slice_march(problem):
    data, sol = problem
    grid, h = data.grid, data.grid.h
    nodes = grid.points()
    c0 = corner(data.chart)
    result = P.solve_transport_system(data, sol, c0)

    eta0 = P.corner_eta(oracle_slice(data, sol, nodes[0]), c0)
    y = [eta0, np.zeros((2,) + data.chart.shape), c0.omb0, c0.trchb0, c0.chibhat0]
    steps = 4
    march = [y]
    for i in range(steps):
        ub = nodes[i]
        sl = oracle_slice(data, sol, ub)
        sl_half = oracle_slice(data, sol, ub + 0.5 * h)
        sl_full = oracle_slice(data, sol, ub + h)
        k1 = oracle_rhs(data, sl, *y)
        k2 = oracle_rhs(data, sl_half, *[f + 0.5 * h * k for f, k in zip(y, k1)])
        k3 = oracle_rhs(data, sl_half, *[f + 0.5 * h * k for f, k in zip(y, k2)])
        k4 = oracle_rhs(data, sl_full, *[f + h * k for f, k in zip(y, k3)])
        y = [f + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4) for f, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)]
        march.append(y)
    for i, y in enumerate(march):
        for got, want in zip((result.eta, result.b, result.omb, result.trchb, result.chibhat), y):
            assert np.array_equal(got[..., i, :, :], want), i
    assert np.abs(result.chibhat[..., steps, :, :]).max() > 0.0


def count_calls(monkeypatch, fn, modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_christoffel_calls_do_not_grow_with_grid(monkeypatch):
    calls = count_calls(monkeypatch, christoffel, (geometry, P))
    counts = []
    for n in (9, 33):
        data = shear_data(Grid1D(0.0, 0.3, n))
        sol = C.solve_constraint(data, 1.0, 0.5)
        calls.clear()
        P.solve_transport_system(data, sol, corner(data.chart))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2  # the node batch and the half-node batch


def holders(fn):
    """Every nulldust module that binds fn."""
    return [m for name, m in sys.modules.items()
            if name.startswith("nulldust") and getattr(m, fn.__name__, None) is fn]


def test_slice_batch_inverts_gamma_once(monkeypatch, problem):
    data, sol = problem
    result = P.solve_transport_system(data, sol, corner(data.chart))
    inverses = count_calls(monkeypatch, sym2_inverse, holders(sym2_inverse))
    derivs = count_calls(monkeypatch, geometry.spectral_deriv, holders(geometry.spectral_deriv))
    P.slice_fields(data, sol, data.grid.points())
    assert len(inverses) == 1
    inverses.clear()
    derivs.clear()
    P.structure_residuals(result)
    # the stored ginv, div chihat and grad trchi serve; nabla etab is the one derivative
    assert (len(inverses), len(derivs)) == (0, 2)


def test_rhs_makes_at_most_two_spectral_calls(monkeypatch, problem):
    data, sol = problem
    sl = P.slice_fields(data, sol, np.array([0.1]))[0]
    c0 = corner(data.chart)
    eta0 = P.corner_eta(P.slice_fields(data, sol, np.array([data.grid.a]))[0], c0)
    state = (eta0, np.zeros((2,) + data.chart.shape), c0.omb0, c0.trchb0, c0.chibhat0)
    calls = count_calls(monkeypatch, geometry.spectral_deriv, (geometry,))
    P._rhs(data, sl, *state)
    assert 0 < len(calls) <= 2


def test_nonpositive_metric_at_one_half_node_raises():
    grid = Grid1D(0.0, 0.5, 17)
    bad_ub = grid.points()[5] + 0.5 * grid.h  # interior half-node, not a node
    data = shear_data(grid)
    good = data.entries

    def entries(ub):
        a, b, d = good(ub)
        bad = (np.abs(np.asarray(ub, float) - bad_ub) < 1e-12)[:, None, None]
        # negative definite with the same unit determinant
        return np.where(bad, -1.0, a), np.where(bad, 0.0, b), np.where(bad, -1.0, d)

    data = C.ReducedCharData(grid, data.chart, data.gamma_ring, data.omega, data.dlog_omega,
                             entries, data.dentries)
    sol = C.solve_constraint(data, 1.0, 0.5)
    P.slice_fields(data, sol, grid.points())  # every node is positive definite
    with pytest.raises(PositivityError):
        P.solve_transport_system(data, sol, corner(data.chart))
