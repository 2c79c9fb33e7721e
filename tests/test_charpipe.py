"""Characteristic transport: cone reproduction, residuals, diagnostics."""

import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest

from nulldust import acceptance as A
from nulldust import calculus as calc
from nulldust import charpipe as P
from nulldust import constraints as C
from nulldust.grids import AngularGrid, Grid1D
from nulldust.odesolve import DenseSolution, march
from nulldust.rates import fit_rate

from test_calculus import curl_oneform, div_oneform, einsum_trailing, grad
from test_slice_batch import corner as shear_corner
from test_slice_batch import shear_data


@dataclass
class RenormalizedCurvature:
    """First-angular-derivative curvature diagnostics; only these tests use them."""

    beta: np.ndarray
    betab: np.ndarray
    sigma_check: np.ndarray
    mu: np.ndarray
    mub: np.ndarray


def renormalized_curvature(result: P.TransportResult, i: int) -> RenormalizedCurvature:
    """First-angular-derivative curvature diagnostics on slice i."""
    data = result.data
    chart = data.chart
    sl = result.nodes[i]
    gamma, gam = sl.gamma, sl.gam
    eta = result.eta[..., i, :, :]
    etab = result.etab[..., i, :, :]
    diff = eta - etab
    chibhat = result.chibhat[..., i, :, :]
    trchb = result.trchb[i]

    chi_minus = sl.chihat - 0.5 * sl.trchi * gamma  # chi - trchi gamma
    chib = chibhat + 0.5 * trchb * gamma
    chib_minus = chib - trchb * gamma

    beta = (
        -sl.div_chihat
        + 0.5 * sl.grad_trchi
        - 0.5 * einsum_trailing("...bc,...ab,...c->...a", sl.ginv, chi_minus, diff)
    )
    betab = (
        calc.div_sym2(chart, sl.ginv, chibhat, gam)
        - 0.5 * grad(chart, trchb)
        - 0.5 * einsum_trailing("...bc,...ab,...c->...a", sl.ginv, chib_minus, diff)
    )
    sigma_check = curl_oneform(chart, gamma, eta, gam)
    mu = -div_oneform(chart, gamma, eta, gam) + sl.kgauss
    mub = -div_oneform(chart, gamma, etab, gam) + sl.kgauss
    return RenormalizedCurvature(beta, betab, sigma_check, mu, mub)


def flat_data(chart, grid, omega=None, dlog=None):
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    return C.ReducedCharData(grid, chart, ring, omega or one, dlog or zero, C.ring_jet(ring))


def curved_cone_data(chart, grid):
    t1, _ = chart.mesh()
    om = 2.0 * np.pi / chart.L1
    gfun = 4.0 / om**2 + (2.0 / om**2) * np.cos(om * t1)
    ring = (1.0 / gfun, np.zeros(chart.shape), 1.0 / gfun)
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    return C.ReducedCharData(grid, chart, ring, one, zero, C.ring_jet(ring))


def chart_shaped(data):
    """data with the ring and every batch map broadcast to the whole chart."""
    shape = data.chart.shape
    wide = lambda a, lead: np.broadcast_to(a, lead + shape)
    one = lambda f: lambda ub: wide(f(ub), (len(ub),))
    jet = lambda ub: tuple(tuple(wide(x, (len(ub),)) for x in half) for half in data.jet(ub))
    return C.ReducedCharData(data.grid, data.chart, tuple(wide(x, ()) for x in data.gamma_ring), one(data.omega),
                             one(data.dlog_omega), jet)


def chart_corner(corner, chart):
    """corner with every field copied onto the whole chart."""
    return P.CornerData(*(np.broadcast_to(a, a.shape[:-2] + chart.shape).copy()
                          for a in (getattr(corner, f.name) for f in fields(corner))))


def test_slice_fields_of_a_compact_solution_are_those_of_its_chart_broadcast():
    # curved_cone_data's maps on size-1 axes: a ring that varies along theta1
    # alone and a unit lapse; its solve varies in no angle
    chart = AngularGrid(16, 4)
    grid = Grid1D(0.0, 0.5, 33)
    om = 2.0 * np.pi / chart.L1
    gfun = 4.0 / om**2 + (2.0 / om**2) * np.cos(om * chart.theta1()[:, None])
    ring = (1.0 / gfun, np.zeros_like(gfun), 1.0 / gfun)
    one = lambda ub: np.ones((len(ub), 1, 1))
    zero = lambda ub: np.zeros((len(ub), 1, 1))
    data = C.ReducedCharData(grid, chart, ring, one, zero, C.ring_jet(ring))
    sol = C.solve_constraint(data, 1.0, 1.0)
    assert sol.phi.shape == (grid.n, 1, 1)
    padded = DenseSolution(sol.grids, *(np.broadcast_to(a, (grid.n,) + chart.shape).copy()
                                        for a in (sol.phi, sol.dphi, sol.ddphi)))
    ub = np.concatenate([grid.points(), grid.points()[:-1] + 0.5 * grid.h])
    want = P.slice_fields(curved_cone_data(chart, grid), padded, ub)
    compact, wide = P.slice_fields(data, sol, ub), P.slice_fields(data, padded, ub)
    for f in fields(want):
        a, b, c = (getattr(x, f.name) for x in (compact, wide, want))
        # the compact data keep theta1 alone; the padded solution widens every field to the chart
        assert a.shape[-3:] == (len(ub), 16, 1) and b.shape == c.shape and c.shape[-3:] == (len(ub),) + chart.shape
        assert np.broadcast_to(a, c.shape).tobytes() == c.tobytes() == b.tobytes(), f.name


def test_derive_outgoing_flat_cone():
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.5, 65)
    data = flat_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    sl = P.slice_fields(data, sol, np.array([0.25]))[0]
    assert np.abs(sl.trchi - 2.0 / 1.25).max() < 1e-12
    assert np.abs(sl.chihat).max() < 1e-13
    assert np.abs(sl.om).max() == 0.0


def test_derive_outgoing_exponential_lapse():
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.5, 65)
    omega = lambda ub: np.exp(np.asarray(ub, float))[:, None, None] * np.ones(chart.shape)
    dlog = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    data = flat_data(chart, grid, omega, dlog)
    sol = C.solve_constraint(data, 1.0, 0.0)
    sl = P.slice_fields(data, sol, np.array([0.3]))[0]
    assert np.abs(sl.om + 0.5 * np.exp(-0.3)).max() < 1e-12


def test_transport_curved_cone_fiber():
    chart = AngularGrid(64, 4)
    grid = Grid1D(0.0, 0.5, 257)
    data = curved_cone_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
    i = chart.n1 // 2
    ub = grid.points()
    assert np.abs(result.trchb[:, i, :] + 2.0 / (1.0 + ub)[:, None]).max() < 1e-8
    assert np.abs(result.omb[:, i, :]).max() < 1e-8
    assert np.abs(result.chibhat).max() < 1e-12
    assert np.abs(result.eta).max() < 1e-13
    assert np.abs(result.b).max() < 1e-13
    assert P.constraint_reconstruction_gap(result) < 1e-12


def test_transport_flat_chart_closed_form():
    # flat reference: zero curvature turns the ingoing expansion law into
    # trchb' = -trchi trchb, solved by -2/(1+ub)^2
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.5, 257)
    data = flat_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
    ub = grid.points()
    assert np.abs(result.trchb + (2.0 / (1.0 + ub) ** 2)[:, None, None]).max() < 1e-10


def test_angularly_constant_reduction_matches_scalar_integrator():
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.4, 129)
    data = flat_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])

    # dedicated scalar march of the reduced (trchb, omb) system
    h = grid.h
    trchb, omb = -2.0, 0.0
    scalar_trchb = [trchb]
    for i in range(grid.n - 1):
        ubi = grid.points()[i]

        def rhs(ub, y):
            trchi = 2.0 / (1.0 + ub)
            return np.array([
                -trchi * y[0],                      # flat chart: K = 0
                -0.5 * (0.0 + 0.25 * trchi * y[0]),
            ])

        y = np.array([trchb, omb])
        k1 = rhs(ubi, y)
        k2 = rhs(ubi + h / 2, y + h / 2 * k1)
        k3 = rhs(ubi + h / 2, y + h / 2 * k2)
        k4 = rhs(ubi + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        trchb, omb = y
        scalar_trchb.append(trchb)
    assert np.abs(result.trchb[:, 0, 0] - np.array(scalar_trchb)).max() < 1e-13


def test_structure_residual_orders():
    tables = {}
    sizes = [49, 65, 97, 129]
    for n in sizes:
        chart = AngularGrid(32, 4)
        grid = Grid1D(0.0, 0.5, n)
        data = curved_cone_data(chart, grid)
        sol = C.solve_constraint(data, 1.0, 1.0)
        (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
        for key, val in P.structure_residuals(result).items():
            tables.setdefault(key, []).append(val)
    hs = [0.5 / (n - 1) for n in sizes]
    for key, vals in tables.items():
        if max(vals) <= 1e-12:
            continue  # identically satisfied
        assert fit_rate(hs, vals) >= 3.0, (key, vals)


def test_residual_sensitivity_to_shear_perturbation():
    # shear-carrying data: a relative shear perturbation inflates the
    # outgoing expansion residual linearly
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.5, 129)
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)

    def jet(ub):
        u = np.asarray(ub, float)[:, None, None] * np.ones(chart.shape)
        a, b, d = np.exp(u), np.zeros_like(u), np.exp(-u)
        return (a, b, d), (a, b, -d)

    data = C.ReducedCharData(grid, chart, ring, one, zero, jet)
    sol = C.solve_constraint(data, 1.0, 0.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
    base = P.structure_residuals(result)["expansion_out"]
    outs = []
    for delta in (1e-4, 2e-4):
        result.nodes.chihat = (1.0 + delta) * result.nodes.chihat
        outs.append(P.structure_residuals(result)["expansion_out"] - base)
        result.nodes.chihat = result.nodes.chihat / (1.0 + delta)
    assert outs[0] > 10 * base
    assert 1.5 < outs[1] / outs[0] < 3.0


def test_gauge_identity_oscillator_data():
    # data built from the absorbing family: trace identity to 1e-10
    from nulldust import hfapprox as H
    from test_constraints import chi_from_data
    from test_hfapprox import make_background

    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 129)
    bg = make_background(chart, grid, f_level=1.0)
    k = H.select_k(bg)
    fam = H.OscillatoryFamily(bg, k, 8)
    sol, = march([fam.vacuum_problem()])
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    data = C.ReducedCharData(grid, chart, ring, bg.data.omega, bg.data.dlog_omega, fam.jet)
    trchi, chihat, chi = chi_from_data(data, sol, 0.33, identity_tol=1e-10)
    phi = sol(np.array([0.33]))[0]
    dphi = sol.deriv(np.array([0.33]))[0]
    assert np.abs(trchi - 2.0 * dphi / phi).max() < 1e-10


def test_renormalized_curvature_flat_cone():
    chart = AngularGrid(16, 4)
    grid = Grid1D(0.0, 0.5, 65)
    data = flat_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
    rc = renormalized_curvature(result, 32)
    for fldname in ("beta", "betab", "sigma_check", "mu", "mub"):
        assert np.abs(getattr(rc, fldname)).max() < 1e-10, fldname


def test_mass_aspect_definitional_identity():
    chart = AngularGrid(32, 4)
    grid = Grid1D(0.0, 0.5, 65)
    data = curved_cone_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(chart))])
    i = 32
    rc = renormalized_curvature(result, i)
    sl = result.nodes[i]
    div_eta = div_oneform(data.chart, sl.gamma, result.eta[..., i, :, :], sl.gam)
    assert np.abs(rc.mu + div_eta - sl.kgauss).max() < 1e-13


def test_curl_of_gradient_torsion():
    # eta from a lapse gradient: its curl vanishes to spectral accuracy
    chart = AngularGrid(32, 32)
    grid = Grid1D(0.0, 0.3, 33)
    t1, t2 = chart.mesh()
    omega = lambda ub: np.exp(0.2 * np.sin(t1) * np.cos(t2))[None] * np.ones((len(np.atleast_1d(ub)), 1, 1))
    dlog = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    data = flat_data(chart, grid, omega, dlog)
    sol = C.solve_constraint(data, 1.0, 0.0)
    corner = P.CornerData.zeros(chart)
    sl = P.slice_fields(data, sol, np.array([0.0]))[0]
    eta0 = P.corner_eta(sl, corner)  # equals grad log Omega
    assert np.abs(curl_oneform(chart, sl.gamma, eta0, sl.gam)).max() < 1e-10


def test_blowup_guard(monkeypatch):
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 0.5, 65)
    data = flat_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    corner = P.CornerData.zeros(chart)
    monkeypatch.setattr(P, "_FIELD_BOUND", 1.0)
    with pytest.raises(P.TransportBlowupError):
        P.solve_transport_system([(data, sol, corner)])


@pytest.mark.parametrize("field", ["dub_b0", "omb0", "trchb0", "chibhat0"])
def test_nan_in_any_seeded_field_stops_the_march_at_the_first_step(field):
    chart = AngularGrid(16, 4)
    grid = Grid1D(0.0, 0.5, 33)
    data = curved_cone_data(chart, grid)
    sol = C.solve_constraint(data, 1.0, 1.0)
    corner = chart_corner(P.CornerData.zeros(chart), chart)
    getattr(corner, field)[..., 3, 1] = np.nan  # one grid point
    with pytest.raises(P.TransportBlowupError) as err:
        P.solve_transport_system([(data, sol, corner)])
    assert err.value.location == grid.points()[1]


def test_compact_march_is_the_chart_march_broadcast():
    # the cone data vary along theta1 alone: the march keeps (n1, 1), and each
    # field is, byte for byte, that of the march of the same data on the chart
    (compact,) = P.solve_transport_system([A._cone_member(32, 65)])
    chart = compact.data.chart
    data = chart_shaped(compact.data)
    (wide,) = P.solve_transport_system([(data, C.solve_constraint(data, 1.0, 1.0),
                                         chart_corner(P.CornerData.zeros(chart), chart))])
    assert compact.eta.shape == (2, 65, 32, 1) and wide.eta.shape == (2, 65, 32, 4)
    pairs = [(getattr(compact, n), getattr(wide, n)) for n in ("eta", "b", "omb", "trchb", "chibhat", "etab")]
    pairs += [(getattr(compact.nodes, f.name), getattr(wide.nodes, f.name)) for f in fields(compact.nodes)]
    for a, b in pairs:
        assert a.shape[-2:] == (32, 1) and b.shape[-2:] == chart.shape
        assert np.broadcast_to(a, b.shape).tobytes() == b.tobytes()
    res_compact, res_wide = P.structure_residuals(compact), P.structure_residuals(wide)
    assert np.array(list(res_compact.values())).tobytes() == np.array(list(res_wide.values())).tobytes()
    assert list(res_compact) == list(res_wide)


def test_data_varying_in_both_angles_march_the_chart():
    grid = Grid1D(0.0, 0.3, 17)
    data = shear_data(grid)
    (result,) = P.solve_transport_system([(data, C.solve_constraint(data, 1.0, 0.5), P.CornerData.zeros(data.chart))])
    for name, slots in (("eta", (2,)), ("b", (2,)), ("omb", ()), ("trchb", ()), ("chibhat", (2, 2)), ("etab", (2,))):
        assert getattr(result, name).shape == slots + (grid.n, 16, 8), name
    assert result.nodes.gam.shape == (2, 2, 2, grid.n, 16, 8)


@pytest.mark.parametrize("field, shape", [("dub_b0", (2, 4)), ("omb0", (4,)), ("trchb0", (16, 2)),
                                          ("chibhat0", (2, 16, 4))])
def test_corner_fields_keep_the_angular_shape_contract(field, shape):
    chart = AngularGrid(16, 4)
    data = curved_cone_data(chart, Grid1D(0.0, 0.5, 33))
    sol = C.solve_constraint(data, 1.0, 1.0)
    corner = chart_corner(P.CornerData.zeros(chart), chart)
    setattr(corner, field, np.zeros(shape))  # (4,) would otherwise broadcast as a theta2 profile
    with pytest.raises(ValueError, match=field):
        P.solve_transport_system([(data, sol, corner)])
    one = getattr(P.CornerData.zeros(chart), field)
    assert one.shape[-2:] == (1, 1)
    setattr(corner, field, one)  # constant on the chart: marches
    assert P.solve_transport_system([(data, sol, corner)])[0].omb.shape == (33,) + chart.shape


TRAJECTORY = ("eta", "b", "omb", "trchb", "chibhat", "etab")


def march_problem(kind, n):
    """(data, Phi) of the cone data on a 32 x 4 chart, or of data varying in
    both angles on a 16 x 8 chart, with n nodes."""
    if kind == "cone":
        data = A._cone_data(AngularGrid(32, 4), Grid1D(0.0, 0.5, n))
        return data, C.solve_constraint(data, 1.0, 1.0)
    data = shear_data(Grid1D(0.0, 0.3, n))
    return data, C.solve_constraint(data, 1.0, 0.5)


@pytest.mark.parametrize("kind, n", [
    ("cone", 33),    # 32 steps, one chunk shorter than _CHUNK
    ("cone", 100),   # 99 steps: one whole chunk, then one of 35
    ("cone", 193),   # three whole chunks; the first holds 65 node slices, the others 64
    ("cone", 513),   # criterion 10's node count: eight whole chunks
    ("shear", 100),
])
def test_march_nodes_equal_one_whole_batch(kind, n):
    data, sol = march_problem(kind, n)
    assert P._CHUNK == 64
    (result,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(data.chart))])
    nodes, h = data.grid.points(), data.grid.h
    whole = P.slice_fields(data, sol, np.concatenate([nodes[:1], nodes[:-1] + h]))
    for f in fields(whole):
        got, want = getattr(result.nodes, f.name), getattr(whole, f.name)
        assert got.shape == want.shape and np.array_equal(got, want), f.name


@pytest.mark.parametrize("kind, n", [("cone", 513), ("shear", 100)])
def test_chunked_march_equals_the_one_batch_march(monkeypatch, kind, n):
    # with one chunk the march builds every node slice in one batch and every
    # half-node slice in another, before its first step, as it did before it
    # was chunked; the chunked march's trajectory is the same, byte for byte
    data, sol = march_problem(kind, n)
    (chunked,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(data.chart))])
    monkeypatch.setattr(P, "_CHUNK", n - 1)
    (one,) = P.solve_transport_system([(data, sol, P.CornerData.zeros(data.chart))])
    for name in TRAJECTORY:
        assert getattr(chunked, name).tobytes() == getattr(one, name).tobytes(), name
    assert P.structure_residuals(chunked) == P.structure_residuals(one)


def assert_marched_as_alone(members):
    """Each member of the lockstep march of members equals, byte for byte,
    the member marched alone: trajectory, node batch and residuals."""
    batched = P.solve_transport_system(members)
    assert len(batched) == len(members)
    for got, member in zip(batched, members):
        (want,) = P.solve_transport_system([member])
        assert got.grid == want.grid and got.data is member[0]
        pairs = [(getattr(got, n), getattr(want, n)) for n in TRAJECTORY]
        pairs += [(getattr(got.nodes, f.name), getattr(want.nodes, f.name)) for f in fields(want.nodes)]
        for a, b in pairs:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert P.structure_residuals(got) == P.structure_residuals(want)


def test_ladder_members_march_together_as_alone():
    # criterion 10's ladder, listed out of march order (longest first): each
    # member drops off when its march ends, the 65-node one inside the first chunk
    assert_marched_as_alone([A._cone_member(32, n) for n in (129, 65, 193, 97)])


def test_members_varying_in_both_angles_march_together_as_alone():
    # the whole 16 x 8 chart and corner fields that vary along both angles;
    # the 150-node member is longer than two chunks, the 40-node one ends in the first
    assert P._CHUNK == 64
    members = []
    for n in (40, 150):
        data = shear_data(Grid1D(0.0, 0.3, n))
        members.append((data, C.solve_constraint(data, 1.0, 0.5), shear_corner(data.chart)))
    assert_marched_as_alone(members)


def test_the_first_failing_member_in_list_order_raises(monkeypatch):
    # Phi = 1 - ub on the flat chart: trchb = -2 / (1 - ub)^2 leaves the bound
    # of 3 mid-march; the other member, longer and so marched first, holds a
    # NaN and fails at its first step.  Either way round, the error raised is
    # the first member's in the list, where it fails alone
    monkeypatch.setattr(P, "_FIELD_BOUND", 3.0)
    chart = AngularGrid(8, 4)
    data = flat_data(chart, Grid1D(0.0, 0.5, 65))
    growing = (data, C.solve_constraint(data, 1.0, -1.0), P.CornerData.zeros(chart))
    data = flat_data(chart, Grid1D(0.0, 0.5, 129))
    nan_corner = chart_corner(P.CornerData.zeros(chart), chart)
    nan_corner.omb0[3, 1] = np.nan
    nan = (data, C.solve_constraint(data, 1.0, 1.0), nan_corner)
    alone = {}
    for member in (growing, nan):
        with pytest.raises(P.TransportBlowupError) as err:
            P.solve_transport_system([member])
        alone[id(member)] = err.value
    assert alone[id(nan)].location == nan[0].grid.points()[1]
    assert alone[id(growing)].location > 0.1
    for members in ([growing, nan], [nan, growing]):
        with pytest.raises(P.TransportBlowupError) as err:
            P.solve_transport_system(members)
        want = alone[id(members[0])]
        assert (err.value.location, str(err.value)) == (want.location, str(want))


def test_members_on_different_charts_are_refused():
    with pytest.raises(ValueError, match="different charts"):
        P.solve_transport_system([A._cone_member(32, 65), A._cone_member(64, 65)])


def test_main_march_and_its_checks_stay_small():
    # criterion 10's 513-node march of the cone data on a 64 x 4 chart with its
    # three checks: the peak of the memory numpy and Python allocate during the call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        A._main_march_checks()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # about 14.8 MiB: the kept node batch (8.5 MiB), the trajectory and one
    # chunk's slices; 26.1 MiB with every node and half-node slice built before the march
    assert peak / 2**20 <= 17.0
