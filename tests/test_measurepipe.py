"""Composed measure -> vacuum approximation pipeline."""

import numpy as np
import pytest

from nulldust import constraints as C
from nulldust import measurepipe as MP
from nulldust.acceptance import _phi_gap_stats, criterion_pipeline
from nulldust.errors import NonFiniteError
from nulldust.grids import AngularGrid, Grid1D
from nulldust.mollify import density_pairing
from nulldust.quadrature import gauss_legendre_nodes
from nulldust.rates import fit_rate
from nulldust.testfunctions import bump_dictionary, plateau


@pytest.fixture(scope="module")
def setting():
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 257)
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    t1, _ = chart.mesh()
    strip = plateau((t1 - 3.6) / 0.5) * plateau((5.9 - t1) / 0.5)
    m_theta = (1.0 + 0.5 * np.cos(2.0 * np.pi * t1 / chart.L1)) * (1.0 - strip)
    dust = C.NullDustMeasure(atoms=[(0.45, m_theta)])
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                             dust=dust)
    bv = C.solve_constraint(data, 1.0, 0.15)
    pipe = MP.MeasurePipeline(data, bv)
    pipe.freeze_k([1, 5])
    members = dict(zip(range(1, 6), pipe.members(range(1, 6))))
    return chart, grid, data, bv, pipe, members


def test_index_coupling_outruns_envelope():
    pipe = MP.MeasurePipeline.__new__(MP.MeasurePipeline)
    assert pipe.n_of(2) >= 4 * 2**5
    assert pipe.n_of(4) / pipe.n_of(2) >= 2**5


def test_uniform_estimates(setting):
    chart, grid, data, bv, pipe, members = setting
    ub = np.linspace(0, 1, 1001)
    for mem in members.values():
        assert mem.phi_vac(ub).min() > 0.5
        assert np.abs(mem.family.det_defect(ub)).max() < 1e-12
        assert np.abs(mem.phi_vac.deriv(ub)).max() < 2.0


def test_uniform_convergence_of_members(setting):
    chart, grid, data, bv, pipe, members = setting
    ub = np.linspace(0, 1, 2001)
    gaps = [float(np.abs(members[m].phi_vac(ub) - bv(ub)).max()) for m in sorted(members)]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 5e-3


def test_weak_identity_convergence(setting):
    chart, grid, data, bv, pipe, members = setting
    tf = bump_dictionary(grid, chart)[1]
    rows = MP.pipeline_weak_check(pipe, list(members.values()), [tf])
    gaps = [r["gap"] for r in rows]
    slope = fit_rate([2.0 ** -r["m"] for r in rows], gaps)
    assert slope >= 0.9
    assert gaps[-1] < 0.1 * abs(C.measure_pairing(pipe.data, tf))


def test_mass_functional_matches_pairing_limit(setting):
    # concentration functional with the shear-energy identity equals the
    # windowed pairing: cross-module consistency of the two dust readings
    chart, grid, data, bv, pipe, members = setting
    mem = members[max(members)]
    t1, _ = chart.mesh()
    m_theta = data.dust.atoms[0][1]
    eps = mem.fm.eps
    window = (0.45 - 4 * eps, 0.45 + 4 * eps)
    xs, ws = gauss_legendre_nodes(*window, 64)
    # refine: sum over wavelength panels inside the window
    total = np.zeros(chart.shape)
    edges = np.linspace(*window, max(64, mem.family.n // 1024) + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs, ws = gauss_legendre_nodes(lo, hi, 16)
        normsq = mem.family.dgamma_normsq(xs)
        phiv = mem.phi_vac(xs) ** 2
        total += 0.25 * np.einsum("k,kij->ij", ws, normsq * phiv)
    mask = m_theta > 0.1
    rel = np.abs(total - m_theta)[mask] / m_theta[mask]
    assert rel.max() < 0.05


def test_empty_measure_gives_constant_family():
    chart = AngularGrid(4, 4)
    grid = Grid1D(0.0, 1.0, 129)
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    dust = C.NullDustMeasure(atoms=[], density=zero)
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                             dust=dust)
    bv = C.solve_constraint(data, 1.0, 0.2)
    pipe = MP.MeasurePipeline(data, bv, k=8.0)
    ub = np.linspace(0, 1, 501)
    vals = []
    for m in (1, 3):
        mem, = pipe.members([m])
        ea, eb, ed = mem.family.entries(ub)
        vals.append((ea.copy(), mem.phi_vac(ub)))
    assert np.array_equal(vals[0][0], vals[1][0])
    assert np.abs(vals[0][1] - vals[1][1]).max() < 1e-12


def test_linearity_in_atom_mass(setting):
    chart, grid, data, bv, pipe, members = setting
    t1, _ = chart.mesh()
    mass2 = 2.0 * data.dust.atoms[0][1]
    dust2 = C.NullDustMeasure(atoms=[(0.45, mass2)])
    data2 = C.ReducedCharData(grid, chart, data.gamma_ring, data.omega, data.dlog_omega,
                              data.entries, data.dentries, dust=dust2)
    bv2 = C.solve_constraint(data2, 1.0, 0.15)
    pipe2 = MP.MeasurePipeline(data2, bv2)
    pipe2.freeze_k([1, 4])
    mem2, = pipe2.members([4])
    tf = bump_dictionary(grid, chart)[1]
    row1 = MP.pipeline_weak_check(pipe, [members[4]], [tf])[0]
    row2 = MP.pipeline_weak_check(pipe2, [mem2], [tf])[0]
    assert abs(row2["difference"] / row1["difference"] - 2.0) < 0.05


def test_freeze_k_keeps_a_nan_eigenvalue_margin(setting, monkeypatch):
    # a NaN eigenvalue margin at level 2, not level 1: min(margin, nan) would
    # keep the level-1 margin and freeze a finite k
    chart, grid, data, bv, pipe, members = setting
    eigenvalues, calls = MP.sym2_min_eigenvalue, []

    def nan_at_level_2(a, b, d):
        calls.append(None)
        out = eigenvalues(a, b, d)
        if len(calls) == 2:
            out[1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(MP, "sym2_min_eigenvalue", nan_at_level_2)
    with pytest.raises(NonFiniteError, match="wavenumber seed is nan"):
        MP.MeasurePipeline(data, bv).freeze_k([1, 2])
    assert len(calls) == 2


def test_member_does_not_depend_on_members_built_before(setting):
    # level 3 alone, after levels 1 and 2, and in one batch with them
    chart, grid, data, bv, pipe, members = setting
    alone, after, batch = (MP.MeasurePipeline(data, bv) for _ in range(3))
    for fresh in (alone, after, batch):
        fresh.freeze_k([1, 3])
    after.members([1, 2])
    (one,), (other,) = alone.members([3]), after.members([3])
    for twin in (other, batch.members([1, 2, 3])[2]):
        assert one.family.n == twin.family.n and one.family.k == twin.family.k
        assert one.phi_vac.grids == twin.phi_vac.grids
        assert np.array_equal(one.phi_vac.breakpoints, twin.phi_vac.breakpoints)
        p, q = one.phi_vac, twin.phi_vac
        assert p.phi.tobytes() == q.phi.tobytes() and p.dphi.tobytes() == q.dphi.tobytes()


def test_pipeline_linearity_equals_doubled_run_with_every_member(monkeypatch):
    # the oracle builds every level of the doubled measure, and reads its last
    m_seq = (1, 2, 3, 4)
    got = criterion_pipeline(m_seq=m_seq).details["linearity_deviation"]
    check = MP.pipeline_weak_check

    def every_member(pipe, members, tests):
        if len(members) < len(m_seq):
            members = pipe.members(m_seq)
        return check(pipe, members, tests)

    monkeypatch.setattr(MP, "pipeline_weak_check", every_member)
    assert got == criterion_pipeline(m_seq=m_seq).details["linearity_deviation"]


# Per-panel loops as the pairings were first written: one integrand evaluation
# per panel.  The composite rule evaluates per chunk of panels and must give
# the same floating-point sums, so any reordering of a sum fails these oracles.

def loop_shear_energy_pairing(member, data, phi_test):
    fam, sol = member.family, member.phi_vac
    w = data.area_weights()
    wavelength = 2.0 * np.pi / (fam.k * fam.n)
    total = 0.0
    for lo, hi, inside in member.fm.segments():
        panels = max(48, int(np.ceil((hi - lo) / wavelength)) * 2) if inside else 48
        sub = np.linspace(lo, hi, panels + 1)
        for p_lo, p_hi in zip(sub[:-1], sub[1:]):
            xs, ws = gauss_legendre_nodes(p_lo, p_hi, 12)
            om2 = np.asarray(data.omega(xs)) ** 2
            normsq = fam.dgamma_normsq(xs)
            phiv = sol(xs) ** 2
            tv = np.broadcast_to(np.asarray(phi_test(xs)), normsq.shape)
            total += float(np.einsum("k,kij,ij->", ws, tv * normsq * phiv / om2, w))
    return 0.25 * total


def loop_background_shear_pairing(data, phi_bv, phi_test):
    w = data.area_weights()
    breaks = list(phi_bv.breakpoints)
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        sub = np.linspace(lo, hi, 96 + 1)
        for p_lo, p_hi in zip(sub[:-1], sub[1:]):
            xs, ws = gauss_legendre_nodes(p_lo, p_hi, 12)
            om2 = np.asarray(data.omega(xs)) ** 2
            normsq = np.asarray(data.dgamma_normsq(xs))
            phiv = phi_bv(xs) ** 2
            tv = np.broadcast_to(np.asarray(phi_test(xs)), normsq.shape)
            total += float(np.einsum("k,kij,ij->", ws, tv * normsq * phiv / om2, w))
    return 0.25 * total


def loop_density_pairing(fm, data, phi_test):
    w = data.area_weights()
    total = 0.0
    for lo, hi, inside in fm.segments():
        sub = np.linspace(lo, hi, (48 if inside else 64) + 1)
        for p_lo, p_hi in zip(sub[:-1], sub[1:]):
            xs, ws = gauss_legendre_nodes(p_lo, p_hi, 16)
            f = fm(xs)
            om2 = np.asarray(data.omega(xs)) ** 2
            vals = np.broadcast_to(np.asarray(phi_test(xs)), f.shape).copy()
            total += float(np.einsum("k,kij,ij->", ws, vals * f / om2, w))
    return total


def loop_phi_gap_stats(sol, glued, fm, grid, atom=0.45):
    xs_out = np.linspace(grid.a, grid.b, 2001)
    sup = float(np.abs(sol(xs_out) - glued(xs_out)).max())
    eps = fm.eps
    cuts = [grid.a, max(grid.a, atom - 3 * eps), min(grid.b, atom + 3 * eps), grid.b]
    acc = 0.0
    dsup = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        inside = lo >= atom - 3.5 * eps and hi <= atom + 3.5 * eps
        edges = np.linspace(lo, hi, (200 if inside else 40) + 1)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            xs, ws = gauss_legendre_nodes(p_lo, p_hi, 8)
            dgap = sol.deriv(xs) - glued.deriv(xs)
            acc = acc + np.einsum("k,kij->ij", ws, dgap**2)
            dsup = max(dsup, float(np.abs(dgap).max()))
    return {"sup": sup, "dl2": float(np.sqrt(acc).max()), "dsup": dsup}


def test_pairings_equal_per_panel_loops(setting):
    chart, grid, data, bv, pipe, members = setting
    mem = members[2]
    tf = bump_dictionary(grid, chart)[1]
    assert MP.shear_energy_pairing(mem, data, tf) == loop_shear_energy_pairing(mem, data, tf)
    assert MP.background_shear_pairing(data, bv, tf) == loop_background_shear_pairing(data, bv, tf)
    assert density_pairing(mem.fm, tf) == loop_density_pairing(mem.fm, data, tf)
    phi_dust = mem.family.background.phi
    stats = _phi_gap_stats(phi_dust, bv, mem.fm, grid)
    assert stats == loop_phi_gap_stats(phi_dust, bv, mem.fm, grid)
