"""Mollified dust: positivity, mass, quantitative rates, non-uniform derivative."""

import dataclasses

import numpy as np
import pytest

from nulldust import constraints as C
from nulldust import mollify as M
from nulldust.grids import AngularGrid, Grid1D
from nulldust.quadrature import gauss_legendre_integrate
from nulldust.rates import fit_rate
from nulldust.testfunctions import bump_dictionary


@pytest.fixture
def setting():
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 257)
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    t1, _ = chart.mesh()
    m_theta = 1.0 + 0.5 * np.cos(2.0 * np.pi * t1 / chart.L1)
    dust = C.NullDustMeasure(atoms=[(0.45, m_theta)])
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                             dust=dust)
    return chart, grid, data, dust, one, m_theta


def test_mollifier_bump_normalized():
    assert abs(gauss_legendre_integrate(lambda s: M.rho(s), -1.0, 1.0, 128) - 1.0) < 1e-12


def test_partition_sums_to_one():
    grid = Grid1D(0.0, 1.0, 65)
    (z1, z2, z3), (dz1, dz2, dz3) = M.partition(grid)
    ub = np.linspace(0, 1, 501)
    assert np.abs(z1(ub) + z2(ub) + z3(ub) - 1.0).max() < 1e-14
    assert np.abs(dz1(ub) + dz2(ub) + dz3(ub)).max() < 1e-12


def test_density_nonnegative_and_mass(setting):
    chart, grid, data, dust, one, m_theta = setting
    fm = M.MollifiedDensity(data, 3)
    ub = np.linspace(0, 1, 2048)
    assert fm(ub).min() >= 0.0
    total = M.density_pairing(fm, lambda ub: np.ones((len(ub), 1, 1)))
    mass = float(np.sum(m_theta * data.area_weights()))
    assert abs(total - mass) < 1e-9 * mass


def test_analytic_derivative_matches_stencil(setting):
    chart, grid, data, dust, one, _ = setting
    fm = M.MollifiedDensity(data, 3)
    eps = fm.eps
    ub = np.linspace(0.45 - 1.5 * eps, 0.45 + 1.5 * eps, 257)
    h = eps / 200.0
    stencil = (fm(ub - 2 * h) - 8 * fm(ub - h) + 8 * fm(ub + h) - fm(ub + 2 * h)) / (12 * h)
    exact = fm.deriv(ub)
    scale = np.abs(exact).max()
    # the stencil itself degrades near the bump tails (exploding higher
    # derivatives of the cutoff), so the comparison is only moderately tight
    assert np.abs(exact - stencil).max() < 5e-5 * scale


def with_density_line(data):
    """data with the density line 0.8 (1 + 0.3 sin 2 pi ub) beside its atoms."""
    density = lambda ub: 0.8 * (1.0 + 0.3 * np.sin(2.0 * np.pi * np.asarray(ub, float)))[:, None, None]
    return dataclasses.replace(data, dust=C.NullDustMeasure(atoms=data.dust.atoms, density=density))


def test_density_line_pairing_and_derivative(setting):
    # the atom of setting plus a smooth density line: density_part and its
    # stencil derivative
    chart, grid, data, *_ = setting
    data = with_density_line(data)
    tf = bump_dictionary(grid, chart)[1]
    ub = np.linspace(0.3, 0.7, 513)
    for m in range(1, 7):
        fm = M.MollifiedDensity(data, m)
        assert M.pairing_gap(fm, tf, tf.deriv)["ratio"] <= 1.0
        h = fm.eps / 200.0
        stencil = (fm(ub - 2 * h) - 8 * fm(ub - h) + 8 * fm(ub + h) - fm(ub + 2 * h)) / (12 * h)
        exact = fm.deriv(ub)
        assert np.abs(exact - stencil).max() < (2e-3 if m == 1 else 5e-5) * np.abs(exact).max()


def test_pairing_rate_bound(setting):
    chart, grid, data, dust, one, _ = setting
    tf = bump_dictionary(grid, chart)[1]
    gaps, bounds = [], []
    for m in range(1, 9):
        fm = M.MollifiedDensity(data, m)
        r = M.pairing_gap(fm, tf, tf.deriv)
        gaps.append(r["gap"])
        bounds.append(r["rate_bound"])
    assert all(g <= b for g, b in zip(gaps, bounds))
    assert fit_rate([2.0**-m for m in range(1, 9)], gaps) >= 0.9


def test_uniform_l1_norm(setting):
    chart, grid, data, dust, one, _ = setting
    norms = [M.l1_w_uniform_norm(M.MollifiedDensity(data, m)) for m in (1, 4, 7)]
    assert max(norms) <= 2.0 * min(norms)


def test_support_respects_strip(setting):
    chart, grid, data, _, one, _ = setting
    t1, _ = chart.mesh()
    masked = np.where((t1 > 3.0) & (t1 < 5.0), 0.0, 1.0)
    dust = C.NullDustMeasure(atoms=[(0.45, masked)])
    fm = M.MollifiedDensity(dataclasses.replace(data, dust=dust), 4)
    vals = fm(np.linspace(0.3, 0.6, 512))
    assert np.abs(vals[:, (t1[:, 0] > 3.0) & (t1[:, 0] < 5.0), :]).max() == 0.0


def test_phi_convergence_and_derivative_floor(setting):
    chart, grid, data, dust, one, _ = setting
    glued = C.solve_constraint(data, 1.0, 0.1)
    jump = float(np.abs(glued.deriv_jumps()[0][1]).max())
    sups, dsups = [], []
    fms = [M.MollifiedDensity(data, m) for m in (2, 4, 6)]
    for fm, sol in zip(fms, M.solve_phi_m_dust(fms, 1.0, 0.1)):
        xs = np.linspace(0, 1, 2001)
        sups.append(float(np.abs(sol(xs) - glued(xs)).max()))
        eps = fm.eps
        fine = np.linspace(0.45 - 3 * eps, 0.45 + 3 * eps, 2001)
        dsups.append(float(np.abs(sol.deriv(fine) - glued.deriv(fine)).max()))
    assert sups[0] > sups[1] > sups[2]
    assert min(dsups) >= 0.49 * jump  # no uniform convergence of the derivative


def test_invalid_dyadic_index(setting):
    chart, grid, data, dust, one, _ = setting
    with pytest.raises(ValueError):
        M.MollifiedDensity(data, 0)


def test_atom_crowded_by_both_boundaries():
    chart = AngularGrid(4, 4)
    grid = Grid1D(0.0, 0.2, 65)
    ring = (np.ones(chart.shape), np.zeros(chart.shape), np.ones(chart.shape))
    one = lambda ub: np.ones((len(ub),) + chart.shape)
    zero = lambda ub: np.zeros((len(ub),) + chart.shape)
    dust = C.NullDustMeasure(atoms=[(0.1, np.ones(chart.shape))])
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring), dust=dust)
    with pytest.raises(ValueError, match="boundar"):
        M.MollifiedDensity(data, 1)


def test_segments_tile_the_interval(setting):
    chart, grid, data, _, one, m_theta = setting
    # windows of half-width 2.5 eps = 0.15625: the first clipped at ub = 0,
    # the other two overlapping
    dust = C.NullDustMeasure(atoms=[(0.05, m_theta), (0.6, m_theta), (0.7, m_theta)])
    segments = M.MollifiedDensity(dataclasses.replace(data, dust=dust), 2).segments()
    los, his, inside = zip(*segments)
    assert los[0] == grid.a and his[-1] == grid.b
    assert los[1:] == his[:-1] and all(lo < hi for lo, hi in zip(los, his))
    assert np.allclose(los + his[-1:], [0.0, 0.20625, 0.44375, 0.54375, 0.75625, 0.85625, 1.0])
    assert inside == (True, False, True, True, True, False)


def atom_sum_oracle(fm, ub, deriv):
    """MollifiedDensity._atom_sum with every atom's kernel evaluated on the whole batch."""
    eps, acc = fm.eps, None
    for loc, mass in fm.data.dust.atoms:
        kern = np.zeros_like(ub)
        for zeta, dzeta, alpha in zip(*M.partition(fm.data.grid), M._ALPHAS):
            arg = (ub - loc - alpha * eps) / eps
            if deriv:
                kern += dzeta(ub) * M.rho(arg) / eps + zeta(ub) * M.rho_d(arg) / eps**2
            else:
                kern += zeta(ub) * M.rho(arg) / eps
        v = kern[:, None, None] * np.asarray(mass)[None, :, :]
        acc = v if acc is None else acc + v
    return acc


def test_atoms_outside_a_batch_add_what_their_kernels_would(setting, monkeypatch):
    chart, grid, data, _, one, m_theta = setting
    # masses of three shapes, one with zero and signed-zero entries, so the
    # sum of the kernels' +0.0 times the masses has both signs of zero
    line = np.where(np.arange(8) % 2 == 0, 0.0, 1.0)[:, None]
    line[3] = -0.0
    dust = C.NullDustMeasure(atoms=[(0.3, line), (0.45, m_theta), (0.6, np.full((1, 1), 2.0))])
    fm = M.MollifiedDensity(dataclasses.replace(data, dust=dust), 3)
    eps = fm.eps
    batches = {
        "inside": np.linspace(0.45 - eps, 0.45 + eps, 33),
        "straddling": np.linspace(0.45 + eps, 0.45 + 4.0 * eps, 33),
        "from_an_edge": np.linspace(0.45 + 2.0 * eps, 0.6 - 2.0 * eps, 33),  # between two supports, edge to edge
        "to_an_edge": np.linspace(0.1, 0.3 - 2.0 * eps, 33),
        "outside": np.linspace(0.7, 0.9, 33),
        "one_point_outside": np.array([0.05]),
        "around_an_atom": np.array([0.3 - 3.0 * eps, 0.3 + 3.0 * eps]),  # no point inside, the range is
        "with_a_nan": np.array([0.05, np.nan]),
        "empty": np.zeros(0),
    }
    rho_calls = []
    rho = M.rho
    monkeypatch.setattr(M, "rho", lambda s: rho_calls.append(1) or rho(s))
    for name, ub in batches.items():
        with np.errstate(invalid="ignore"):  # the partition pieces at a NaN ub
            for deriv in (False, True):
                rho_calls.clear()
                got = fm._atom_sum(ub, deriv)
                evaluated = len(rho_calls)
                want = atom_sum_oracle(fm, ub, deriv)
                assert got.shape == want.shape == (len(ub), 8, 4) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (name, deriv)
                # three partition pieces per evaluated atom; deriv calls rho_d too
                if name in ("outside", "one_point_outside", "to_an_edge", "from_an_edge"):
                    assert evaluated == 0
                if name == "inside":
                    assert evaluated == 3
            for method in (fm, fm.deriv):
                got = method(ub)
                with monkeypatch.context() as patch:
                    patch.setattr(fm, "_atom_sum", lambda u, d: atom_sum_oracle(fm, u, d))
                    assert got.tobytes() == method(ub).tobytes()
    zero = fm._atom_sum(batches["outside"], False)
    assert not np.signbit(zero).any()  # +0.0 where no atom reaches, on the signed-zero mass line too
    assert not zero.any()
    no_atoms = M.MollifiedDensity(dataclasses.replace(data, dust=C.NullDustMeasure(atoms=[])), 3)
    assert no_atoms._atom_sum(batches["inside"], False) is None
