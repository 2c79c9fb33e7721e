"""Plane-wave families: profiles, the wave-factor ODE, weak limits, jumps."""

import numpy as np
import pytest

from nulldust import planewave as pw
from nulldust.errors import NonFiniteError
from nulldust.grids import Grid1D
from nulldust.odesolve import DenseSolution, FocusingError
from nulldust.quadrature import gauss_legendre_integrate
from nulldust.rates import fit_rate


def ricci_uu(profile, factor):
    """Oracle: Ric_ubub = -(1/2)(G')^2 - 2 H''/H on the grid (H'' from the ODE)."""
    if np.any(factor.phi <= 0.0):
        raise ValueError("wave factor must be positive")
    return -0.5 * profile.dg(profile.grid.points()) ** 2 - 2.0 * factor.ddphi / factor.phi


def test_oscillation_profile_values():
    grid = Grid1D(0.0, 2.0, 257)
    prof = pw.make_burnett_G(1.0, pw.SEEDS["const"], grid)
    assert abs(prof.dg(np.array([np.pi]))[0] + 1.0) < 1e-15
    half = pw.make_burnett_G(0.5, pw.SEEDS["const"], grid)
    assert np.abs(half.dg(grid.points()) - np.cos(grid.points() / 0.5)).max() < 1e-15


def test_oscillation_sup_bound():
    grid = Grid1D(0.0, 0.5, 1025)
    seed = pw.SEEDS["cosine"]
    for lam in (0.5, 0.1, 0.02):
        prof = pw.make_burnett_G(lam, seed, grid)
        # G' = lam k' sin + k cos stays bounded by lam sup|k'| + sup|k| as lam -> 0
        assert np.abs(prof.dg(grid.points())).max() <= lam * np.pi + 1.5 + 1e-14


def test_shell_profile_support_and_normalization():
    grid = Grid1D(-0.5, 0.5, 2**13 + 1)
    lam = 2.0**-4
    prof = pw.make_shell_G(lam, pw.SEEDS["bump"], grid)
    ub = grid.points()
    dg = prof.dg(ub)
    assert np.all(dg[np.abs(ub) > lam / 2 + 1e-12] == 0.0)
    energy = np.trapezoid(dg**2, ub)
    assert abs(energy - 1.0) < 1e-6


def test_shell_grid_too_coarse_raises():
    with pytest.raises(ValueError, match="too coarse"):
        pw.make_shell_G(2.0**-10, pw.SEEDS["bump"], Grid1D(-0.5, 0.5, 257))


def test_shell_needs_compact_seed():
    with pytest.raises(ValueError, match="compactly supported"):
        pw.make_shell_G(0.1, pw.SEEDS["cosine"], Grid1D(-0.5, 0.5, 4097))


def test_wave_factor_flat():
    grid = Grid1D(0.0, 1.0, 257)
    prof = pw.WaveProfile(grid, lambda u: np.zeros_like(u))
    fac = pw.solve_H(prof)
    assert np.abs(fac.phi - 1.0).max() == 0.0
    assert np.abs(fac.dphi).max() == 0.0


def test_wave_factor_cosine_oracle_and_order():
    eps = 2.2
    errs, hs = [], []
    for n in (9, 17, 33, 65):
        grid = Grid1D(0.0, 1.0, n)
        prof = pw.WaveProfile(grid, lambda u: eps * np.ones_like(u))
        fac = pw.solve_H(prof)
        errs.append(np.abs(fac.phi - np.cos(0.5 * eps * grid.points())).max())
        hs.append(grid.h)
    assert fit_rate(hs, errs) >= 3.9


def test_wave_factor_focusing_error():
    grid = Grid1D(0.0, 2.0, 1025)
    prof = pw.WaveProfile(grid, lambda u: 4.0 * np.ones_like(u))
    with pytest.raises(FocusingError) as err:
        pw.solve_H(prof)  # H = cos(2 ub) crosses zero at pi/4
    assert abs(err.value.location[0] - np.pi / 4) < 0.01


def test_wave_factor_nan_is_focusing_error():
    grid = Grid1D(0.0, 1.0, 193)
    dg = lambda u: np.where(u > 0.5, np.nan, 1.0)
    prof = pw.WaveProfile(grid, dg)
    with pytest.raises(FocusingError) as err:
        pw.solve_H(prof)
    assert abs(err.value.location[0] - 0.5) < 0.01


def test_vacuum_residual_small():
    grid = Grid1D(0.0, 0.5, 2**13 + 1)
    prof = pw.make_burnett_G(2.0**-5, pw.SEEDS["cosine"], grid)
    fac = pw.solve_H(prof)
    assert np.abs(ricci_uu(prof, fac)).max() < 1e-12


def test_ricci_formula_hand_value():
    # G = ub^2 with H = 1: the only curvature component is -2 ub^2
    grid = Grid1D(0.0, 1.0, 257)
    prof = pw.WaveProfile(grid, lambda u: 2.0 * u)
    fac = DenseSolution([grid], np.ones(grid.n), np.zeros(grid.n), np.zeros(grid.n))
    ub = grid.points()
    assert np.abs(ricci_uu(prof, fac) + 2.0 * ub**2).max() < 1e-14


def test_burnett_pairings_converge_to_half_ksq():
    seed = pw.SEEDS["cosine"]
    lam_seq = [2.0**-j for j in range(2, 9)]

    def family(lam):
        n = max(2049, int(np.ceil(64 * 0.5 / lam)) + 1)
        return pw.make_burnett_G(lam, seed, Grid1D(0.0, 0.5, n))

    phi = lambda u: np.exp(-8.0 * (u - 0.25) ** 2)
    pairings = pw.weak_limit_pairings(family, [phi], lam_seq)[0]
    target = gauss_legendre_integrate(lambda u: 0.5 * seed.k(u) ** 2 * phi(u), 0.0, 0.5, 128)
    gaps = np.abs(pairings - target)
    assert gaps[-1] < 2e-4
    assert fit_rate(lam_seq, gaps) >= 0.9


def test_zero_test_function_pairs_to_zero():
    grid = Grid1D(0.0, 0.5, 2049)
    fam = lambda lam: pw.make_burnett_G(lam, pw.SEEDS["cosine"], grid)
    out = pw.weak_limit_pairings(fam, [lambda u: np.zeros_like(u)], [0.1, 0.05])
    assert np.all(out == 0.0)


def test_shell_pairing_concentrates():
    lam = 2.0**-8
    grid = Grid1D(-0.5, 0.5, 2**15 + 1)
    prof = pw.make_shell_G(lam, pw.SEEDS["bump"], grid)
    phi = lambda u: np.cos(u) + 0.5
    ub = grid.points()
    pairing = np.trapezoid(prof.dg(ub) ** 2 * phi(ub), ub)
    assert abs(pairing - 1.5) < 5e-3  # phi(0) * unit derivative energy


def test_jump_detect_flat_returns_none():
    grid = Grid1D(-0.5, 0.5, 257)
    prof = pw.WaveProfile(grid, lambda u: np.zeros_like(u))
    fac = pw.solve_H(prof)
    assert pw.jump_detect(fac, window=0.1) is None


@pytest.mark.parametrize("field", ["dphi", "ddphi"])
def test_jump_detect_refuses_a_non_finite_wave_factor(field):
    # the NaN sits far from the window jump_detect reads
    lam = 2.0**-8
    grid = Grid1D(-0.5, 0.5, 2**15 + 1)
    fac = pw.solve_H(pw.make_shell_G(lam, pw.SEEDS["bump"], grid))
    getattr(fac, field)[100] = np.nan
    with pytest.raises(NonFiniteError):
        pw.jump_detect(fac, window=4 * lam)


def test_jump_scales_with_derivative_energy():
    # seed scaled so the derivative energy is 4: the jump becomes -1
    lam = 2.0**-8
    grid = Grid1D(-0.5, 0.5, 2**15 + 1)
    base = pw.SEEDS["bump"].normalized()
    prof = pw.WaveProfile(grid, lambda u, l=lam: 2.0 * base.dk(np.asarray(u) / l) / np.sqrt(l))
    fac = pw.solve_H(prof)
    _, jump = pw.jump_detect(fac, window=4 * lam)
    assert abs(jump + 1.0) < 2e-2


def test_shell_derivative_does_not_converge_uniformly():
    # sup|H_lam - H_0| -> 0 while sup|H_lam' - H_0'| stays at half the jump.
    # The solver starts the integration at the left interval end, so the
    # limiting factor is flat below the shell and has slope -1/4 above it.
    sups, dsups = [], []
    for lam in (2.0**-6, 2.0**-8, 2.0**-10):
        grid = Grid1D(-0.5, 0.5, 2**17 + 1)
        prof = pw.make_shell_G(lam, pw.SEEDS["bump"], grid)
        fac = pw.solve_H(prof)
        ub = grid.points()
        h0 = np.where(ub < 0, 1.0, 1.0 - 0.25 * ub)
        dh0 = np.where(ub < 0, 0.0, -0.25)
        sups.append(np.abs(fac.phi - h0).max())
        dsups.append(np.abs(fac.dphi - dh0).max())
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 5e-4
    assert min(dsups) >= 0.5 * 0.25 * 0.98  # half the jump magnitude

