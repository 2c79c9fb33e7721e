"""Bessel-profile family: vacuum property, limits, and the A = 0 background."""

import tracemalloc

import numpy as np
import pytest

from nulldust import gowdy
from nulldust.grids import Grid1D
from nulldust.rates import fit_rate
from nulldust.ricci4 import spacetime_ricci


def test_zero_amplitude_profiles_vanish():
    tau = np.linspace(0.0, 1.0, 33)
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    p, alpha = gowdy.eval_family(4, 0.0, tau, theta)
    assert np.abs(p).max() == 0.0
    assert np.abs(alpha).max() == 0.0


def test_profile_amplitude_decays():
    sups = []
    for n in (100, 1000, 10000):
        tau = np.array([0.0])
        theta = np.array([np.pi / (2 * n)])  # the oscillation peak
        p, _ = gowdy.eval_family(n, 1.0, tau, theta)
        sups.append(np.abs(p).max())
    
    assert sups[0] > sups[1] > sups[2]


def test_under_resolved_grid_rejected():
    tau = np.linspace(0.0, 1.0, 9)
    theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    with pytest.raises(ValueError, match="under-resolv"):
        gowdy.eval_family(64, 1.0, tau, theta)


def test_vacuum_residual_order():
    scan = gowdy.vacuum_residual_scan(4, 1.0, [64, 96, 128, 192])
    assert scan.observed_order >= 3.5
    assert scan.residuals[-1] < scan.residuals[0]


def test_vacuum_residual_scan_raises_the_first_bad_member():
    # 32 and 48 both under-resolve n = 4; a loop stops at 48, the first of them
    with pytest.raises(ValueError, match="12.0 nodes per oscillation"):
        gowdy.vacuum_residual_scan(4, 1.0, [64, 48, 96, 32])


def test_residual_invariant_under_family_shift():
    # the member n metric is exactly 2 pi / n periodic in theta
    n = 4
    tau_grid = Grid1D(0.0, 1.0, 65)
    th_grid = Grid1D(0.0, 2 * np.pi, 64)
    out = spacetime_ricci(gowdy.family_metric(n, 1.0, tau_grid, th_grid))
    shift = 64 // n
    rolled = np.roll(out.ricci, shift, axis=1)
    # exact up to the floating non-periodicity of sin(n theta + 2 pi)
    assert np.abs(out.ricci - rolled).max() < 1e-8 * np.abs(out.ricci).max()


def test_background_matches_symbolic_ricci():
    sympy = pytest.importorskip("sympy")
    tau_s = sympy.symbols("tau")
    comps = [
        -sympy.exp(tau_s / 2) * sympy.exp(-2 * tau_s),
        sympy.exp(tau_s / 2),
        sympy.exp(-tau_s),
        sympy.exp(-tau_s),
    ]
    n = 1
    ric_sym = sympy.zeros(4, 4)
    g = sympy.diag(*comps)
    ginv = g.inv()
    coords = [tau_s, sympy.Symbol("x1"), sympy.Symbol("x2"), sympy.Symbol("x3")]

    def d(expr, mu):
        return sympy.diff(expr, coords[mu])

    gam = [[[sum(ginv[r, s] * (d(g[s, m], nn) + d(g[s, nn], m) - d(g[m, nn], s)) for s in range(4)) / 2
             for nn in range(4)] for m in range(4)] for r in range(4)]
    for m in range(4):
        for nn in range(4):
            term = sum(d(gam[r][m][nn], r) for r in range(4))
            term -= sum(d(gam[r][r][nn], m) for r in range(4))
            term += sum(gam[r][r][l] * gam[l][m][nn] for r in range(4) for l in range(4))
            term -= sum(gam[r][m][l] * gam[l][r][nn] for r in range(4) for l in range(4))
            ric_sym[m, nn] = sympy.simplify(term)

    tau_grid = Grid1D(0.2, 0.8, 257)
    block = gowdy.family_metric(n, 0.0, tau_grid, Grid1D(0.0, 2 * np.pi, 16))
    out = spacetime_ricci(block)
    taus = tau_grid.points()[8:-8:32]
    for i, tv in zip(range(8, 249, 32), taus):
        for mu in range(4):
            num = out.ricci[i, 0, mu, mu]
            sym = float(ric_sym[mu, mu].subs(tau_s, tv))
            assert abs(num - sym) < 1e-6, (mu, tv)


def test_alpha_limit_monotone():
    gaps = gowdy.alpha_limit_gap([100, 1000, 10000, 100000], 1.0, 0.0)
    assert np.all(np.diff(gaps) < 0)
    slope = fit_rate([100, 1000, 10000, 100000], gaps)
    assert slope < 0  # rate recorded, not asserted against a target


def test_limit_einstein_components():
    lim = gowdy.limit_einstein(1.0, 0.0)
    assert abs(lim["G_tautau"] - 1.0 / (4 * np.pi)) < 1e-5
    assert abs(lim["G_thetatheta"] - 1.0 / (4 * np.pi)) < 1e-5
    assert lim["max_off_component"] < 1e-5
    zero = gowdy.limit_einstein(0.0, 0.0)
    assert abs(zero["G_tautau"]) < 1e-10
    assert abs(zero["G_thetatheta"]) < 1e-10


def test_limit_einstein_ratio_and_null_frame():
    for tau in (0.0, 0.5):
        lim = gowdy.limit_einstein(1.0, tau)
        ratio = lim["G_thetatheta"] / lim["G_tautau"]
        assert abs(ratio - np.exp(2 * tau)) < 1e-6
        guu, gubub = gowdy.null_frame_dust_components(lim["G_tautau"], lim["G_thetatheta"], tau)
        assert guu == gubub
        # both beams carry A^2 e^{tau} / (8 pi)
        assert abs(guu - np.exp(tau) / (8 * np.pi)) < 1e-6


SCAN_SIZES = [128, 176, 240, 320]  # criterion 3's residual scan


def scan_member(m):
    return gowdy.family_metric(8, 1.0, Grid1D(0.0, 1.0, m + 1), Grid1D(0.0, 2.0 * np.pi, m))


@pytest.mark.parametrize("m", SCAN_SIZES)
def test_folded_max_equals_the_whole_ricci_max(m):
    blk = scan_member(m)
    folded = gowdy.max_abs_ricci(blk)
    assert np.float64(folded).tobytes() == np.abs(spacetime_ricci(blk).ricci).max().tobytes()


def test_largest_scan_member_stays_small():
    # the metric is built inside the measured window, as the scan builds it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gowdy.max_abs_ricci(scan_member(SCAN_SIZES[-1]))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # about 9.4 MiB: the metric (3.1 MiB, 7.8 MiB while it is built) and one
    # row block's Ricci at a time; 25.1 MiB with the member's whole Ricci held
    assert peak / 2**20 <= 12.0
