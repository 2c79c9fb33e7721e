"""Connection and curvature kernel against hand-derived and conformal oracles."""

import numpy as np
import pytest

from nulldust.fields import PositivityError, sym2_det, sym2_inverse
from nulldust.geometry import christoffel, gauss_curvature, partial
from nulldust.grids import AngularGrid


def flat_metric(chart):
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0] = 1.0
    g[1, 1] = 1.0
    return g


def curvature(g, chart):
    ginv = sym2_inverse(g)
    return gauss_curvature(ginv, chart, christoffel(g, ginv, chart))


def test_flat_connection_vanishes():
    chart = AngularGrid(16, 16)
    g = flat_metric(chart)
    assert np.abs(christoffel(g, sym2_inverse(g), chart)).max() == 0.0


def test_diagonal_metric_connection_value():
    # gamma = diag(f, 1) with f = 1 + sin(2 pi t1 / L1)/2: the only nonzero
    # symbol is the classic G^1_11 = f'/(2 f)
    chart = AngularGrid(64, 8)
    t1, _ = chart.mesh()
    f = 1.0 + 0.5 * np.sin(2 * np.pi * t1 / chart.L1)
    df = (np.pi / chart.L1) * np.cos(2 * np.pi * t1 / chart.L1)
    g = flat_metric(chart)
    g[0, 0] = f
    gam = christoffel(g, sym2_inverse(g), chart)
    assert np.abs(gam[0, 0, 0] - df / (2.0 * f)).max() < 1e-12
    rest = gam.copy()
    rest[0, 0, 0] = 0.0
    assert np.abs(rest).max() < 1e-13


def test_connection_symmetric_in_lower_indices():
    chart = AngularGrid(16, 16)
    rng = np.random.default_rng(3)
    t1, t2 = chart.mesh()
    g = flat_metric(chart)
    g[0, 0] += 0.3 * np.sin(t1) * np.cos(t2)
    g[1, 1] += 0.2 * np.cos(t1 + t2)
    g[0, 1] = g[1, 0] = 0.1 * np.sin(t1 - t2)
    gam = christoffel(g, sym2_inverse(g), chart)
    assert np.array_equal(gam, np.swapaxes(gam, 1, 2))


def test_connection_is_pure():
    chart = AngularGrid(16, 16)
    t1, t2 = chart.mesh()
    g = flat_metric(chart)
    g[0, 0] += 0.3 * np.sin(t1) * np.cos(t2)
    assert np.array_equal(christoffel(g, sym2_inverse(g), chart), christoffel(g, sym2_inverse(g), chart))


def test_positivity_error_reports_first_point():
    chart = AngularGrid(8, 8)
    g = flat_metric(chart)
    g[0, 0, 3, 5] = -1.0
    with pytest.raises(PositivityError) as err:
        christoffel(g, sym2_inverse(g), chart)
    assert err.value.where == (3, 5)


def test_flat_curvature_vanishes():
    chart = AngularGrid(16, 16)
    g = flat_metric(chart)
    assert np.abs(curvature(g, chart)).max() == 0.0


def spectral_second_deriv(f, period, axis):
    """Second derivative along a periodic axis: the FFT multiplier (i k)^2."""
    n = f.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    shape = [1] * f.ndim
    shape[axis] = n
    return np.real(np.fft.ifft(np.fft.fft(f, axis=axis) * ((1j * k) ** 2).reshape(shape), axis=axis))


def conformal_oracle(chart, psi):
    """K = -exp(-2 psi) * Lap(psi) for gamma = exp(2 psi) * flat."""
    lap = spectral_second_deriv(psi, chart.L1, 0) + spectral_second_deriv(psi, chart.L2, 1)
    return -np.exp(-2.0 * psi) * lap


def fiber_mismatch(g, chart):
    """Relative disagreement of K read off the two diagonal fibers (b = c = 1
    and b = c = 2) of the curvature identity
        gamma_{bc} K = d_a Gamma^a_{bc} - d_c Gamma^a_{ba}
                       + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{cd} Gamma^d_{ba},
    scaled by max |K| + 1; it is a discretization error, so a grid that
    resolves g keeps it small."""
    ginv = sym2_inverse(g)
    gam = christoffel(g, ginv, chart)
    dgam = partial(chart, gam)  # [e, c, a, b] = d_e Gamma^c_{ab}
    ric = (np.einsum("aabc...->bc...", dgam) - np.einsum("caba...->bc...", dgam)
           + np.einsum("aad...,dbc...->bc...", gam, gam) - np.einsum("acd...,dba...->bc...", gam, gam))
    k1 = ric[0, 0] / g[0, 0]
    k2 = ric[1, 1] / g[1, 1]
    return np.max(np.abs(k1 - k2)) / (np.max(np.abs(gauss_curvature(ginv, chart, gam))) + 1.0)


def test_conformal_curvature_oracle():
    chart = AngularGrid(64, 64)
    t1, _ = chart.mesh()
    psi = 0.1 * np.sin(2 * np.pi * t1 / chart.L1)
    g = np.exp(2 * psi) * flat_metric(chart)
    k = curvature(g, chart)
    assert np.abs(k - conformal_oracle(chart, psi)).max() < 1e-12
    assert fiber_mismatch(g, chart) <= 1e-6


def test_spectral_convergence_beats_any_power():
    # non-band-limited smooth conformal factor: grid doubling must beat 8th order
    errs = []
    for n in (16, 32, 64):
        chart = AngularGrid(n, n)
        t1, t2 = chart.mesh()
        psi = 0.4 / (2.5 + np.cos(t1)) + 0.2 / (3.0 + np.sin(t2))
        g = np.exp(2 * psi) * flat_metric(chart)
        k = curvature(g, chart)
        errs.append(np.abs(k - conformal_oracle(chart, psi)).max())
        assert fiber_mismatch(g, chart) <= 1e-6
    assert errs[1] <= max(errs[0] / 2**8, 5e-14)
    assert errs[2] <= max(errs[1] / 2**8, 5e-14)


def test_total_curvature_vanishes_on_torus():
    chart = AngularGrid(48, 48)
    t1, t2 = chart.mesh()
    g = flat_metric(chart)
    g[0, 0] = 1.3 + 0.4 * np.sin(t1) * np.cos(t2)
    g[1, 1] = 0.9 + 0.2 * np.cos(t1)
    g[0, 1] = g[1, 0] = 0.15 * np.sin(t1 + t2)
    # Gauss-Bonnet: the integral of K dA_gamma vanishes on the torus for any metric
    k = curvature(g, chart)
    assert abs(np.sum(k * np.sqrt(sym2_det(g[0, 0], g[0, 1], g[1, 1]))) * chart.cell_area) < 1e-10


def test_curvature_fibers_disagree_near_nyquist():
    # frequencies near Nyquist: the fiber oracle sees the coarse grid
    chart = AngularGrid(8, 8)
    t1, t2 = chart.mesh()
    g = flat_metric(chart)
    g[0, 0] = 1.0 + 0.45 * np.sin(3 * t1) * np.cos(3 * t2)
    g[1, 1] = 1.0 + 0.45 * np.cos(3 * t1 + 2 * t2)
    assert fiber_mismatch(g, chart) > 1e-12


def _stacked_partial(chart, f):
    """Oracle of partial: two out-of-place spectral derivatives along the
    grid axes, stacked first."""
    def deriv(period, axis):
        n = f.shape[axis]
        mult = 1j * (2.0 * np.pi * np.fft.fftfreq(n, d=period / n))
        mult[n // 2] = 0.0
        shape = [1] * f.ndim
        shape[axis] = n
        return np.real(np.fft.ifft(np.fft.fft(f, axis=axis) * mult.reshape(shape), axis=axis))

    return np.stack([deriv(chart.L1, f.ndim - 2), deriv(chart.L2, f.ndim - 1)])


@pytest.mark.parametrize("lead, slots", [(0, ()), (1, (2, 2)), (2, (2, 2, 2))])
def test_partial_bit_identical_to_stacked_derivatives(lead, slots):
    # lead batch axes between the slots and the grid axes
    chart = AngularGrid(16, 8, 2.0, 3.0)
    f = np.random.default_rng(lead).standard_normal(slots + (3,) * lead + chart.shape)
    got = partial(chart, f)
    assert got.shape == (2,) + f.shape
    assert np.array_equal(got, _stacked_partial(chart, f))


def test_partial_keeps_one_spectrum_beside_its_output():
    import tracemalloc

    chart = AngularGrid(64, 4)
    f = np.random.default_rng(5).standard_normal((2, 2, 2, 64) + chart.shape)
    peaks = []
    for fn in (lambda: partial(chart, f), lambda: _stacked_partial(chart, f)):
        tracemalloc.start()
        fn()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] > 5.5 * f.nbytes  # two spectra and a held complex result
    assert peaks[0] < 4.5 * f.nbytes  # the output (2 |f|) and one complex buffer
