"""Bessel evaluations against the integral representation and asymptotics."""

import numpy as np
import pytest

from nulldust.bessel import bessel_j


def bessel_j0_quadrature(x, n=4096):
    """Oracle: (1/pi) int_0^pi cos(x sin t) dt by the periodic trapezoid rule.

    The integrand is smooth and pi-periodic, so the rule converges geometrically.
    """
    t = np.arange(n) * (np.pi / n)
    return float(np.mean(np.cos(x * np.sin(t))))


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_integral_representation_oracle():
    for x in (0.5, 1.0, 3.7, 9.2, 11.9, 13.5, 25.0, 80.0):
        assert abs(bessel_j(0, x) - bessel_j0_quadrature(x)) < 1e-9


def test_orders_one_two_against_series_shift():
    # d/dx J0 = -J1 through a high-order central stencil
    x = np.linspace(0.5, 30.0, 200)
    h = 1e-2  # wide step: the stencil would otherwise amplify the evaluator's
    # absolute error by 1/h past the identity's own accuracy
    dj0 = (bessel_j(0, x - 2 * h) - 8 * bessel_j(0, x - h) + 8 * bessel_j(0, x + h) - bessel_j(0, x + 2 * h)) / (12 * h)
    assert np.abs(dj0 + bessel_j(1, x)).max() < 1e-8


def test_recurrence_consistency():
    x = np.linspace(0.01, 60.0, 500)
    j0, j1, j2 = bessel_j(0, x), bessel_j(1, x), bessel_j(2, x)
    assert np.abs(j2 - (2.0 / x * j1 - j0)).max() < 1e-12


def test_hankel_average_identity():
    # J0^2 + 2 J1^2 - J0 J2 averaged over a period approaches 4/(pi x)
    for x0 in (50.0, 120.0, 400.0):
        period = np.pi  # the squares oscillate with period pi in x
        xs = np.linspace(x0, x0 + period, 4096)
        val = np.mean(bessel_j(0, xs) ** 2 + 2 * bessel_j(1, xs) ** 2 - bessel_j(0, xs) * bessel_j(2, xs))
        target = 4.0 / (np.pi * x0)
        assert abs(val - target) / target <= 2.0 / x0


def test_accuracy_against_quadrature_grid():
    xs = np.linspace(0.0, 40.0, 401)
    vals = bessel_j(0, xs)
    ref = np.array([bessel_j0_quadrature(float(x), n=8192) for x in xs])
    # mixed tolerance: relative away from the zeros of J0, absolute near them
    assert np.abs(vals - ref).max() <= 1e-10 * np.maximum(np.abs(ref), 1e-2).max()


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        bessel_j(3, 1.0)
