"""First-kind Bessel functions J0, J1, J2 for x >= 0, implemented in-repo.

Ascending power series on [0, 12], Hankel asymptotic expansion (optimally
truncated termwise) beyond, J2 through the three-term recurrence.  Accuracy
is ~1e-12 absolute / 1e-10 relative away from zeros of J.
"""

import math

import numpy as np

_SERIES_CUT = 12.0
_SERIES_TERMS = 48
_HANKEL_TERMS = 30


def _series(nu: int, x: np.ndarray) -> np.ndarray:
    q = -0.25 * x * x
    s = np.zeros_like(x)
    term = np.full_like(x, 1.0 / math.factorial(nu))
    s += term
    for m in range(1, _SERIES_TERMS):
        term = term * q / (m * (m + nu))
        s += term
    return s * (0.5 * x) ** nu


def _hankel(nu: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * nu * nu
    omega = x - 0.5 * nu * np.pi - 0.25 * np.pi
    p = np.ones_like(x)
    q = np.zeros_like(x)
    t = np.ones_like(x)
    prev = np.abs(t)
    stopped = np.zeros(x.shape, dtype=bool)
    for k in range(1, _HANKEL_TERMS):
        t = t * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = np.abs(t)
        stopped |= mag > prev  # divergent tail: truncate at the smallest term
        live = np.where(stopped, 0.0, t)
        if k % 2 == 1:
            q = q + live * (-1.0) ** ((k - 1) // 2)
        else:
            p = p + live * (-1.0) ** (k // 2)
        prev = mag
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(order: int, x) -> np.ndarray:
    """J_order(x) for order in {0, 1, 2} and x >= 0 (scalar or array)."""
    if order not in (0, 1, 2):
        raise ValueError("only orders 0, 1, 2 are supported")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr < 0.0):
        raise ValueError("argument must be nonnegative")
    if order == 2:
        j0 = bessel_j(0, x_arr)
        j1 = bessel_j(1, x_arr)
        out = np.empty_like(x_arr)
        small = x_arr < 1e-3  # recurrence 2 J1/x - J0 cancels badly near 0
        if np.any(small):
            out[small] = _series(2, x_arr[small])
        big = ~small
        out[big] = 2.0 * j1[big] / x_arr[big] - j0[big]
        return float(out[0]) if scalar else out
    out = np.empty_like(x_arr)
    lo = x_arr <= _SERIES_CUT
    if np.any(lo):
        out[lo] = _series(order, x_arr[lo])
    if np.any(~lo):
        out[~lo] = _hankel(order, x_arr[~lo])
    return float(out[0]) if scalar else out
