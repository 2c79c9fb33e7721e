"""Finite-difference and spectral derivative kernels.

Null-direction (1D, non-periodic) derivatives use 4th-order central stencils
with 4th-order one-sided closures at the interval ends.  Angular derivatives
on the periodic chart are spectral (FFT).
"""

from functools import lru_cache

import numpy as np

# 4th-order one-sided first-derivative closures (rows: node 0 and node 1 from the edge)
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def deriv1_fd4(y: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """First derivative, 4th order, non-periodic axis with one-sided closures."""
    y = np.asarray(y, dtype=float)
    if y.shape[axis] < 5:
        raise ValueError("need at least 5 nodes for the 4th-order stencil")
    y = np.moveaxis(y, axis, 0)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    head = np.tensordot(_EDGE0, y[:5], axes=(0, 0))
    head1 = np.tensordot(_EDGE1, y[:5], axes=(0, 0))
    tail1 = -np.tensordot(_EDGE1, y[-5:][::-1], axes=(0, 0))
    tail = -np.tensordot(_EDGE0, y[-5:][::-1], axes=(0, 0))
    out[0], out[1], out[-2], out[-1] = head / h, head1 / h, tail1 / h, tail / h
    return np.moveaxis(out, 0, axis)


def deriv1_fd4_periodic(y: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative, 4th order, periodic axis (pure central via wrap-around)."""
    y = np.asarray(y, dtype=float)
    return (
        np.roll(y, 2, axis=axis)
        - 8.0 * np.roll(y, 1, axis=axis)
        + 8.0 * np.roll(y, -1, axis=axis)
        - np.roll(y, -2, axis=axis)
    ) / (12.0 * h)


def spectral_deriv(f: np.ndarray, period: float, axis: int) -> np.ndarray:
    """Spectral first derivative along a periodic axis.

    The Nyquist mode is zeroed (its sampled derivative is not representable
    on the grid).  One complex buffer holds the whole transform: f is copied
    into it with the derivative axis swapped to the last, contiguous place,
    where the FFT runs fastest, and transformed, scaled and transformed back
    in place; the result is a view of that buffer with the axes swapped back.
    Along an axis of size 1, f is constant and its derivative an exact 0,
    returned without a transform.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[axis] == 1:
        return np.zeros(f.shape)
    spec = np.swapaxes(f, axis, -1).astype(complex, order="C")
    np.fft.fft(spec, out=spec)
    spec *= _deriv_multiplier(f.shape[axis], period)
    np.fft.ifft(spec, out=spec)
    return np.swapaxes(spec.real, axis, -1)


@lru_cache(maxsize=32)
def _deriv_multiplier(n, period):
    """i k for n points of the given period, Nyquist entry zeroed; cached
    per (n, period) and read-only."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    mult = 1j * k
    if n % 2 == 0:
        mult[n // 2] = 0.0
    mult.flags.writeable = False
    return mult
