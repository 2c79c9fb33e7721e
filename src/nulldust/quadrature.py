"""Quadrature helpers: Gauss-Legendre on an interval."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_integrate(f, a: float, b: float, n: int = 64) -> float:
    """Integral of f over [a, b] with an n-point Gauss-Legendre rule."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))


def gauss_legendre_nodes(a: float, b: float, n: int = 64):
    """Mapped nodes and weights on [a, b]."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
