"""Quadrature helpers: Gauss-Legendre on an interval, and the composite rule
of equal Gauss-Legendre panels with an ordered panel-by-panel reducer that
gives a per-panel loop's floating-point results from batched evaluations.
"""

from functools import lru_cache

import numpy as np

_CHUNK_POINTS = 4096


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_integrate(f, a: float, b: float, n: int) -> float:
    """Integral of f over [a, b] with an n-point Gauss-Legendre rule."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Mapped nodes and weights on [a, b]."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_rule(pieces, gl: int):
    """Nodes and weights of the gl-point rule on every panel of the pieces
    (lo, hi, panels), cut at np.linspace(lo, hi, panels + 1); one broadcast does
    gauss_legendre_nodes' per-element arithmetic, so a per-panel loop agrees bit for bit."""
    x, w = _gl_nodes(gl)
    edges = [np.linspace(lo, hi, panels + 1) for lo, hi, panels in pieces]
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def panel_values(integrand, pieces, gl: int):
    """Yield (weights, values) of each panel of composite_rule(pieces, gl), in order;
    integrand maps nodes (K,) -> (K, ...) and is called once per chunk of whole
    panels, at most _CHUNK_POINTS nodes."""
    xs, ws = composite_rule(pieces, gl)
    step = max(1, _CHUNK_POINTS // gl) * gl
    for start in range(0, len(xs), step):
        vals = integrand(xs[start:start + step])
        for k in range(0, len(vals), gl):
            yield ws[start + k:start + k + gl], vals[k:k + gl]


def panel_pairing(integrand, pieces, gl: int, area) -> float:
    """Sum over panels of einsum('k,kij,ij->', weights, values, area), added in panel order."""
    total = 0.0
    for wp, vals in panel_values(integrand, pieces, gl):
        total += float(np.einsum("k,kij,ij->", wp, vals, area))
    return total
