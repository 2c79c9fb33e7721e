"""Composite Gauss-Legendre rule and the ordered panel reducer."""

import numpy as np
import pytest

from nulldust import quadrature
from nulldust.quadrature import composite_rule, gauss_legendre_nodes, panel_pairing, panel_values

PIECES = [(0.0, 0.3, 3), (0.3, 0.31, 1), (0.31, 1.0, 7), (1.0, 2.5, 40)]


def per_panel_nodes(pieces, gl):
    xs, ws = [], []
    for lo, hi, panels in pieces:
        edges = np.linspace(lo, hi, panels + 1)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            x, w = gauss_legendre_nodes(p_lo, p_hi, gl)
            xs.append(x)
            ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def field(xs):
    th = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    return np.sin(7.0 * xs)[:, None, None] * np.cos(th)[None] + xs[:, None, None] ** 2


@pytest.mark.parametrize("gl", [1, 8, 12, 16, 256])
def test_rule_equals_per_panel_nodes(gl):
    xs, ws = composite_rule(PIECES, gl)
    xr, wr = per_panel_nodes(PIECES, gl)
    assert xs.shape == ws.shape == (gl * sum(p for _, _, p in PIECES),)
    assert np.array_equal(xs, xr)
    assert np.array_equal(ws, wr)


@pytest.mark.parametrize("gl", [7, 12, 16])
def test_reducer_equals_per_panel_loop(gl):
    pieces = [(0.0, 0.4, 350), (0.4, 1.0, 251)]
    n = gl * 601
    assert n > quadrature._CHUNK_POINTS and n % quadrature._CHUNK_POINTS != 0
    area = np.array([[0.5, 1.5], [2.0, 0.25], [1.0, 3.0]])
    expected = 0.0
    for lo, hi, panels in pieces:
        edges = np.linspace(lo, hi, panels + 1)
        for p_lo, p_hi in zip(edges[:-1], edges[1:]):
            xp, wp = gauss_legendre_nodes(p_lo, p_hi, gl)
            expected += float(np.einsum("k,kij,ij->", wp, field(xp), area))
    assert panel_pairing(field, pieces, gl, area) == expected


@pytest.mark.parametrize("gl, chunk", [(7, 4096), (12, 4096), (16, 100), (16, 10)])
def test_chunk_never_splits_a_panel(monkeypatch, gl, chunk):
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", chunk)
    batches = []

    def integrand(x):
        batches.append(len(x))
        return field(x)

    panels = list(panel_values(integrand, [(0.0, 1.0, 1000)], gl))
    assert len(panels) == 1000
    assert all(len(wp) == len(vals) == gl for wp, vals in panels)
    assert sum(batches) == 1000 * gl
    assert all(b % gl == 0 and b <= max(chunk, gl) for b in batches)
    assert len(batches) == -(-1000 * gl // (max(1, chunk // gl) * gl))
