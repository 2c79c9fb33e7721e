"""Angular operator identities on flat and curved charts."""

import numpy as np
import pytest

from nulldust import calculus as calc
from nulldust.fields import sym2_det, sym2_inverse
from nulldust.geometry import christoffel, partial
from nulldust.grids import AngularGrid


# Angular operators that only the tests use, kept here as oracles.  Their
# einsum strings are written for the layout they were recorded in, slots
# last; einsum_trailing moves the slots there and back.

def to_front(x: np.ndarray, k: int) -> np.ndarray:
    """x with its last k axes (slots) moved first, as a C-ordered copy."""
    return np.ascontiguousarray(np.moveaxis(x, range(x.ndim - k, x.ndim), range(k)))


def to_back(x: np.ndarray, k: int) -> np.ndarray:
    """x with its first k axes (slots) moved last, as a C-ordered copy."""
    return np.ascontiguousarray(np.moveaxis(x, range(k), range(x.ndim - k, x.ndim)))


def einsum_trailing(spec: str, *operands) -> np.ndarray:
    """np.einsum(spec, ...) for a spec on the slots-last layout, applied to
    slots-first operands: each operand's slots (its letters after '...') are
    moved last, and the result's slots are moved back first."""
    ins, out = spec.split("->")
    moved = [to_back(x, len(s) - 3) for x, s in zip(operands, ins.split(","))]
    return to_front(np.einsum(spec, *moved), len(out) - 3)


def grad(chart: AngularGrid, f: np.ndarray) -> np.ndarray:
    """Gradient one-form of a scalar."""
    if f.ndim != 2:
        raise calc.RankError("grad expects a scalar field")
    return partial(chart, f)


def volume_form_upper(gamma: np.ndarray) -> np.ndarray:
    """eps^{ab} = gamma^{ac} gamma^{bd} eps_{cd} = eps_{ab} / det gamma,
    with the volume form eps_{ab} = sqrt(det gamma) * [[0, 1], [-1, 0]]_{ab}."""
    s = np.sqrt(sym2_det(gamma[0, 0], gamma[0, 1], gamma[1, 1]))
    eps = np.zeros(gamma.shape)
    eps[0, 1] = 1.0 / s
    eps[1, 0] = -1.0 / s
    return eps


def curl_oneform(chart, gamma, phi, gam) -> np.ndarray:
    """curl phi = eps^{ab} nabla_a phi_b."""
    if phi.ndim != gamma.ndim - 1:
        raise calc.RankError("curl_oneform expects a one-form")
    nab = calc.covariant_deriv(chart, phi, gam)
    return einsum_trailing("...ab,...ab->...", volume_form_upper(gamma), nab)


def trace(gamma: np.ndarray, T: np.ndarray) -> np.ndarray:
    """gamma^{ab} T_{ab}."""
    return einsum_trailing("...ab,...ab->...", sym2_inverse(gamma), T)


def connection(gamma, chart) -> np.ndarray:
    return christoffel(gamma, sym2_inverse(gamma), chart)


def div_oneform(chart, gamma, phi, gam) -> np.ndarray:
    """div phi = gamma^{ab} nabla_a phi_b."""
    if phi.ndim != gamma.ndim - 1:
        raise calc.RankError("div_oneform expects a one-form")
    return trace(gamma, calc.covariant_deriv(chart, phi, gam))


def nabla_otimes(chart, gamma, phi, gam) -> np.ndarray:
    """Trace-free symmetrized derivative of a one-form:

    (nabla (x) phi)_{ab} = nabla_a phi_b + nabla_b phi_a - gamma_{ab} div phi
    """
    if phi.ndim != gamma.ndim - 1:
        raise calc.RankError("nabla_otimes expects a one-form")
    nab = calc.covariant_deriv(chart, phi, gam)
    return nab + np.swapaxes(nab, 0, 1) - gamma * trace(gamma, nab)


def hat_otimes(gamma, phi, psi) -> np.ndarray:
    """(phi (x)^ psi)_{ab} = phi_a psi_b + phi_b psi_a - gamma_{ab} (phi . psi)."""
    outer = phi[:, None] * psi
    dot = einsum_trailing("...ab,...a,...b->...", sym2_inverse(gamma), phi, psi)
    return outer + np.swapaxes(outer, 0, 1) - gamma * dot


@pytest.fixture
def chart():
    return AngularGrid(32, 32)


@pytest.fixture
def flat(chart):
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0] = g[1, 1] = 1.0
    return g


@pytest.fixture
def curved(chart):
    t1, t2 = chart.mesh()
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0] = 1.2 + 0.3 * np.sin(t1) * np.cos(t2)
    g[1, 1] = 0.9 + 0.2 * np.cos(t1)
    g[0, 1] = g[1, 0] = 0.1 * np.sin(t1 + t2)
    return g


def test_flat_laplacian_eigenfunction(chart, flat):
    t1, _ = chart.mesh()
    f = np.sin(2 * np.pi * t1 / chart.L1)
    lap = div_oneform(chart, flat, grad(chart, f), connection(flat, chart))
    assert np.abs(lap + (2 * np.pi / chart.L1) ** 2 * f).max() < 1e-12


def test_curl_of_gradient_vanishes(chart, curved):
    t1, t2 = chart.mesh()
    f = np.exp(0.3 * np.sin(t1)) * np.cos(t2)
    assert np.abs(curl_oneform(chart, curved, grad(chart, f), connection(curved, chart))).max() < 1e-10


def test_trace_free_symmetrizer_is_trace_free(chart, curved):
    rng = np.random.default_rng(11)
    t1, t2 = chart.mesh()
    phi = np.stack([np.sin(t1 + 0.3) * np.cos(2 * t2), np.cos(2 * t1) + 0.4 * np.sin(t2)])
    now = nabla_otimes(chart, curved, phi, connection(curved, chart))
    assert np.abs(trace(curved, now)).max() < 1e-11
    assert np.allclose(now, np.swapaxes(now, 0, 1))


def test_contraction_invariance_under_rotation(chart):
    rng = np.random.default_rng(5)
    t1, t2 = chart.mesh()
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0] = 1.5 + 0.2 * np.sin(t1)
    g[1, 1] = 1.1
    T = np.zeros((2, 2) + chart.shape)
    T[0, 0] = np.cos(t2)
    T[1, 1] = np.sin(t1)
    T[0, 1] = T[1, 0] = 0.3
    c = np.cos(0.7)
    s = np.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    gr = np.einsum("ca,db,cd...->ab...", R, R, g)
    Tr = np.einsum("ca,db,cd...->ab...", R, R, T)
    assert np.abs(calc.dot22(sym2_inverse(gr), Tr, Tr) - calc.dot22(sym2_inverse(g), T, T)).max() < 1e-12


def test_hat_otimes_and_wedge_shapes(chart, flat):
    t1, t2 = chart.mesh()
    phi = np.stack([np.sin(t1), np.cos(t2)])
    ho = hat_otimes(flat, phi, phi)
    assert np.abs(trace(flat, ho)).max() < 1e-13


def test_rank_mismatch_raises(chart, flat):
    with pytest.raises(calc.RankError):
        div_oneform(chart, flat, np.zeros(chart.shape), connection(flat, chart))
    with pytest.raises(calc.RankError):
        grad(chart, np.zeros((2,) + chart.shape))
    with pytest.raises(calc.RankError):
        calc.div_sym2(chart, sym2_inverse(flat), np.zeros((2,) + chart.shape), connection(flat, chart))
