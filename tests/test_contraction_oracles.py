"""The 2x2 contractions of the transport march against the np.einsum forms
they replaced, bit for bit.

calculus, charpipe, fields.trace and geometry (levi_civita, gauss_curvature)
write their contractions as broadcast products summed in the order numpy's
einsum sums them, so that every acceptance detail stays as it was.  The
einsum forms live on here as oracles, on the slots-last layout they were
recorded on: the test data are drawn in that layout, and the library gets
them with the slots moved first.  A numpy release that changes einsum's
order fails these tests.
"""

import inspect
import sys

import numpy as np
import pytest

from nulldust import calculus as calc
from nulldust import charpipe as P
from nulldust import constraints as C
from nulldust import fields, geometry
from nulldust.fields import trace
from nulldust.geometry import gauss_curvature, levi_civita, partial
from nulldust.grids import AngularGrid, Grid1D
from nulldust.stencils import spectral_deriv

from test_calculus import to_back, to_front
from test_slice_batch import corner, shear_data


def _levi_civita(ginv, dg):
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    return np.einsum("...cd,...dab->...cab", ginv, low)


def _partial(chart, f, k):
    """partial on the slots-last layout of f's k slots: d_c f indexed [..., c, *slots]."""
    return to_back(partial(chart, to_front(f, k)), k + 1)


def _covariant_deriv(chart, phi, gam):
    d = _partial(chart, phi, phi.ndim - gam.ndim + 3)
    if phi.ndim == gam.ndim - 2:
        return d - np.einsum("...eca,...e->...ca", gam, phi)
    return d - np.einsum("...eca,...eb->...cab", gam, phi) - np.einsum("...ecb,...ae->...cab", gam, phi)


def _div_sym2(chart, ginv, T, gam):
    return np.einsum("...bc,...bca->...a", ginv, _covariant_deriv(chart, T, gam))


def _gauss_curvature(ginv, chart, gam):
    dgam = _partial(chart, gam, 3)
    ric = (np.einsum("...aabc->...bc", dgam) - np.einsum("...caba->...bc", dgam)
           + np.einsum("...aad,...dbc->...bc", gam, gam) - np.einsum("...acd,...dba->...bc", gam, gam))
    return 0.5 * np.einsum("...ab,...ab->...", ginv, ric)


# name -> (function, einsum oracle, slots of each argument); a chart argument,
# when the function takes one, comes first and is not listed
ALGEBRAIC = {
    "trace": (trace, lambda g, T: np.einsum("...ab,...ab->...", g, T), ((2, 2), (2, 2))),
    "dot11": (calc.dot11, lambda g, p, q: np.einsum("...ab,...a,...b->...", g, p, q), ((2, 2), (2,), (2,))),
    "dot22": (calc.dot22, lambda g, T, S: np.einsum("...ac,...bd,...ab,...cd->...", g, g, T, S),
              ((2, 2), (2, 2), (2, 2))),
    "dot21": (calc.dot21, lambda g, T, X: np.einsum("...bc,...ab,...c->...a", g, T, X), ((2, 2), (2, 2), (2,))),
    "move_index_vector": (calc.move_index, lambda g, X: np.einsum("...ab,...b->...a", g, X), ((2, 2), (2,))),
    "move_index_2tensor": (calc.move_index, lambda g, X: np.einsum("...bc,...ca->...ba", g, X), ((2, 2), (2, 2))),
    "chi_connection_oneform": (calc.chi_connection, lambda m, X: np.einsum("...ba,...b->...a", m, X),
                               ((2, 2), (2,))),
    "chi_connection_2tensor": (calc.chi_connection,
                               lambda m, X: np.einsum("...ca,...cb->...ab", m, X)
                               + np.einsum("...cb,...ac->...ab", m, X), ((2, 2), (2, 2))),
    "levi_civita": (levi_civita, _levi_civita, ((2, 2), (2, 2, 2))),
}
ANGULAR = {
    "covariant_deriv_oneform": (calc.covariant_deriv, _covariant_deriv, ((2,), (2, 2, 2))),
    "covariant_deriv_2tensor": (calc.covariant_deriv, _covariant_deriv, ((2, 2), (2, 2, 2))),
    "div_sym2": (calc.div_sym2, _div_sym2, ((2, 2), (2, 2), (2, 2, 2))),
    "gauss_curvature": (lambda chart, ginv, gam: gauss_curvature(ginv, chart, gam),
                        lambda chart, ginv, gam: _gauss_curvature(ginv, chart, gam), ((2, 2), (2, 2, 2))),
}
CASES = {**ALGEBRAIC, **ANGULAR}
GRIDS = [(), (32, 4), (64, 4)]  # () stands for the batched (3, 64, 4)
SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf)


def _fields(lead, grid, slots, seed, special=False):
    """Random fields whose magnitudes spread over decades, so a change in the
    order of summation shows in the last bits; slots last."""
    rng = np.random.default_rng(seed)
    out = []
    for s in slots:
        shape = lead + grid + s
        x = rng.standard_normal(shape) * np.exp(2.0 * rng.standard_normal(shape))
        if special:
            idx = rng.choice(x.size, size=3 * len(SPECIAL), replace=False)
            x.flat[idx] = np.repeat(SPECIAL, 3)
        out.append(x)
    return out


def _run(name, args, grid, front=None):
    """(function, oracle) of the case on args, slots last; the function gets
    front, or args with their slots moved first, and the oracle's result is
    compared with its slots moved first."""
    fn, oracle, slots = CASES[name]
    extra = (AngularGrid(*grid),) if name in ANGULAR else ()
    if front is None:
        front = [to_front(x, len(s)) for x, s in zip(args, slots)]
    want = oracle(*extra, *args)
    return fn(*extra, *front), to_front(want, want.ndim - args[0].ndim + len(slots[0]))


@pytest.mark.parametrize("grid", GRIDS, ids=["batch3x64x4", "32x4", "64x4"])
@pytest.mark.parametrize("name", CASES)
def test_contraction_bit_identical_to_einsum(name, grid):
    lead, grid = ((3,), (64, 4)) if grid == () else ((), grid)
    got, want = _run(name, _fields(lead, grid, CASES[name][2], 1), grid)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_contraction_on_slice_views_of_a_batch(name):
    slots = CASES[name][2]
    batch = _fields((3,), (64, 4), slots, 2)
    front = [to_front(x, len(s)) for x, s in zip(batch, slots)]
    for k in range(3):
        got, want = _run(name, [x[k] for x in batch], (64, 4), [x[..., k, :, :] for x in front])
        assert np.array_equal(got, want), k


@pytest.mark.parametrize("name", CASES)
def test_contraction_with_signed_zeros_nan_and_inf(name):
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _run(name, _fields((), (64, 4), CASES[name][2], 3, special=True), (64, 4))
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert np.array_equal(got, want, equal_nan=True)


def _strided_spectral_deriv(f, period, axis):
    """The transform along the axis in place, as before the contiguous-last layout."""
    n = f.shape[axis]
    mult = 1j * (2.0 * np.pi * np.fft.fftfreq(n, d=period / n))
    if n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    spec = f.astype(complex)
    np.fft.fft(spec, axis=axis, out=spec)
    spec *= mult.reshape(shape)
    np.fft.ifft(spec, axis=axis, out=spec)
    return spec.real


@pytest.mark.parametrize("shape", [(33, 64, 4, 2, 2), (32, 64, 4, 2, 2, 2), (64, 4, 2), (5, 16, 8)])
def test_spectral_deriv_bit_identical_to_strided_transform(shape):
    f = np.random.default_rng(4).standard_normal(shape)
    for axis in range(f.ndim):
        for period in (2.0 * np.pi, 1.5):
            got = spectral_deriv(f, period, axis)
            assert got.shape == f.shape
            assert np.array_equal(got, _strided_spectral_deriv(f, period, axis)), (axis, period)


def test_rhs_calls_no_einsum(monkeypatch):
    data = shear_data(Grid1D(0.0, 0.3, 17))
    sol = C.solve_constraint(data, 1.0, 0.5)
    sl = P.slice_fields(data, sol, np.array([0.1]))[0]
    c0 = corner(data.chart)
    state = (P.corner_eta(sl, c0), np.zeros((2,) + data.chart.shape), c0.omb0, c0.trchb0, c0.chibhat0)
    callers = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    P._rhs(data, sl, *state)
    assert callers == []


@pytest.mark.parametrize("module", [calc, P, fields, geometry], ids=["calculus", "charpipe", "fields", "geometry"])
def test_no_einsum_call_left_in_module(module):
    assert "einsum(" not in inspect.getsource(module)
