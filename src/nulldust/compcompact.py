"""Directional frequency decomposition and weak-product-limit tests.

A field on the periodic box splits exactly into low, first-direction-dominant
and second-direction-dominant parts through smooth Fourier multipliers:

    low  mask: chi(|xi|/(2 C1))
    pass mask: (1 - chi(|xi|/(2 C1))) * chi(100 C1 |xi_perp| / |xi_par|)
    rest: the complement, so the three masks sum to one on every lattice point

with chi a smooth plateau cutoff (1 on [-1, 1], 0 outside [-2, 2]).  The pass
mask of the first kind lives where 50 C1 |xi_2| <= |xi_1| and the second kind
where 50 C1 |xi_1| <= |xi_2|; products of two such parts have no spectrum
below |xi| = C1, which is the mechanism that lets transversely regular
oscillating sequences multiply without a convergence defect.  The box is
the (u, ub) plane, and (xi_1, xi_2) are its two null frequencies.

The random support trials run on the real-transform half lattice
(n1, n2 // 2 + 1): band-only draws, spectra in closed form, and two inverse
and one forward real transform per trial.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .testfunctions import plateau


def cutoff_chi(t):
    """Smooth plateau: 1 on [-1, 1], 0 outside (-2, 2), monotone between."""
    return 1.0 - plateau(np.abs(np.asarray(t, dtype=float)) - 1.0)


@dataclass(frozen=True)
class PeriodicBox:
    """Periodic box [0, 2 pi)^2 in (u, ub) sampled with shape[i] nodes per axis."""

    shape: tuple

    def __post_init__(self):
        if len(self.shape) != 2:
            raise ValueError(f"only 2D (u, ub) boxes supported, got shape {self.shape}")

    def axes(self):
        return [np.arange(n) * (2.0 * np.pi / n) for n in self.shape]

    def sparse_mesh(self):
        """The mesh coordinates as broadcast-shaped 1-D axes."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    def freqs(self):
        """Integer frequency lattice per axis, broadcast-shaped: (k1, k2)."""
        n1, n2 = self.shape
        return np.fft.fftfreq(n1, d=1.0 / n1)[:, None], np.fft.fftfreq(n2, d=1.0 / n2)[None, :]

    def nyquist(self):
        return min(self.shape) // 2

    def integrate(self, field):
        return float(field.mean() * (2.0 * np.pi) ** 2)


@lru_cache(maxsize=4)
def _masks(box: PeriodicBox, c1: float, mode: str):
    """(low, pass, rest) multipliers; mode selects which axis dominates the pass mask.

    Cached per (box, c1, mode); the arrays are read-only.  The low-pass reaches
    |xi| = 4 C1, so 4 C1 must stay inside the lattice's Nyquist band.
    """
    if c1 <= 1.0:
        raise ValueError("frequency threshold must exceed 1")
    if 4.0 * c1 > box.nyquist():
        raise ValueError(f"4 C1 = {4 * c1:g} exceeds the Nyquist band {box.nyquist()}")
    k1, k2 = map(np.abs, box.freqs())
    radial = np.sqrt(k1**2 + k2**2)
    low = cutoff_chi(radial / (2.0 * c1))
    if mode == "x1":
        par, perp = k1, k2
    elif mode == "x2":
        par, perp = k2, k1
    else:
        raise ValueError("mode must be 'x1' or 'x2'")
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(par > 0, 100.0 * c1 * perp / np.where(par > 0, par, 1.0), np.inf)
    directional = np.where(np.isfinite(arg), cutoff_chi(arg), 0.0)
    pass_mask = (1.0 - low) * directional
    rest = (1.0 - low) * (1.0 - directional)
    for mask in (low, pass_mask, rest):
        mask.flags.writeable = False
    return low, pass_mask, rest


def decompose(field: np.ndarray, box: PeriodicBox, c1: float, mode: str):
    """Split a real field with the smooth directional multipliers: (low,
    strict, rest) in _masks order, strict the pass-mask part of the mode."""
    masks = _masks(box, c1, mode)
    field = np.asarray(field, dtype=float)
    if field.shape != box.shape:
        raise ValueError(f"field shape {field.shape} != box shape {box.shape}")
    spec = np.fft.fftn(field)
    return tuple(np.fft.ifftn(spec * mask).real for mask in masks)


def partition_defect(field: np.ndarray, parts) -> float:
    """max |f - low - strict - rest| of decompose's parts (the multipliers sum
    to the all-pass exactly)."""
    low, strict, rest = parts
    return float(np.abs(field - low - strict - rest).max())


_SUPPORT_RTOL = 1e-10  # spectral mass relative to the peak that counts as support


@lru_cache(maxsize=4)
def _half_lattice(box: PeriodicBox, c1: float):
    """|xi| and the 'x1' and 'x2' pass masks on the rfftn half lattice, read-only."""
    k1, k2 = box.freqs()
    half = slice(box.shape[1] // 2 + 1)
    radial = np.sqrt(k1**2 + k2**2)[:, half]
    radial.flags.writeable = False
    return radial, _masks(box, c1, "x1")[1][:, half], _masks(box, c1, "x2")[1][:, half]


def support_check(box: PeriodicBox, c1: float, v1: np.ndarray, v2: np.ndarray):
    """Verify the product of an 'x1' strict part v1 and an 'x2' strict part
    v2, both of box at threshold c1, has no spectrum below C1.

    Returns (ok, min_radius) where min_radius is the smallest |xi| carrying
    relative spectral mass above _SUPPORT_RTOL (inf for a zero product, and
    (False, nan) for a product that is not finite).  The product is real, so
    its half-lattice spectrum carries every |xi|.
    """
    spec = np.abs(np.fft.rfftn(v1 * v2))
    peak = spec.max()
    if not np.isfinite(peak):
        return False, np.nan
    if peak == 0.0:
        return True, np.inf
    radial = _half_lattice(box, c1)[0]
    carrying = spec > _SUPPORT_RTOL * peak
    ok = not bool((carrying & (radial < c1)).any())
    min_radius = float(radial[carrying].min()) if carrying.any() else np.inf
    return ok, min_radius


@dataclass
class SequencePair:
    """Oscillatory family pair with complementary directional regularity.

    f(n) is uniformly H^1 along u and h(n) along ub (the negative control
    breaks this); f_inf/h_inf are the weak limits.
    """

    box: PeriodicBox
    f: Callable[[int], np.ndarray]
    h: Callable[[int], np.ndarray]
    f_inf: np.ndarray
    h_inf: np.ndarray
    expects_defect: bool = False  # True for negative controls violating the bounds


def weak_product_test(pair: SequencePair, psi: np.ndarray, n_values) -> dict:
    """Pairings of f_n h_n against psi per n, with the product-limit verdict.

    verdict: the pairing gap to int f_inf h_inf psi at the largest n is below
    tolerance and the gaps do not grow.
    """
    box = pair.box
    target = box.integrate(pair.f_inf * pair.h_inf * psi)
    pairings, gaps = [], []
    for n in n_values:
        v = box.integrate(pair.f(n) * pair.h(n) * psi)
        pairings.append(v)
        gaps.append(abs(v - target))
    converged = gaps[-1] <= 1e-3 * (1.0 + abs(target)) and gaps[-1] <= gaps[0] + 1e-12
    return {
        "n": list(n_values),
        "pairings": pairings,
        "gaps": gaps,
        "product_converges": bool(converged),
        "expects_defect": pair.expects_defect,
    }


def transverse_pair(box: PeriodicBox) -> SequencePair:
    """f_n oscillates along ub with smooth u-dependence, h_n the reverse.

    The amplitudes are not band-limited, so the product pairings decay
    through the test function's spectrum instead of vanishing identically.
    """
    u, ub = box.sparse_mesh()
    amp_f = np.exp(0.3 * np.sin(u) + 0.2 * np.cos(ub))
    amp_h = np.exp(0.25 * np.sin(ub) + 0.2 * np.cos(u))

    return SequencePair(
        box,
        lambda n: amp_f * np.sin(n * ub),
        lambda n: amp_h * np.sin(n * u),
        np.zeros(box.shape),
        np.zeros(box.shape),
    )


def resonant_pair(box: PeriodicBox) -> SequencePair:
    """Negative control: both factors oscillate along ub; sin^2 averages to 1/2."""
    ub = box.sparse_mesh()[1]
    wave = lambda n: np.broadcast_to(np.sin(n * ub), box.shape)
    return SequencePair(
        box,
        wave,
        wave,
        np.zeros(box.shape),
        np.zeros(box.shape),
        expects_defect=True,  # h is NOT ub-regular: the hypothesis the control violates
    )


def strong_weak_pair(box: PeriodicBox) -> SequencePair:
    """f fixed and smooth, h_n weakly convergent to a nonzero limit."""
    u, ub = box.sparse_mesh()
    f0 = np.exp(0.2 * np.sin(u) + 0.1 * np.cos(ub))
    h_inf = np.broadcast_to(1.0 + 0.5 * np.cos(u), box.shape)
    envelope = 1.0 + 0.2 * np.cos(ub)
    return SequencePair(
        box,
        lambda n: f0,
        lambda n: h_inf + np.sin(n * u) * envelope,
        f0,
        h_inf,
    )


PAIRS = {
    "transverse": transverse_pair,
    "resonant": resonant_pair,
    "strong-weak": strong_weak_pair,
}


def random_fields(box: PeriodicBox, rng: np.random.Generator):
    """Half-lattice spectra of two random real fields band-limited to half
    Nyquist (so products do not alias): each is Re + Im of ifftn(S), for S
    standard complex normal on |k1|, |k2| <= h, drawn as s[i, j] = S(i - h,
    j - h), and zero off it.  With S~(k) = conj S(-k), the conjugated flip of
    the draw, that spectrum is (S + S~)/2 - i (S - S~)/2, exactly Hermitian."""
    h = box.nyquist() // 2
    specs = np.zeros((2, box.shape[0], box.shape[1] // 2 + 1), complex)
    for spec in specs:
        s = rng.standard_normal((2 * h + 1,) * 2) + 1j * rng.standard_normal((2 * h + 1,) * 2)
        pos, neg = s[:, h:], s[::-1, h::-1].conj()  # S and S~ at k2 >= 0
        band = (pos + neg) * 0.5 - 1j * ((pos - neg) * 0.5)
        spec[: h + 1, : h + 1], spec[-h:, : h + 1] = band[h:], band[:h]
    return specs


def random_strict_parts(box: PeriodicBox, c1: float, rng: np.random.Generator):
    """The 'x1' strict part of one random field and the 'x2' strict part of
    another, one inverse real transform each: the pair support_check tests."""
    return [np.fft.irfftn(spec * mask, s=box.shape, axes=(0, 1))
            for spec, mask in zip(random_fields(box, rng), _half_lattice(box, c1)[1:])]
