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

_ROW_BLOCK = 64  # rows of the box per block of PeriodicBox.row_blocks


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

    def row_blocks(self):
        """Slices of the u axis, _ROW_BLOCK rows each (the last may be shorter), in order."""
        return [slice(lo, lo + _ROW_BLOCK) for lo in range(0, self.shape[0], _ROW_BLOCK)]

    def integral(self, block_sums):
        """Integral over the box of a field from the sums of its rows over
        row_blocks(), in order, added in halves as numpy's pairwise sum adds
        the whole field's.  On a box whose sides are powers of two each block
        is a subtree of that sum, so the result equals the whole field's
        mean() (2 pi)^2 bit for bit; on other boxes the two agree to rounding.
        """
        return float(_sum_in_halves(block_sums) / (self.shape[0] * self.shape[1]) * (2.0 * np.pi) ** 2)

    def integrate_rows(self, integrand):
        """Integral over the box of the field whose rows integrand(rows)
        returns, for a slice rows of the u axis, evaluated and summed one
        row block at a time, so no temporary spans the box."""
        return self.integral([np.sum(integrand(rows)) for rows in self.row_blocks()])


def _sum_in_halves(values):
    """values[0] + values[1] + ..., added as two halves, recursively."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return _sum_in_halves(values[:half]) + _sum_in_halves(values[half:])


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
class PairRows:
    """A SequencePair on one block of rows of its box: f(n) and h(n) are
    those rows of f_n and h_n, and f_inf and h_inf broadcast to them."""

    f: Callable[[int], np.ndarray]
    h: Callable[[int], np.ndarray]
    f_inf: np.ndarray | float
    h_inf: np.ndarray | float

    def product(self, n):
        """f_n h_n on these rows."""
        return self.f(n) * self.h(n)


@dataclass
class SequencePair:
    """Oscillatory family pair with complementary directional regularity.

    f(n) is uniformly H^1 along u and h(n) along ub (the negative control
    breaks this); f_inf/h_inf are the weak limits.  rows(r) is the pair on
    the slice r of the u axis, its amplitudes and limits evaluated on those
    rows alone, once for every n.
    """

    box: PeriodicBox
    rows: Callable[[slice], PairRows]


def weak_product_test(pair: SequencePair, psi: Callable[[slice], np.ndarray], n_values) -> dict:
    """Pairings of f_n h_n against psi per n, with the product-limit verdict.

    psi(rows) is the test function on the slice rows of the u axis.  The box
    is walked once, one row block at a time: on each block psi and the pair
    (its amplitudes and limits) are evaluated once, and the block's integrand
    is summed for the limit and for every n.  Each integral adds its block
    sums as PeriodicBox.integral does, so no array spans the box.

    verdict: the pairing gap to int f_inf h_inf psi at the largest n is below
    tolerance and the gaps do not grow.
    """
    box = pair.box
    sums = []  # per block: the limit's sum, then one per n
    for rows in box.row_blocks():
        block, p = pair.rows(rows), psi(rows)
        sums.append([np.sum(block.f_inf * block.h_inf * p)] + [np.sum(block.product(n) * p) for n in n_values])
    target, *pairings = (box.integral(col) for col in zip(*sums))
    gaps = [abs(v - target) for v in pairings]
    converged = gaps[-1] <= 1e-3 * (1.0 + abs(target)) and gaps[-1] <= gaps[0] + 1e-12
    return {
        "pairings": pairings,
        "gaps": gaps,
        "product_converges": bool(converged),
    }


def transverse_pair(box: PeriodicBox) -> SequencePair:
    """f_n oscillates along ub with smooth u-dependence, h_n the reverse;
    both weak limits vanish.

    The amplitudes are not band-limited, so the product pairings decay
    through the test function's spectrum instead of vanishing identically.
    """
    u, ub = box.sparse_mesh()

    def rows(r):
        amp_f = np.exp(0.3 * np.sin(u[r]) + 0.2 * np.cos(ub))
        amp_h = np.exp(0.25 * np.sin(ub) + 0.2 * np.cos(u[r]))
        return PairRows(lambda n: amp_f * np.sin(n * ub), lambda n: amp_h * np.sin(n * u[r]), 0.0, 0.0)

    return SequencePair(box, rows)


def resonant_pair(box: PeriodicBox) -> SequencePair:
    """Negative control: both factors oscillate along ub; sin^2 averages to 1/2."""
    ub = box.sparse_mesh()[1]

    def rows(r):
        wave = lambda n: np.broadcast_to(np.sin(n * ub), box.shape)[r]
        return PairRows(wave, wave, 0.0, 0.0)

    return SequencePair(box, rows)  # h is NOT ub-regular: the hypothesis the control violates


def strong_weak_pair(box: PeriodicBox) -> SequencePair:
    """f fixed and smooth, h_n weakly convergent to a nonzero limit."""
    u, ub = box.sparse_mesh()
    envelope = 1.0 + 0.2 * np.cos(ub)

    def rows(r):
        f0 = np.exp(0.2 * np.sin(u[r]) + 0.1 * np.cos(ub))
        h_inf = 1.0 + 0.5 * np.cos(u[r])
        return PairRows(lambda n: f0, lambda n: h_inf + np.sin(n * u[r]) * envelope, f0, h_inf)

    return SequencePair(box, rows)


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
    another, one inverse real transform each: the pair support_check tests.

    The pass masks leave these trials little to vary.  The 'x1' mask is
    nonzero only where 100 C1 |k2| < 2 |k1|, and the 'x2' mask likewise,
    while the draws reach only |k| <= n / 4 along each axis (random_fields).
    On a box whose sides are at most 200 C1 (C1 = 4 on a 256^2 box, as
    criterion 9 draws by default) that leaves k2 = 0 alone in 'x1' parts,
    and k1 = 0 alone in 'x2' parts.  Each 'x1' part is then a function of u
    alone and each 'x2' part of ub alone, so their product is a tensor
    product whose spectrum sits at |k1|, |k2| > 2 C1: its smallest support
    radius is fixed by the masks (9 sqrt(2) there), and no draw can put mass
    below C1.
    """
    return [np.fft.irfftn(spec * mask, s=box.shape, axes=(0, 1))
            for spec, mask in zip(random_fields(box, rng), _half_lattice(box, c1)[1:])]
