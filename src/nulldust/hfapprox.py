"""Determinant-preserving metric oscillations that absorb null dust.

Given smooth dust data (conformal metric entries (a, b, d), density f >= 0
vanishing on an angular strip, dust conformal factor Phi), the family

    gamma_n = [[ a + (D/d) s,                 b ],
               [ b,            d - D s / (a + (D/d) s) ]],
    s(ub) = (2 sqrt(f) / Phi) sin(k n ub) / (k n),   D = a d - b^2,

has determinant exactly D for every n, converges to the dust metric at rate
1/n, and its derivative energy absorbs the dust:

    [ |dgamma_n|^2_n - |dgamma|^2 ] Phi^2 - 4 f - (1/n) dF_n/dub = O(1/n)

with the bounded corrector
    F_n = (2 f / k) sin(2 k n ub)
          + (4 / (k D)) (d a' - a d') sqrt(f) Phi sin(k n ub).

Solving the vacuum constraint with |dgamma_n|^2 then reproduces the dust
conformal factor to O(1/n) together with its first derivative.

The conformal metrics travel as batched jets: the dust metric is the
ReducedCharData a DustBackground holds, and each family member maps
ub(K,) -> ((a_n, b, d_n), (a_n', b', d_n')), its entries and their
derivatives, each shaped as an angular batch map's output (ReducedCharData),
so norms, determinants and eigenvalues are computed entrywise over whole
batches.  OscillatoryFamily.jet(ub) builds it from DustBackground.jet(ub),
one call of each background map (the dust metric's jet, f, f', Phi, Phi');
the norm-square |dgamma_n|^2 reads it, one block of _STENCIL_BLOCK points at
a time, so a vacuum march's coefficient batch never holds more than one
block's jet.
family_convergence marches the members' vacuum solves in lockstep, each
folding its Phi gaps chunk by chunk as the march closes them, so no member
solution is ever held.  It then walks each distinct row lattice once, in
blocks of _STENCIL_BLOCK points.  Each block evaluates the background once,
the control |dgamma|^2 Phi^2 and 4 f once, and the envelopes at each of its
four stencil offsets in turn; each member on the lattice then adds its phase
terms and folds the block's sup-norms into its row.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .constraints import ReducedCharData, constraint_problem, dgamma_norm_sq
from .errors import NonFiniteError, NumericalFailure
from .fields import sym2_det, sym2_min_eigenvalue
from .grids import Grid1D
from .odesolve import march

_MAX_DOUBLINGS = 20  # wavenumber escalation steps before giving up
# Points per block of family_convergence's lattice walk, of a lone
# corrector_jet and of dgamma_normsq.  In the walk a block's envelope batches
# are its four stencil offsets, one at a time, 1,024 points each, since the
# block points' own envelopes come from the block's background evaluation (the
# envelopes are elementwise in ub, so the batching moves no bit); a lone corrector_jet
# evaluates the block and its offsets together, 5,120 points.  dgamma_normsq
# evaluates the jet of one block at a time, so a batch of the vacuum march
# (1,025 points in criterion 5, up to five blocks in criterion 7) holds one
# block's temporaries, not the batch's.  No member holds a whole row of entries.
_STENCIL_BLOCK = 1024


class PositivityEscalationError(NumericalFailure):
    """No oscillation wavenumber in 20 doublings keeps the metric positive."""


def _member_entries(a, b, d, det, s):
    """Entries (a_n, b, d_n) of gamma_n from the dust entries, their
    determinant and the phase factor s."""
    e11 = a + det / d * s
    return e11, b, d - det * s / e11


def _amplitudes(k, entries, dentries, f, phi):
    """Amplitudes of the corrector's sin(2 k n ub) and sin(k n ub) terms from
    the dust entries, their derivatives, f (clipped at zero) and Phi."""
    (a, b, d), (da, _, dd) = entries, dentries
    return 2.0 * f / k, (4.0 / (k * sym2_det(a, b, d))) * (d * da - a * dd) * np.sqrt(f) * phi


def _envelopes(background, k, ub_batch):
    """The two corrector amplitudes of _amplitudes at ub_batch; they depend on
    the family's k, not on its n."""
    return _amplitudes(k, *background.data.jet(ub_batch), np.maximum(background.f(ub_batch), 0.0),
                       background.phi(ub_batch))


def _stencil(grid: Grid1D):
    """Weights and offsets of the 4-point stencil of the envelope derivatives."""
    h = max(grid.h, 1e-6)
    return np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h), np.array([-2.0 * h, -h, h, 2.0 * h])


def _blocks(ub):
    """ub cut into consecutive blocks of at most _STENCIL_BLOCK points."""
    return np.split(ub, range(_STENCIL_BLOCK, len(ub), _STENCIL_BLOCK))


@dataclass
class DustBackground:
    """Smooth dust data on a hypersurface.

    data carries the chart, the grid, the lapse and the dust conformal metric
    as its batched jet, the entries (a, b, d) with their ub-derivatives;
    f/df (the density and its derivative) and phi/dphi (the dust conformal
    factor and its derivative) are angular batch maps (ReducedCharData):
    each axis past the batch axis of size 1 or that of the chart.
    """

    data: ReducedCharData
    f: Callable
    df: Callable
    phi: Callable
    dphi: Callable

    def jet(self, ub_batch):
        """(entries, dentries, f, f', Phi, Phi') at ub_batch, each map called
        once; f is clipped at zero, as every reader takes it."""
        return (*self.data.jet(ub_batch), np.maximum(self.f(ub_batch), 0.0), self.df(ub_batch),
                self.phi(ub_batch), self.dphi(ub_batch))

    def root_f_over_phi(self, ub_batch):
        return np.sqrt(np.maximum(self.f(ub_batch), 0.0)) / self.phi(ub_batch)


@dataclass
class OscillatoryFamily:
    """One member gamma_n of the absorbing family, with a fast batched jet."""

    background: DustBackground
    k: float
    n: int

    def jet(self, ub_batch, maps=None):
        """(entries, dentries) of gamma_n from one background evaluation:
        maps, the background's jet at ub_batch when the caller has it."""
        kn = self.k * self.n
        ub = np.asarray(ub_batch, float)
        (a, b, d), (da, db, dd), f, df, phi, dphi = self.background.jet(ub_batch) if maps is None else maps
        rf = np.sqrt(f) / phi
        sin, cos = np.sin(kn * ub)[:, None, None], np.cos(kn * ub)[:, None, None]
        # d/dub (2 sqrt(f)/Phi): safe where f > 0, zero on the support edge
        with np.errstate(divide="ignore", invalid="ignore"):
            drf = np.where(f > 1e-300, df / np.sqrt(f) / phi, 0.0) - 2.0 * rf * dphi / phi
        s = 2.0 * rf / kn * sin
        # known defect: with drf as above the exact envelope term is
        # (drf / kn) sin; the doubled one is kept until the acceptance
        # reference values are regenerated with the fix (ROADMAP)
        ds = 2.0 * rf * cos + (2.0 * drf / kn) * sin
        det = sym2_det(a, b, d)
        ddet = da * d + a * dd - 2.0 * b * db
        e11, _, e22 = _member_entries(a, b, d, det, s)
        de11 = da + (ddet / d - det * dd / (d * d)) * s + det / d * ds
        de22 = dd - (ddet * s + det * ds) / e11 + det * s * de11 / (e11 * e11)
        return (e11, b, e22), (de11, db, de22)

    def dgamma_normsq(self, ub_batch):
        """|dgamma_n|^2 at ub_batch, one block of at most _STENCIL_BLOCK points
        at a time: each block's jet and norm-square are elementwise in ub, so
        the concatenated blocks equal one evaluation of the whole batch."""
        blocks = _blocks(np.asarray(ub_batch, float))
        if len(blocks) == 1:
            return dgamma_norm_sq(*self.jet(ub_batch))
        return np.concatenate([dgamma_norm_sq(*self.jet(u)) for u in blocks])

    def det_defect(self, ub_batch):
        """det gamma_n - det gamma_dust (zero by algebraic cancellation)."""
        maps = self.background.jet(ub_batch)
        return sym2_det(*self.jet(ub_batch, maps)[0]) - sym2_det(*maps[0])

    def min_eigenvalue_envelope(self, ub_batch):
        """Lower bound over the oscillation phase: evaluate at both amplitude
        extremes (the entries are monotone in the phase factor)."""
        bg = self.background
        a, b, d = bg.data.jet(ub_batch)[0]
        det = sym2_det(a, b, d)
        amp = 2.0 * bg.root_f_over_phi(ub_batch) / (self.k * self.n)
        return np.minimum(*(sym2_min_eigenvalue(*_member_entries(a, b, d, det, sign * amp)) for sign in (1.0, -1.0)))

    def corrector_jet(self, ub_batch, envelopes=None):
        """(F_n, dF_n/dub): F_n is bounded uniformly in n; its derivative is
        exact in the fast phase, with envelope derivatives by stencil.

        envelopes are the two amplitudes, each at ub_batch and at its four
        stencil offsets (five arrays per amplitude); family_convergence shares
        them across the members on a block.  Without them, each block of at
        most _STENCIL_BLOCK points is evaluated together with its four offsets
        in one _envelopes call.
        """
        ub = np.asarray(ub_batch, float)
        stencil, offs = _stencil(self.background.data.grid)
        if envelopes is None:
            jets = []
            for u in _blocks(ub):
                batch = _envelopes(self.background, self.k, np.concatenate([u] + [u + o for o in offs]))
                jets.append(self.corrector_jet(u, [np.split(e, 5) for e in batch]))
            return tuple(np.concatenate(parts) for parts in zip(*jets))
        kn = self.k * self.n
        (e1, *v1s), (e2, *v2s) = envelopes
        de1 = np.zeros_like(e1)
        de2 = np.zeros_like(e2)
        for c, v1, v2 in zip(stencil, v1s, v2s):
            de1 += c * v1
            de2 += c * v2
        s1, c1 = np.sin(kn * ub)[:, None, None], np.cos(kn * ub)[:, None, None]
        s2, c2 = np.sin(2.0 * kn * ub)[:, None, None], np.cos(2.0 * kn * ub)[:, None, None]
        return e1 * s2 + e2 * s1, de1 * s2 + 2.0 * kn * e1 * c2 + de2 * s1 + kn * e2 * c1

    def resolving_grid(self) -> Grid1D:
        """The dust grid, refined to at least 16 steps per oscillation wavelength."""
        wavelength = 2.0 * np.pi / (self.k * self.n)
        grid = self.background.data.grid
        n = max(grid.n, int(np.ceil((grid.b - grid.a) / wavelength * 16)) + 1)
        return Grid1D(grid.a, grid.b, n)

    def vacuum_problem(self):
        """The vacuum constraint with the oscillatory shear on the resolving
        grid, from the dust solution's initial value and slope."""
        grid = self.resolving_grid()
        ub0 = np.array([grid.a])
        bg = self.background
        return constraint_problem(bg.data, [grid], self.dgamma_normsq, None, bg.phi(ub0)[0], bg.dphi(ub0)[0])


def _double_until(k: float, members, probes, min_eig: float, message: str) -> float:
    """The first of k, 2k, 4k, ... (at most _MAX_DOUBLINGS) at which every
    (background, n) member keeps half the eigenvalue margin min_eig on its
    probe points, by the phase-envelope bound min_eigenvalue_envelope.

    The bound holds at every phase, so the probes need to resolve the
    backgrounds only, not the oscillation.  A NaN or inf k, which a NaN in the
    background data gives, raises at once.
    """
    if not np.isfinite(k):
        raise NonFiniteError(f"oscillation wavenumber seed is {k}: the background data is not finite")
    for _ in range(_MAX_DOUBLINGS):
        if all(float(OscillatoryFamily(bg, k, n).min_eigenvalue_envelope(probe).min()) >= 0.5 * min_eig
               for (bg, n), probe in zip(members, probes)):
            return k
        k *= 2.0
    raise PositivityEscalationError(message)


def select_k(background: DustBackground) -> float:
    """Smallest admissible oscillation wavenumber: start from the sup-based
    seed and double until the n = 1 member (the largest oscillation
    amplitude) keeps half the background's eigenvalue margin on the dust
    grid's nodes."""
    ub = np.linspace(background.data.grid.a, background.data.grid.b, 4096)
    sup_rf = float(background.root_f_over_phi(ub).max())
    min_eig = float(sym2_min_eigenvalue(*background.data.jet(ub)[0]).min())
    return _double_until(8.0 * (sup_rf + 1.0) / min_eig, [(background, 1)], [background.data.grid.points()],
                         min_eig, f"no positive-definite oscillation found after {_MAX_DOUBLINGS} doublings")


class _PhiGaps:
    """Consumer of a member's vacuum node rows (odesolve.Problem): the sup
    gaps of Phi and Phi' to the dust ones, folded chunk by chunk with
    np.maximum, which keeps a NaN.  The dust is evaluated on
    grid.points()[rows], the nodes a DenseSolution of the member has."""

    def __init__(self, background, problem):
        self.background, self.grids, self.gaps = background, problem.grids, [-np.inf, -np.inf]

    def take(self, seg, rows, phi, dphi, ddphi):
        nodes = self.grids[seg].points()[rows]
        for i, (values, dust) in enumerate(((phi, self.background.phi), (dphi, self.background.dphi))):
            self.gaps[i] = np.maximum(self.gaps[i], np.abs(values - dust(nodes)).max())

    def result(self):
        return float(self.gaps[0]), float(self.gaps[1])


def family_convergence(background: DustBackground, n_values):
    """Sup-norm tables for gamma_n -> gamma_dust, Phi_n -> Phi_dust, the weak
    defect, and its corrector-free negative control, per n.

    The members' vacuum solves march together, and each folds its Phi gaps
    as the march closes its chunks (_PhiGaps), so no member solution is ever
    held.  A member's row lattice is linspace(a, b, max(4096, n_grid)) of its
    resolving grid; the members on one lattice walk it together, and each
    block evaluates the envelopes one stencil offset at a time (module
    docstring).
    """
    k = select_k(background)
    families = [OscillatoryFamily(background, k, n) for n in n_values]
    fold = partial(_PhiGaps, background)
    phi_gaps = march([replace(fam.vacuum_problem(), consumer=fold) for fam in families])
    rows = [{"n": n, "k": k, "gamma_gap": -np.inf, "phi_gap": gap_phi, "dphi_gap": gap_dphi,
             "weak_defect": -np.inf, "defect_no_corrector": -np.inf, "det_defect": -np.inf,
             "corrector_sup": -np.inf}
            for n, (gap_phi, gap_dphi) in zip(n_values, phi_gaps)]
    lattices = {}
    for fam, row in zip(families, rows):
        grid = fam.resolving_grid()
        lattices.setdefault((grid.a, grid.b, max(4096, grid.n)), []).append((fam, row))
    offs = _stencil(background.data.grid)[1]
    for (a, b, points), members in lattices.items():
        for u in _blocks(np.linspace(a, b, points)):
            maps = background.jet(u)
            dust, dentries, f, _, phi, _ = maps
            ba, bb, bd = dust
            dust_det = sym2_det(ba, bb, bd)
            # the dust's |dgamma|^2, Phi^2 and 4 f, which every member's defect shares
            control = dgamma_norm_sq(dust, dentries)
            phi2, four_f = phi**2, 4.0 * f
            at_offsets = zip(*(_envelopes(background, k, u + o) for o in offs))
            envelopes = [[e, *v] for e, v in zip(_amplitudes(k, dust, dentries, f, phi), at_offsets)]
            for fam, row in members:
                (ea, eb, ed), dmember = fam.jet(u, maps)
                # [|dgamma_n|^2 - |dgamma|^2] Phi^2 - 4 f: the weak defect before the
                # corrector term, and the corrector-free negative control itself
                base = dgamma_norm_sq((ea, eb, ed), dmember) - control
                base *= phi2
                base -= four_f
                corr, dcorr = fam.corrector_jet(u, envelopes)
                block = {
                    "gamma_gap": np.max([np.abs(ea - ba).max(), np.abs(eb - bb).max(), np.abs(ed - bd).max()]),
                    "weak_defect": np.abs(base - dcorr / fam.n).max(),
                    "defect_no_corrector": np.abs(base).max(),
                    "det_defect": np.abs(sym2_det(ea, eb, ed) - dust_det).max(),
                    "corrector_sup": np.abs(corr).max(),
                }
                for key, sup in block.items():
                    row[key] = float(np.maximum(row[key], sup))  # keeps a NaN, which max would drop
    return rows


# ---------------------------------------------------------------------------
# measure -> smooth dust -> vacuum composition
# ---------------------------------------------------------------------------

def select_k_uniform(backgrounds_and_ns, min_eig: float, probes) -> float:
    """One oscillation wavenumber serving a whole dyadic run.

    The oscillation amplitude of member (k, n) is 2 sup(sqrt(f)/Phi)/(k n);
    start from four times the largest amplitude demand across the run and
    double until every member keeps half the background eigenvalue margin
    (checked through the phase-envelope eigenvalue bound on its probe points).
    """
    # np.max, not max: a NaN demand or min_eig must reach _double_until
    demand = float(np.max([0.0] + [float(bg.root_f_over_phi(probe).max()) / n
                                   for (bg, n), probe in zip(backgrounds_and_ns, probes)]))
    k = float(np.maximum(1.0, 4.0 * 8.0 * (demand + 1.0 / backgrounds_and_ns[0][1]) / min_eig))
    return _double_until(k, backgrounds_and_ns, probes, min_eig,
                         "no uniform wavenumber keeps positivity across the run")
