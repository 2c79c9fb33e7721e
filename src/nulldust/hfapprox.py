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

The conformal metrics travel as batched entries: the dust metric is the
ReducedCharData a DustBackground holds, and each family member maps
ub(K,) -> (a_n, b, d_n) and their derivatives, each (K, n1, n2), so norms,
determinants and eigenvalues are computed entrywise over whole batches.
OscillatoryFamily.jet(ub) returns both, ((a_n, b, d_n), (a_n', b', d_n')),
from one evaluation of each background map (the dust entries and their
derivatives, f, f', Phi, Phi'); the norm-square |dgamma_n|^2 reads it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constraints import ReducedCharData, dgamma_norm_sq
from .errors import NumericalFailure
from .fields import sym2_min_eigenvalue
from .grids import Grid1D
from .odesolve import DenseSolution, solve_linear_second_order

_MAX_DOUBLINGS = 20  # wavenumber escalation steps before giving up
# Points per corrector_jet envelope batch.  With its four stencil offsets a block
# is 5,120 points, no more than family_convergence evaluates elsewhere in one
# call, so batching the offsets does not raise the peak memory (4,096 per block
# raised the peak RSS of criterion_absorber from 146 to 181 MB).
_STENCIL_BLOCK = 1024


class PositivityEscalationError(NumericalFailure):
    """No oscillation wavenumber in 20 doublings keeps the metric positive."""


def _member_entries(a, b, d, det, s):
    """Entries (a_n, b, d_n) of gamma_n from the dust entries, their
    determinant and the phase factor s."""
    e11 = a + det / d * s
    return e11, b, d - det * s / e11


@dataclass
class DustBackground:
    """Smooth dust data on a hypersurface.

    data carries the chart, the grid, the lapse and the dust conformal metric
    as batched entries (a, b, d) with their ub-derivatives; f/df (the density
    and its derivative) and phi/dphi (the dust conformal factor and its
    derivative) are batch maps ub(K,) -> (K, n1, n2).
    """

    data: ReducedCharData
    f: Callable
    df: Callable
    phi: Callable
    dphi: Callable

    def root_f_over_phi(self, ub_batch):
        return np.sqrt(np.maximum(self.f(ub_batch), 0.0)) / self.phi(ub_batch)


@dataclass
class OscillatoryFamily:
    """One member gamma_n of the absorbing family, with fast batched entry maps."""

    background: DustBackground
    k: float
    n: int

    def entries(self, ub_batch):
        kn = self.k * self.n
        a, b, d = self.background.data.entries(ub_batch)
        amp = 2.0 * self.background.root_f_over_phi(ub_batch) / kn
        s = amp * np.sin(kn * np.asarray(ub_batch, float))[:, None, None]
        return _member_entries(a, b, d, a * d - b * b, s)

    def jet(self, ub_batch):
        """(entries, dentries) of gamma_n, calling each background map once."""
        kn = self.k * self.n
        ub = np.asarray(ub_batch, float)
        bg = self.background
        a, b, d = bg.data.entries(ub_batch)
        da, db, dd = bg.data.dentries(ub_batch)
        f = np.maximum(bg.f(ub_batch), 0.0)
        df = bg.df(ub_batch)
        phi = bg.phi(ub_batch)
        dphi = bg.dphi(ub_batch)
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
        det = a * d - b * b
        ddet = da * d + a * dd - 2.0 * b * db
        e11, _, e22 = _member_entries(a, b, d, det, s)
        de11 = da + (ddet / d - det * dd / (d * d)) * s + det / d * ds
        de22 = dd - (ddet * s + det * ds) / e11 + det * s * de11 / (e11 * e11)
        return (e11, b, e22), (de11, db, de22)

    def dgamma_normsq(self, ub_batch):
        return dgamma_norm_sq(*self.jet(ub_batch))

    def det_defect(self, ub_batch):
        """det gamma_n - det gamma_dust (zero by algebraic cancellation)."""
        e11, e12, e22 = self.entries(ub_batch)
        a, b, d = self.background.data.entries(ub_batch)
        return e11 * e22 - e12 * e12 - (a * d - b * b)

    def min_eigenvalue_envelope(self, ub_batch):
        """Lower bound over the oscillation phase: evaluate at both amplitude
        extremes (the entries are monotone in the phase factor)."""
        bg = self.background
        a, b, d = bg.data.entries(ub_batch)
        det = a * d - b * b
        amp = 2.0 * bg.root_f_over_phi(ub_batch) / (self.k * self.n)
        worst = None
        for sign in (1.0, -1.0):
            eig = sym2_min_eigenvalue(*_member_entries(a, b, d, det, sign * amp))
            worst = eig if worst is None else np.minimum(worst, eig)
        return worst

    def _envelopes(self, ub_batch):
        """Amplitudes of the corrector's sin(2 k n ub) and sin(k n ub) terms."""
        bg = self.background
        a, b, d = bg.data.entries(ub_batch)
        da, _, dd = bg.data.dentries(ub_batch)
        det = a * d - b * b
        f = np.maximum(bg.f(ub_batch), 0.0)
        phi = bg.phi(ub_batch)
        return 2.0 * f / self.k, (4.0 / (self.k * det)) * (d * da - a * dd) * np.sqrt(f) * phi

    def corrector_jet(self, ub_batch):
        """(F_n, dF_n/dub): F_n is bounded uniformly in n; its derivative is
        exact in the fast phase, with envelope derivatives by stencil.

        Each block of at most _STENCIL_BLOCK points is evaluated together with
        its four stencil offsets in one _envelopes call, whose first fifth
        (the block points) gives F_n.
        """
        ub = np.asarray(ub_batch, float)
        kn = self.k * self.n
        h = max(self.background.data.grid.h, 1e-6)
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        offs = np.array([-2.0 * h, -h, h, 2.0 * h])
        values, derivs = [], []
        for u in np.split(ub, range(_STENCIL_BLOCK, len(ub), _STENCIL_BLOCK)):
            (e1, *v1s), (e2, *v2s) = (
                np.split(e, 5) for e in self._envelopes(np.concatenate([u] + [u + o for o in offs]))
            )
            de1 = np.zeros_like(e1)
            de2 = np.zeros_like(e2)
            for c, v1, v2 in zip(stencil, v1s, v2s):
                de1 += c * v1
                de2 += c * v2
            s1, c1 = np.sin(kn * u)[:, None, None], np.cos(kn * u)[:, None, None]
            s2, c2 = np.sin(2.0 * kn * u)[:, None, None], np.cos(2.0 * kn * u)[:, None, None]
            values.append(e1 * s2 + e2 * s1)
            derivs.append(de1 * s2 + 2.0 * kn * e1 * c2 + de2 * s1 + kn * e2 * c1)
        return np.concatenate(values), np.concatenate(derivs)

    def resolving_grid(self, per_wavelength: int) -> Grid1D:
        wavelength = 2.0 * np.pi / (self.k * self.n)
        grid = self.background.data.grid
        n = max(grid.n, int(np.ceil((grid.b - grid.a) / wavelength * per_wavelength)) + 1)
        return Grid1D(grid.a, grid.b, n)


def _double_until(k: float, admissible, message: str) -> float:
    """The first of k, 2k, 4k, ... (at most _MAX_DOUBLINGS) that is admissible."""
    for _ in range(_MAX_DOUBLINGS):
        if admissible(k):
            return k
        k *= 2.0
    raise PositivityEscalationError(message)


def select_k(background: DustBackground) -> float:
    """Smallest admissible oscillation wavenumber: start from the sup-based
    seed and double until the n = 1 member keeps half the background's
    eigenvalue margin (n = 1 has the largest oscillation amplitude)."""
    ub = np.linspace(background.data.grid.a, background.data.grid.b, 4096)
    sup_rf = float(background.root_f_over_phi(ub).max())
    min_eig = float(sym2_min_eigenvalue(*background.data.entries(ub)).min())

    def admissible(k):
        fam = OscillatoryFamily(background, k, 1)
        grid = fam.resolving_grid(per_wavelength=32)
        probe = np.linspace(grid.a, grid.b, min(grid.n, 1 << 18))
        return float(sym2_min_eigenvalue(*fam.entries(probe)).min()) >= 0.5 * min_eig

    return _double_until(8.0 * (sup_rf + 1.0) / min_eig, admissible,
                         f"no positive-definite oscillation found after {_MAX_DOUBLINGS} doublings")


def solve_phi_n(fam: OscillatoryFamily) -> DenseSolution:
    """Vacuum constraint solve with the oscillatory shear, matching the dust
    solution's initial value and slope (16 steps per wavelength)."""
    bg = fam.background
    grid = fam.resolving_grid(16)
    ub0 = np.array([grid.a])
    phi0 = bg.phi(ub0)[0]
    dphi0 = bg.dphi(ub0)[0]
    return solve_linear_second_order(
        grid,
        bg.data.dlog_omega,
        lambda ub: 0.125 * fam.dgamma_normsq(ub),
        None,
        phi0,
        dphi0,
    )


def family_convergence(background: DustBackground, n_values):
    """Sup-norm tables for gamma_n -> gamma_dust, Phi_n -> Phi_dust, the weak
    defect, and its corrector-free negative control, per n."""
    k = select_k(background)
    rows = []
    for n in n_values:
        fam = OscillatoryFamily(background, k, n)
        grid = fam.resolving_grid(16)
        ub = np.linspace(grid.a, grid.b, max(4096, grid.n))
        (ea, eb, ed), dentries = fam.jet(ub)
        ba, bb, bd = background.data.entries(ub)
        gap_gamma = max(
            float(np.abs(ea - ba).max()),
            float(np.abs(eb - bb).max()),
            float(np.abs(ed - bd).max()),
        )
        normsq = dgamma_norm_sq((ea, eb, ed), dentries)
        del dentries
        # [|dgamma_n|^2 - |dgamma|^2] Phi^2 - 4 f: the weak defect before the
        # corrector term, and the corrector-free negative control itself
        base = normsq - dgamma_norm_sq((ba, bb, bd), background.data.dentries(ub))
        base *= background.phi(ub) ** 2
        base -= 4.0 * np.maximum(background.f(ub), 0.0)
        no_corr = float(np.abs(base).max())
        corr, dcorr = fam.corrector_jet(ub)
        defect = float(np.abs(base - dcorr / n).max())
        fn_sup = float(np.abs(corr).max())
        del corr, dcorr
        det_defect = float(np.abs(ea * ed - eb * eb - (ba * bd - bb * bb)).max())
        sol = solve_phi_n(fam)
        nodes = sol.grid.points()
        gap_phi = float(np.abs(sol.phi - background.phi(nodes)).max())
        gap_dphi = float(np.abs(sol.dphi - background.dphi(nodes)).max())
        rows.append(
            {
                "n": n,
                "k": k,
                "gamma_gap": gap_gamma,
                "phi_gap": gap_phi,
                "dphi_gap": gap_dphi,
                "weak_defect": defect,
                "defect_no_corrector": no_corr,
                "det_defect": det_defect,
                "corrector_sup": fn_sup,
            }
        )
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
    demand = 0.0
    for (bg, n), probe in zip(backgrounds_and_ns, probes):
        demand = max(demand, float(bg.root_f_over_phi(probe).max()) / n)
    k = max(1.0, 4.0 * 8.0 * (demand + 1.0 / backgrounds_and_ns[0][1]) / min_eig)

    def admissible(k):
        return all(float(OscillatoryFamily(bg, k, n).min_eigenvalue_envelope(probe).min()) >= 0.5 * min_eig
                   for (bg, n), probe in zip(backgrounds_and_ns, probes))

    return _double_until(k, admissible, "no uniform wavenumber keeps positivity across the run")
