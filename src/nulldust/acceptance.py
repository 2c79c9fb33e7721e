"""Acceptance suite: every headline check of the library at its stated
tolerance, each returning a structured verdict.

Shared by tests/test_acceptance.py (assertions) and the CLI: each
criterion's keyword-only parameters are the flags of its subcommand, with
the acceptance values as defaults, and `verify-all` runs ALL_CRITERIA at
those defaults (summary.json + exit code).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import charpipe as P
from . import compcompact as CC
from . import constraints as C
from . import gowdy
from . import hfapprox as H
from . import measurepipe as MP
from . import mollify as M
from . import planewave as pw
from . import shellmod as S
from .grids import MAX_NODES, AngularGrid, Grid1D
from .odesolve import Problem, march
from .quadrature import gauss_legendre_integrate, panel_values
from .rates import fit_rate
from .stencils import deriv1_fd4
from .testfunctions import bump_dictionary, plateau

# Tolerances, pinned once (README documents them):
TOL = {
    "fft_identity": 1e-12,
    "rate_slope": 0.9,          # acceptance fraction of a first-order rate
    "det_preservation": 1e-12,
    "weak_residual": 1e-6,
    "ricci_limit": 1e-6,
    "einstein_limit": 1e-5,
    "cone_reproduction": 1e-8,
    "jump": 1e-3,
    "pairing": 1e-3,
    "first_integral": 1e-8,
    "sin_sq_control": 1e-6,
}


@dataclass
class Verdict:
    name: str
    passed: bool
    details: dict


def _verdict(name, checks, **details):
    """checks: dict label -> bool; fails listed in details."""
    passed = all(checks.values())
    details = dict(details)
    details["checks"] = {k: bool(v) for k, v in checks.items()}
    return Verdict(name, passed, details)


def _fold(pick, values):
    """pick (max or min) of values, or their first NaN: Python's max and min
    keep a NaN only in first place, so a later NaN would pass its check."""
    values = list(values)
    nans = [v for v in values if math.isnan(v)]
    return nans[0] if nans else pick(values)


# ---------------------------------------------------------------------------
# 1. oscillation limit of the plane-wave family
# ---------------------------------------------------------------------------

def criterion_burnett(*, lambda_seq=tuple(range(2, 11)), seed="cosine") -> Verdict:
    """lambda_seq: dyadic exponents j of the members lambda = 2^-j; seed: a planewave.SEEDS key.

    Raises ValueError before the first member is built when a j is negative
    or a member's grid would pass grids.MAX_NODES.
    """
    j_max = ((MAX_NODES - 1) // 32).bit_length() - 1  # member j: 64 nodes per wavelength 2^-j on [0, 0.5]
    for j in lambda_seq:
        if j < 0:  # lambda = 2^-j > 1 is no high-frequency member, and 2.0**-j overflows at j <= -1024
            raise ValueError(f"lambda_seq j={j}: the dyadic exponents must be >= 0")
        if j > j_max:
            raise ValueError(f"lambda_seq j={j} (lambda=2^-{j}): the member grid on [0, 0.5] would take"
                             f" 2^(j+5)+1 nodes, past the ceiling of {MAX_NODES} nodes (j <= {j_max})")
    seed = pw.SEEDS[seed]
    lam_seq = [2.0**-j for j in lambda_seq]

    def family(lam):
        n = max(4097, int(np.ceil(64 * 0.5 / lam)) + 1)
        return pw.make_burnett_G(lam, seed, Grid1D(0.0, 0.5, n))

    phis = [
        lambda u: np.ones_like(u),
        lambda u: np.sin(2 * np.pi * u) + 1.2,
        lambda u: np.exp(-8.0 * (u - 0.25) ** 2),
        lambda u: u * (0.5 - u),
        lambda u: np.cos(4 * np.pi * u) + 1.5,
    ]
    slopes, gaps_last = [], []
    for phi, pairings in zip(phis, pw.weak_limit_pairings(family, phis, lam_seq)):
        # oscillation energy averages to half the squared envelope
        target = gauss_legendre_integrate(lambda u: 0.5 * seed.k(u) ** 2 * phi(u), 0.0, 0.5, 192)
        gaps = np.abs(pairings - target)
        slopes.append(fit_rate(lam_seq, gaps))
        gaps_last.append(float(gaps[-1]))

    # limit member: averaged coefficient ODE, curvature from an independent stencil
    grid = Grid1D(0.0, 0.5, 4097)
    limit = march([Problem([grid], np.zeros_like, lambda u: seed.k(u) ** 2 / 8.0, None, 1.0, 0.0)])[0]
    h0 = limit.phi
    d2 = deriv1_fd4(deriv1_fd4(h0, grid.h), grid.h)
    ric_limit = -2.0 * d2 / h0
    ric_target = 0.25 * seed.k(grid.points()) ** 2
    ric_err = float(np.abs(ric_limit - ric_target)[4:-4].max())

    # C1 convergence of the wave factor to the averaged solution
    c1_gaps = []
    for lam in lam_seq:
        prof = family(lam)
        fac = pw.solve_H(prof)
        pts = prof.grid.points()
        href = np.interp(pts, grid.points(), h0)
        vref = np.interp(pts, grid.points(), limit.dphi)
        c1_gaps.append(float(np.abs(fac.phi - href).max() + np.abs(fac.dphi - vref).max()))
    c1_slope = fit_rate(lam_seq, c1_gaps)

    checks = {
        "pairing_slopes_ge_0.9": all(s >= TOL["rate_slope"] for s in slopes),
        "limit_ricci_quarter_ksq": ric_err <= TOL["ricci_limit"],
        "wave_factor_C1_slope": c1_slope >= TOL["rate_slope"],
    }
    return _verdict(
        "burnett_limit",
        checks,
        pairing_slopes=slopes,
        final_gaps=gaps_last,
        ricci_error=ric_err,
        c1_slope=c1_slope,
        note="pairings converge to the averaged energy (1/2) int k^2 phi",
    )


# ---------------------------------------------------------------------------
# 2. concentration limit of the plane-wave family
# ---------------------------------------------------------------------------

def criterion_shell_limit(*, lambda_seq=(6, 8, 10), seed="bump") -> Verdict:
    """Energies at every lambda = 2^-j of lambda_seq; jump and pairings at the finest."""
    seed = pw.SEEDS[seed]
    lam = 2.0 ** -max(lambda_seq)
    grid = Grid1D(-0.5, 0.5, 2**17 + 1)
    prof = pw.make_shell_G(lam, seed, grid)
    fac = pw.solve_H(prof)
    loc, jump = pw.jump_detect(fac, window=4 * lam)
    jump_err = abs(jump - (-0.25))

    phis = [
        lambda u: np.ones_like(u),
        lambda u: np.cos(u) + 0.5,
        lambda u: np.exp(-4.0 * u**2),
    ]
    pairings = pw.weak_limit_pairings(lambda _: prof, phis, [lam])[:, 0].tolist()  # prof is the lam member
    pair_errs = [abs(pairing - phi(np.zeros(1))[0]) for phi, pairing in zip(phis, pairings)]

    # derivative energy is parameter independent: the pairing against phi = 1
    family = lambda lam_j: pw.make_shell_G(lam_j, seed, grid)
    energies = pw.weak_limit_pairings(family, [np.ones_like], [2.0**-j for j in lambda_seq])[0].tolist()

    checks = {
        "jump_minus_quarter": jump_err <= TOL["jump"],
        "pairing_to_point_value": _fold(max, pair_errs) <= TOL["pairing"],
        "energy_identity": _fold(max, (abs(e - 1.0) for e in energies)) <= 1e-6,
    }
    return _verdict(
        "shell_limit",
        checks,
        jump=jump,
        jump_location=loc,
        jump_error=jump_err,
        pairing_errors=pair_errs,
        energies=energies,
    )


# ---------------------------------------------------------------------------
# 3. Bessel-profile family and its two-beam limit
# ---------------------------------------------------------------------------

def criterion_gowdy(*, n_seq=(100, 316, 1000, 3162, 10000, 31623, 100000), amplitude=1.0) -> Verdict:
    """n_seq: the members of the alpha-limit gap; amplitude: the family's A."""
    # coarsest grid keeps 16 nodes per oscillation of the n = 8 member
    scan = gowdy.vacuum_residual_scan(8, amplitude, [128, 176, 240, 320])
    gaps = gowdy.alpha_limit_gap(n_seq, amplitude, 0.0)
    monotone = bool(np.all(np.diff(gaps) < 0))
    # tau = 0 pins the common value, tau = 0.5 separates the two targets
    err_tt = err_thth = off = 0.0
    for tau in (0.0, 0.5):
        lim = gowdy.limit_einstein(amplitude, tau)
        err_tt = _fold(max, (err_tt, abs(lim["G_tautau"] - lim["target_tautau"])))
        err_thth = _fold(max, (err_thth, abs(lim["G_thetatheta"] - lim["target_thetatheta"])))
        off = _fold(max, (off, lim["max_off_component"]))
    guu, gubub = gowdy.null_frame_dust_components(lim["G_tautau"], lim["G_thetatheta"], 0.5)

    checks = {
        "fd_order_ge_3.5": scan.observed_order >= 3.5,
        "alpha_gap_monotone": monotone,
        "einstein_tautau": err_tt <= TOL["einstein_limit"],
        "einstein_thetatheta": err_thth <= TOL["einstein_limit"],
        "off_components_vanish": off <= TOL["einstein_limit"],
        "two_beam_symmetry": abs(guu - gubub) < 1e-15,
    }
    return _verdict(
        "gowdy_family",
        checks,
        observed_order=scan.observed_order,
        residuals=scan.residuals,
        alpha_gaps=list(map(float, gaps)),
        einstein=lim,
        alpha_rate_recorded=fit_rate(n_seq, gaps),
    )


# ---------------------------------------------------------------------------
# 4. hypersurface constraint solver
# ---------------------------------------------------------------------------

# the flat reference metric's entries (a, b, d), the same at every angle
_FLAT_RING = (np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))

# batch maps constant on the chart: the unit lapse, and zero (its log-derivative, an off-diagonal entry)
_one = lambda ub: np.ones((len(np.atleast_1d(ub)), 1, 1))
_zero = lambda ub: np.zeros((len(np.atleast_1d(ub)), 1, 1))


def _ring_data(grid, chart, ring, dust=None):
    """ReducedCharData of unit lapse whose conformal metric is the reference ring itself."""
    return C.ReducedCharData(grid, chart, ring, _one, _zero, *C.ring_entries(ring), dust=dust)


# The glued-shell measure of criteria 4, 6 and 7, as parsed dust-spec lines
# (kind, location or level, mass profile): one atom at ub = 0.45 with the
# mass 1 + 0.5 cos(2 pi theta1 / L1).
GLUED_SHELL = (("atom", 0.45, ("cos", (1.0, 0.5))),)


def _mass_field(profile, chart):
    """The angular mass field of a parsed profile ('const', (V,)) or ('cos', (BASE, AMP)):
    (1, 1) for const, (n1, 1) for cos, which varies along theta1 only."""
    kind, values = profile
    if kind == "const":
        return np.full((1, 1), values[0])
    base, amp = values
    return base + amp * np.cos(2.0 * np.pi * chart.theta1()[:, None] / chart.L1)


def _dust_measure(lines, chart):
    """NullDustMeasure of parsed dust-spec lines: every atom, and the density
    level; a negative level or more than one density line raises ValueError."""
    atoms = [(loc, _mass_field(profile, chart)) for kind, loc, profile in lines if kind == "atom"]
    levels = [level for kind, level, _ in lines if kind == "density"]
    if len(levels) > 1:
        raise ValueError(f"more than one density line: levels {levels}")
    if levels and levels[0] < 0.0:
        raise ValueError(f"density level {levels[0]} is negative")
    density = (lambda ub, lv=levels[0]: np.full((len(ub), 1, 1), lv)) if levels else None
    return C.NullDustMeasure(atoms=atoms, density=density)


def criterion_constraints(*, dust=GLUED_SHELL) -> Verdict:
    """dust: parsed dust-spec lines of the measure whose constraint solve the weak residuals test."""
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 2001)
    data_shell = _ring_data(grid, chart, _FLAT_RING, _dust_measure(dust, chart))  # refused before the first solve

    # RK4 order against the closed-form cosine: |dgam|^2 = 8 makes Phi'' = -Phi
    def ent(ub):
        u = np.asarray(ub, float)[:, None, None]
        return np.exp(2.0 * u), _zero(ub), np.exp(-2.0 * u)

    def dent(ub):
        a, b, d = ent(ub)
        return 2.0 * a, b, -2.0 * d

    errs, hs = [], []
    for n in (51, 101, 201, 401):
        coarse = Grid1D(0.0, 1.0, n)
        data = C.ReducedCharData(coarse, chart, _FLAT_RING, _one, _zero, ent, dent)
        sol = C.solve_constraint(data, 1.0, 0.0)
        errs.append(float(np.abs(sol.phi[:, 0, 0] - np.cos(coarse.points())).max()))
        hs.append(coarse.h)
    order = fit_rate(hs, errs)

    # first integral of the autonomous dust equation
    cval = 0.8
    sol = C.solve_constraint(
        _ring_data(grid, chart, _FLAT_RING, _dust_measure((("density", cval, None),), chart)), 1.0, 0.0)
    energy = 0.5 * sol.dphi[:, 0, 0] ** 2 + 0.5 * cval * np.log(sol.phi[:, 0, 0])
    drift = float(np.abs(energy - energy[0]).max())

    # glued shell weak residual over the dictionary
    glued = C.solve_constraint(data_shell, 1.0, 0.1)
    residuals = []
    for tf in bump_dictionary(grid, chart):
        residuals.append(
            abs(C.weak_constraint_residual(data_shell, glued, tf, tf.deriv, support=tf.support))
        )

    # comparison property: larger density cannot increase the factor downstream
    sol_hi = C.solve_constraint(
        _ring_data(grid, chart, _FLAT_RING, _dust_measure((("density", 2 * cval, None),), chart)), 1.0, 0.0)
    monotone = bool(np.all(sol_hi.phi <= sol.phi + 1e-14))

    checks = {
        "rk4_order_ge_3.9": order >= 3.9,
        "first_integral_drift": drift <= TOL["first_integral"],
        "weak_residuals_below_1e-6": _fold(max, residuals) <= TOL["weak_residual"],
        "dust_comparison_monotone": monotone,
    }
    return _verdict(
        "constraint_solver",
        checks,
        rk4_order=order,
        drift=drift,
        max_weak_residual=_fold(max, residuals),
        n_test_functions=len(residuals),
    )


# ---------------------------------------------------------------------------
# 5. dust-absorbing oscillations
# ---------------------------------------------------------------------------

def criterion_absorber() -> Verdict:
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 257)
    t1, t2 = chart.mesh()

    strip = plateau((t1 - 3.4) / 0.6) * plateau((6.1 - t1) / 0.6)
    w_theta = np.clip(1.0 - strip, 0.0, None)

    # diagonal conformal entries with unit determinant; the oscillation
    # absorbs exactly 4f only with vanishing off-diagonal entry (with b != 0
    # the absorbed mean is 4f (ad - b^2)/(ad); see the unit tests)
    prof = 0.2 * np.cos(2 * np.pi * t1 / chart.L1) * np.cos(2 * np.pi * t2 / chart.L2)
    sfun = lambda ub: prof[None] * np.sin(2 * np.pi * np.asarray(ub, float))[:, None, None]
    dsfun = lambda ub: prof[None] * 2 * np.pi * np.cos(2 * np.pi * np.asarray(ub, float))[:, None, None]

    def entries(ub):
        a = np.exp(sfun(ub))
        return a, _zero(ub), 1.0 / a

    def dentries(ub):
        ds = dsfun(ub)
        a = np.exp(sfun(ub))
        return ds * a, _zero(ub), -ds / a

    f_fn = lambda ub: 1.2 * w_theta[None] * np.exp(np.sin(2 * np.pi * np.asarray(ub, float)))[:, None, None]
    df_fn = lambda ub: 1.2 * w_theta[None] * (
        2 * np.pi * np.cos(2 * np.pi * np.asarray(ub, float))
        * np.exp(np.sin(2 * np.pi * np.asarray(ub, float)))
    )[:, None, None]

    omega = lambda ub: np.exp(0.1 * np.sin(np.pi * np.asarray(ub, float)))[:, None, None]
    dlog_omega = lambda ub: 0.1 * np.pi * np.cos(np.pi * np.asarray(ub, float))[:, None, None]

    # dust factor solved numerically, then handed over as a dense callable
    data = C.ReducedCharData(
        grid, chart, _FLAT_RING, omega, dlog_omega, entries, dentries,
        dust=C.NullDustMeasure(density=f_fn),
    )
    phi_dust = C.solve_constraint(data, 1.0, 0.0)
    bg = H.DustBackground(data, f_fn, df_fn, phi_dust, phi_dust.deriv)
    rows = H.family_convergence(bg, [4, 8, 16, 32, 64, 128])
    ns = np.array([r["n"] for r in rows], float)
    inv_n = 1.0 / ns
    slope_gamma = fit_rate(inv_n, [r["gamma_gap"] for r in rows])
    slope_phi = fit_rate(inv_n, [r["phi_gap"] + r["dphi_gap"] for r in rows])
    slope_defect = fit_rate(inv_n, [r["weak_defect"] for r in rows])
    slope_control = fit_rate(inv_n, [r["defect_no_corrector"] for r in rows])
    det_worst = _fold(max, (r["det_defect"] for r in rows))
    corrector_sups = [r["corrector_sup"] for r in rows]

    checks = {
        "det_preserved_1e-12": det_worst <= TOL["det_preservation"],
        "gamma_slope": slope_gamma >= TOL["rate_slope"],
        "phi_slope": slope_phi >= TOL["rate_slope"],
        "defect_slope": slope_defect >= TOL["rate_slope"],
        "control_slope_le_0.2": slope_control <= 0.2,
        "corrector_bounded": _fold(max, corrector_sups) <= 2.0 * _fold(min, corrector_sups) + 1e-12,
    }
    return _verdict(
        "oscillation_absorber",
        checks,
        slopes={
            "gamma": slope_gamma,
            "phi": slope_phi,
            "defect": slope_defect,
            "control": slope_control,
        },
        det_worst=det_worst,
        rows=[{k: (float(v) if isinstance(v, (int, float)) else v) for k, v in r.items()} for r in rows],
    )


# ---------------------------------------------------------------------------
# 6. mollification of measure dust
# ---------------------------------------------------------------------------

def criterion_mollification() -> Verdict:
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 257)
    data = _ring_data(grid, chart, _FLAT_RING, _dust_measure(GLUED_SHELL, chart))
    tfs = bump_dictionary(grid, chart)[:3]

    ratios, l1_norms = [], []
    for m in range(1, 11):
        fm = M.MollifiedDensity(data, m)
        worst = 0.0
        for tf in tfs:
            r = M.pairing_gap(fm, tf, tf.deriv)
            worst = _fold(max, (worst, r["ratio"]))
        ratios.append(worst)
        l1_norms.append(M.l1_w_uniform_norm(fm))

    glued = C.solve_constraint(data, 1.0, 0.1)
    jump = float(np.abs(glued.deriv_jumps()[0][1]).max())
    ms = list(range(1, 8))
    sup_l2, dsup = [], []
    fms = [M.MollifiedDensity(data, m) for m in ms]
    for fm, sol in zip(fms, M.solve_phi_m_dust(fms, 1.0, 0.1)):
        stats = _phi_gap_stats(sol, glued, fm, grid)
        sup_l2.append(stats["sup"] + stats["dl2"])
        dsup.append(stats["dsup"])
    slope = fit_rate([2.0**-m for m in ms], sup_l2)

    checks = {
        "pairing_bound_ratios_bounded": _fold(max, ratios) <= 1.0,
        "pairing_ratio_stable": _fold(max, ratios[3:]) <= ratios[0] + 1e-12,
        "density_l1_uniform": _fold(max, l1_norms) <= 2.0 * _fold(min, l1_norms),
        "phi_slope_ge_0.9": slope >= TOL["rate_slope"],
        # derivative sup-gap tends to half the jump (from below): no L-infinity convergence
        "dsup_stays_at_half_jump": _fold(min, dsup) >= 0.49 * jump,
    }
    return _verdict(
        "mollification",
        checks,
        ratios=ratios,
        l1_norms=l1_norms,
        sup_plus_l2=sup_l2,
        dsup=dsup,
        half_jump=0.5 * jump,
        phi_slope=slope,
    )


def _phi_gap_stats(sol, glued, fm, grid):
    """Sup gap, derivative L2 gap and derivative sup gap of sol against the
    glued solution, with fine panels around GLUED_SHELL's atom."""
    atom = GLUED_SHELL[0][1]
    xs_out = np.linspace(grid.a, grid.b, 2001)
    sup = float(np.abs(sol(xs_out) - glued(xs_out)).max())
    eps = fm.eps
    cuts = [grid.a, max(grid.a, atom - 3 * eps), min(grid.b, atom + 3 * eps), grid.b]
    pieces = [(lo, hi, 200 if lo >= atom - 3.5 * eps and hi <= atom + 3.5 * eps else 40)
              for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    acc, dsup = 0.0, 0.0
    for wp, dgap in panel_values(lambda x: sol.deriv(x) - glued.deriv(x), pieces, 8):
        acc = acc + np.einsum("k,kij->ij", wp, dgap**2)
        dsup = _fold(max, (dsup, float(np.abs(dgap).max())))
    return {"sup": sup, "dl2": float(np.sqrt(acc).max()), "dsup": dsup}


# ---------------------------------------------------------------------------
# 7. measure -> vacuum pipeline
# ---------------------------------------------------------------------------

def criterion_pipeline(*, m_seq=tuple(range(1, 9)), k=None, dust=GLUED_SHELL) -> Verdict:
    """m_seq: mollification levels m; k: the oscillation wavenumber (None: the
    uniform selection over the first and last level); dust: parsed dust-spec
    lines, whose atoms lose an angular strip of their mass.

    Raises ValueError before the first solve when dust has no atom (the
    pipeline concentrates atoms, so its verdict would say nothing), when
    mollify.check_level refuses a level, or when k would give a level's
    member a grid past grids.MAX_NODES (measurepipe.check_member_grids).
    """
    grid = Grid1D(0.0, 1.0, 257)
    atoms = [loc for kind, loc, _ in dust if kind == "atom"]
    if not atoms:
        raise ValueError("the measure pipeline concentrates an atom: give the dust an 'atom' line")
    for m in m_seq:
        M.check_level(m, grid, atoms)
    chart = AngularGrid(8, 4)
    t1 = chart.theta1()[:, None]
    strip = plateau((t1 - 3.6) / 0.5) * plateau((5.9 - t1) / 0.5)
    measure = _dust_measure(dust, chart)
    measure.atoms = [(loc, mass * (1.0 - strip)) for loc, mass in measure.atoms]
    if k is not None:  # the member grids depend on the atoms' windows, k and n(m) alone
        probe = _ring_data(grid, chart, _FLAT_RING, measure)
        for m in m_seq:
            MP.check_member_grids(M.MollifiedDensity(probe, m), k, MP.MeasurePipeline.n_of(m))

    def pipeline(measure):
        """The measure's pipeline, with k frozen over the first and last level."""
        data = _ring_data(grid, chart, _FLAT_RING, measure)
        bv = C.solve_constraint(data, 1.0, 0.15)
        pipe = MP.MeasurePipeline(data, bv, k=k)
        pipe.freeze_k([m_seq[0], m_seq[-1]])
        return pipe

    tf = bump_dictionary(grid, chart)[1]
    pipe = pipeline(measure)
    members = pipe.members(m_seq)
    rows = MP.pipeline_weak_check(pipe, members, [tf])
    gaps = [r["gap"] for r in rows]
    slope = fit_rate([2.0 ** -r["m"] for r in rows], gaps)

    # linearity of the limiting pairing in the measure: only the last level
    # of the doubled measure is read, and a member does not depend on which
    # other members were built
    doubled = C.NullDustMeasure([(loc, 2.0 * mass) for loc, mass in measure.atoms])
    if measure.density is not None:
        doubled.density = lambda ub: 2.0 * measure.density(ub)
    pipe2 = pipeline(doubled)
    rows2 = MP.pipeline_weak_check(pipe2, pipe2.members([m_seq[-1]]), [tf])
    lim1 = rows[-1]["difference"]
    lim2 = rows2[-1]["difference"]
    # a zero pairing of the measure has no ratio to test: the check fails
    linearity = abs(lim2 / lim1 - 2.0) / 2.0 if lim1 != 0.0 else math.inf

    ub = np.linspace(grid.a, grid.b, 1001)
    min_phi = _fold(min, (float(mem.phi_vac(ub).min()) for mem in members))
    det_worst = _fold(max, (float(np.abs(mem.family.det_defect(ub)).max()) for mem in members))

    checks = {
        "weak_identity_slope": slope >= TOL["rate_slope"],
        "linearity_within_1pc": linearity <= 0.01,
        "uniform_lower_bound": min_phi > 0.0,
        "det_preserved": det_worst <= TOL["det_preservation"],
    }
    return _verdict(
        "measure_pipeline",
        checks,
        gaps=gaps,
        slope=slope,
        linearity_deviation=linearity,
        min_phi=min_phi,
        n_of_m=[mem.family.n for mem in members],
    )


# ---------------------------------------------------------------------------
# 8. trapped-surface criterion and shell weak forms
# ---------------------------------------------------------------------------

def criterion_trapped() -> Verdict:
    chart = AngularGrid(16, 8)
    t1, t2 = chart.mesh()
    rng = np.random.default_rng(20260810)

    disagreements = 0
    for _ in range(1000):
        base = rng.uniform(0.05, 3.0)
        amp = rng.uniform(0.0, base)
        mass = base + amp * np.cos(t1 + rng.uniform(0, 2 * np.pi)) * np.cos(
            t2 + rng.uniform(0, 2 * np.pi)
        )
        mass = np.clip(mass, 0.0, None)
        u_star = rng.uniform(0.05, 0.95)
        shell = S.ShellSpacetime(chart, mass, u_star)
        _, overall, margin = S.is_trapped(shell)
        analytic = mass.min() > 2.0 * (1.0 - u_star)
        if overall != analytic:
            disagreements += 1

    # marginal case: exactly at threshold is not trapped
    u_star = 0.5
    marginal = S.ShellSpacetime(chart, np.full(chart.shape, 2.0 * (1.0 - u_star)), u_star)
    _, marginal_trapped, _ = S.is_trapped(marginal)

    mass = 1.0 + 0.5 * np.cos(t1)
    shell = S.ShellSpacetime(chart, mass, 0.4, ub0=0.2)
    phi = lambda u, ub: (1.0 + 0.3 * np.sin(t1)) * np.exp(-2.0 * (ub - 0.2) ** 2) * (1.0 + 0.1 * u)
    res_weak = abs(S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35))
    res_control = abs(S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35, include_measure=False))
    pairing = S.shell_pairing(shell, phi, 0.4)
    res_prop = abs(S.dust_propagation_residual(shell, phi, 0.1, 0.35))

    checks = {
        "criterion_matches_analytic_1000": disagreements == 0,
        "marginal_not_trapped": not marginal_trapped,
        "weak_residual": res_weak <= TOL["weak_residual"],
        "propagation_residual": res_prop <= TOL["weak_residual"],
        "negative_control": res_control >= 0.5 * pairing,
    }
    return _verdict(
        "trapped_surfaces",
        checks,
        disagreements=disagreements,
        weak_residual=res_weak,
        propagation_residual=res_prop,
        control=res_control,
        pairing=pairing,
    )


# ---------------------------------------------------------------------------
# 9. directional frequency splitting
# ---------------------------------------------------------------------------

def criterion_compensated(*, grid=256, seed_value=7) -> Verdict:
    """grid: the side of the partition and trial box; seed_value: the seed of
    their random draws."""
    side_max = math.isqrt(MAX_NODES)
    if not 64 <= grid <= side_max:  # refused before the box's first field is drawn
        raise ValueError(f"grid={grid}: the box side must lie in 64..{side_max}, so that the partition's 4 C1 = 32"
                         f" stays inside its Nyquist band and the box within the ceiling of {MAX_NODES} nodes")
    box = CC.PeriodicBox((grid, grid))
    rng = np.random.default_rng(seed_value)

    f = rng.standard_normal(box.shape)
    partition = CC.partition_defect(f, CC.decompose(f, box, 8.0, "x1"))

    violations = 0
    min_radii = []
    for _ in range(100):
        ok, min_radius = CC.support_check(box, 4.0, *CC.random_strict_parts(box, 4.0, rng))
        if not ok:
            violations += 1
        min_radii.append(min_radius)

    boxp = CC.PeriodicBox((1024, 1024))
    u, ub = boxp.sparse_mesh()
    psi = lambda rows: 1.0 + 0.5 * np.cos(u[rows]) * np.cos(ub)
    n_values = [4, 8, 16, 32, 64, 128, 256]
    res_t = CC.weak_product_test(CC.transverse_pair(boxp), psi, n_values)
    gap_final = res_t["gaps"][-1]

    pair_r = CC.resonant_pair(boxp)
    mean_sin_sq = boxp.integrate_rows(lambda rows: pair_r.rows(rows).product(64)) / (2 * np.pi) ** 2
    sin_sq_err = abs(mean_sin_sq - 0.5)

    res_sw = CC.weak_product_test(CC.strong_weak_pair(boxp), psi, n_values)
    res_r = CC.weak_product_test(pair_r, psi, n_values)

    checks = {
        "partition_exact_1e-12": partition <= TOL["fft_identity"],
        "support_check_100_trials": violations == 0,
        "transverse_gap_at_256": gap_final <= TOL["pairing"],
        "sin_sq_half": sin_sq_err <= TOL["sin_sq_control"],
        "strong_weak_converges": res_sw["product_converges"],
        "resonant_defect_persists": all(map(math.isfinite, res_r["gaps"])) and not res_r["product_converges"],
    }
    return _verdict(
        "compensated_compactness",
        checks,
        partition_defect=partition,
        violations=violations,
        min_support_radius=float(np.min(min_radii)),
        transverse_final_gap=gap_final,
        sin_sq_error=sin_sq_err,
    )


# ---------------------------------------------------------------------------
# 10. characteristic transport pipeline
# ---------------------------------------------------------------------------

def _cone_data(chart, grid):
    t1 = chart.theta1()[:, None]
    # conformally flat reference whose curvature is exactly 1 on the grid
    # fiber theta1 = L1/2: K = (a omega^2 / 2) e^{...} there with a = 2/omega^2
    om = 2.0 * np.pi / chart.L1
    a = 2.0 / om**2
    c = 2.0 * a
    gfun = c + a * np.cos(om * t1)
    return _ring_data(grid, chart, tuple(x / gfun for x in _FLAT_RING))


def _cone_march(n1, n):
    """Transport march of the cone data on an n1 x 4 chart with n nodes on [0, 1/2]."""
    chart = AngularGrid(n1, 4)
    data = _cone_data(chart, Grid1D(0.0, 0.5, n))
    sol = C.solve_constraint(data, 1.0, 1.0)  # Phi = 1 + ub
    return P.solve_transport_system(data, sol, P.CornerData.zeros(chart))


def _ladder_residuals(n):
    return P.structure_residuals(_cone_march(32, n))


def _main_march_checks():
    """(trchi error, trchb error, reconstruction gap) of criterion 10's main
    march, the cone data on a 64 x 4 chart with 513 nodes; the march is
    dropped on return."""
    result = _cone_march(64, 513)
    grid = result.grid
    i_fiber = result.data.chart.n1 // 2
    ub = grid.points()
    trchb_err = float(np.abs(result.trchb[:, i_fiber, :] + 2.0 / (1.0 + ub)[:, None]).max())
    trchi_err = 0.0
    for i in (0, grid.n // 2, grid.n - 1):
        trchi_err = _fold(max, (trchi_err, float(np.abs(result.nodes.trchi[i] - 2.0 / (1.0 + ub[i])).max())))
    return trchi_err, trchb_err, P.constraint_reconstruction_gap(result)


def criterion_char_pipeline() -> Verdict:
    sizes = [65, 97, 129, 193]
    trchi_err, trchb_err, gap = _main_march_checks()
    ladder = [_ladder_residuals(n) for n in sizes]

    orders = {}
    tables = {}
    for res in ladder:
        for key, val in res.items():
            tables.setdefault(key, []).append(val)
    hs = [0.5 / (n - 1) for n in sizes]
    floor = 1e-12
    for key, vals in tables.items():
        worst = _fold(max, vals)
        if not np.isfinite(worst):  # a NaN or inf residual: no order, and the check fails
            orders[key] = np.nan
        elif worst <= floor:  # identically satisfied: no order to fit
            orders[key] = np.inf
        else:
            orders[key] = fit_rate(hs, np.maximum(vals, floor))

    checks = {
        "cone_trchi_1e-8": trchi_err <= TOL["cone_reproduction"],
        "cone_trchb_1e-8": trchb_err <= TOL["cone_reproduction"],
        "residual_order_ge_3": all(v >= 3.0 for v in orders.values() if v != np.inf),
        "constraint_reconstruction_1e-12": gap <= 1e-12,
    }
    return _verdict(
        "characteristic_pipeline",
        checks,
        trchi_error=trchi_err,
        trchb_error=trchb_err,
        residual_orders={k: (None if v == np.inf else v) for k, v in orders.items()},
        residual_tables=tables,
        reconstruction_gap=gap,
    )


ALL_CRITERIA = [
    criterion_burnett,
    criterion_shell_limit,
    criterion_gowdy,
    criterion_constraints,
    criterion_absorber,
    criterion_mollification,
    criterion_pipeline,
    criterion_trapped,
    criterion_compensated,
    criterion_char_pipeline,
]
