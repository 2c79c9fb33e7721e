"""Command-line orchestration: experiment subcommands, run directories,
convergence tables, and a reproducibility manifest.

Every run writes manifest.json (resolved config, library versions, wall
time), per-experiment CSV tables (RFC-4180), and a summary.json with the
pass/fail verdicts of the checks the run performed.  Exit codes: 0 all checks
pass, 1 a numerical acceptance check failed or a NumericalFailure stopped the
run (summary.json then carries an ``error`` field), 2 usage error.

Default tolerances (see acceptance.TOL): per-step ODE tolerance class 1e-10,
quadrature 1e-9, FFT identities 1e-12, rate-slope acceptance 0.9 of the
first-order rate.
"""

import argparse
import csv
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__, acceptance
from . import compcompact as CC
from . import constraints as C
from . import gowdy
from . import planewave as pw
from . import shellmod as S
from .acceptance import TOL
from .errors import NumericalFailure
from .grids import AngularGrid, Grid1D
from .quadrature import gauss_legendre_integrate
from .rates import fit_rate
from .testfunctions import bump_dictionary


def _out_root(args):
    root = args.out or os.environ.get("NULLDUST_OUT", "runs")
    path = os.path.join(root, args.command)
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path, header, rows, plot_data=False):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    if plot_data:
        with open(os.path.splitext(path)[0] + ".dat", "w") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(repr(float(v)) if isinstance(v, (int, float)) else str(v) for v in row) + "\n")


def _finish(outdir, config, summary, t0):
    manifest = {
        "config": config,
        "versions": {
            "nulldust": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_seconds": time.time() - t0,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
    if "error" in summary:
        return 1
    failed = [k for k, v in summary.get("checks", {}).items() if not v]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _span(min_members):
    """argparse type: 'j0..j1' -> list(range(j0, j1 + 1)), at least min_members long."""
    def parse(text):
        lo, _, hi = text.partition("..")
        try:
            span = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a span j0..j1, got {text!r}") from None
        if len(span) < min_members:
            raise argparse.ArgumentTypeError(f"span {text!r} has {len(span)} members, needs >= {min_members}")
        return span
    return parse


def _int_list(text):
    """argparse type: '2,4,8' -> [2, 4, 8]."""
    return [int(x) for x in text.split(",")]


def _mass_profile(spec):
    """argparse type: 'const:V' or 'cos:BASE,AMP' -> (kind, numbers)."""
    kind, _, arg = spec.partition(":")
    values = tuple(float(x) for x in arg.split(","))
    if len(values) != {"const": 1, "cos": 2}.get(kind):
        raise ValueError(f"unknown mass profile {spec!r}")
    return kind, values


def _mass_field(profile, chart):
    """The angular mass field of a parsed profile on the chart."""
    kind, values = profile
    if kind == "const":
        return np.full(chart.shape, values[0])
    base, amp = values
    return base + amp * np.cos(2.0 * np.pi * chart.mesh()[0] / chart.L1)


def _dust_spec(text):
    """argparse type: ';'-separated 'atom UB MASS' / 'density LEVEL' lines -> (kind, value, profile)."""
    lines = []
    for words in (line.split() for line in text.split(";") if line.strip()):
        if (words[0], len(words)) not in (("atom", 3), ("density", 2)):
            raise ValueError(f"unknown dust spec line {' '.join(words)!r}")
        lines.append((words[0], float(words[1]), _mass_profile(words[2]) if len(words) == 3 else None))
    return lines


def _wavenumber(text):
    """argparse type: 'auto' (None: escalating selection) or a number."""
    return None if text == "auto" else float(text)


# ---------------------------------------------------------------------------


def cmd_burnett(args):
    t0 = time.time()
    outdir = _out_root(args)
    seed = pw.SEEDS[args.seed]
    lam_seq = [2.0**-j for j in args.lambda_seq]

    def family(lam):
        n = max(4097, int(np.ceil(64 * 0.5 / lam)) + 1)
        return pw.make_burnett_G(lam, seed, Grid1D(0.0, 0.5, n))

    phi = lambda u: np.exp(-8.0 * (u - 0.25) ** 2)
    target = gauss_legendre_integrate(lambda u: 0.5 * seed.k(u) ** 2 * phi(u), 0.0, 0.5, 192)

    def one(lam):
        prof = family(lam)
        ub = prof.grid.points()
        pairing = float(np.trapezoid(prof.dg(ub) ** 2 * phi(ub), ub))
        fac = pw.solve_H(prof, richardson=False)
        return lam, pairing, abs(pairing - target), float(np.abs(pw.ricci_uu(prof, fac)).max())

    rows = [one(lam) for lam in lam_seq]
    fit = fit_rate([r[0] for r in rows], [r[2] for r in rows])
    _write_csv(
        os.path.join(outdir, "pairings.csv"),
        ["lambda", "pairing", "gap_to_limit", "vacuum_residual"],
        rows,
        args.plot_data,
    )
    summary = {
        "limit_pairing": target,
        "fitted_slope": fit.slope,
        "fit_residual": fit.residual,
        "checks": {"slope_ge_0.9": fit.slope >= TOL["rate_slope"]},
    }
    return _finish(outdir, vars(args), summary, t0)


def cmd_shell_limit(args):
    t0 = time.time()
    outdir = _out_root(args)
    seed = pw.SEEDS[args.seed]
    lam_seq = [2.0**-j for j in args.lambda_seq]
    grid = Grid1D(-0.5, 0.5, 2**17 + 1)
    rows = []
    for lam in lam_seq:
        prof = pw.make_shell_G(lam, seed, grid)
        fac = pw.solve_H(prof, richardson=False)
        loc, jump = pw.jump_detect(fac, window=4 * lam)
        ub = grid.points()
        energy = float(np.trapezoid(prof.dg(ub) ** 2, ub))
        rows.append((lam, jump, abs(jump + 0.25), energy))
    _write_csv(
        os.path.join(outdir, "jumps.csv"),
        ["lambda", "dh_jump", "jump_gap_to_quarter", "derivative_energy"],
        rows,
        args.plot_data,
    )
    summary = {
        "final_jump": rows[-1][1],
        "checks": {
            "jump_converges": rows[-1][2] <= TOL["jump"],
            "energy_normalized": max(abs(r[3] - 1.0) for r in rows) <= 1e-6,
        },
    }
    return _finish(outdir, vars(args), summary, t0)


def cmd_gowdy(args):
    t0 = time.time()
    outdir = _out_root(args)
    amp = args.amplitude
    rows = []
    for n in args.n_seq:
        tau_grid = Grid1D(0.0, 1.0, args.grid + 1)
        th_grid = Grid1D(0.0, 2.0 * np.pi, args.grid)
        tau = tau_grid.points()
        theta = th_grid.points_periodic()
        p, alpha = gowdy.eval_family(n, amp, tau, theta)
        res = gowdy.vacuum_residual(n, amp, tau_grid, th_grid)
        target = -(amp**2) * np.exp(-tau)[:, None] / np.pi
        rows.append(
            (n, float(np.abs(p).max()), float(np.abs(alpha - target).max()), float(np.abs(res.ricci).max()))
        )
    lim = gowdy.limit_einstein(amp, 0.0)
    _write_csv(
        os.path.join(outdir, "family.csv"),
        ["n", "sup_P", "sup_alpha_gap", "vacuum_residual"],
        rows,
        args.plot_data,
    )
    summary = {
        "einstein_limit": lim,
        "checks": {
            "alpha_gap_decreases": rows[-1][2] < rows[0][2],
            "einstein_matches": abs(lim["G_tautau"] - lim["target_tautau"]) <= TOL["einstein_limit"],
        },
    }
    return _finish(outdir, vars(args), summary, t0)


def _shell_data(dust_lines, chart, grid):
    ring = acceptance._flat_ring(chart)
    one, zero = acceptance._const_maps(chart)
    dust = None
    if dust_lines:
        atoms = [(loc, _mass_field(profile, chart)) for kind, loc, profile in dust_lines if kind == "atom"]
        levels = [level for kind, level, _ in dust_lines if kind == "density"]  # the last one counts
        density = (lambda ub, lv=levels[-1]: np.full((len(ub),) + chart.shape, lv)) if levels else None
        dust = C.NullDustMeasure(atoms=atoms, density=density)
    return C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring), dust=dust)


def cmd_constraints(args):
    t0 = time.time()
    outdir = _out_root(args)
    chart = AngularGrid(8, 4)
    grid = Grid1D(0.0, 1.0, 1025)
    data = _shell_data(args.dust, chart, grid)
    if data.dust is not None and data.dust.atoms:
        sol = C.solve_glued_shell(data, 1.0, 0.1)
    elif data.dust is not None:
        sol = C.solve_dust_constraint(data, 1.0, 0.1)
    else:
        sol = C.solve_vacuum_constraint(data, 1.0, 0.1)
    residuals = []
    for tf in bump_dictionary(grid, chart):
        residuals.append(
            (tf.name, abs(C.weak_constraint_residual(data, sol, tf, tf.deriv, support=tf.support)))
        )
    nodes = grid.points()[:: max(1, grid.n // 256)]
    phi_rows = [(float(u), float(np.asarray(sol(np.array([u])))[0].min())) for u in nodes]
    _write_csv(os.path.join(outdir, "phi.csv"), ["ub", "min_phi"], phi_rows, args.plot_data)
    _write_csv(os.path.join(outdir, "weak_residuals.csv"), ["test_function", "residual"], residuals)
    summary = {
        "max_weak_residual": max(r[1] for r in residuals),
        "checks": {"weak_residuals": max(r[1] for r in residuals) <= TOL["weak_residual"]},
    }
    return _finish(outdir, vars(args), summary, t0)


def cmd_hf_approx(args):
    t0 = time.time()
    outdir = _out_root(args)
    verdict = acceptance.criterion_absorber()
    rows = [
        (r["n"], r["gamma_gap"], r["phi_gap"], r["dphi_gap"], r["weak_defect"],
         r["defect_no_corrector"], r["det_defect"])
        for r in verdict.details["rows"]
    ]
    _write_csv(
        os.path.join(outdir, "convergence.csv"),
        ["n", "gamma_gap", "phi_gap", "dphi_gap", "weak_defect", "defect_no_corrector", "det_defect"],
        rows,
        args.plot_data,
    )
    summary = {"slopes": verdict.details["slopes"], "checks": verdict.details["checks"]}

    if args.m_seq:
        from . import measurepipe as MP
        from .testfunctions import plateau

        chart = AngularGrid(8, 4)
        grid = Grid1D(0.0, 1.0, 257)
        data = _shell_data(args.dust or _dust_spec("atom 0.45 cos:1.0,0.5"), chart, grid)
        t1, _ = chart.mesh()
        strip = plateau((t1 - 3.6) / 0.5) * plateau((5.9 - t1) / 0.5)
        data.dust.atoms = [(loc, mass * (1.0 - strip)) for loc, mass in data.dust.atoms]
        bv = C.solve_glued_shell(data, 1.0, 0.15)
        pipe = MP.MeasurePipeline(data, bv, k=args.k)
        pipe.freeze_k([args.m_seq[0], args.m_seq[-1]])
        members = [pipe.member(m) for m in args.m_seq]
        tf = bump_dictionary(grid, chart)[1]
        table = MP.pipeline_weak_check(pipe, members, [tf])
        _write_csv(
            os.path.join(outdir, "measure_pipeline.csv"),
            ["m", "n", "difference", "measure_pairing", "gap"],
            [(r["m"], r["n"], r["difference"], r["measure_pairing"], r["gap"]) for r in table],
            args.plot_data,
        )
        fitp = fit_rate([2.0 ** -r["m"] for r in table], [max(r["gap"], 1e-300) for r in table])
        summary["pipeline_slope"] = fitp.slope
        summary["checks"]["pipeline_slope_ge_0.9"] = fitp.slope >= TOL["rate_slope"]
    return _finish(outdir, vars(args), summary, t0)


def cmd_pipeline(args):
    t0 = time.time()
    outdir = _out_root(args)
    verdict = acceptance.criterion_char_pipeline()
    _write_csv(
        os.path.join(outdir, "residual_orders.csv"),
        ["equation", "observed_order"],
        [(k, v if v is not None else "exact") for k, v in verdict.details["residual_orders"].items()],
    )
    summary = {
        "trchi_error": verdict.details["trchi_error"],
        "trchb_error": verdict.details["trchb_error"],
        "checks": verdict.details["checks"],
    }
    return _finish(outdir, vars(args), summary, t0)


def cmd_trapped(args):
    t0 = time.time()
    outdir = _out_root(args)
    chart = AngularGrid(32, 16)
    mass = _mass_field(args.mass, chart)
    shell = S.ShellSpacetime(chart, mass, args.ustar)
    per_theta, overall, margin = S.is_trapped(shell)
    trchi_plus = S.trch_jump(shell, args.ustar)
    rows = [
        (float(th), float(trchi_plus[i, 0]), bool(per_theta[i, 0]))
        for i, th in enumerate(chart.theta1())
    ]
    _write_csv(os.path.join(outdir, "trchi_plus.csv"), ["theta1", "trchi_plus", "trapped"], rows, args.plot_data)
    summary = {
        "trapped": overall,
        "fraction_trapped": float(per_theta.mean()),
        "margin": margin,
        "checks": {"criterion_consistent": overall == (margin > 0)},
    }
    print(json.dumps(summary, indent=2))
    return _finish(outdir, vars(args), summary, t0)


def cmd_cc_demo(args):
    t0 = time.time()
    outdir = _out_root(args)
    shape = (args.grid,) * 2 if args.dim == 2 else (min(args.grid, 32),) * 4
    box = CC.PeriodicBox(shape)
    rng = np.random.default_rng(args.seed_value)
    f = rng.standard_normal(box.shape)
    d = CC.decompose(f, box, args.c1, "x1")
    partition = CC.partition_defect(d, f)
    pair = CC.PAIRS[args.pair](CC.PeriodicBox((1024, 1024))) if args.dim == 2 else None
    rows, verdict = [], {}
    if pair is not None:
        mesh = pair.box.mesh()
        psi = 1.0 + 0.5 * np.cos(mesh[0]) * np.cos(mesh[1])
        res = CC.weak_product_test(pair, psi, args.n_seq)
        rows = list(zip(res["n"], res["pairings"], res["gaps"]))
        verdict = {"product_converges": res["product_converges"], "expects_defect": res["expects_defect"]}
        _write_csv(os.path.join(outdir, "pairings.csv"), ["n", "pairing", "gap"], rows, args.plot_data)
    summary = {
        "partition_defect": partition,
        **verdict,
        "checks": {
            "partition_exact": partition <= TOL["fft_identity"],
            **(
                {"verdict_as_expected": verdict["product_converges"] != verdict["expects_defect"]}
                if verdict
                else {}
            ),
        },
    }
    return _finish(outdir, vars(args), summary, t0)


def cmd_verify_all(args):
    t0 = time.time()
    outdir = _out_root(args)
    results = acceptance.run_all(printer=print)
    rows = [(v.name, v.passed, round(v.seconds, 2)) for v in results]
    _write_csv(os.path.join(outdir, "verdicts.csv"), ["criterion", "passed", "seconds"], rows)
    summary = {
        "checks": {v.name: v.passed for v in results},
        "details": {v.name: v.details for v in results},
    }
    return _finish(outdir, vars(args), summary, t0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nulldust",
        description="high-frequency gravitational-wave limits and null dust shells: numerical laboratory",
    )
    ap.add_argument("--out", default=None, help="output root (default $NULLDUST_OUT or ./runs)")
    ap.add_argument("--plot-data", action="store_true", help="also emit whitespace-column .dat tables")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("burnett", help="oscillation family: weak pairings and vacuum residuals")
    p.add_argument("--lambda-seq", default="2..10", type=_span(4),
                   help="dyadic exponent span j0..j1, at least 4 members (the rate fit)")
    p.add_argument("--seed", default="cosine", choices=sorted(pw.SEEDS))
    p.set_defaults(func=cmd_burnett)

    p = sub.add_parser("shell-limit", help="concentration family: derivative jump extraction")
    p.add_argument("--lambda-seq", default="6..10", type=_span(1), help="dyadic exponent span j0..j1")
    p.add_argument("--seed", default="bump", choices=sorted(pw.SEEDS))
    p.set_defaults(func=cmd_shell_limit)

    p = sub.add_parser("gowdy", help="Bessel-profile family tables and the two-beam limit")
    p.add_argument("--n-seq", default="2,4,8", type=_int_list)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=192)
    p.set_defaults(func=cmd_gowdy)

    p = sub.add_parser("constraints", help="hypersurface constraint solves and weak residuals")
    p.add_argument("--dust", default=None, type=_dust_spec,
                   help="dust spec: 'atom UB MASS' / 'density LEVEL' lines, ';'-separated; "
                        "mass profiles const:V or cos:BASE,AMP")
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("hf-approx", help="dust-absorbing oscillation convergence tables")
    p.add_argument("--k", default="auto", type=_wavenumber,
                   help="oscillation wavenumber (auto: escalating selection)")
    p.add_argument("--m-seq", default=None, type=_span(4),
                   help="also run the measure->vacuum pipeline over this dyadic span, e.g. 1..6; "
                        "at least 4 members (the rate fit)")
    p.add_argument("--dust", default=None, type=_dust_spec,
                   help="dust spec for the pipeline (see `constraints`)")
    p.set_defaults(func=cmd_hf_approx)

    p = sub.add_parser("pipeline", help="characteristic transport residual report")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("trapped", help="null-shell trapped-surface verdict")
    p.add_argument("--mass", default="const:1.2", type=_mass_profile)
    p.add_argument("--ustar", type=float, default=0.5)
    p.set_defaults(func=cmd_trapped)

    p = sub.add_parser("cc-demo", help="directional frequency splitting demonstrations")
    p.add_argument("--dim", type=int, default=2, choices=(2, 4))
    p.add_argument("--c1", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--n-seq", default="4,8,16,32,64,128,256", type=_int_list)
    p.add_argument("--pair", default="transverse", choices=sorted(CC.PAIRS))
    p.add_argument("--seed-value", type=int, default=7)
    p.set_defaults(func=cmd_cc_demo)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(func=cmd_verify_all)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        return args.func(args)
    except NumericalFailure as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if exc.location is not None:
            error["location"] = exc.location
        print(f"numerical failure: {error['type']}: {exc}", file=sys.stderr)
        return _finish(_out_root(args), vars(args), {"error": error}, t0)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
