"""Command-line orchestration: subcommands that run the acceptance criteria,
run directories, and a reproducibility manifest.

A criterion subcommand parses its flags and calls its one criterion with one
keyword argument per flag given; an omitted flag keeps the criterion's
acceptance default, so without flags a subcommand reproduces its verify-all
verdict.  A criterion checks its own inputs, and main turns the ValueError
of a refused value into exit 2 before any file is written.  burnett,
shell-limit, gowdy, constraints, hf-approx, measure-pipeline and pipeline
run criteria 1, 2, 3, 4, 5, 7 and 10; verify-all runs all ten.  trapped and
cc-demo are demonstrations: they report the values they compute and make no
checks of their own (criteria 8 and 9 do).

Every run writes manifest.json (config, library versions and wall time)
and summary.json.  A criterion run's summary.json has ``checks``, mapping
"<verdict>/<check>" to a bool, and ``details``, mapping each verdict name to
its details; it also writes
verdicts.csv (each criterion's wall time, timed here with a monotonic
clock) and one <verdict>.csv per verdict, a ``path,value`` row per
flattened detail (RFC-4180).  A demo's summary.json holds its values.  Exit
codes: 0 the run finished and every check it made passed, 1 a check failed or
a NumericalFailure stopped the run (summary.json then carries an ``error``
field), 2 usage error.
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
from . import planewave as pw
from . import shellmod as S
from .errors import NumericalFailure
from .grids import AngularGrid


def _out_root(args):
    """The run directory; it is made at its first write, so a usage error leaves none."""
    root = args.out or os.environ.get("NULLDUST_OUT", "runs")
    return os.path.join(root, args.command)


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # repr(float(v)), not repr(v): numpy scalars would print as np.float64(...)
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def _flatten(value, path=""):
    """(dotted path, scalar) rows of nested dicts and sequences."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = enumerate(value)
    else:
        return [(path, value)]
    return [row for k, v in items for row in _flatten(v, f"{path}.{k}" if path else str(k))]


def _finish(outdir, args, summary, t0):
    manifest = {
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "versions": {
            "nulldust": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_seconds": time.time() - t0,
    }
    os.makedirs(outdir, exist_ok=True)
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


def _run(args, calls):
    """Run every (criterion, kwargs), then write the verdicts: a usage error leaves no files."""
    t0 = time.time()
    outdir = _out_root(args)
    verdicts, seconds = [], []
    for criterion, kwargs in calls:
        start = time.perf_counter()
        v = criterion(**kwargs)
        seconds.append(time.perf_counter() - start)
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name} ({seconds[-1]:.1f}s)")
        verdicts.append(v)
    for v in verdicts:
        _write_csv(os.path.join(outdir, f"{v.name}.csv"), ["path", "value"], _flatten(v.details))
    _write_csv(os.path.join(outdir, "verdicts.csv"), ["criterion", "passed", "seconds"],
               [(v.name, v.passed, round(s, 2)) for v, s in zip(verdicts, seconds)])
    summary = {
        "checks": {f"{v.name}/{c}": ok for v in verdicts for c, ok in v.details["checks"].items()},
        "details": {v.name: v.details for v in verdicts},
    }
    return _finish(outdir, args, summary, t0)


def _flags(args, *names):
    """Keyword arguments of the flags given on the command line."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _criterion_cmd(name, *flags):
    """Subcommand running acceptance.<name> with the given flags as keyword arguments."""
    return lambda args: _run(args, [(getattr(acceptance, name), _flags(args, *flags))])


def _int_seq(min_members, least=None):
    """argparse type: 'j0..j1' (inclusive) or 'a,b,c' -> list of ints, at least
    min_members long, each member >= least if given."""
    def parse(text):
        lo, dots, hi = text.partition("..")
        try:
            seq = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected j0..j1 or a,b,c, got {text!r}") from None
        if len(seq) < min_members:
            raise argparse.ArgumentTypeError(f"{text!r} has {len(seq)} members, needs >= {min_members}")
        if least is not None and min(seq) < least:
            raise argparse.ArgumentTypeError(f"{text!r} has a member below {least}")
        return seq
    return parse


def _finite(text):
    """argparse type: a float that is neither nan nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _mass_profile(spec):
    """argparse type: 'const:V' or 'cos:BASE,AMP' -> (kind, numbers)."""
    kind, _, arg = spec.partition(":")
    values = tuple(_finite(x) for x in arg.split(","))
    if len(values) != {"const": 1, "cos": 2}.get(kind):
        raise ValueError(f"unknown mass profile {spec!r}")
    return kind, values


def _dust_spec(text):
    """argparse type: ';'-separated 'atom UB MASS' / 'density LEVEL' lines -> (kind, value, profile)
    lines; an atom must sit strictly inside the subcommands' interval 0 < ub < 1,
    and there is at most one density LEVEL, >= 0."""
    lines = []
    for words in (line.split() for line in text.split(";") if line.strip()):
        if (words[0], len(words)) not in (("atom", 3), ("density", 2)):
            raise ValueError(f"unknown dust spec line {' '.join(words)!r}")
        value = _finite(words[1])
        if words[0] == "atom" and not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(f"atom at ub={value} not strictly inside (0, 1)")
        if words[0] == "density" and value < 0.0:
            raise argparse.ArgumentTypeError(f"density level {value} is negative")
        if words[0] == "density" and any(kind == "density" for kind, _, _ in lines):
            raise argparse.ArgumentTypeError("more than one density line")
        lines.append((words[0], value, _mass_profile(words[2]) if len(words) == 3 else None))
    return tuple(lines)


def _wavenumber(text):
    """argparse type: 'auto' (None: escalating selection) or a number > 0."""
    k = None if text == "auto" else _finite(text)
    if k is not None and k <= 0:
        raise argparse.ArgumentTypeError(f"wavenumber {text!r} is not > 0")
    return k


def cmd_trapped(args):
    t0 = time.time()
    outdir = _out_root(args)
    chart = AngularGrid(32, 16)
    mass = acceptance._mass_field(args.mass, chart)
    shell = S.ShellSpacetime(chart, mass, args.ustar)
    per_theta, overall, margin = S.is_trapped(shell)
    trchi_plus = S.trch_jump(shell, args.ustar)
    rows = [
        (float(th), float(trchi_plus[i, 0]), bool(per_theta[i, 0]))
        for i, th in enumerate(chart.theta1())
    ]
    _write_csv(os.path.join(outdir, "trchi_plus.csv"), ["theta1", "trchi_plus", "trapped"], rows)
    summary = {
        "trapped": overall,
        "fraction_trapped": float(per_theta.mean()),
        "margin": margin,
    }
    print(json.dumps(summary, indent=2))
    return _finish(outdir, args, summary, t0)


def cmd_cc_demo(args):
    t0 = time.time()
    outdir = _out_root(args)
    box = CC.PeriodicBox((args.grid, args.grid))
    rng = np.random.default_rng(args.seed_value)
    f = rng.standard_normal(box.shape)
    partition = CC.partition_defect(f, CC.decompose(f, box, args.c1, "x1"))
    pair = CC.PAIRS[args.pair](CC.PeriodicBox((1024, 1024)))
    u, ub = pair.box.sparse_mesh()
    psi = 1.0 + 0.5 * np.cos(u) * np.cos(ub)
    res = CC.weak_product_test(pair, psi, args.n_seq)
    rows = list(zip(res["n"], res["pairings"], res["gaps"]))
    _write_csv(os.path.join(outdir, "pairings.csv"), ["n", "pairing", "gap"], rows)
    summary = {
        "partition_defect": partition,
        "product_converges": res["product_converges"],
        "expects_defect": res["expects_defect"],
    }
    return _finish(outdir, args, summary, t0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nulldust",
        description="high-frequency gravitational-wave limits and null dust shells: numerical laboratory",
    )
    ap.add_argument("--out", default=None, help="output root (default $NULLDUST_OUT or ./runs)")
    sub = ap.add_subparsers(dest="command", required=True)

    def criterion_parser(name, text):
        # an omitted flag is absent from args, so the criterion keeps its acceptance default
        return sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)

    dust_help = ("dust spec: 'atom UB MASS' / 'density LEVEL' lines, ';'-separated, 0 < UB < 1, "
                 "LEVEL >= 0; mass profiles const:V or cos:BASE,AMP (default: atom 0.45 cos:1.0,0.5)")

    p = criterion_parser("burnett", "criterion 1: oscillation family pairings and wave-factor limit")
    p.add_argument("--lambda-seq", type=_int_seq(4),
                   help="dyadic exponents j of lambda = 2^-j, j0..j1 or a,b,c, at least 4 (default 2..10)")
    p.add_argument("--seed", choices=sorted(pw.SEEDS), help="envelope profile (default cosine)")
    p.set_defaults(func=_criterion_cmd("criterion_burnett", "lambda_seq", "seed"))

    p = criterion_parser("shell-limit", "criterion 2: concentration family jump, pairings and energies")
    p.add_argument("--lambda-seq", type=_int_seq(1, 4), help="dyadic exponents j >= 4, j0..j1 or a,b,c: "
                   "energies at each, jump and pairings at the finest (default 6,8,10)")
    p.add_argument("--seed", choices=sorted(pw.SEEDS), help="profile (default bump)")
    p.set_defaults(func=_criterion_cmd("criterion_shell_limit", "lambda_seq", "seed"))

    p = criterion_parser("gowdy", "criterion 3: Bessel-profile family and its two-beam limit")
    p.add_argument("--n-seq", type=_int_seq(4, 1),
                   help="members n >= 1 of the alpha-limit gap, at least 4 (default 100,316,...,100000)")
    p.add_argument("--amplitude", type=_finite, help="family amplitude A (default 1.0)")
    p.set_defaults(func=_criterion_cmd("criterion_gowdy", "n_seq", "amplitude"))

    p = criterion_parser("constraints", "criterion 4: hypersurface constraint solves and weak residuals")
    p.add_argument("--dust", type=_dust_spec, help=dust_help)
    p.set_defaults(func=_criterion_cmd("criterion_constraints", "dust"))

    p = criterion_parser("hf-approx", "criterion 5: dust-absorbing oscillations")
    p.set_defaults(func=_criterion_cmd("criterion_absorber"))

    p = criterion_parser("measure-pipeline", "criterion 7: the measure->vacuum pipeline")
    p.add_argument("--m-seq", type=_int_seq(4), help="run the measure->vacuum pipeline over these "
                   "levels m, j0..j1 or a,b,c, at least 4 (its default is 1..8)")
    p.add_argument("--k", type=_wavenumber,
                   help="pipeline oscillation wavenumber (default auto: uniform selection)")
    p.add_argument("--dust", type=_dust_spec, help="pipeline " + dust_help)
    p.set_defaults(func=_criterion_cmd("criterion_pipeline", "m_seq", "k", "dust"))

    p = criterion_parser("pipeline", "criterion 10: characteristic transport residuals")
    p.set_defaults(func=_criterion_cmd("criterion_char_pipeline"))

    p = sub.add_parser("trapped", help="null-shell trapped-surface verdict")
    p.add_argument("--mass", default="const:1.2", type=_mass_profile)
    p.add_argument("--ustar", type=_finite, default=0.5)
    p.set_defaults(func=cmd_trapped)

    p = sub.add_parser("cc-demo", help="directional frequency splitting demonstrations")
    p.add_argument("--c1", type=_finite, default=4.0)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--n-seq", default="4,8,16,32,64,128,256", type=_int_seq(1, 1))
    p.add_argument("--pair", default="transverse", choices=sorted(CC.PAIRS))
    p.add_argument("--seed-value", type=int, default=7)
    p.set_defaults(func=cmd_cc_demo)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(func=lambda args: _run(args, [(fn, {}) for fn in acceptance.ALL_CRITERIA]))
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
        return _finish(_out_root(args), args, {"error": error}, t0)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
