"""Command-line orchestration: subcommands that run the acceptance criteria,
run directories, and a reproducibility manifest.

A criterion subcommand parses its flags and calls its one criterion with one
keyword argument per flag given; an omitted flag keeps the criterion's
acceptance default, so without flags a subcommand reproduces its verify-all
verdict.  A criterion checks its own inputs, and main turns the ValueError
of a refused value into exit 2 before any file is written.  burnett,
shell-limit, gowdy, constraints, hf-approx, mollification, measure-pipeline,
trapped, compensated and pipeline run criteria 1 to 10, one each; verify-all
runs all ten.

Every run writes manifest.json (config, library versions and wall time)
and summary.json, whose ``checks`` maps "<verdict>/<check>" to a bool and
whose ``details`` maps each verdict name to its details; it also writes
verdicts.csv (each criterion's wall time, timed here with a monotonic
clock) and one <verdict>.csv per verdict, a ``path,value`` row per
flattened detail (RFC-4180).  Exit codes: 0 the run finished and every check
passed, 1 a check failed or a NumericalFailure stopped the run (summary.json
then carries an ``error`` field), 2 usage error.
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
from . import planewave as pw
from .errors import NumericalFailure


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
    failed = [k for k, v in summary["checks"].items() if not v]
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
    """A dust spec line's mass profile: 'const:V' or 'cos:BASE,AMP' -> (kind, numbers)."""
    kind, _, arg = spec.partition(":")
    values = tuple(_finite(x) for x in arg.split(","))
    if len(values) != {"const": 1, "cos": 2}.get(kind):
        raise ValueError(f"unknown mass profile {spec!r}")
    return kind, values


def _dust_spec(text):
    """argparse type: ';'-separated 'atom UB MASS' / 'density LEVEL' lines -> (kind, value, profile)
    lines.  Only the syntax is checked here; the criterion refuses an atom
    outside its interval, a negative level and a second density line."""
    lines = []
    for words in (line.split() for line in text.split(";") if line.strip()):
        if (words[0], len(words)) not in (("atom", 3), ("density", 2)):
            raise ValueError(f"unknown dust spec line {' '.join(words)!r}")
        lines.append((words[0], _finite(words[1]), _mass_profile(words[2]) if len(words) == 3 else None))
    return tuple(lines)


def _wavenumber(text):
    """argparse type: 'auto' (None: escalating selection) or a number > 0."""
    k = None if text == "auto" else _finite(text)
    if k is not None and k <= 0:
        raise argparse.ArgumentTypeError(f"wavenumber {text!r} is not > 0")
    return k


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
    p.set_defaults(func=_criterion_cmd("criterion_shell_limit", "lambda_seq"))

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

    p = criterion_parser("mollification", "criterion 6: mollified measure dust and its Phi limit")
    p.set_defaults(func=_criterion_cmd("criterion_mollification"))

    p = criterion_parser("measure-pipeline", "criterion 7: the measure->vacuum pipeline")
    p.add_argument("--m-seq", type=_int_seq(4), help="run the measure->vacuum pipeline over these "
                   "levels m, j0..j1 or a,b,c, at least 4 (its default is 1..8)")
    p.add_argument("--k", type=_wavenumber,
                   help="pipeline oscillation wavenumber (default auto: uniform selection)")
    p.add_argument("--dust", type=_dust_spec, help="pipeline " + dust_help)
    p.set_defaults(func=_criterion_cmd("criterion_pipeline", "m_seq", "k", "dust"))

    p = criterion_parser("trapped", "criterion 8: null-shell trapped surfaces and shell weak forms")
    p.set_defaults(func=_criterion_cmd("criterion_trapped"))

    p = criterion_parser("compensated", "criterion 9: directional frequency splitting and weak products")
    p.add_argument("--grid", type=int, help="side of the partition and trial box, 64..2048 (default 256)")
    p.add_argument("--seed-value", type=int, help="seed of the random field and trials (default 7)")
    p.set_defaults(func=_criterion_cmd("criterion_compensated", "grid", "seed_value"))

    p = criterion_parser("pipeline", "criterion 10: characteristic transport residuals")
    p.set_defaults(func=_criterion_cmd("criterion_char_pipeline"))

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
