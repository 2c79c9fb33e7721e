"""Benchmark worker: one process runs one workload's acceptance criteria.

Started by run.py; prints one JSON object on stdout.  The criteria run in a
closed loop with one client: one pass (every criterion once, in the order
the seed gives) after another, until the next pass would end past
``--seconds``; there is always at least one pass.  With ``--trace 1`` the
worker wraps the layers (tracer.install) and makes one traced pass, from
which the per-layer metrics come.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import details
import tracer as T


def _import_nulldust(src):
    sys.path.insert(0, str(src))
    import nulldust

    if Path(nulldust.__file__).resolve().parent != (src / "nulldust").resolve():
        raise SystemExit(f"nulldust imported from {nulldust.__file__}, not from {src}")
    from nulldust import acceptance, odesolve

    return acceptance, odesolve


def run_pass(acceptance, order, reference, tracer=None):
    """Every criterion once; returns timings and the correctness record."""
    verdicts = {}
    seconds = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for name in order:
        fn = getattr(acceptance, f"criterion_{name}")
        if tracer is not None:
            fn = tracer.timed(f"acceptance.{name}", fn)
        t0 = time.perf_counter()
        try:
            verdicts[name] = fn()
        except Exception:  # a raising criterion is a failed criterion
            traceback.print_exc()
            verdicts[name] = None
        seconds[name] = time.perf_counter() - t0
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    failed, drift = [], {}
    for name, v in verdicts.items():
        if v is None or not v.passed:
            failed.append(name)
        if v is not None:
            bad = details.drift(name, v.details, reference.get(name, {}))
            if bad:
                drift[name] = bad
    return {"order": order, "wall_s": wall, "cpu_s": cpu, "criterion_s": seconds,
            "failed": failed, "drift": drift}


def environment(odesolve, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": "numba" if odesolve._HAVE_NUMBA else "numpy-fallback",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--criteria", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    acceptance, odesolve = _import_nulldust(args.src)
    reference = details.load_reference()
    criteria = args.criteria.split(",")
    rng = random.Random(args.seed)

    def next_order():
        order = list(criteria)
        rng.shuffle(order)
        return order

    out = {"env": environment(odesolve, args.seed)}
    if args.trace:
        tr = T.Tracer()
        out["missing_layers"] = T.install(tr)
        passes = [run_pass(acceptance, next_order(), reference, tr)]
        spans = tr.spans()
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            np.savez(args.spans_out, **spans)
        layers = T.layer_metrics(tr, spans)
        for fn in acceptance.ALL_CRITERIA:
            name = fn.__name__.removeprefix("criterion_")
            layers[f"acceptance.{name}.s"] = (passes[0]["criterion_s"].get(name, 0.0), "s")
        layers["acceptance.detail_drift"] = (sum(len(v) for v in passes[0]["drift"].values()), "count")
        layers["trace.overhead_frac"] = (T.overhead_frac(tr, passes[0]["wall_s"]), "ratio")
        out["layers"] = layers
        out["counts"] = dict(sorted(tr.counts.items()))
    else:
        start = time.perf_counter()
        passes = [run_pass(acceptance, next_order(), reference)]
        while time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= args.seconds:
            passes.append(run_pass(acceptance, next_order(), reference))
    out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
