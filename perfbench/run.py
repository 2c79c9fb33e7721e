"""Benchmark of the nulldust acceptance suite: time to a correct verdict.

    python3 perfbench/run.py --workload dust --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one table

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy.  Each workload is a fixed set of
the ten ``acceptance.criterion_*`` functions, called unchanged in one worker
process (worker.py); the seed only permutes their order within a pass.  The
last line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` count criterion runs, and ``metrics`` holds the end-to-end metrics
of BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
Every run also writes its full record, environment included, to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The union is exactly the ten criteria of `nulldust verify-all`; why each
# workload exists is in README.md.
WORKLOADS = {
    "wavefactor": ("burnett", "shell_limit"),
    "dust": ("constraints", "absorber", "mollification", "pipeline"),
    "transport": ("char_pipeline", "gowdy", "compensated", "trapped"),
}
SETUP_PROBES = 4  # fresh interpreters before the worker, and as many after it
WORKER_TIMEOUT_S = 170
_PROBE = "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); " \
         "import nulldust.acceptance; print(time.perf_counter() - t)"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env():
    """The worker's environment: BLAS pool no larger than the machine."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = nproc
    return env


def commit():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def setup_samples(env):
    """Times to import nulldust in SETUP_PROBES fresh interpreters, one after another.

    nulldust has no other lazy set-up: the numba kernel, when numba is
    installed, compiles inside the first pass and is timed there.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], env=env,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise BenchError(f"importing nulldust failed:\n{res.stderr}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(criteria, seed, seconds, trace, env, spans_out):
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--criteria", ",".join(criteria), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if res.returncode != 0:
        raise BenchError(f"worker exited with code {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_workload(name, criteria, seed, seconds, trace, spec):
    """One benchmark run; returns (result line dict, full record)."""
    env = worker_env()
    spans_out = OUT / f"spans_{name}_seed{seed}.npz" if trace else None
    # The machine's speed drifts over seconds to minutes, so the set-up
    # probes are taken on both sides of the worker rather than in one burst.
    setup = [] if trace else setup_samples(env)
    rec = run_worker(criteria, seed, seconds, trace, env, spans_out)
    passes = rec["passes"]
    rec["env"]["commit"] = commit()
    rec["workload"] = name
    attempted = sum(len(p["order"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    drifted = sum(len(v) for p in passes for v in p["drift"].values())

    if trace:
        produced = rec["layers"]
        wanted = spec["per_layer"]
    else:
        setup += setup_samples(env)
        rec["setup_samples_s"] = setup
        produced = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit} != {m['unit']} in BENCHMARK.json")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0 and drifted == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    rec["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{name}_seed{seed}_trace{trace}.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    return result, rec


def describe(name, result, rec):
    """Human-readable lines for one workload."""
    passes = rec["passes"]
    lines = [f"workload {name}: {len(passes)} pass(es), criterion orders {[p['order'] for p in passes]}"]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_frac':<40} {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} criterion runs)")
    for p in passes:
        for crit, paths in p["drift"].items():
            lines.append(f"  drift in {crit}: {', '.join(paths)}")
    if rec.get("missing_layers"):
        lines.append(f"  not traced (no longer in nulldust): {', '.join(rec['missing_layers'])}")
    lines.append(f"  env {json.dumps(rec['env'], sort_keys=True)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nulldust" / "acceptance.py").is_file():
        print(f"no nulldust sources at {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            t0 = time.perf_counter()
            result, rec = run_workload(name, WORKLOADS[name], args.seed, args.seconds, args.trace, spec)
            print("\n".join(describe(name, result, rec)), flush=True)
            print(f"  run took {time.perf_counter() - t0:.1f} s", flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    keys = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':<12}" + "".join(f"{k:>16}" for k in keys + ["fail_frac"]))
    for name, r in results.items():
        vals = [r["metrics"][k]["value"] for k in keys] + [r["failed"] / r["attempted"]]
        print(f"{name:<12}" + "".join(f"{v:>16.6g}" for v in vals))
    units = [results[names[0]]["metrics"][k]["unit"] for k in keys] + ["ratio"]
    print(" " * 12 + "".join(f"{u:>16}" for u in units))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
