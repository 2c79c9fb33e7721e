"""Fast self-test of the benchmark harness, on criterion_trapped (seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that an untraced run reports
exactly the end-to-end metrics and a traced run exactly the per-layer metrics
of BENCHMARK.json with their units, that fail_frac is 0 with no detail drift,
and that two traced runs (with different seeds) give identical work counts.
Exits 1 with the reason on the first failed check.
"""

import json
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CRITERIA = ("trapped",)


def check(ok, message):
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int), "run_seconds")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads differ from run.WORKLOADS")
    covered = [c for crits in run.WORKLOADS.values() for c in crits]
    check(len(covered) == len(set(covered)) == 10, "workloads must cover the ten criteria once each")
    names = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for m in spec[group]:
            check(NAME.fullmatch(m["name"]) is not None and m["name"] not in names, f"name {m['name']!r}")
            names.add(m["name"])
            if group != "workloads":
                check(UNIT.fullmatch(m["unit"]) is not None, f"unit of {m['name']}")
                check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def check_result(result, rec, wanted):
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"fail_frac {result['failed']}/{result['attempted']}, correct={result['correct']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == {m["name"]: m["unit"] for m in wanted}, "metric names or units differ from BENCHMARK.json")
    check(all(p["drift"] == {} for p in rec["passes"]), "verdict details drifted from the reference")
    json.dumps(result, allow_nan=False)  # raises on a NaN or infinite metric


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_spec(spec)
    result, rec = run.run_workload("selftest", CRITERIA, 1, 0, 0, spec)
    check_result(result, rec, spec["end_to_end"])
    counts = []
    for seed in (1, 2):
        result, rec = run.run_workload("selftest", CRITERIA, seed, 0, 1, spec)
        check_result(result, rec, spec["per_layer"])
        counts.append(rec["counts"])
    check(counts[0] == counts[1], f"work counts differ between traced runs: {counts}")
    check(counts[0].get("shellmod.is_trapped.calls") == 1001, "is_trapped calls should be 1000 samples + 1 marginal case")
    print("selftest ok")


if __name__ == "__main__":
    try:
        main()
    except run.BenchError as exc:
        check(False, str(exc))
