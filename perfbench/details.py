"""Reference verdict details and the drift check against them.

The ROADMAP output contract: every value in a criterion's ``Verdict.details``
stays within 1e-12 relative of the value recorded at the reference commit.
Values at round-off level (listed in ROUNDOFF) cannot be held to a relative
bound, since any reordering of the arithmetic moves them by their own size;
they are compared against the tolerance acceptance.TOL sets for them.

Record the reference (about 90 s on 2 cores)::

    python3 perfbench/details.py
"""

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RTOL = 1e-12

# Values the reference puts below 1e-9: round-off, or a difference of O(1)
# numbers that cancels down to it.  (criterion, regex on the flattened
# detail path) -> the absolute tolerance the criterion checks it against.
ROUNDOFF = [
    ("absorber", r"det_worst|rows\.\d+\.det_defect", 1e-12),         # det_preservation
    ("char_pipeline", r"reconstruction_gap", 1e-12),                  # constraint_reconstruction
    ("char_pipeline", r"trch[ib]_error", 1e-8),                       # cone_reproduction
    ("char_pipeline", r"residual_tables\.(shear_in|torsion)\.\d+", 1e-12),  # identically satisfied
    ("compensated", r"partition_defect", 1e-12),                      # fft_identity
    ("compensated", r"sin_sq_error", 1e-6),                           # sin_sq_control
    ("compensated", r"transverse_final_gap", 1e-3),                   # pairing
    ("constraints", r"drift", 1e-8),                                  # first_integral
    ("constraints", r"max_weak_residual", 1e-6),                      # weak_residual
    ("gowdy", r"einstein\.max_off_component", 1e-5),                  # einstein_limit
    ("shell_limit", r"pairing_errors\.0", 1e-3),                      # pairing
    ("trapped", r"weak_residual|propagation_residual", 1e-6),         # weak_residual
]


def flatten(value, prefix=""):
    """Nested details -> {dotted path: JSON scalar}; non-finite floats as strings."""
    if hasattr(value, "tolist"):  # numpy scalar or array
        value = value.tolist()
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for i, v in enumerate(value):
            out.update(flatten(v, f"{prefix}{i}."))
        return out
    if isinstance(value, float) and not math.isfinite(value):
        value = repr(value)
    return {prefix[:-1]: value}


def _roundoff_tol(criterion, path):
    for crit, pattern, tol in ROUNDOFF:
        if crit == criterion and re.fullmatch(pattern, path):
            return tol
    return None


def drift(criterion, details, reference):
    """Paths of ``details`` that break the output contract against ``reference``.

    A path missing on either side counts as drift.
    """
    flat = flatten(details)
    bad = sorted(set(flat) ^ set(reference))
    for path in sorted(set(flat) & set(reference)):
        new, ref = flat[path], reference[path]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (new, ref))
        if not numeric:
            if new != ref:
                bad.append(path)
            continue
        tol = _roundoff_tol(criterion, path)
        if tol is not None:
            if not (abs(new) <= tol and abs(ref) <= tol):
                bad.append(path)
        elif abs(new - ref) > RTOL * max(abs(new), abs(ref)):
            bad.append(path)
    return bad


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def record(acceptance_module, criteria):
    """Run each criterion once and write its flattened details as the reference."""
    ref = {}
    for name in criteria:
        verdict = getattr(acceptance_module, f"criterion_{name}")()
        if not verdict.passed:
            raise SystemExit(f"criterion {name} fails: refusing to record it as the reference")
        ref[name] = flatten(verdict.details)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from nulldust import acceptance

    record(acceptance, [fn.__name__.removeprefix("criterion_") for fn in acceptance.ALL_CRITERIA])
    print(f"wrote {REFERENCE}")
