"""Outside-in spans and work counters for the nulldust layers.

Nothing in ``src/`` is instrumented.  ``install`` replaces, from outside, the
public functions of each layer with wrappers that record a span (name, start,
end, parent span, pass id) and count work from argument and result shapes.
A function is replaced wherever a module holds it, so the copies made by
``from .x import f`` are covered too; methods are replaced on their class,
which must happen before instances are built (``ReducedCharData`` binds
``_generic_normsq`` at construction).

Spans stay in flat arrays until the run ends; ``layer_metrics`` derives busy
and self times from them.  Counters come from shapes only, so two runs of
the same code give identical counts.
"""

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.distinct = defaultdict(set)  # counter name -> distinct work keys
        self.current_pass = 0
        self.light_calls = 0  # calls through counting-only wrappers and callbacks
        self._stack = []
        self._open = Counter()

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name, fn, count=None, adapt=None):
        """Wrap ``fn`` in a span named ``name``.

        count(tracer, args, kwargs, result) tallies work after the call.
        adapt(tracer, arguments) may replace bound arguments in place (to
        count callbacks) and returns a function to run after the call.
        """
        nid = self._intern(name)
        sig = inspect.signature(fn) if adapt is not None else None
        tr = self

        def wrapper(*args, **kwargs):
            finish = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                finish = adapt(tr, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            i = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.pass_id.append(tr.current_pass)
            tr.outer.append(tr._open[nid] == 0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._open[nid] += 1
            tr._stack.append(i)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[i] = time.perf_counter()
                tr.start[i] = t0
                tr._stack.pop()
                tr._open[nid] -= 1
            tr.counts[name + ".calls"] += 1
            if count is not None:
                count(tr, args, kwargs, out)
            if finish is not None:
                finish()
            return out

        return wrapper

    def counted(self, fn, count):
        """Wrap ``fn`` to tally work only: for calls too small or many to time."""
        tr = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tr.light_calls += 1
            count(tr, args, kwargs, out)
            return out

        return wrapper

    def spans(self):
        """The recorded spans as numpy arrays (durations in seconds)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _seconds_per_call(fn, n=20000, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(n):
            fn(i)
        best = min(best, (time.perf_counter() - t0) / n)
    return best


def overhead_frac(tracer, traced_wall_s):
    """Estimated share the wrappers add to an untraced pass.

    Each kind of wrapper is timed around a trivial function (best of 5
    rounds) and charged once per call it made in the pass.  Comparing a
    traced with an untraced pass instead would be drowned by run-to-run
    noise of 10-20 % on a shared machine, and would double the run.
    """
    def ident(x):
        return x

    scratch = Tracer()
    base = _seconds_per_call(ident)
    span_cost = _seconds_per_call(scratch.timed("calibrate", ident)) - base
    light_cost = _seconds_per_call(scratch.counted(ident, lambda tr, a, k, o: None)) - base
    cost = span_cost * len(tracer.start) + light_cost * tracer.light_calls
    return cost / (traced_wall_s - cost)


def busy_and_self(spans):
    """Per span name: busy time (outermost spans only) and summed self time.

    A span's self time is its duration minus that of its direct children;
    spans of one thread nest, so the children cover disjoint parts of it.
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    own = dur - child
    n = len(spans["names"])
    busy = np.bincount(spans["name_id"], weights=np.where(spans["outer"], dur, 0.0), minlength=n)
    self_s = np.bincount(spans["name_id"], weights=own, minlength=n)
    names = [str(x) for x in spans["names"]]
    return dict(zip(names, busy.tolist())), dict(zip(names, self_s.tolist()))


# ---------------------------------------------------------------------------
# work counters, from argument and result shapes
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _count_rk4_chunk(tr, args, kwargs, out):
    phi, out_phi = args[0], args[6]
    steps = out_phi.shape[0] - 1
    tr.counts["odesolve.rk4_chunk.steps"] += steps
    tr.counts["odesolve.rk4_chunk.point_steps"] += steps * phi.shape[0]


def _adapt_rk4_second_order(tr, arguments):
    """Count right-hand-side callbacks without timing each one."""
    rhs = arguments["rhs"]
    tr.counts["odesolve.rk4_second_order.steps"] += arguments["grid"].n - 1
    calls = [0]

    def counted_rhs(*a):
        calls[0] += 1
        return rhs(*a)

    def finish():
        tr.counts["odesolve.rk4_second_order.rhs_calls"] += calls[0]
        tr.light_calls += calls[0]

    arguments["rhs"] = counted_rhs
    return finish


def _adapt_solve_linear(tr, arguments):
    """Count ub values handed to the coefficient providers, and the distinct ones.

    A ub value is identified by its index on the solve's half-step lattice,
    so node values requested again after the march count as repeats.
    """
    grid = arguments["grid"]
    seen = []
    for key in ("glog_fn", "coeff_fn", "source_fn"):
        fn = arguments.get(key)
        if fn is None:
            continue
        keys = set()
        seen.append(keys)

        def provider(ub, fn=fn, keys=keys):
            ub_arr = np.atleast_1d(np.asarray(ub, dtype=float))
            tr.light_calls += 1
            tr.counts["odesolve.solve_linear.coeff_requests"] += ub_arr.size
            keys.update(np.rint(2.0 * (ub_arr - grid.a) / grid.h).astype(np.int64).tolist())
            return fn(ub)

        arguments[key] = provider

    def finish():
        tr.counts["odesolve.solve_linear.coeff_distinct"] += sum(len(k) for k in seen)

    return finish


def _count_size(metric, pos, key):
    """Tally np.size of one argument: batch lengths and field sizes."""
    def count(tr, args, kwargs, out):
        tr.counts[metric] += np.size(_arg(args, kwargs, pos, key))
    return count


def _count_gl(n_pos):
    def count(tr, args, kwargs, out):
        tr.counts["quadrature.gl.calls"] += 1
        tr.counts["quadrature.gl.nodes"] += int(_arg(args, kwargs, n_pos, "n", 64))
    return count


def _count_background(tr, args, kwargs, out):
    """Distinct (atom masses, m) pairs among the backgrounds built."""
    pipe, m = args[0], _arg(args, kwargs, 1, "m")
    atoms = tuple((float(loc), np.asarray(mass).tobytes()) for loc, mass in pipe.data.dust.atoms)
    tr.distinct["measurepipe.background"].add((atoms, int(m)))


def _wrap_entries(tracer, entries_from_data):
    """Count the slices each per-slice entry adapter is asked for."""
    count = _count_size("hfapprox.entries_adapter.slices", 0, "ub_batch")

    def wrapper(data):
        return {k: tracer.counted(fn, count) for k, fn in entries_from_data(data).items()}

    return wrapper


# (span name, target "module.function" or "module.Class.method", count hook, argument adapter)
LAYERS = [
    ("odesolve.rk4_chunk", "odesolve._rk4_chunk", _count_rk4_chunk, None),
    ("odesolve.rk4_second_order", "odesolve.rk4_second_order", None, _adapt_rk4_second_order),
    ("planewave.solve_H", "planewave.solve_H", None, None),
    ("odesolve.solve_linear", "odesolve.solve_linear_second_order", None, _adapt_solve_linear),
    ("odesolve.dense_eval", "odesolve.DenseSolution._eval", _count_size("odesolve.dense_eval.points", 1, "ub"), None),
    ("constraints.dgamma_norm_sq", "constraints.dgamma_norm_sq", None, None),
    ("constraints.normsq_adapter", "constraints.ReducedCharData._generic_normsq",
     _count_size("constraints.normsq_adapter.slices", 1, "ub_batch"), None),
    ("constraints.weak_residual", "constraints.weak_constraint_residual", None, None),
    ("hfapprox.family_normsq", "hfapprox.OscillatoryFamily.dgamma_normsq",
     _count_size("hfapprox.family_normsq.points", 1, "ub_batch"), None),
    ("mollify.density", "mollify.MollifiedDensity.__call__", _count_size("mollify.density.points", 1, "ub_batch"), None),
    ("measurepipe.background", "measurepipe.MeasurePipeline.background", _count_background, None),
    ("measurepipe.weak_check", "measurepipe.pipeline_weak_check", None, None),
    ("charpipe.slice_fields", "charpipe.slice_fields", None, None),
    ("charpipe.rhs", "charpipe._rhs", None, None),
    ("charpipe.structure_residuals", "charpipe.structure_residuals", None, None),
    ("stencils.spectral_deriv", "stencils.spectral_deriv", _count_size("stencils.spectral_deriv.elements", 0, "f"), None),
    ("geometry.christoffel", "geometry.christoffel", None, None),
    ("geometry.gauss_curvature", "geometry.gauss_curvature", None, None),
    ("compcompact.decompose", "compcompact.decompose", None, None),
    ("compcompact.weak_product_test", "compcompact.weak_product_test", None, None),
    ("ricci4.spacetime_ricci", "ricci4.spacetime_ricci", None, None),
    ("shellmod.is_trapped", "shellmod.is_trapped", None, None),
]

# counted, not timed: (target, count hook)
COUNTED = [
    ("quadrature.gauss_legendre_nodes", _count_gl(2)),
    ("quadrature.gauss_legendre_integrate", _count_gl(3)),
]


def _rebind(original, replacement):
    """Point every nulldust module attribute bound to ``original`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nulldust" or name.startswith("nulldust.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _replace(target, make):
    """Replace the nulldust function or method ``target`` with make(original).

    Returns False when the target no longer exists.
    """
    mod, *path = target.split(".")
    try:
        owner = importlib.import_module(f"nulldust.{mod}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
    except (ImportError, AttributeError):
        return False
    if isinstance(owner, type):
        setattr(owner, path[-1], make(original))
    else:
        _rebind(original, make(original))
    return True


def install(tracer):
    """Wrap every layer of the already-imported nulldust package.

    Returns the targets that no longer exist (renamed or removed since this
    benchmark was written); their metrics read 0.
    """
    missing = []
    for span, target, count, adapt in LAYERS:
        if not _replace(target, lambda fn: tracer.timed(span, fn, count, adapt)):
            missing.append(target)
    for target, count in COUNTED:
        if not _replace(target, lambda fn: tracer.counted(fn, count)):
            missing.append(target)
    if not _replace("hfapprox.entries_from_data", lambda fn: _wrap_entries(tracer, fn)):
        missing.append("hfapprox.entries_from_data")
    return missing


def layer_metrics(tracer, spans):
    """Per-layer metrics of the traced pass: name -> (value, unit).

    Which end-to-end metric each should move, on which workload, is in
    perfbench/README.md.
    """
    busy, own = busy_and_self(spans)
    c = tracer.counts
    out = {}

    def ratio(num, den):
        return num / den if den else 0.0

    def put(name, value, unit):
        out[name] = (int(value) if unit == "count" else float(value), unit)

    def calls(layer):
        put(f"{layer}.calls", c[f"{layer}.calls"], "count")

    def busy_s(layer):
        put(f"{layer}.busy_s", busy.get(layer, 0.0), "s")

    layer = "odesolve.rk4_chunk"
    calls(layer)
    busy_s(layer)
    put(f"{layer}.point_steps", c[f"{layer}.point_steps"], "count")
    put(f"{layer}.point_steps_per_s", ratio(c[f"{layer}.point_steps"], busy.get(layer, 0.0)), "1/s")
    put(f"{layer}.mean_points", ratio(c[f"{layer}.point_steps"], c[f"{layer}.steps"]), "count/step")

    layer = "odesolve.rk4_second_order"
    busy_s(layer)
    put(f"{layer}.steps", c[f"{layer}.steps"], "count")
    put(f"{layer}.rhs_calls", c[f"{layer}.rhs_calls"], "count")
    put(f"{layer}.steps_per_s", ratio(c[f"{layer}.steps"], busy.get(layer, 0.0)), "1/s")
    busy_s("planewave.solve_H")

    layer = "odesolve.solve_linear"
    put(f"{layer}.self_s", own.get(layer, 0.0), "s")
    put(f"{layer}.coeff_requests", c[f"{layer}.coeff_requests"], "count")
    put(f"{layer}.coeff_reuse", ratio(c[f"{layer}.coeff_distinct"], c[f"{layer}.coeff_requests"]), "ratio")

    layer = "odesolve.dense_eval"
    calls(layer)
    put(f"{layer}.points", c[f"{layer}.points"], "count")
    busy_s(layer)
    put(f"{layer}.points_per_s", ratio(c[f"{layer}.points"], busy.get(layer, 0.0)), "1/s")

    calls("constraints.dgamma_norm_sq")
    busy_s("constraints.dgamma_norm_sq")
    put("constraints.normsq_adapter.slices", c["constraints.normsq_adapter.slices"], "count")
    busy_s("constraints.normsq_adapter")
    busy_s("constraints.weak_residual")

    put("hfapprox.family_normsq.points", c["hfapprox.family_normsq.points"], "count")
    busy_s("hfapprox.family_normsq")
    put("hfapprox.entries_adapter.slices", c["hfapprox.entries_adapter.slices"], "count")
    put("mollify.density.points", c["mollify.density.points"], "count")
    busy_s("mollify.density")
    calls("measurepipe.background")
    put("measurepipe.background.reuse",
        ratio(len(tracer.distinct["measurepipe.background"]), c["measurepipe.background.calls"]), "ratio")
    busy_s("measurepipe.weak_check")

    calls("charpipe.slice_fields")
    busy_s("charpipe.slice_fields")
    calls("charpipe.rhs")
    put("charpipe.rhs.self_s", own.get("charpipe.rhs", 0.0), "s")
    busy_s("charpipe.structure_residuals")
    layer = "stencils.spectral_deriv"
    calls(layer)
    put(f"{layer}.elements", c[f"{layer}.elements"], "count")
    busy_s(layer)
    put(f"{layer}.elements_per_s", ratio(c[f"{layer}.elements"], busy.get(layer, 0.0)), "1/s")
    calls("geometry.christoffel")
    busy_s("geometry.christoffel")
    put("geometry.christoffel.per_slice",
        ratio(c["geometry.christoffel.calls"], c["charpipe.slice_fields.calls"]), "ratio")
    calls("geometry.gauss_curvature")
    busy_s("geometry.gauss_curvature")

    busy_s("compcompact.decompose")
    busy_s("compcompact.weak_product_test")
    busy_s("ricci4.spacetime_ricci")
    calls("shellmod.is_trapped")
    busy_s("shellmod.is_trapped")
    put("quadrature.gl.calls", c["quadrature.gl.calls"], "count")
    put("quadrature.gl.nodes", c["quadrature.gl.nodes"], "count")
    return out
