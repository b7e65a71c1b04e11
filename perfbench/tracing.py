"""Spans around the program's public names, recorded from outside it.

`install(tracer)` wraps every public function of each program module,
the public methods of its classes and the constructors of its value
types, and rebinds every reference to them: a name imported into another
module (say `element_metric` inside `solver`) and the experiment table
of `cli` call the wrapper too.  Each call appends one span (name, start,
end, parent span) to flat arrays that stay in memory until the run ends.
A few wrappers also keep a payload read off the arguments or the result,
such as the probe count of a bound estimate.

`layer_metrics` (numpy) turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("core", "models", "operators", "minkowski", "calculus", "solver", "length", "cli")
VALUE_TYPES = {
    "WeightSequence", "SeminormLadder", "GradedMetricConfig",
    "TruncatedSequence", "PeriodicFunction", "CurveSpec",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload = {}
        self._stack = [-1]

    def wrap(self, name, fn, payload=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, payloads = self._stack, self.payload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if payload is not None:
                payloads[idx] = payload(args, kwargs, result)
            return result

        return traced

    def dump(self):
        return {
            "names": list(self.names),
            "name_of": self.name_of.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "payload": dict(self.payload),
        }


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rbound_payload(args, kwargs, result):
    from gradedmetrics.operators import ProbePlan

    op = args[0]
    plan = _arg(args, kwargs, 3, "plan") or ProbePlan()
    if op.space == "seq":
        size = op.domain_dim * len(plan.basis_scales) + plan.random_count * len(plan.random_scales)
    else:
        count = _arg(args, kwargs, 4, "random_count")
        count = plan.random_count if count is None else count
        size = (op.domain_dim - 1) * len(plan.basis_scales) + count * len(plan.random_scales)
    return (op.space, result.probe_count, size)


def _chord_points(args, kwargs, result):
    level = result.level
    if args[0].kind in ("line", "affine"):
        return 2 * (level + 1)
    return 2 ** (level + 1) + level


def _quadrature_nodes(args, kwargs, result):
    n = max(2, _arg(args, kwargs, 2, "quadrature", 32))
    n += n % 2
    total = 0
    while n <= result.level:
        total += n + 1
        n *= 2
    return total


def _tame_probes(args, kwargs, result):
    probes = _arg(args, kwargs, 2, "probes")
    return len(probes) if hasattr(probes, "__len__") else 0


PAYLOADS = {
    "models.PeriodicFunction.level_norms": lambda args, kwargs, result: args[0].bandwidth,
    "operators.rbound_estimate": _rbound_payload,
    "length.gromov_length": _chord_points,
    "length.smooth_length": _quadrature_nodes,
    "length.metric_length": _quadrature_nodes,
    "minkowski.tame_grade_estimate": _tame_probes,
    "solver.banach_fixed_point": lambda args, kwargs, result: result[1].iterations,
}


def _traceable(fn):
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def install(tracer):
    """Wrap the program's public names and rebind every reference to them."""
    package = importlib.import_module("gradedmetrics")
    modules = [importlib.import_module(f"gradedmetrics.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _traceable(obj):
                full = f"{layer}.{name}"
                wrapped[obj] = tracer.wrap(full, obj, PAYLOADS.get(full))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    public = not attr.startswith("_") or (attr == "__init__" and name in VALUE_TYPES)
                    if public and _traceable(fn):
                        full = f"{layer}.{name}.{attr}"
                        setattr(obj, attr, tracer.wrap(full, fn, PAYLOADS.get(full)))
    for mod in [package, *modules]:
        for name, obj in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if _traceable(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if _traceable(value) and value in wrapped:
                        obj[key] = wrapped[value]


def layer_metrics(dump, rounds):
    """Per-layer metrics from a span dump; counts and times are per round."""
    import numpy as np

    names = dump["names"]
    ids = {name: i for i, name in enumerate(names)}
    name_of = np.frombuffer(dump["name_of"], dtype=np.int32)
    parent = np.frombuffer(dump["parent"], dtype=np.int32)
    dur = np.frombuffer(dump["end"]) - np.frombuffer(dump["start"])
    payload = dump["payload"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    own = dur - child
    count_by = np.bincount(name_of, minlength=len(names)).astype(float)
    dur_by = np.bincount(name_of, weights=dur, minlength=len(names))
    own_by = np.bincount(name_of, weights=own, minlength=len(names))

    def spans(name):
        return np.flatnonzero(name_of == ids[name]) if name in ids else np.empty(0, dtype=int)

    def count(*names_):
        return sum(count_by[ids[n]] for n in names_ if n in ids)

    def total(name):
        return dur_by[ids[name]] if name in ids else 0.0

    def self_s(layer):
        return sum(own_by[i] for i, n in enumerate(names) if n.startswith(layer + "."))

    def mean(values, scale):
        return float(np.mean(values)) * scale if len(values) else 0.0

    per_round = 1.0 / rounds
    out = {}
    out["core.metric_calls"] = count("core.standard_metric", "core.sup_metric") * per_round
    out["core.ladders_built"] = count("core.SeminormLadder.__init__") * per_round
    out["models.seqs_built"] = count("models.TruncatedSequence.__init__") * per_round
    out["models.fns_built"] = count("models.PeriodicFunction.__init__") * per_round

    ladder = spans("models.PeriodicFunction.level_norms")
    bands = np.array([payload[i] for i in ladder], dtype=float)
    out["models.fn_ladder_narrow_ms"] = mean(dur[ladder[bands <= 64]], 1e3)
    out["models.fn_ladder_wide_ms"] = mean(dur[ladder[bands >= 512]], 1e3)

    rb = spans("operators.rbound_estimate")
    rb_info = [payload[i] for i in rb]
    seq = np.array([info[0] == "seq" for info in rb_info], dtype=bool)
    probes = np.array([info[1] for info in rb_info], dtype=float)
    plan = np.array([info[2] for info in rb_info], dtype=float)
    out["operators.rbound_seq_s"] = float(np.sum(dur[rb[seq]])) * per_round if rb.size else 0.0
    out["operators.probes_seq"] = float(np.sum(probes[seq])) * per_round if rb.size else 0.0
    out["operators.neumann_s"] = total("operators.neumann_invert") * per_round
    out["operators.rbound_fn_s"] = float(np.sum(dur[rb[~seq]])) * per_round if rb.size else 0.0
    out["operators.probes_fn"] = float(np.sum(probes[~seq])) * per_round if rb.size else 0.0
    rb_time = float(np.sum(dur[rb])) if rb.size else 0.0
    out["operators.probes_per_s"] = float(np.sum(probes)) / rb_time if rb_time else 0.0
    out["operators.probe_yield"] = float(np.sum(probes) / np.sum(plan)) if rb.size else 0.0

    gauges = spans("minkowski.ball_gauge")
    out["minkowski.gauges"] = gauges.size * per_round
    out["minkowski.gauge_us"] = mean(dur[gauges], 1e6)
    # probes per tame estimate; estimates under one parent share their probes
    tame = spans("minkowski.tame_grade_estimate")
    family = spans("minkowski.dyadic_minkowski_family")
    in_tame = np.isin(parent[family], tame)
    shared = {}
    for i in tame:
        shared[parent[i]] = max(shared.get(parent[i], 0), payload[i])
    tame_probes = sum(shared.values())
    out["minkowski.family_calls_per_probe"] = float(np.sum(in_tame)) / tame_probes if tame_probes else 0.0

    out["length.chord_points"] = sum(payload[i] for i in spans("length.gromov_length")) * per_round
    out["length.quadrature_nodes"] = (
        sum(payload[i] for i in spans("length.smooth_length"))
        + sum(payload[i] for i in spans("length.metric_length"))
    ) * per_round
    out["solver.iterations"] = sum(payload[i] for i in spans("solver.banach_fixed_point")) * per_round
    out["calculus.derivatives"] = count("calculus.directional_derivative") * per_round

    runs = spans("cli.run")
    out["cli.report_ms"] = mean(own[runs], 1e3)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(layer) * per_round
    return out
