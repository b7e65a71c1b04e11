"""Program side of every request kind: the call, and what is kept of it.

`CALLS[kind](params, reports)` makes one request: it builds the program's
value types from the generated inputs and calls the public API (or runs
one experiment through `gradedmetrics.cli.run`).  Every program name is
looked up on its module at call time, so the tracer's wrappers see it.
`KEEP[kind](result)` turns the returned object into plain numbers and
arrays for the checks; it runs outside the request's timed interval.
"""

from __future__ import annotations

import json
import os

import numpy as np

import gradedmetrics as gm
from gradedmetrics import cli

from mixes import AFFINE_TOL, FN_DEPTH, LINE_MAX_LEVEL, LINE_TOL, QUADRATURE, SINARC_TOL

SINARC_MAX_LEVEL = 16


def _cli(params, reports):
    experiment = params["experiment"]
    extra = {k: params[k] for k in ("curve", "bandwidth") if k in params}
    cfg = cli.ExperimentConfig(
        experiment=experiment,
        depth=params["depth"],
        seed=params["seed"],
        weights="geometric:0.5",
        out=os.path.join(reports, experiment),
        **extra,
    )
    return cli.run(experiment, cfg)


def _keep_cli(result):
    paths, exit_code = result
    with open(paths["json"], encoding="utf-8") as handle:
        report = json.load(handle)
    return {"exit": exit_code, "results": report["results"], "certificates": report["certificates"]}


def _tau_sine(depth):
    tau = gm.down_shift(depth)

    def f(x):
        return x + tau.apply(gm.TruncatedSequence(np.sin(x.coords))) * 0.1

    return tau, f


def _left_inverse(params, reports):
    depth = params["depth"]
    cfg = gm.standard_config(depth)
    tau, f = _tau_sine(depth)
    forward = gm.dense_operator(np.eye(depth) + 0.1 * tau.materialize())
    l0 = gm.neumann_invert(forward, cfg, tol=1e-13, rho=0.5).operator
    return gm.left_inverse_certificate(
        f, l0, gm.zero_sequence(depth), params["radius"], cfg, rho=0.25, seed=params["seed"]
    )


def _keep_left_inverse(cert):
    return {
        "valid": cert.valid,
        "rho": cert.rho,
        "operator_bound": cert.operator_bound,
        "lower_lipschitz": cert.lower_lipschitz,
    }


def _b_diff(params, reports):
    depth = params["depth"]
    _, f = _tau_sine(depth)
    directions = [gm.TruncatedSequence(d) for d in params["directions"]]
    return gm.b_diff_report(
        f, gm.TruncatedSequence(params["x0"]), 0.5, gm.standard_config(depth),
        directions=directions, seed=params["seed"],
    )


def _keep_b_diff(report):
    return {
        "derivatives": np.array([row[1].coords for row in report.derivative_table]),
        "differentiable": report.differentiable,
        "mean_value_margin": report.mean_value_margin,
    }


def _fn_ladder(params, reports):
    return gm.PeriodicFunction(params["coeffs"]).ladder(FN_DEPTH)


def _fn_level_norms(params, reports):
    return gm.PeriodicFunction(params["coeffs"]).level_norms(FN_DEPTH)


def _fn_rbound(params, reports):
    return gm.rbound_estimate(
        gm.derivative_operator(params["bandwidth"]),
        gm.standard_config(FN_DEPTH),
        plan=gm.ProbePlan(seed=params["plan_seed"], random_count=params["random_count"]),
    )


def _keep_rbound(est):
    return {
        "lower_bound": est.lower_bound,
        "analytic_upper": est.analytic_upper,
        "probe_count": est.probe_count,
        "witness": est.witness,
    }


def _fn_gromov(params, reports):
    curve = gm.line_curve(gm.harmonic(params["mode"], amplitude=params["amplitude"]))
    return gm.gromov_length(curve, gm.standard_config(FN_DEPTH), tol=LINE_TOL, max_level=LINE_MAX_LEVEL)


def _keep_length(result):
    return {"status": result.status, "value": result.value, "level": result.level}


def _seq(x):
    return gm.TruncatedSequence(x)


def _affine(params):
    return gm.affine_curve(_seq(params["a"]), _seq(params["b"]))


def _sinarc(params):
    v, w = _seq(params["v"]), _seq(params["w"])
    return gm.closed_form_curve(
        lambda t: v * np.sin(0.5 * np.pi * t) + w * t,
        lambda t: v * (0.5 * np.pi * np.cos(0.5 * np.pi * t)) + w,
    )


def _curve_cfg(params):
    return gm.standard_config(len(params.get("a", params.get("v"))))


CALLS = {
    "cli:metrics-compare": _cli,
    "cli:shift-bound": _cli,
    "cli:neumann-invert": _cli,
    "cli:ift-solve": _cli,
    "cli:ball-geometry": _cli,
    "cli:lengths": _cli,
    "cli:fk-witness": _cli,
    "cli:composition-probe": _cli,
    "cli:minkowski-tame": _cli,
    "left-inverse": _left_inverse,
    "b-diff": _b_diff,
    "fn-ladder": _fn_ladder,
    "fn-level-norms": _fn_level_norms,
    "fn-rbound": _fn_rbound,
    "fn-gromov": _fn_gromov,
    "smooth-affine": lambda p, r: gm.smooth_length(_affine(p), _curve_cfg(p), quadrature=QUADRATURE),
    "metric-affine": lambda p, r: gm.metric_length(_affine(p), _curve_cfg(p), quadrature=QUADRATURE),
    "gromov-affine": lambda p, r: gm.gromov_length(
        _affine(p), _curve_cfg(p), tol=AFFINE_TOL, max_level=LINE_MAX_LEVEL
    ),
    "gromov-line": lambda p, r: gm.gromov_length(
        gm.line_curve(_seq(p["v"])), _curve_cfg(p), tol=LINE_TOL, max_level=LINE_MAX_LEVEL
    ),
    "smooth-sinarc": lambda p, r: gm.smooth_length(_sinarc(p), _curve_cfg(p), quadrature=QUADRATURE),
    "metric-sinarc": lambda p, r: gm.metric_length(_sinarc(p), _curve_cfg(p), quadrature=QUADRATURE),
    "gromov-sinarc": lambda p, r: gm.gromov_length(
        _sinarc(p), _curve_cfg(p), tol=SINARC_TOL, max_level=SINARC_MAX_LEVEL
    ),
    "affine-minimality": lambda p, r: gm.affine_minimality_probe(
        _seq(p["a"]), _seq(p["b"]), _curve_cfg(p), count=p["count"], seed=p["seed"], quadrature=QUADRATURE
    ),
    "ball-gauge": lambda p, r: gm.ball_gauge(gm.supremum_config(len(p["v"])), p["radius"], _seq(p["v"])),
    "dyadic-family": lambda p, r: gm.dyadic_minkowski_family(gm.supremum_config(len(p["v"])), _seq(p["v"])),
}

KEEP = {
    "left-inverse": _keep_left_inverse,
    "b-diff": _keep_b_diff,
    "fn-ladder": lambda ladder: {"values": np.array(ladder.values)},
    "fn-level-norms": lambda norms: {"values": np.array(norms)},
    "fn-rbound": _keep_rbound,
    "affine-minimality": lambda res: {"all_longer": bool(res[0]), "margin": float(res[1])},
    "ball-gauge": lambda lam: {"gauge": float(lam)},
    "dyadic-family": lambda gauges: {"gauges": np.array(gauges)},
}
for _kind in CALLS:
    if _kind.startswith("cli:"):
        KEEP[_kind] = _keep_cli
    KEEP.setdefault(_kind, _keep_length)
