"""Command-line front end: reproducible experiments with JSON/CSV reports.

Every experiment is a pure function of its configuration and seed; the
report embeds the resolved configuration, and two runs with the same
configuration produce byte-identical files apart from the timestamp
header field.  Exit codes: 0 success, 2 when a certificate failed,
3 for configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    STANDARD,
    SUPREMUM,
    GradedMetricConfig,
    SeminormLadder,
    WeightSequence,
    _comparability_rows,
    geometric_weights,
    graded_metric,
    metric_rows,
    piecewise_line_metric,
    standard_ball_nonconvexity_witness,
    supremum_config,
)
from .errors import ContractionError, DomainError
from .length import gromov_length, metric_length, smooth_length
from .minkowski import dyadic_minkowski_family, minkowski_functional, tame_grade_estimate
from .models import (
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_metric,
    element_norm,
    line_curve,
    make_fk,
    random_sequence,
    sequence_ladders,
    unit_sequence,
    zero_sequence,
)
from .operators import (
    ProbePlan,
    composition_operator,
    dense_operator,
    derivative_operator,
    down_shift,
    neumann_invert,
    oscillating_composition,
    peak_function,
    rbound_estimates,
    unboundedness_probe,
    up_shift,
)
from .solver import right_inverse_solve

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters; identical configs reproduce
    identical reports apart from the timestamp."""

    experiment: str
    depth: int = 16
    bandwidth: int = 8
    weights: str = "geometric:0.5"
    seed: int = 0
    tol: float = 1e-9
    out: str = "reports"
    fmt: str = "json"
    curve: str = "line:e1"
    target: str = "0.1e1"
    map_name: str = "tau-sine"


def parse_weights(text, depth):
    if text.startswith("geometric:"):
        ratio = float(text.split(":", 1)[1])
        return geometric_weights(ratio, depth), ratio
    values = np.array([float(x) for x in text.split(",")])
    if values.size < depth:
        raise DomainError(f"need {depth} weights, got {values.size}")
    return WeightSequence(values[:depth]), None


def parse_target(text, depth):
    """`SCALEeINDEX` denotes scale * e_index, e.g. 0.1e1 is 0.1 * e_1."""
    scale_text, index_text = text.rsplit("e", 1)
    return unit_sequence(depth, int(index_text) - 1) * float(scale_text)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _config(cfg_obj):
    weights, _ = parse_weights(cfg_obj.weights, cfg_obj.depth)
    return GradedMetricConfig(STANDARD, weights, cfg_obj.depth)


def run_metrics_compare(cfg_obj):
    depth = cfg_obj.depth
    metric_cfg = _config(cfg_obj)
    sup_cfg = GradedMetricConfig("supremum", metric_cfg.weights, depth)
    rng = np.random.default_rng(cfg_obj.seed)
    _, ratio = parse_weights(cfg_obj.weights, depth)
    # per pair: ladders a and b, then the triangle's third ladder c for each flavor
    a, b, *thirds = sequence_ladders(rng.normal(size=(100, 4, depth)), depth).swapaxes(0, 1)
    tri_ok = True
    for cfg, c in zip((metric_cfg, sup_cfg), thirds):
        d_ab = metric_rows(np.abs(a - b), cfg)
        d_acb = metric_rows(np.abs(a - c), cfg) + metric_rows(np.abs(c - b), cfg)
        tri_ok &= bool(np.all(d_ab <= d_acb + 1e-12))
    squared = ratio is not None and (ratio * ratio) ** depth > 0.0  # the r**2 weights are representable
    triples = _comparability_rows(a, ratio, depth) if squared else []
    rows = [[i, *t] for i, t in enumerate(triples)]
    ordered = all(t[0] <= t[1] + 1e-12 and t[1] <= t[2] + 1e-12 for t in triples)
    certificates = [{"name": "triangle-inequality-1e-12", "holds": bool(tri_ok)}]
    if triples:
        certificates.append(
            {"name": "comparability-triple-ordered", "ratio": ratio, "holds": bool(ordered)}
        )
    results = {
        "pairs": 100,
        "flat_ladder_standard": graded_metric(
            SeminormLadder(np.ones(depth)), None, metric_cfg
        ),
        "flat_ladder_supremum": graded_metric(SeminormLadder(np.ones(depth)), None, sup_cfg),
        "comparability_triples": triples[:10],
    }
    if ratio is not None and not squared:
        results["comparability_skipped"] = f"ratio**2 weights underflow to 0 at depth {depth}"
    table = (["pair", "sum_metric_r2", "sup_metric_r", "sum_metric_r"], rows) if rows else None
    return results, certificates, [], table


def run_shift_bound(cfg_obj):
    metric_cfg = _config(cfg_obj)
    plan = ProbePlan(seed=cfg_obj.seed, random_count=100)
    up, down = rbound_estimates([up_shift(cfg_obj.depth), down_shift(cfg_obj.depth)], metric_cfg, plan=plan)
    certificates = [
        {
            "name": "up-shift-lower-below-analytic",
            "holds": up.lower_bound <= up.analytic_upper + 1e-9,
        },
        {
            "name": "up-shift-witness-attains-bound",
            "holds": up.lower_bound >= up.analytic_upper - 1e-9,
        },
        {
            "name": "down-shift-below-analytic",
            "holds": down.lower_bound <= down.analytic_upper + 1e-12,
        },
    ]
    results = {
        "up_shift": {
            "analytic_bound": up.analytic_upper,
            "best_ratio": up.lower_bound,
            "probes": up.probe_count,
        },
        "down_shift": {
            "analytic_bound": down.analytic_upper,
            "best_ratio": down.lower_bound,
            "probes": down.probe_count,
        },
    }
    witnesses = [
        {"operator": "up-shift", "probe": up.witness, "ratio": up.lower_bound},
        {"operator": "down-shift", "probe": down.witness, "ratio": down.lower_bound},
    ]
    return results, certificates, witnesses, None


def run_fk_witness(cfg_obj):
    rows = []
    worst = 0.0
    for k in range(1, 7):
        f = make_fk(k)
        d = derivative_operator(f.bandwidth)
        ratio = d.apply(f).sup_norm() / f.sup_norm()
        worst = max(worst, abs(ratio - k * k))
        rows.append([k, f.sup_norm(), d.apply(f).sup_norm(), ratio, k * k])
    certificates = [{"name": "fk-ratio-equals-k-squared", "worst_gap": worst, "holds": worst <= 1e-9}]
    results = {"ratios": [r[3] for r in rows], "worst_gap": worst}
    return results, certificates, [], (["k", "sup", "derivative_sup", "ratio", "expected"], rows)


def run_composition_probe(cfg_obj):
    metric_cfg = _config(cfg_obj).with_truncation(min(cfg_obj.depth, 6))
    ratios = []
    rows = []
    base_bw = max(cfg_obj.bandwidth, 4)
    for bandwidth in (base_bw, 2 * base_bw, 4 * base_bw):
        comp = composition_operator(oscillating_composition(rate=bandwidth), bandwidth)
        base = peak_function(bandwidth, center=np.pi) * 0.5
        witness = peak_function(4, center=np.pi).embed(bandwidth)
        (ratio,) = unboundedness_probe(
            comp,
            [witness],
            norm_fn=lambda g: element_norm(g, metric_cfg),
            base=base,
            step=0.1 / bandwidth,
        )
        ratios.append(float(ratio))
        rows.append([bandwidth, float(ratio)])
    growing = ratios[0] < ratios[1] < ratios[2]
    certificates = [{"name": "composition-ratios-grow", "holds": bool(growing)}]
    return {"ratios": ratios}, certificates, [], (["bandwidth", "ratio"], rows)


def run_neumann_invert(cfg_obj):
    depth = cfg_obj.depth
    metric_cfg = _config(cfg_obj)
    plan = ProbePlan(seed=cfg_obj.seed, random_count=60)
    g = 0.5 * down_shift(depth).materialize()
    a = dense_operator(np.eye(depth) - g)
    series_tol = max(cfg_obj.tol, 1e-12)
    result = neumann_invert(a, metric_cfg, tol=series_tol, rho=0.5, plan=plan)
    oracle = np.linalg.inv(a.materialize())
    gap = float(np.max(np.abs(result.operator.materialize() - oracle)))
    # The residual A S_m - 1 is -G^(m+1) bit for bit, and a ceiling reads |levels|, so
    # the ceiling of G^(m+1) bounds it: G^i is 0.5^i on the i-th subdiagonal and A has at
    # most two nonzeros a row, so each entry of A S_m sums at most two nonzero products,
    # 0.5^k and -0.5^k with k <= 11, and every such sum is exact in binary.
    rows = []
    power = g
    for m in range(min(result.terms, 10) + 1):
        rows.append([m, dense_operator(power).analytic_rbound(metric_cfg), 0.5 ** (m + 1)])
        power = power @ g
    residual_ok = all(ceiling <= bound for _, ceiling, bound in rows)
    try:
        sigma = up_shift(depth, drop_level=False)
        neumann_invert(
            dense_operator(np.eye(depth) - sigma.materialize()), metric_cfg, plan=plan
        )
        rejected = False
    except ContractionError:
        rejected = True
    certificates = [
        {
            "name": "series-matches-dense-oracle-within-tol",
            "gap": gap,
            "tol": series_tol,
            "holds": gap < series_tol,
        },
        {"name": "residual-bounds-respected", "holds": bool(residual_ok)},
        {"name": "expanding-map-rejected", "holds": rejected},
    ]
    results = {
        "terms": result.terms,
        "rho": result.rho,
        "residual_bound": result.residual_bound,
        "inverse_bound": result.inverse_bound,
        "oracle_gap": gap,
    }
    return results, certificates, [], (["m", "residual_ceiling", "bound"], rows)


def run_ift_solve(cfg_obj):
    depth = cfg_obj.depth
    metric_cfg = _config(cfg_obj)
    if cfg_obj.map_name != "tau-sine":
        raise DomainError(f"unknown map {cfg_obj.map_name!r}")
    tau = down_shift(depth)

    def f(x):
        return x + tau.apply(TruncatedSequence(np.sin(x.coords))) * 0.1

    forward = dense_operator(np.eye(depth) + 0.1 * tau.materialize())
    r0 = neumann_invert(forward, metric_cfg, tol=1e-13, rho=0.5).operator
    y = parse_target(cfg_obj.target, depth)
    solution, trace, cert = right_inverse_solve(
        f,
        r0,
        y,
        zero_sequence(depth),
        metric_cfg,
        rho=0.25,
        tol=max(cfg_obj.tol, 1e-13),
        seed=cfg_obj.seed,
    )
    residual = element_metric(f(solution), y, metric_cfg)
    certificates = [
        {"name": "residual-below-tolerance", "residual": residual, "holds": residual < 1e-10},
        {"name": "target-inside-certified-ball", "holds": cert.valid},
    ]
    rows = [
        [n, d, b]
        for n, (d, b) in enumerate(zip(trace.step_distances, trace.apriori_bounds))
    ]
    results = {
        "iterations": trace.iterations,
        "residual": residual,
        "certificate": {
            "rho": cert.rho,
            "ball_radius": cert.radius,
            "target_radius": cert.target_radius,
            "operator_bound": cert.operator_bound,
            "lower_lipschitz": cert.lower_lipschitz,
        },
        "solution_head": solution.coords[:8],
    }
    return results, certificates, [], (["step", "distance", "apriori_bound"], rows)


def run_minkowski_tame(cfg_obj):
    depth = min(cfg_obj.depth, 12)
    if parse_weights(cfg_obj.weights, depth)[1] != 0.5:
        # the dyadic radii 2**-(2+n) and m4(e1) == 1 belong to ratio 1/2
        raise DomainError("minkowski-tame needs --weights geometric:0.5")
    sup_cfg = supremum_config(depth)
    rng = np.random.default_rng(cfg_obj.seed)
    m4 = minkowski_functional(sup_cfg, 4, unit_sequence(depth, 0))
    probes = []
    for _ in range(40):
        base = random_sequence(rng, depth)
        for scale in (1e-2, 1.0, 1e2):
            probes.append((scale, base * scale))
    ladder_fam = lambda v: v.ladder(depth).values
    mink_fam = lambda v: dyadic_minkowski_family(sup_cfg, v)
    forward = tame_grade_estimate(ladder_fam, mink_fam, probes)
    backward = tame_grade_estimate(mink_fam, ladder_fam, probes)
    certificates = [
        {"name": "gauge-closed-form-m4-e1", "value": m4, "holds": abs(m4 - 1.0) <= 1e-9},
        {"name": "ladder-tame-wrt-gauges", "holds": forward.satisfied},
        {"name": "gauges-tame-wrt-ladder", "holds": backward.satisfied},
    ]
    results = {
        "m4_e1": m4,
        "forward": {"base": forward.base, "grade": forward.grade},
        "backward": {
            "base": backward.base,
            "grade": backward.grade,
            "constants": backward.constants,
        },
    }
    return results, certificates, [], None


def _parse_curve(text, depth, rng):
    kind, _, arg = text.partition(":")
    if kind == "line":
        if arg == "e1":
            return line_curve(unit_sequence(depth, 0))
        if arg == "random":
            return line_curve(random_sequence(rng, depth))
        return line_curve(parse_target(arg + "e1" if "e" not in arg else arg, depth))
    if kind == "affine":
        return affine_curve(random_sequence(rng, depth), random_sequence(rng, depth))
    if kind == "sin-arc":
        v = random_sequence(rng, depth)
        w = random_sequence(rng, depth)
        return closed_form_curve(
            lambda t: v * np.sin(0.5 * np.pi * t) + w * t,
            lambda t: v * (0.5 * np.pi * np.cos(0.5 * np.pi * t)) + w,
        )
    raise DomainError(f"unknown curve {text!r}")


def run_lengths(cfg_obj):
    depth = cfg_obj.depth
    metric_cfg = _config(cfg_obj)
    rng = np.random.default_rng(cfg_obj.seed)
    curve = _parse_curve(cfg_obj.curve, depth, rng)
    l0 = gromov_length(curve, metric_cfg, tol=1e-8, max_level=28)
    little = metric_length(curve, metric_cfg)
    big = smooth_length(curve, metric_cfg)
    analytic_l0 = None
    certificates = [
        {
            "name": "metric-length-below-smooth-length",
            "holds": little.value <= big.value + 1e-9,
        }
    ]
    if curve.kind == "line":
        velocity = curve.velocity(0.0)
        analytic_l0 = float(
            np.sum(metric_cfg.level_weights * velocity.ladder(depth).values)
        )
        if l0.converged:
            certificates.append(
                {
                    "name": "partition-length-matches-analytic",
                    "holds": abs(l0.value - analytic_l0) <= 1e-6,
                }
            )
    results = {
        "curve": cfg_obj.curve,
        "partition_length": {"status": l0.status, "value": l0.value, "level": l0.level},
        "metric_length": little.value,
        "smooth_length": big.value,
        "analytic_partition_length": analytic_l0,
    }
    rows = [[i, s] for i, s in enumerate(l0.history)]
    return results, certificates, [], (["level", "chord_sum"], rows)


def run_ball_geometry(cfg_obj):
    depth = cfg_obj.depth
    std_cfg = _config(cfg_obj)
    sup_cfg = GradedMetricConfig(SUPREMUM, std_cfg.weights, depth)
    rng = np.random.default_rng(cfg_obj.seed)
    draws = rng.normal(size=(200, 2, depth))  # 200 (u, v) pairs, u drawn before v in each
    u, v = draws[:, 0], draws[:, 1]
    du, dv, dm = metric_rows(sequence_ladders(np.stack([u, v, (u + v) / 2]), depth), sup_cfg)
    convex_ok = np.all(dm <= np.maximum(du, dv))
    witness = standard_ball_nonconvexity_witness(std_cfg)
    line_ball = {
        "distance_to_2": piecewise_line_metric(0.0, 2.0),
        "distance_to_1": piecewise_line_metric(0.0, 1.0),
    }
    certificates = [
        {"name": "sup-midpoint-convexity", "holds": bool(convex_ok)},
        {
            "name": "standard-ball-not-convex",
            "margin": witness.margin,
            "holds": witness.margin > 1e-12,
        },
        {
            "name": "line-ball-disconnected",
            "holds": line_ball["distance_to_2"] < 0.6 < line_ball["distance_to_1"],
        },
    ]
    results = {
        "nonconvexity": {
            "radius": witness.radius,
            "midpoint_value": witness.midpoint_value,
            "margin": witness.margin,
        },
        "line_ball": line_ball,
    }
    witnesses = [
        {
            "kind": "standard-ball-midpoint",
            "first_value": witness.first_value,
            "second_value": witness.second_value,
            "midpoint_value": witness.midpoint_value,
        }
    ]
    return results, certificates, witnesses, None


_RUNNERS = {
    "metrics-compare": run_metrics_compare,
    "shift-bound": run_shift_bound,
    "fk-witness": run_fk_witness,
    "composition-probe": run_composition_probe,
    "neumann-invert": run_neumann_invert,
    "ift-solve": run_ift_solve,
    "minkowski-tame": run_minkowski_tame,
    "lengths": run_lengths,
    "ball-geometry": run_ball_geometry,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(experiment, cfg_obj):
    """Execute one experiment and write its report files.

    Returns (paths, exit_code); exit code 2 flags a failed certificate.
    """
    if experiment not in _RUNNERS:
        raise DomainError(f"unknown experiment {experiment!r}")
    results, certificates, witnesses, table = _RUNNERS[experiment](cfg_obj)
    report = {
        "header": {
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": asdict(cfg_obj),
        },
        "results": _jsonable(results),
        "certificates": _jsonable(certificates),
        "witnesses": _jsonable(witnesses),
    }
    out_dir = Path(cfg_obj.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if cfg_obj.fmt in ("json", "both"):
        path = out_dir / f"{experiment}.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        paths["json"] = str(path)
    if cfg_obj.fmt in ("csv", "both") and table is not None:
        header, rows = table
        path = out_dir / f"{experiment}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows([[_csv_cell(x) for x in row] for row in rows])
        paths["csv"] = str(path)
    exit_code = 0 if all(c.get("holds", True) for c in certificates) else 2
    return paths, exit_code


def _csv_cell(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedmetrics",
        description="Reproducible experiments on graded-metric models",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--depth", type=int, default=16)
    parser.add_argument("--bandwidth", type=int, default=8)
    parser.add_argument("--weights", default="geometric:0.5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv", "both"), default="json")
    parser.add_argument("--curve", default="line:e1", help="lengths: line:e1 | line:random | affine | sin-arc")
    parser.add_argument("--target", default="0.1e1", help="ift-solve: SCALEeINDEX, e.g. 0.1e1")
    parser.add_argument("--map", dest="map_name", default="tau-sine")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    cfg_obj = ExperimentConfig(**vars(args))
    try:
        paths, exit_code = run(args.experiment, cfg_obj)
    except (DomainError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
