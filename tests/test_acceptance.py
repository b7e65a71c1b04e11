"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Every tolerance is fixed here, not calibrated at runtime, and every
criterion is expected to pass.  Criterion 3 checks comparability at all
three weight ratios through the bounds the metrics satisfy for every ratio
r: the sup metric is at most the sum metric at r, and the sum metric at r**2
is at most C(r) = r + r**2 + ... + r**depth times the sup metric.  The plain
ordering of the triple is asserted only for r <= 1/2, where C(r) <= 1; at
r = 0.8 it fails on generic ladders (see the flat-ladder counterexample in
test_core), and the verdict line reports those violations per ratio.
"""

import json

import numpy as np
import pytest
from oracles import neumann_partial_sums

from gradedmetrics.cli import ExperimentConfig, run
from gradedmetrics.core import (
    GradedMetricConfig,
    STANDARD,
    SUPREMUM,
    SeminormLadder,
    comparability_check,
    geometric_weights,
    graded_metric,
    piecewise_line_metric,
    standard_ball_nonconvexity_witness,
    standard_config,
    standard_metric,
    sup_metric,
    supremum_config,
)
from gradedmetrics.errors import ContractionError
from gradedmetrics.calculus import line_b_differentiable
from gradedmetrics.length import (
    affine_minimality_probe,
    gromov_length,
    metric_length,
    smooth_length,
)
from gradedmetrics.minkowski import (
    dyadic_minkowski_family,
    minkowski_functional,
    tame_grade_estimate,
)
from gradedmetrics.models import (
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_metric,
    element_norm,
    harmonic,
    line_curve,
    make_fk,
    random_sequence,
    unit_sequence,
    zero_sequence,
)
from gradedmetrics.operators import (
    ProbePlan,
    dense_operator,
    derivative_operator,
    diagonal_operator,
    down_shift,
    neumann_invert,
    rbound_estimate,
    up_shift,
)
from gradedmetrics.solver import (
    banach_fixed_point,
    inverse_derivative_check,
    left_inverse_certificate,
    right_inverse_solve,
)


def _verdict(number, label, ok):
    print(f"criterion {number:>2} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def _random_ladder(rng, depth):
    return SeminormLadder(np.cumsum(np.abs(rng.normal(size=depth))))


def test_criterion_01_metric_axioms_and_scalar_bound():
    depth = 12
    rng = np.random.default_rng(101)
    ok = True
    for flavor in (STANDARD, SUPREMUM):
        cfg = GradedMetricConfig(flavor, geometric_weights(0.5, depth), depth)
        for _ in range(1000):
            a, b, c = (_random_ladder(rng, depth) for _ in range(3))
            d_ab = graded_metric(a, b, cfg)
            ok &= d_ab == graded_metric(b, a, cfg)
            ok &= graded_metric(a, a, cfg) == 0.0
            ok &= d_ab <= graded_metric(a, c, cfg) + graded_metric(c, b, cfg) + 1e-12
            for rho in (1.0, 2.0, 10.0):
                scaled = SeminormLadder(a.values * rho)
                ok &= graded_metric(scaled, None, cfg) <= rho * graded_metric(a, None, cfg) + 1e-12
    _verdict(1, "metric axioms and scalar-boundedness on 1000 seeded pairs per flavor", ok)


def test_criterion_02_ball_geometry():
    depth = 12
    sup_cfg = supremum_config(depth)
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        u = rng.normal(size=depth)
        v = rng.normal(size=depth)
        du = sup_metric(SeminormLadder(np.cumsum(np.abs(u))), None, sup_cfg)
        dv = sup_metric(SeminormLadder(np.cumsum(np.abs(v))), None, sup_cfg)
        dm = sup_metric(SeminormLadder(np.cumsum(np.abs((u + v) / 2))), None, sup_cfg)
        ok &= dm <= max(du, dv)
    witness = standard_ball_nonconvexity_witness(standard_config(depth))
    ok &= witness.first_value <= witness.radius + 1e-12
    ok &= witness.second_value <= witness.radius + 1e-12
    ok &= witness.midpoint_value > witness.radius
    ok &= piecewise_line_metric(0.0, 2.0) == 0.5 < 0.6
    ok &= piecewise_line_metric(0.0, 1.0) == 1.0 > 0.6
    _verdict(2, "sup-ball convexity, standard-ball witness, disconnected line ball", ok)


def test_criterion_03_comparability():
    depth = 30
    rng = np.random.default_rng(103)
    ratios = (0.2, 0.5, 0.8)
    # sum of the weights r**n, n = 1..depth: the constant C(r) in
    # T1 <= C(r) * T2, below 1 at every depth when r <= 1/2
    constants = {r: r * (1 - r**depth) / (1 - r) for r in ratios}
    failures = {r: 0 for r in ratios}
    ok = True
    for _ in range(500):
        ladder = _random_ladder(rng, depth)
        for r in ratios:
            t1, t2, t3 = comparability_check(ladder, r, depth)
            ok &= t2 <= t3 + 1e-12
            ok &= t1 <= constants[r] * t2 + 1e-12
            if not (t1 <= t2 + 1e-12 and t2 <= t3 + 1e-12):
                failures[r] += 1
    ok &= all(failures[r] == 0 for r in ratios if r <= 0.5)
    _verdict(
        3,
        "comparability T2 <= T3 and T1 <= C(r) T2, ordered for r <= 1/2; "
        f"ordering violations by ratio: {failures}",
        ok,
    )


def test_criterion_04_shift_bounds():
    depth = 16
    cfg = standard_config(depth)
    plan = ProbePlan(seed=104, random_count=200)
    up = rbound_estimate(up_shift(depth), cfg, plan=plan)
    down = rbound_estimate(down_shift(depth), cfg, plan=plan)
    cod = cfg.with_truncation(depth - 1)
    e2 = unit_sequence(depth, 1)
    witness_ratio = element_norm(up_shift(depth).apply(e2), cod) / element_norm(e2, cfg)
    # basis probes sit exactly on the bound; the weighted sums of numerator
    # and denominator round separately, so allow the same machine slack the
    # down-shift clause carries
    ok = up.lower_bound <= 2.0 + 1e-12
    ok &= witness_ratio >= 2.0 - 1e-9
    ok &= down.lower_bound <= 0.5 + 1e-12
    _verdict(4, "up-shift bracket [2 - 1e-9, 2] attained, down-shift below 0.5", ok)


def test_criterion_05_derivative_operator():
    cfg = standard_config(16)
    est = rbound_estimate(
        derivative_operator(8), cfg, plan=ProbePlan(seed=105, random_count=100)
    )
    ok = est.lower_bound <= 2.0 + 1e-9
    for k in range(1, 7):
        f = make_fk(k)
        ratio = derivative_operator(f.bandwidth).apply(f).sup_norm() / f.sup_norm()
        ok &= abs(ratio - k * k) <= 1e-9
    _verdict(5, "derivative bound 2 in the graded metric; single-norm ratios k^2", ok)


def test_criterion_06_neumann_inversion():
    depth = 16
    cfg = standard_config(depth)
    plan = ProbePlan(seed=106, random_count=100)
    tau = down_shift(depth)
    a = dense_operator(np.eye(depth) - 0.5 * tau.materialize())
    rho = 0.5
    result = neumann_invert(a, cfg, tol=1e-12, rho=rho, plan=plan)
    oracle = np.linalg.inv(a.materialize())
    ok = float(np.max(np.abs(result.operator.materialize() - oracle))) <= 1e-10
    for m, s in enumerate(neumann_partial_sums(a.materialize(), 12)):
        tail_bound = rho ** (m + 1) / (1.0 - rho)
        gap_est = rbound_estimate(dense_operator(s - oracle), cfg, plan=plan)
        ok &= gap_est.lower_bound <= tail_bound + 1e-9
        resid_est = rbound_estimate(
            dense_operator(a.materialize() @ s - np.eye(depth)), cfg, plan=plan
        )
        ok &= resid_est.lower_bound <= rho ** (m + 1) + 1e-9
    sigma = up_shift(depth, drop_level=False)
    try:
        neumann_invert(dense_operator(np.eye(depth) - sigma.materialize()), cfg, plan=plan)
        ok = False
    except ContractionError:
        pass
    _verdict(6, "series inverse vs dense oracle, tail bounds, expanding map rejected", ok)


def test_criterion_07_banach_rate_certificate():
    depth = 16
    cfg = standard_config(depth)
    rng = np.random.default_rng(107)
    ok = True
    cases = [(0.3, 2), (0.5, 1), (0.8, 1)]
    runs_per_case = (17, 17, 16)  # 50 seeded contractions in total
    for (rho, power), count in zip(cases, runs_per_case):
        for _ in range(count):
            tau = down_shift(depth)
            op = tau
            for _ in range(power - 1):
                op = tau.compose(op)
            op = op.compose(diagonal_operator(rng.uniform(-1.0, 1.0, depth)))
            offset = random_sequence(rng, depth)

            def step(x, op=op, offset=offset):
                return op.apply(x) + offset

            fixed, trace = banach_fixed_point(step, zero_sequence(depth), cfg, rho=rho, tol=1e-11)
            d0 = trace.step_distances[0]
            for n, point in enumerate(trace.head):
                bound = rho**n / (1.0 - rho) * d0
                ok &= element_metric(point, fixed, cfg) <= bound + 1e-9
    _verdict(7, "a-priori rate bound holds at every retained iterate, 50 runs", ok)


def _tau_sine_problem(depth):
    tau = down_shift(depth)

    def f(x):
        return x + tau.apply(TruncatedSequence(np.sin(x.coords))) * 0.1

    def jacobian(coords):
        return np.eye(depth) + 0.1 * (tau.materialize() * np.cos(coords)[None, :])

    return f, jacobian


def _newton_oracle(f, jacobian, y, depth, tol=1e-14):
    x = np.zeros(depth)
    for _ in range(200):
        residual = f(TruncatedSequence(x)).coords - y.coords
        if np.max(np.abs(residual)) < tol:
            break
        x = x - 0.5 * np.linalg.solve(jacobian(x), residual)
    return TruncatedSequence(x)


def test_criterion_08_right_inverse_solver():
    depth = 16
    cfg = standard_config(depth)
    f, jacobian = _tau_sine_problem(depth)
    forward = dense_operator(jacobian(np.zeros(depth)))
    r0 = neumann_invert(forward, cfg, tol=1e-13, rho=0.5).operator
    rng = np.random.default_rng(108)
    ok = True
    certificate = None
    for _ in range(20):
        y = random_sequence(rng, depth) * 0.02
        x, trace, certificate = right_inverse_solve(
            f, r0, y, zero_sequence(depth), cfg, rho=0.25, tol=1e-13, ball_radius=0.5
        )
        ok &= certificate.valid
        ok &= float(np.max(np.abs(x.coords - _newton_oracle(f, jacobian, y, depth).coords))) <= 1e-9
        ok &= element_metric(f(x), y, cfg) < 1e-10
    try:
        left_inverse_certificate(
            f, r0, zero_sequence(depth), radius=0.5, cfg=cfg, rho=0.25, pairs=500, seed=108
        )
    except Exception:
        ok = False

    def inverse_fn(y):
        solution, _, _ = right_inverse_solve(
            f, r0, y, zero_sequence(depth), cfg, rho=0.25, tol=1e-14, ball_radius=0.5
        )
        return solution

    directions = [random_sequence(rng, depth) * 0.05 for _ in range(20)]
    deviation = inverse_derivative_check(f, inverse_fn, zero_sequence(depth), directions, cfg)
    ok &= deviation < 1e-6
    _verdict(8, "right-inverse solve vs Newton oracle, lower Lipschitz, inverse derivative", ok)


def test_criterion_09_minkowski():
    depth = 12
    cfg = supremum_config(depth)
    rng = np.random.default_rng(109)
    ok = abs(minkowski_functional(cfg, 4, unit_sequence(depth, 0)) - 1.0) <= 1e-9
    for _ in range(500):
        u = random_sequence(rng, depth)
        v = random_sequence(rng, depth)
        c = float(rng.uniform(0.25, 4.0))
        m_u = minkowski_functional(cfg, 4, u)
        ok &= abs(minkowski_functional(cfg, 4, u * c) - c * m_u) <= 1e-9 * max(
            1.0, c * m_u
        )
        m_v = minkowski_functional(cfg, 4, v)
        m_uv = minkowski_functional(cfg, 4, u + v)
        ok &= m_uv <= m_u + m_v + 1e-9 * (1.0 + m_u + m_v)
    probes = []
    for _ in range(30):
        base = random_sequence(rng, depth)
        probes.extend((s, base * s) for s in (1e-2, 1.0, 1e2))
    ladder_fam = lambda v: v.ladder(depth).values
    mink_fam = lambda v: dyadic_minkowski_family(cfg, v)
    forward = tame_grade_estimate(ladder_fam, mink_fam, probes)
    backward = tame_grade_estimate(mink_fam, ladder_fam, probes)
    ok &= forward.satisfied and forward.grade <= 4
    ok &= backward.satisfied and backward.grade <= 4
    _verdict(9, "gauge homogeneity/subadditivity, closed-form case, tame verdicts", ok)


def test_criterion_10_lengths():
    rng = np.random.default_rng(110)
    cfg30 = standard_config(30)
    result = gromov_length(line_curve(unit_sequence(30, 0)), cfg30, tol=1e-8, max_level=30)
    ok = result.converged and abs(result.value - 1.0) <= 1e-6

    depth = 12
    cfg = standard_config(depth)
    for _ in range(20):
        a = random_sequence(rng, depth)
        b = random_sequence(rng, depth)
        ok &= abs(smooth_length(affine_curve(a, b), cfg).value - element_metric(a, b, cfg)) <= 1e-10

    for i in range(200):
        kind = i % 3
        if kind == 0:
            curve = line_curve(random_sequence(rng, depth))
        elif kind == 1:
            curve = affine_curve(random_sequence(rng, depth), random_sequence(rng, depth))
        else:
            v = random_sequence(rng, depth)
            w = random_sequence(rng, depth)
            curve = closed_form_curve(
                lambda t, v=v, w=w: v * np.sin(0.5 * np.pi * t) + w * t,
                lambda t, v=v, w=w: v * (0.5 * np.pi * np.cos(0.5 * np.pi * t)) + w,
            )
        ok &= metric_length(curve, cfg, quadrature=64).value <= smooth_length(
            curve, cfg, quadrature=64
        ).value + 1e-9

    bounded = [TruncatedSequence(rng.uniform(-1.0, 1.0, depth)) for _ in range(10)]
    growing = [harmonic(k) for k in range(2, 12)]
    for v in bounded:
        assert line_b_differentiable(v, depth).bounded
        ok &= gromov_length(line_curve(v), cfg, tol=1e-5, max_level=24).converged
    for v in growing:
        assert not line_b_differentiable(v, depth).bounded
        ok &= gromov_length(line_curve(v), cfg, tol=1e-5, max_level=24).diverged

    a = random_sequence(rng, depth)
    b = random_sequence(rng, depth)
    minimal, margin = affine_minimality_probe(a, b, cfg, count=50, amplitude=0.1, seed=110)
    ok &= minimal and margin >= -1e-9
    _verdict(10, "partition/metric/smooth lengths, dichotomy, affine minimality", ok)


def test_criterion_11_cli_determinism(tmp_path):
    from gradedmetrics.cli import EXPERIMENTS

    ok = True
    for experiment in EXPERIMENTS:
        out = tmp_path / experiment
        cfg = ExperimentConfig(experiment=experiment, depth=12, seed=11, out=str(out))
        run(experiment, cfg)
        report = json.loads((out / f"{experiment}.json").read_text())
        report["header"].pop("timestamp")
        first = json.dumps(report, sort_keys=True)
        run(experiment, cfg)
        report = json.loads((out / f"{experiment}.json").read_text())
        report["header"].pop("timestamp")
        ok &= first == json.dumps(report, sort_keys=True)
    _verdict(11, "two runs of every experiment agree modulo the timestamp", ok)
