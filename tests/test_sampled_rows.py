"""Sampled checks on rows, held bit for bit to the per-pair loops in `oracles`."""

import itertools
import warnings

import numpy as np
import pytest
from oracles import (
    b_diff_reference,
    contraction_radius_reference,
    left_inverse_reference,
    metrics_compare_reference,
    random_function_reference,
)

from gradedmetrics.calculus import DifferentiabilityReport, b_diff_report, directional_derivative
from gradedmetrics.cli import ExperimentConfig, run_metrics_compare
from gradedmetrics.core import GradedMetricConfig, geometric_weights, standard_config
from gradedmetrics.errors import CertificateViolation, ContractionError
from gradedmetrics.models import (
    PeriodicFunction,
    TruncatedSequence,
    _sample_rows,
    harmonic,
    random_function,
    random_sequence,
    unit_sequence,
    zero_sequence,
)
from gradedmetrics.operators import (
    composition_operator,
    dense_operator,
    down_shift,
    identity_operator,
    neumann_invert,
    oscillating_composition,
    peak_function,
)
from gradedmetrics.solver import _pair_distances, certify_contraction_radius, left_inverse_certificate

DEPTHS = (4, 16, 64)
SEEDS = (0, 7, 19)


def same(a, b):
    """Equal to the bit, arrays and floats alike."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tau_sine(depth):
    tau = down_shift(depth)
    return lambda x: x + tau.apply(TruncatedSequence(np.sin(x.coords))) * 0.1


def base_point(depth, seed):
    return TruncatedSequence(0.1 * np.random.default_rng([seed, 1]).normal(size=depth))


@pytest.mark.parametrize("bandwidth", (1, 8, 32, 512))
@pytest.mark.parametrize("scale, decay", ((1.0, 1.0), (1e3, 1.0), (1.0, 0.5), (0.37, 0.81)))
def test_random_function_matches_mode_loop(bandwidth, scale, decay):
    for seed in SEEDS:
        got = random_function(np.random.default_rng(seed), bandwidth, scale, decay)
        want = random_function_reference(np.random.default_rng(seed), bandwidth, scale, decay)
        assert same(got.fourier, want.fourier)


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_rows_repeat_the_element_draws(seed):
    for x, draw in (
        (base_point(16, seed), lambda rng: random_sequence(rng, 16)),
        (harmonic(3, bandwidth=8) * 0.5, lambda rng: random_function_reference(rng, 8)),
    ):
        rows = _sample_rows(np.random.default_rng(seed), x, (5, 2), 0.3)
        rng = np.random.default_rng(seed)
        elements = [[x + draw(rng) * 0.3 for _ in range(2)] for _ in range(5)]
        field = "coords" if hasattr(x, "coords") else "fourier"
        assert same(rows, [[getattr(e, field) for e in pair] for pair in elements])


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_left_inverse_matches_pair_loop(depth, seed):
    cfg = standard_config(depth)
    f = tau_sine(depth)
    l0 = neumann_invert(dense_operator(np.eye(depth) + 0.1 * np.eye(depth, k=-1)), cfg, tol=1e-13).operator
    x0 = base_point(depth, seed)
    cert = left_inverse_certificate(f, l0, x0, radius=0.5, cfg=cfg, rho=0.25, seed=seed)
    reference = np.array(left_inverse_reference(f, x0, 0.5, cfg, cert.lower_lipschitz, seed=seed))
    pairs = _sample_rows(np.random.default_rng(seed), x0, (500, 2), 0.25)
    dab, dfab = _pair_distances(f, x0, pairs, cfg)
    assert same(dab, reference[:, 0]) and same(dfab, reference[:, 1])
    assert cert.valid and cert.lower_lipschitz == (1.0 - 0.25) / cert.operator_bound


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_left_inverse_violation_matches_pair_loop(depth, seed):
    # collapses the points whose first coordinate is positive: the first such
    # pair with a wide enough gap is the witness, not always pair 0
    def collapse(p):
        return p * 0.0 if p.coords[0] > 0.0 else p

    cfg = standard_config(depth)
    x0 = base_point(depth, seed)
    with pytest.raises(CertificateViolation) as got:
        left_inverse_certificate(
            collapse, identity_operator(depth), x0, 0.25, cfg, rho=0.0, operator_bound=1.0, seed=seed
        )
    with pytest.raises(CertificateViolation) as want:
        left_inverse_reference(collapse, x0, 0.25, cfg, 1.0, seed=seed)
    assert str(got.value) == str(want.value)
    assert all(same(a.coords, b.coords) for a, b in zip(got.value.witness, want.value.witness))


def squaring(x):
    return TruncatedSequence(x.coords**2)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_contraction_radius_matches_pair_loop(depth, seed):
    cfg = standard_config(depth)
    x0 = base_point(depth, seed)
    # the tau-sine step passes at radius 1; squaring contracts only near 0, so
    # larger radii fail first and later blocks decide
    for step, rho in [(lambda x: x - tau_sine(depth)(x), 0.3), (squaring, 0.5), (squaring, 0.4)]:
        got = certify_contraction_radius(step, x0, cfg, rho, seed=seed)
        assert same(got, contraction_radius_reference(step, x0, cfg, rho, seed=seed))
    with pytest.raises(ContractionError):
        certify_contraction_radius(lambda x: x * 2.0, x0, cfg, 0.5, seed=seed)
    with pytest.raises(ContractionError):
        contraction_radius_reference(lambda x: x * 2.0, x0, cfg, 0.5, seed=seed)


def test_contraction_radius_skips_zero_distance_pairs():
    # at 1e20 every draw rounds back to the base point, so every pair is at
    # distance 0 and must be skipped, even under a map that moves with each call
    cfg = standard_config(8)
    x0 = TruncatedSequence(np.full(8, 1e20))
    drifting = itertools.count(1)
    step = lambda x: x * float(next(drifting))
    assert certify_contraction_radius(step, x0, cfg, 0.5) == 1.0
    assert contraction_radius_reference(step, x0, cfg, 0.5) == 1.0


def assert_same_report(got, want):
    assert [row[0] for row in got.derivative_table] == [row[0] for row in want.derivative_table]
    for (_, d_got, e_got), (_, d_want, e_want) in zip(got.derivative_table, want.derivative_table):
        field = "coords" if hasattr(d_got, "coords") else "fourier"
        assert same(getattr(d_got, field), getattr(d_want, field)) and same(e_got, e_want)
    for name in got.__dataclass_fields__:
        if name != "derivative_table":
            assert same(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_b_diff_matches_pair_loop(depth, seed):
    cfg = standard_config(depth)
    f, x = tau_sine(depth), base_point(depth, seed)
    assert_same_report(b_diff_report(f, x, 0.5, cfg, seed=seed), b_diff_reference(f, x, 0.5, cfg, seed=seed))


def test_b_diff_zero_direction_matches_pair_loop():
    # a zero direction has no nonzero step, so it gives no dilation ratio
    depth = 8
    cfg = standard_config(depth)
    f, x = tau_sine(depth), base_point(depth, 2)
    directions = [unit_sequence(depth, 0), zero_sequence(depth), unit_sequence(depth, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the way
        got = b_diff_report(f, x, 0.25, cfg, directions=directions, seed=4)
    assert_same_report(got, b_diff_reference(f, x, 0.25, cfg, directions=directions, seed=4))
    assert np.isfinite(got.derivative_bound)


def test_b_diff_at_a_far_base_point_matches_pair_loop():
    # at 1e20 every sampled point rounds back to the base point: every segment
    # has length 0 and is skipped, so no pair sets the margin
    depth = 8
    cfg = standard_config(depth)
    f, x = tau_sine(depth), TruncatedSequence(np.full(depth, 1e20))
    got = b_diff_report(f, x, 0.25, cfg, seed=1)
    assert_same_report(got, b_diff_reference(f, x, 0.25, cfg, seed=1))
    assert got.witness is None and got.mean_value_margin == np.inf


def test_b_diff_of_a_function_map_matches_pair_loop():
    # the composition case of test_calculus: function rows, peak directions
    bandwidth = 32
    cfg = standard_config(6)
    comp = composition_operator(oscillating_composition(rate=bandwidth), bandwidth)
    base = peak_function(bandwidth, center=np.pi) * 0.5
    directions = [peak_function(b, center=np.pi).embed(bandwidth) for b in (32, 16, 8, 4, 2)]
    for seed in (0, 5):
        got = b_diff_report(comp, base, 0.25, cfg, directions=directions, seed=seed)
        want = b_diff_reference(comp, base, 0.25, cfg, directions=directions, seed=seed)
        assert_same_report(got, want)


def test_b_diff_default_directions_follow_a_function_base_point():
    # drawn in the base point's model at its bandwidth: sin1, cos1, ..., cos3,
    # then six random functions from the report's generator
    comp = composition_operator(oscillating_composition(rate=8), 8)
    base = peak_function(8, center=np.pi) * 0.5
    report = b_diff_report(comp, base, 0.25, standard_config(6))
    assert isinstance(report, DifferentiabilityReport) and len(report.derivative_table) == 12
    rng = np.random.default_rng(0)
    directions = [harmonic(k, bandwidth=8, cosine=cosine) for k in (1, 2, 3) for cosine in (False, True)]
    directions += [random_function_reference(rng, 8) for _ in range(6)]
    for (_, got, err), v in zip(report.derivative_table, directions):
        want, want_err = directional_derivative(comp, base, v)
        assert isinstance(got, PeriodicFunction) and same(got.fourier, want.fourier) and same(err, want_err)


@pytest.mark.parametrize("depth", (12, 64))
@pytest.mark.parametrize("ratio", (0.5, 0.8))
@pytest.mark.parametrize("seed", (0, 5))
def test_metrics_compare_matches_pair_loop(depth, ratio, seed):
    _, certificates, _, (_, rows) = run_metrics_compare(
        ExperimentConfig("metrics-compare", depth=depth, weights=f"geometric:{ratio}", seed=seed)
    )
    weights = geometric_weights(ratio, depth)
    cfgs = [GradedMetricConfig(flavor, weights, depth) for flavor in ("standard-sum", "supremum")]
    tri_ok, triples = metrics_compare_reference(depth, cfgs, ratio, seed)
    assert certificates[0] == {"name": "triangle-inequality-1e-12", "holds": tri_ok}
    assert same([row[1:] for row in rows], triples)
