"""Row paths of the length functionals against the per-node references.

The program evaluates each quadrature node and each dyadic point once and
does the rest on rows; `oracles.refined_quadrature` and `oracles.chord_sum`
evaluate every node and point afresh, one at a time.  On sequence-valued
curves the two must agree bit for bit.
"""

import warnings

import numpy as np
import pytest
from oracles import chord_sum, refined_quadrature

from gradedmetrics.core import _BLOCK_BYTES, phi, standard_config
from gradedmetrics.errors import DomainError, ShapeError
from gradedmetrics.length import (
    _gauge_terms,
    _refine,
    _refined_quadrature,
    arclength_reparam,
    gromov_length,
    metric_length,
    smooth_length,
)
from gradedmetrics.minkowski import ball_gauge_closed_form
from gradedmetrics.models import (
    PeriodicFunction,
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_ladders,
    harmonic,
    line_curve,
    random_function,
    random_sequence,
)

DEPTH = 12


def sin_arc(rng, depth=DEPTH):
    v = random_sequence(rng, depth)
    w = random_sequence(rng, depth)
    return closed_form_curve(
        lambda t: v * np.sin(0.5 * np.pi * t) + w * t,
        lambda t: v * (0.5 * np.pi * np.cos(0.5 * np.pi * t)) + w,
    )


def seeded_curves(seed):
    rng = np.random.default_rng(seed)
    return {
        "sin-arc": sin_arc(rng),
        "line": line_curve(random_sequence(rng, DEPTH)),
        "affine": affine_curve(random_sequence(rng, DEPTH), random_sequence(rng, DEPTH)),
        "arclength": arclength_reparam(sin_arc(rng), standard_config(DEPTH)),
    }


def oracle_smooth(curve, cfg, quadrature=32, tol=1e-10):
    integrals, nodes = refined_quadrature(
        lambda t: curve.velocity(t).ladder(cfg.truncation).values, curve.domain, quadrature, tol
    )
    return float(np.sum(cfg.level_weights * phi(np.maximum(integrals, 0.0)))), nodes


def oracle_metric(curve, cfg, quadrature=32, tol=1e-9):
    weights = cfg.level_weights

    def integrand(t):
        ladder = curve.velocity(t).ladder(cfg.truncation).values
        return float(np.sum(weights * phi(ball_gauge_closed_form(weights, ladder, weights))))

    value, nodes = refined_quadrature(integrand, curve.domain, quadrature, tol)
    return float(value), nodes


def counting(curve):
    """The curve, with the times its position and velocity were asked for."""
    calls = {"position": [], "velocity": []}

    def position(t):
        calls["position"].append(t)
        return curve.position(t)

    def velocity(t):
        calls["velocity"].append(t)
        return curve.velocity(t)

    return closed_form_curve(position, velocity, curve.domain), calls


def kinked(domain=(0.0, 1.0)):
    # |t - 1/3| has a kink off every dyadic node: Simpson never settles at tol 0
    v = TruncatedSequence(np.linspace(1.0, 0.2, DEPTH))
    return closed_form_curve(
        lambda t: v * (0.5 * (t - 1.0 / 3.0) * abs(t - 1.0 / 3.0)),
        lambda t: v * abs(t - 1.0 / 3.0),
        domain,
    )


@pytest.mark.parametrize("ratio", [0.5, 0.8])
@pytest.mark.parametrize("seed", [11, 12])
class TestBitIdentity:
    def test_smooth_length(self, ratio, seed):
        cfg = standard_config(DEPTH, ratio)
        for curve in seeded_curves(seed).values():
            for quadrature in (32, 64):
                result = smooth_length(curve, cfg, quadrature=quadrature)
                assert (result.value, result.level) == oracle_smooth(curve, cfg, quadrature)

    def test_metric_length(self, ratio, seed):
        cfg = standard_config(DEPTH, ratio)
        for curve in seeded_curves(seed).values():
            for quadrature in (32, 64):
                result = metric_length(curve, cfg, quadrature=quadrature)
                assert (result.value, result.level) == oracle_metric(curve, cfg, quadrature)



@pytest.mark.parametrize("ratio", [0.5, 0.8])
def test_gromov_length_bit_identity(ratio):
    cfg = standard_config(DEPTH, ratio)
    for name, curve in seeded_curves(13).items():
        tol = 1e-3 if name in ("sin-arc", "arclength") else 1e-9
        result = gromov_length(curve, cfg, tol=tol, max_level=14)
        expected = [chord_sum(curve, cfg, level) for level in range(result.level + 1)]
        assert result.history.tolist() == expected
        assert result.value == (expected[-1] if result.converged else None)


def test_function_valued_chords_match_pairwise_metrics():
    # np.sum adds the chord metrics pairwise, the reference one at a time
    cfg = standard_config(6)
    f, g = harmonic(1, bandwidth=4), random_function(np.random.default_rng(3), 4, decay=0.5)
    curve = closed_form_curve(
        lambda t: f * np.sin(t) + g * (t * t), lambda t: f * np.cos(t) + g * (2.0 * t)
    )
    result = gromov_length(curve, cfg, tol=1e-4, max_level=10)
    expected = [chord_sum(curve, cfg, level) for level in range(result.level + 1)]
    np.testing.assert_allclose(result.history, expected, rtol=1e-13, atol=0.0)


class TestEvaluationCounts:
    @pytest.mark.parametrize("length", [metric_length, smooth_length])
    def test_round_cap_evaluates_each_node_once(self, length):
        curve, calls = counting(kinked())
        result = length(curve, standard_config(DEPTH), quadrature=64, tol=0.0)
        assert result.level == 64 * 2**5
        assert len(calls["velocity"]) == 64 * 2**5 + 1

    def test_partition_levels_evaluate_each_point_once(self):
        rng = np.random.default_rng(21)
        for tol in (1e-2, 1e-3):
            curve, calls = counting(sin_arc(rng))
            result = gromov_length(curve, standard_config(DEPTH), tol=tol, max_level=16)
            assert result.converged
            assert len(calls["position"]) == 2**result.level + 1

    def test_reused_nodes_equal_a_fresh_grid(self):
        # (0.1, 0.7) has no exact binary steps; the reused nodes must still be
        # those a fresh linspace gives, and none may be evaluated twice
        curve, calls = counting(kinked((0.1, 0.7)))
        metric_length(curve, standard_config(DEPTH), quadrature=64, tol=0.0)
        assert np.array_equal(np.sort(calls["velocity"]), np.linspace(0.1, 0.7, 64 * 2**5 + 1))
        grid = np.linspace(0.1, 0.7, 7)
        for n in (12, 24, 48, 96):
            grid = _refine(lambda ts: ts, np.linspace(0.1, 0.7, n + 1), grid)
            assert np.array_equal(grid, np.linspace(0.1, 0.7, n + 1))

    def test_rounds_interleave_values(self):
        # values, not only nodes, land in their places: t**3 is integrated
        # exactly by Simpson's rule from the first round on
        est, n = _refined_quadrature(lambda ts: ts**3, (0.1, 0.7), 8, 1e-12)
        assert n == 16
        assert est == pytest.approx((0.7**4 - 0.1**4) / 4.0, rel=1e-14)


class TestElementLadders:
    def test_match_single_ladders(self):
        rng = np.random.default_rng(30)
        seqs = [random_sequence(rng, DEPTH) for _ in range(7)]
        fns = [random_function(rng, 8) for _ in range(7)]
        for elements, depth in ((seqs, DEPTH), (seqs, 5), (fns, 6)):
            expected = np.stack([e.ladder(depth).values for e in elements])
            assert np.array_equal(element_ladders(elements, depth), expected)

    @pytest.mark.parametrize(
        "elements, depth, error",
        [
            pytest.param([TruncatedSequence([1.0, 2.0])], 0, ShapeError, id="sequence-depth-0"),
            pytest.param([TruncatedSequence([1.0, 2.0])], 3, ShapeError, id="depth-above-N"),
            pytest.param([harmonic(1)], 0, ShapeError, id="function-depth-0"),
            pytest.param([TruncatedSequence([1e308, 1e308])], 2, DomainError, id="seq-overflow"),
            pytest.param([PeriodicFunction([1e308] * 3)], 2, DomainError, id="function-overflow"),
        ],
    )
    def test_rejects_like_ladder(self, elements, depth, error):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error):
                elements[0].ladder(depth)
            with pytest.raises(error):
                element_ladders(elements * 3, depth)

    def test_rejects_mixed_models(self):
        seq, fn = TruncatedSequence([1.0, 2.0, 3.0]), harmonic(1)
        with pytest.raises(ShapeError):
            seq - fn
        with pytest.raises(ShapeError):
            element_ladders([seq, fn], 2)
        with pytest.raises(ShapeError):
            element_ladders([fn, seq], 2)


class TestGaugeRows:
    def test_blocks_match_single_rows_at_depth_256(self):
        cfg = standard_config(256)
        weights = cfg.level_weights
        rng = np.random.default_rng(40)
        ladders = element_ladders([random_sequence(rng, 256) for _ in range(10)], 256)
        assert _BLOCK_BYTES // (8 * 256**2) <= 4  # ten rows span at least three blocks
        expected = [
            np.sum(weights * phi(ball_gauge_closed_form(weights, row, weights))) for row in ladders
        ]
        assert _gauge_terms(ladders, cfg).tolist() == expected

    def test_closed_form_keeps_its_values(self):
        # candidates formed only on the kept levels equal the full expression there
        rng = np.random.default_rng(41)
        for ratio in (0.3, 0.5, 0.8):
            weights = standard_config(64, ratio).level_weights
            ladder = np.cumsum(np.abs(rng.normal(size=64)))
            radii = np.concatenate([weights, rng.uniform(0.0, 1.0, 20)])
            targets = radii[:, None] / weights
            full = np.where(weights > radii[:, None], ladder * (1.0 - targets) / targets, 0.0)
            assert np.array_equal(ball_gauge_closed_form(weights, ladder, radii), full.max(axis=-1))

    def test_depth_1024_does_not_overflow(self):
        cfg = standard_config(1024)
        ones = TruncatedSequence(np.ones(1024))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = cfg.level_weights
            gauges = ball_gauge_closed_form(weights, ones.ladder().values, weights)
            result = metric_length(line_curve(ones), cfg)
        assert np.all(np.isfinite(gauges))
        assert 0.0 < result.value < 1.0
        assert (result.value, result.status) == (1.0 / 3.0, "converged")

    def test_depth_1060_rejected(self):
        # past depth 1024 the kept-level candidates at ratio 1/2 overflow; the
        # length is rejected instead of reported as a converged nan
        curve = line_curve(TruncatedSequence(np.ones(1060)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                metric_length(curve, standard_config(1060))
