import numpy as np
import pytest
from oracles import bisected_gauge, chord_sum

from gradedmetrics.core import standard_config, standard_metric, supremum_config
from gradedmetrics.errors import SingularVelocityError
from gradedmetrics.length import (
    affine_minimality_probe,
    arclength_reparam,
    gromov_length,
    metric_length,
    metric_speed,
    smooth_length,
)
from gradedmetrics.models import (
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_metric,
    harmonic,
    line_curve,
    random_sequence,
    unit_sequence,
    zero_sequence,
)

DEPTH = 12
CFG = standard_config(DEPTH)


def constant_curve(point):
    return closed_form_curve(lambda t: point, lambda t: point * 0.0)


class TestGromov:
    def test_line_unit_vector(self):
        cfg = standard_config(30)
        result = gromov_length(line_curve(unit_sequence(30, 0)), cfg, tol=1e-8, max_level=30)
        assert result.converged
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_curve(self):
        result = gromov_length(constant_curve(unit_sequence(DEPTH, 0)), CFG)
        assert result.converged
        assert result.value == 0.0

    def test_growing_direction_diverges(self):
        # velocity ladder grows like 2^n: refinement keeps growing linearly
        result = gromov_length(line_curve(harmonic(2)), CFG, tol=1e-8, max_level=20)
        assert result.diverged

    def test_refinement_monotone(self):
        rng = np.random.default_rng(0)
        curve = line_curve(TruncatedSequence(rng.normal(size=DEPTH)))
        result = gromov_length(curve, CFG, tol=1e-10, max_level=18)
        assert np.all(np.diff(result.history) >= -1e-12)

    def test_concatenation_additive_by_nesting(self):
        v = TruncatedSequence(np.linspace(1.0, 0.2, DEPTH))
        curve = line_curve(v)
        whole = gromov_length(curve, CFG, tol=1e-5, max_level=24)
        left = gromov_length(curve.restricted(0.0, 0.5), CFG, tol=1e-5, max_level=24)
        right = gromov_length(curve.restricted(0.5, 1.0), CFG, tol=1e-5, max_level=24)
        assert whole.value == pytest.approx(left.value + right.value, abs=3e-5)
        # dyadic nesting is exact: level l of the whole equals level l-1 of the halves
        for level in range(1, 6):
            full = chord_sum(curve, CFG, level)
            halves = chord_sum(curve.restricted(0.0, 0.5), CFG, level - 1) + chord_sum(
                curve.restricted(0.5, 1.0), CFG, level - 1
            )
            assert full == pytest.approx(halves, abs=1e-12)

    def test_reparametrization_invariance(self):
        v = TruncatedSequence(np.linspace(0.5, 0.1, DEPTH))
        straight = line_curve(v)
        # monotone smooth reparametrization of the same trace
        warped = closed_form_curve(
            lambda t: v * (t * t * (3.0 - 2.0 * t)),
            lambda t: v * (6.0 * t * (1.0 - t)),
        )
        tol = 5e-5
        l1 = gromov_length(straight, CFG, tol=tol, max_level=22)
        l2 = gromov_length(warped, CFG, tol=tol, max_level=22)
        assert l1.value == pytest.approx(l2.value, abs=2.0 * tol)

    def test_indeterminate_when_budget_too_small(self):
        result = gromov_length(line_curve(unit_sequence(DEPTH, 0)), CFG, tol=1e-14, max_level=3)
        assert result.status == "indeterminate"


class TestMetricLength:
    def test_constant_curve(self):
        result = metric_length(constant_curve(unit_sequence(DEPTH, 0)), CFG)
        assert result.value == 0.0

    def test_line_constant_integrand(self):
        # closed form: sum of w_n phi(gauge at radius 2^-(n+1)) of the velocity
        result = metric_length(line_curve(unit_sequence(DEPTH, 0)), CFG)
        expect = sum(
            0.5 ** (n + 1) * ((2.0**n - 1.0) / 2.0**n) for n in range(1, DEPTH)
        )
        assert result.value == pytest.approx(expect, rel=1e-8)

    def test_below_smooth_length_on_seeded_curves(self):
        for ratio in (0.5, 0.3, 0.8):
            cfg = standard_config(DEPTH, ratio)
            rng = np.random.default_rng(1)
            for i in range(60):
                kind = i % 3
                if kind == 0:
                    curve = line_curve(random_sequence(rng, DEPTH))
                elif kind == 1:
                    curve = affine_curve(random_sequence(rng, DEPTH), random_sequence(rng, DEPTH))
                else:
                    v = random_sequence(rng, DEPTH)
                    w = random_sequence(rng, DEPTH)
                    curve = closed_form_curve(
                        lambda t, v=v, w=w: v * np.sin(0.5 * np.pi * t) + w * t,
                        lambda t, v=v, w=w: v * (0.5 * np.pi * np.cos(0.5 * np.pi * t)) + w,
                    )
                l_val = metric_length(curve, cfg, quadrature=64).value
                big_l = smooth_length(curve, cfg, quadrature=64).value
                assert l_val <= big_l + 1e-9


def test_metric_length_integrand_matches_bisected_gauges():
    # the closed-form integrand must agree with bisected gauges at every
    # level, the radii following the weights (2**-(n+1) at ratio 1/2)
    from gradedmetrics.core import phi
    from gradedmetrics.length import _gauge_terms
    from gradedmetrics.models import element_ladders

    for ratio in (0.5, 0.8):
        cfg = standard_config(DEPTH, ratio)
        sup_cfg = supremum_config(DEPTH, ratio)
        weights = cfg.level_weights
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = random_sequence(rng, DEPTH)
            expected = sum(
                weights[n] * phi(bisected_gauge(sup_cfg, weights[n], v)) for n in range(DEPTH)
            )
            assert _gauge_terms(element_ladders([v], DEPTH), cfg)[0] == pytest.approx(expected, rel=1e-9)


class TestSmoothLength:
    def test_constant_curve(self):
        assert smooth_length(constant_curve(unit_sequence(DEPTH, 0)), CFG).value == 0.0

    def test_line_unit_vector(self):
        result = smooth_length(line_curve(unit_sequence(DEPTH, 0)), CFG)
        expect = standard_metric(unit_sequence(DEPTH, 0).ladder(DEPTH), None, CFG)
        assert result.value == pytest.approx(expect, abs=1e-12)
        assert result.value == pytest.approx(0.5, abs=1e-3)

    def test_affine_equals_metric_between_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_sequence(rng, DEPTH)
            b = random_sequence(rng, DEPTH)
            result = smooth_length(affine_curve(a, b), CFG)
            assert result.value == pytest.approx(element_metric(a, b, CFG), abs=1e-10)

    def test_concatenation_subadditive(self):
        v = TruncatedSequence(np.linspace(1.0, 0.1, DEPTH))
        w = random_sequence(np.random.default_rng(3), DEPTH)
        curve = closed_form_curve(
            lambda t: v * t + w * (t * t),
            lambda t: v + w * (2.0 * t),
        )
        whole = smooth_length(curve, CFG).value
        left = smooth_length(curve.restricted(0.0, 0.5), CFG).value
        right = smooth_length(curve.restricted(0.5, 1.0), CFG).value
        assert whole <= left + right + 1e-9


class TestRectifiabilityDichotomy:
    def test_bounded_vs_growing_directions(self):
        from gradedmetrics.calculus import line_b_differentiable

        rng = np.random.default_rng(4)
        bounded = [TruncatedSequence(rng.uniform(-1.0, 1.0, DEPTH)) for _ in range(10)]
        growing = [harmonic(k) for k in range(2, 12)]
        for v in bounded:
            assert line_b_differentiable(v, DEPTH).bounded
            result = gromov_length(line_curve(v), CFG, tol=1e-5, max_level=24)
            assert result.converged
        for v in growing:
            assert not line_b_differentiable(v, DEPTH).bounded
            result = gromov_length(line_curve(v), CFG, tol=1e-5, max_level=24)
            assert result.diverged


class TestArclength:
    def test_line_rescales_domain(self):
        v = unit_sequence(DEPTH, 0)
        speed = metric_speed(v, CFG)
        reparam = arclength_reparam(line_curve(v), CFG)
        assert reparam.domain[1] == pytest.approx(speed, rel=1e-10)
        for s in np.linspace(0.0, reparam.domain[1], 7):
            assert metric_speed(reparam.velocity(s), CFG) == pytest.approx(1.0, abs=1e-6)

    def test_unit_speed_curve_unchanged(self):
        v = unit_sequence(DEPTH, 0)
        unit = line_curve(v * (1.0 / metric_speed(v, CFG)))
        reparam = arclength_reparam(unit, CFG)
        assert reparam.domain[1] == pytest.approx(1.0, abs=1e-9)
        for s in (0.1, 0.5, 0.9):
            gap = element_metric(reparam.position(s), unit.position(s), CFG)
            assert gap < 1e-9

    def test_finite_difference_speed_is_unit(self):
        v = TruncatedSequence(np.linspace(1.0, 0.3, DEPTH))
        curve = closed_form_curve(
            lambda t: v * (t + 0.2 * np.sin(np.pi * t)),
            lambda t: v * (1.0 + 0.2 * np.pi * np.cos(np.pi * t)),
        )
        reparam = arclength_reparam(curve, CFG, nodes=2048)
        h = 1e-6
        for s in np.linspace(0.1, reparam.domain[1] - 0.1, 5):
            fd = element_metric(reparam.position(s + h), reparam.position(s), CFG) / h
            assert fd == pytest.approx(1.0, abs=5e-4)

    def test_vanishing_velocity_rejected(self):
        v = unit_sequence(DEPTH, 0)
        curve = closed_form_curve(
            lambda t: v * (t * t / 2.0),
            lambda t: v * t,
        )
        with pytest.raises(SingularVelocityError):
            arclength_reparam(curve, CFG)

    def test_sup_flavor_speed(self):
        cfg = supremum_config(DEPTH)
        v = unit_sequence(DEPTH, 0)
        assert metric_speed(v, cfg) == pytest.approx(0.5)


class TestAffineMinimality:
    def test_zero_amplitude_margins_vanish(self):
        rng = np.random.default_rng(5)
        a = random_sequence(rng, DEPTH)
        b = random_sequence(rng, DEPTH)
        ok, margin = affine_minimality_probe(a, b, CFG, count=5, amplitude=0.0)
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_sinusoidal_bumps_never_shorten(self):
        rng = np.random.default_rng(6)
        a = random_sequence(rng, DEPTH)
        b = random_sequence(rng, DEPTH)
        ok, margin = affine_minimality_probe(a, b, CFG, count=50, amplitude=0.1)
        assert ok
        assert margin >= 0.0

    def test_bump_crossing_a_velocity_zero_strictly_lengthens(self):
        # a coordinate-wise kink appears only when the perturbed velocity
        # changes sign; such bumps strictly lengthen the path
        from gradedmetrics.length import smooth_length
        from gradedmetrics.models import closed_form_curve, unit_sequence

        a = zero_sequence(DEPTH)
        b = unit_sequence(DEPTH, 0) * 0.05
        diff = b - a
        bump = unit_sequence(DEPTH, 0)
        pert = closed_form_curve(
            lambda t: a + diff * t + bump * (0.1 * np.sin(np.pi * t)),
            lambda t: diff + bump * (0.1 * np.pi * np.cos(np.pi * t)),
        )
        base = smooth_length(affine_curve(a, b), CFG, quadrature=128).value
        assert smooth_length(pert, CFG, quadrature=128).value > base + 1e-4

    def test_degenerate_segment(self):
        a = unit_sequence(DEPTH, 0)
        ok, margin = affine_minimality_probe(a, a, CFG, count=10, amplitude=0.1)
        assert ok
        assert margin >= -1e-9
