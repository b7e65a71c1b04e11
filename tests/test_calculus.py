import numpy as np
import pytest

from gradedmetrics.calculus import (
    DEFAULT_STEPS,
    b_diff_report,
    directional_derivative,
    line_b_differentiable,
)
from gradedmetrics.core import standard_config
from gradedmetrics.errors import EvaluationError
from gradedmetrics.models import (
    TruncatedSequence,
    element_metric,
    element_norm,
    harmonic,
    random_sequence,
    unit_sequence,
    zero_sequence,
)
from gradedmetrics.operators import (
    composition_operator,
    down_shift,
    oscillating_composition,
    peak_function,
)

DEPTH = 8
CFG = standard_config(DEPTH)


def tau_sine(scale=0.1, depth=DEPTH):
    tau = down_shift(depth)

    def f(x):
        return x + tau.apply(TruncatedSequence(np.sin(x.coords))) * scale

    return f


class TestDirectionalDerivative:
    def test_linear_map_exact(self):
        tau = down_shift(DEPTH)
        rng = np.random.default_rng(0)
        x = random_sequence(rng, DEPTH)
        v = random_sequence(rng, DEPTH)
        deriv, err = directional_derivative(lambda p: tau.apply(p), x, v)
        assert np.allclose(deriv.coords, tau.apply(v).coords, atol=1e-12)
        assert err < 1e-11

    def test_tau_sine_hand_derivative(self):
        # f(x) = x + 0.1 tau(sin o x) at x = 0 along e1: derivative e1 + 0.1 e2
        f = tau_sine()
        deriv, err = directional_derivative(f, zero_sequence(DEPTH), unit_sequence(DEPTH, 0))
        expect = np.zeros(DEPTH)
        expect[0] = 1.0
        expect[1] = 0.1
        assert np.allclose(deriv.coords, expect, atol=1e-10)
        assert err < 1e-8

    def test_constant_map(self):
        c = unit_sequence(DEPTH, 2)
        deriv, _ = directional_derivative(lambda p: c, zero_sequence(DEPTH), unit_sequence(DEPTH, 0))
        assert np.allclose(deriv.coords, 0.0)

    def test_richardson_beats_raw_differences(self):
        f = tau_sine(scale=1.0)
        x = random_sequence(np.random.default_rng(1), DEPTH) * 0.5
        v = unit_sequence(DEPTH, 0)
        deriv, err = directional_derivative(f, x, v)
        raw = (f(x + v * 1e-2) - f(x + v * (-1e-2))) * (1.0 / 2e-2)
        analytic = v + down_shift(DEPTH).apply(
            TruncatedSequence(np.cos(x.coords) * v.coords)
        )
        assert (deriv - analytic).sup_coordinate_norm() < 1e-8
        assert (deriv - analytic).sup_coordinate_norm() < (raw - analytic).sup_coordinate_norm()

    def test_non_finite_evaluation(self):
        def bad(p):
            return p * np.inf

        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError):
            directional_derivative(bad, zero_sequence(4), unit_sequence(4, 0))


class TestLineBoundedness:
    def test_unit_vector_bounded(self):
        verdict = line_b_differentiable(unit_sequence(DEPTH, 0), DEPTH)
        assert verdict.bounded
        assert verdict.bound == 1.0

    def test_growing_spectral_direction(self):
        verdict = line_b_differentiable(harmonic(3), 8)
        assert not verdict.bounded
        assert np.allclose(verdict.increments, 3.0 ** np.arange(8), rtol=1e-9)

    def test_zero_direction(self):
        verdict = line_b_differentiable(zero_sequence(DEPTH), DEPTH)
        assert verdict.bounded
        assert verdict.bound == 0.0


class TestBDiffReport:
    def test_identity_report(self):
        report = b_diff_report(lambda p: p, zero_sequence(DEPTH), radius=0.25, cfg=CFG)
        assert report.differentiable
        assert report.derivative_bounded
        assert report.derivative_bound == pytest.approx(1.0, abs=1e-9)
        assert report.mean_value_margin >= 0.0

    def test_tau_sine_perturbation_is_small(self):
        # <df(x) - I> stays below the product of the scale and the shift bound
        # in the pre-saturation probe regime
        f = tau_sine()
        x = zero_sequence(DEPTH)
        gap = 0.0
        for k in range(DEPTH):
            v = unit_sequence(DEPTH, k) * 0.1
            image = (f(x + v) - f(x)) - v
            gap = max(gap, element_norm(image, CFG) / element_norm(v, CFG))
        assert gap <= 0.055

    def test_tau_sine_report(self):
        report = b_diff_report(tau_sine(), zero_sequence(DEPTH), radius=0.25, cfg=CFG)
        assert report.differentiable
        assert report.derivative_bounded
        assert report.mean_value_margin >= 0.0

    def test_map_evaluations(self):
        # 12 directions: 12*16 derivative calls; scale ratios 12*(7 + 1);
        # continuity 16 + 6*16; 20 pairs of 5 segment points * (5 + 1) + 2
        calls = []
        g = tau_sine()

        def f(x):
            calls.append(None)
            return g(x)

        b_diff_report(f, zero_sequence(DEPTH), radius=0.25, cfg=CFG)
        assert len(calls) == 12 * 16 + 12 * 8 + (16 + 6 * 16) + 20 * (5 * 6 + 2)

    def test_composition_report_unbounded_flag(self):
        # sharpening peak directions expose the growing derivative ratios,
        # so the report's bounded flag must come back false
        from gradedmetrics.calculus import b_diff_report

        bandwidth = 32
        cfg = standard_config(6)
        comp = composition_operator(oscillating_composition(rate=bandwidth), bandwidth)
        base = peak_function(bandwidth, center=np.pi) * 0.5
        # ordered so the exposed dilation grows along the family: the gentle
        # witnesses feel the full oscillation factor of the composition
        directions = [
            peak_function(b, center=np.pi).embed(bandwidth) for b in (32, 16, 8, 4, 2)
        ]
        report = b_diff_report(comp, base, radius=0.25, cfg=cfg, directions=directions)
        assert not report.derivative_bounded
        assert report.differentiable

    def test_composition_counterexample_flagged(self):
        # ratios of the composition map grow across sharpening witnesses
        depth = 6
        cfg = standard_config(depth)
        reports = []
        for bandwidth in (8, 16, 32):
            comp = composition_operator(oscillating_composition(rate=bandwidth), bandwidth)
            base = peak_function(bandwidth, center=np.pi) * 0.5
            witness = peak_function(4, center=np.pi).embed(bandwidth)
            delta = comp(base + witness * (0.1 / bandwidth)) - comp(base)
            reports.append(
                element_norm(delta, cfg) / element_norm(witness * (0.1 / bandwidth), cfg)
            )
        assert reports[0] < reports[1] < reports[2]


def test_richardson_error_ratio_near_four():
    # raw central differences of a smooth map lose error by ~4x per halving
    f = tau_sine(scale=1.0)
    x = random_sequence(np.random.default_rng(11), DEPTH) * 0.4
    v = unit_sequence(DEPTH, 0)
    analytic = v + down_shift(DEPTH).apply(TruncatedSequence(np.cos(x.coords) * v.coords))
    errors = []
    for t in (2e-2, 1e-2, 5e-3):
        raw = (f(x + v * t) - f(x + v * (-t))) * (1.0 / (2 * t))
        errors.append((raw - analytic).sup_coordinate_norm())
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)


def test_default_steps_schedule():
    assert DEFAULT_STEPS[0] == 0.01
    assert len(DEFAULT_STEPS) == 8
    assert np.allclose(np.diff(np.log2(DEFAULT_STEPS)), -1.0)


def test_glockner_inequality_on_segments():
    # d(f(y), f(z)) <= d(y, z) * sup of probed segment dilation + 1e-9
    f = tau_sine()
    rng = np.random.default_rng(9)
    for _ in range(30):
        y = random_sequence(rng, DEPTH) * 0.2
        z = random_sequence(rng, DEPTH) * 0.2
        dyz = element_metric(y, z, cfg=CFG)
        seg_bound = 0.0
        for t in np.linspace(0.0, 1.0, 5):
            mid = y + (z - y) * t
            for s in (1e-3, 1e-2, 1e-1, 0.3, 1.0):
                v = (z - y) * s
                nv = element_norm(v, CFG)
                if nv > 0:
                    seg_bound = max(seg_bound, element_metric(f(mid + v), f(mid), CFG) / nv)
        assert element_metric(f(y), f(z), CFG) <= dyz * seg_bound + 1e-9
