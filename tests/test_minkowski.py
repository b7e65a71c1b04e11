import warnings

import numpy as np
import pytest
from oracles import bisected_gauge

from gradedmetrics.core import phi_inverse, standard_config, supremum_config
from gradedmetrics.errors import DegenerateBallError, DomainError
from gradedmetrics.minkowski import (
    ball_gauge,
    ball_gauge_closed_form,
    dyadic_minkowski_family,
    essential_sup,
    gauge_certificate,
    minkowski_functional,
    tame_grade_estimate,
)
from gradedmetrics.models import (
    TruncatedSequence,
    element_norm,
    random_sequence,
    unit_sequence,
    zero_sequence,
)

DEPTH = 12
CFG = supremum_config(DEPTH)


def closed_form_gauge(cfg, radius, v):
    """Independent oracle: gauge = max over levels of delta_k / phi^-1(r / w_k)."""
    lad = v.ladder(cfg.truncation).values
    w = cfg.level_weights
    mask = w > radius
    if not mask.any() or not np.any(lad[mask] > 0.0):
        return 0.0
    return float(np.max(lad[mask] / phi_inverse(radius / w[mask])))


class TestFunctional:
    def test_unit_vector_closed_form(self):
        # sup_n 2^-n phi(1/lam) == 1/4 forces lam == 1
        assert minkowski_functional(CFG, 4, unit_sequence(DEPTH, 0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_zero_vector(self):
        assert minkowski_functional(CFG, 4, zero_sequence(DEPTH)) == 0.0

    def test_homogeneity_on_unit(self):
        assert minkowski_functional(CFG, 4, unit_sequence(DEPTH, 0) * 2.0) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_bisection_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for i in (3, 4, 7, 16):
            for _ in range(20):
                v = random_sequence(rng, DEPTH)
                expect = closed_form_gauge(CFG, 1.0 / i, v)
                got = minkowski_functional(CFG, i, v)
                assert got == pytest.approx(expect, rel=1e-9)
                lad = v.ladder(DEPTH).values
                closed = ball_gauge_closed_form(CFG.level_weights, lad, 1.0 / i)
                assert closed == pytest.approx(expect, rel=1e-12)
        # vectorized over radii, including radii at or above the essential sup
        radii = np.array([0.7, 0.5, 1.0 / 3.0, 0.25, 1e-3])
        gauges = ball_gauge_closed_form(CFG.level_weights, lad, radii)
        assert gauges.shape == radii.shape
        for r, g in zip(radii, gauges):
            assert g == pytest.approx(closed_form_gauge(CFG, r, v), rel=1e-12, abs=0.0)
        # ball_gauge and the dyadic family against the bisection oracle
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = random_sequence(rng, DEPTH)
            for r in rng.uniform(0.02, 0.45, size=5):
                assert ball_gauge(CFG, r, v) == pytest.approx(bisected_gauge(CFG, r, v), rel=1e-9)
        for v in (random_sequence(rng, DEPTH), unit_sequence(DEPTH, 0), unit_sequence(DEPTH, 3)):
            fam = dyadic_minkowski_family(CFG, v)
            for n, g in enumerate(fam):
                assert g == pytest.approx(bisected_gauge(CFG, 2.0 ** -(2 + n), v), rel=1e-9)

    def test_nan_radius_rejected(self):
        v = unit_sequence(DEPTH, 0)
        for radius in (float("nan"), 0.0, -0.25):
            with pytest.raises(DomainError):
                ball_gauge(CFG, radius, v)

    def test_degenerate_ball(self):
        # radius 1/2 reaches the essential sup of any direction with mass at level 0
        with pytest.raises(DegenerateBallError):
            minkowski_functional(CFG, 2, unit_sequence(DEPTH, 0))

    def test_requires_supremum_flavor(self):
        with pytest.raises(DomainError):
            minkowski_functional(standard_config(DEPTH), 4, unit_sequence(DEPTH, 0))

    def test_essential_sup(self):
        lad = np.array([0.0, 1.0, 2.0])
        w = np.array([0.5, 0.25, 0.125])
        assert essential_sup(lad, w) == 0.25
        assert essential_sup(np.zeros(3), w) == 0.0


class TestGaugeProperties:
    def test_subadditivity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = random_sequence(rng, DEPTH)
            v = random_sequence(rng, DEPTH)
            for i in (3, 5):
                mu = minkowski_functional(CFG, i, u)
                mv = minkowski_functional(CFG, i, v)
                ms = minkowski_functional(CFG, i, u + v)
                assert ms <= mu + mv + 1e-9 * (1.0 + mu + mv)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            v = random_sequence(rng, DEPTH)
            c = float(rng.uniform(0.1, 10.0))
            m1 = minkowski_functional(CFG, 4, v)
            m2 = minkowski_functional(CFG, 4, v * c)
            assert m2 == pytest.approx(c * m1, rel=1e-9)

    def test_monotone_in_ball_index(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = random_sequence(rng, DEPTH)
            values = [minkowski_functional(CFG, i, v) for i in (3, 4, 6, 9, 14)]
            assert np.all(np.diff(values) >= -1e-9)

    def test_bisection_certificate(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            v = random_sequence(rng, DEPTH)
            value = gauge_certificate(CFG, 5, v)
            assert abs(value - 0.2) <= 1e-9


class TestDyadicFamily:
    def test_unit_vector_values(self):
        # gauge of the radius 2^-i ball at e1: delta/phi^-1(2^(1-i)) = 2^(i-1) - 1
        fam = dyadic_minkowski_family(CFG, unit_sequence(DEPTH, 0), depth=5)
        expect = [2.0 ** (i - 1) - 1.0 for i in range(2, 7)]
        assert np.allclose(fam, expect, rtol=1e-9)

    def test_degenerate_levels_report_zero(self):
        cfg = supremum_config(4)
        fam = dyadic_minkowski_family(cfg, unit_sequence(4, 3), depth=4)
        # direction supported at the deepest level: wide balls swallow the ray
        assert fam[0] == 0.0
        assert fam[-1] > 0.0


def scaled_probe_set(rng, depth, count=40, scales=(1e-2, 1.0, 1e2)):
    base = [random_sequence(rng, depth) for _ in range(count)]
    return [(s, v * s) for v in base for s in scales]


class TestTameEstimate:
    def test_family_against_itself(self):
        rng = np.random.default_rng(31)
        probes = scaled_probe_set(rng, DEPTH)
        fam = lambda v: v.ladder(DEPTH).values
        est = tame_grade_estimate(fam, fam, probes)
        assert est.satisfied
        assert (est.base, est.grade) == (0, 0)
        assert np.allclose(est.constants, 1.0)

    def test_ladder_vs_minkowski(self):
        rng = np.random.default_rng(32)
        probes = scaled_probe_set(rng, DEPTH, count=25)
        ladder_fam = lambda v: v.ladder(DEPTH).values
        mink_fam = lambda v: dyadic_minkowski_family(CFG, v)
        forward = tame_grade_estimate(ladder_fam, mink_fam, probes)
        backward = tame_grade_estimate(mink_fam, ladder_fam, probes)
        assert forward.satisfied
        assert backward.satisfied
        assert forward.grade <= 4 and backward.grade <= 4

    def test_nonlinear_scaling_falsified(self):
        rng = np.random.default_rng(33)
        probes = scaled_probe_set(rng, DEPTH, scales=(1e-3, 1.0, 1e3))
        fam_a = lambda v: v.ladder(DEPTH).values
        fam_b = lambda v: np.exp(np.arange(DEPTH)) * v.ladder(DEPTH).values ** 2
        est = tame_grade_estimate(fam_a, fam_b, probes)
        assert not est.satisfied
        assert est.witness is not None

    def test_empty_probes_rejected(self):
        with pytest.raises(DomainError):
            tame_grade_estimate(lambda v: v, lambda v: v, [])


def test_gauge_respects_radius_monotonicity():
    v = TruncatedSequence(np.linspace(1.0, 0.1, DEPTH))
    g1 = ball_gauge(CFG, 0.25, v)
    g2 = ball_gauge(CFG, 0.125, v)
    assert g1 < g2


def test_gauge_overflow_raises_without_warning():
    # at depth 1060 the radius 2**-1061 pins a gauge of about 2**1060, beyond
    # the float range: the closed form raises instead of returning inf
    cfg = supremum_config(1060)
    v = TruncatedSequence(np.ones(1060))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ball_gauge(cfg, 2.0**-1061, v)
        with pytest.raises(DomainError):
            dyadic_minkowski_family(cfg, v)
