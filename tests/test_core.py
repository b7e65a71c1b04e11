import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmetrics.core import (
    STANDARD,
    SUPREMUM,
    GradedMetricConfig,
    SeminormLadder,
    WeightSequence,
    comparability_check,
    geometric_weights,
    graded_metric,
    line_profile,
    metric_rows,
    phi,
    phi_inverse,
    piecewise_line_metric,
    standard_ball_nonconvexity_witness,
    standard_config,
    standard_metric,
    sup_metric,
    supremum_config,
    zero_ladder,
)
from gradedmetrics.errors import DomainError, ShapeError


def ladder(*values):
    return SeminormLadder(np.asarray(values, dtype=float))


def random_ladder(rng, depth, scale=1.0):
    return SeminormLadder(np.cumsum(np.abs(rng.normal(size=depth))) * scale)


class TestPhi:
    def test_values(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == 0.5
        assert phi(3.0) == 0.75

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            phi(-1e-9)

    def test_inverse_roundtrip(self):
        xs = np.linspace(0.0, 50.0, 101)
        assert np.allclose(phi_inverse(phi(xs)), xs, atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_subadditive(self, x, y):
        assert phi(x + y) <= phi(x) + phi(y) + 1e-15

    @given(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_concave_on_sampled_triples(self, x, y, t):
        lhs = phi(t * x + (1.0 - t) * y)
        rhs = t * phi(x) + (1.0 - t) * phi(y)
        assert lhs >= rhs - 1e-12

    def test_range_strictly_below_one(self):
        assert phi(1e12) < 1.0
        assert np.all(np.diff(phi(np.linspace(0, 100, 500))) > 0)


class TestWeights:
    def test_geometric(self):
        assert np.allclose(geometric_weights(0.5, 3).values, [0.5, 0.25, 0.125])
        assert np.allclose(geometric_weights(0.9, 1).values, [0.9])
        assert np.allclose(geometric_weights(0.25, 2).values, [0.25, 0.0625])

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 1.5])
    def test_ratio_domain(self, r):
        with pytest.raises(DomainError):
            geometric_weights(r, 4)

    def test_monotone_enforced(self):
        with pytest.raises(DomainError):
            WeightSequence(np.array([0.25, 0.5]))
        with pytest.raises(DomainError):
            WeightSequence(np.array([0.5, 0.0]))


@pytest.mark.parametrize(
    ("values", "error"),
    [
        pytest.param([1.0, np.nan], DomainError, id="nan"),
        pytest.param([-1.0, 0.0], DomainError, id="negative"),
        pytest.param([2.0, 1.0], DomainError, id="decreasing"),
        pytest.param([], ShapeError, id="empty"),
        pytest.param([[1.0, 2.0]], ShapeError, id="2d"),
    ],
)
def test_ladder_construction_rejects(values, error):
    with pytest.raises(error):
        SeminormLadder(np.asarray(values, dtype=float))


class TestStandardMetric:
    def test_geometric_series_limit(self):
        # flat unit ladder: sum of 2^-n * phi(1) tends to 0.5
        cfg = standard_config(30)
        value = standard_metric(SeminormLadder(np.ones(30)), None, cfg)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_zero_ladder(self):
        cfg = standard_config(8)
        assert standard_metric(zero_ladder(8), None, cfg) == 0.0

    def test_two_term_evaluation(self):
        cfg = standard_config(2)
        value = standard_metric(ladder(1.0, 2.0), None, cfg)
        assert value == pytest.approx(0.25 + 0.25 * (2.0 / 3.0), abs=1e-15)

    def test_depth_mismatch(self):
        cfg = standard_config(4)
        with pytest.raises(ShapeError):
            standard_metric(zero_ladder(3), None, cfg)
        with pytest.raises(ShapeError):
            standard_metric(zero_ladder(4), zero_ladder(5), cfg)


class TestSupMetric:
    def test_flat_unit_ladder(self):
        cfg = supremum_config(20)
        assert sup_metric(SeminormLadder(np.ones(20)), None, cfg) == pytest.approx(0.25)

    def test_zero(self):
        assert sup_metric(zero_ladder(5), None, supremum_config(5)) == 0.0

    def test_max_at_second_level(self):
        vals = np.ones(10)
        vals[0] = 0.0
        cfg = supremum_config(10)
        assert sup_metric(SeminormLadder(vals), None, cfg) == pytest.approx(0.125)


class TestMetricAxioms:
    @pytest.mark.parametrize("flavor", [STANDARD, SUPREMUM])
    def test_axioms_on_seeded_pairs(self, flavor):
        rng = np.random.default_rng(42)
        depth = 12
        cfg = GradedMetricConfig(flavor, geometric_weights(0.5, depth), depth)
        for _ in range(300):
            a = random_ladder(rng, depth)
            b = random_ladder(rng, depth)
            c = random_ladder(rng, depth)
            dab = graded_metric(a, b, cfg)
            assert dab == graded_metric(b, a, cfg)  # symmetry, exact
            assert graded_metric(a, a, cfg) == 0.0
            assert dab <= graded_metric(a, c, cfg) + graded_metric(c, b, cfg) + 1e-12

    @pytest.mark.parametrize("flavor", [STANDARD, SUPREMUM])
    @pytest.mark.parametrize("rho", [1.0, 2.0, 10.0])
    def test_scalar_bounded_by_one(self, flavor, rho):
        rng = np.random.default_rng(7)
        depth = 10
        cfg = GradedMetricConfig(flavor, geometric_weights(0.5, depth), depth)
        for _ in range(200):
            lad = random_ladder(rng, depth)
            scaled = SeminormLadder(lad.values * rho)
            assert graded_metric(scaled, None, cfg) <= rho * graded_metric(lad, None, cfg) + 1e-12

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_triangle_hypothesis(self, increments):
        cfg = standard_config(6)
        rng = np.random.default_rng(abs(hash(tuple(increments))) % (2**32))
        a = SeminormLadder(np.cumsum(np.asarray(increments)))
        b = random_ladder(rng, 6)
        c = random_ladder(rng, 6)
        for metric in (standard_metric, sup_metric):
            assert metric(a, b, cfg) <= metric(a, c, cfg) + metric(c, b, cfg) + 1e-12


class TestMetricRows:
    @pytest.mark.parametrize("flavor", [STANDARD, SUPREMUM])
    def test_matches_per_ladder_metric(self, flavor):
        rng = np.random.default_rng(31)
        depth = 20
        cfg = GradedMetricConfig(flavor, geometric_weights(0.5, depth), depth)
        ladders = np.cumsum(np.abs(rng.normal(size=(6, 50, depth))) * 10.0 ** rng.uniform(-3, 3, (6, 50, 1)), axis=-1)
        batched = metric_rows(ladders, cfg)
        assert batched.shape == (6, 50)
        for index in np.ndindex(6, 50):
            expect = graded_metric(SeminormLadder(ladders[index]), None, cfg)
            assert batched[index] == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_depth_guard(self):
        with pytest.raises(ShapeError):
            metric_rows(np.zeros((3, 5)), standard_config(4))

    @pytest.mark.parametrize("flavor", [STANDARD, SUPREMUM])
    @pytest.mark.parametrize("shape", [(7,), (40, 7), (3, 5, 7)])
    def test_one_buffer_matches_expression(self, flavor, shape):
        # the reduction as written before it worked in one buffer
        rng = np.random.default_rng(37)
        cfg = GradedMetricConfig(flavor, geometric_weights(0.3, 7), 7)
        ladders = np.cumsum(np.abs(rng.normal(size=shape)) * 10.0 ** rng.uniform(-3, 3, shape), axis=-1)
        ladders.flags.writeable = False
        before = ladders.copy()
        terms = cfg.level_weights * (ladders / (1.0 + ladders))
        expect = np.sum(terms, axis=-1) if flavor == STANDARD else np.max(terms, axis=-1)
        got = metric_rows(ladders, cfg)
        assert np.array_equal(got, expect)
        assert np.shape(got) == shape[:-1]
        assert np.array_equal(ladders, before)

    def test_read_only_ladder_values(self):
        # a SeminormLadder's values are read-only; the metric must not write to them
        lad = random_ladder(np.random.default_rng(38), 9)
        before = lad.values.copy()
        assert standard_metric(lad, None, standard_config(9)) > 0.0
        assert sup_metric(lad, None, supremum_config(9)) > 0.0
        assert np.array_equal(lad.values, before)


class TestBallGeometry:
    def test_sup_midpoint_convexity(self):
        # ladders of u, v and of (u+v)/2 built from actual coordinates
        rng = np.random.default_rng(11)
        depth = 10
        cfg = supremum_config(depth)
        for _ in range(300):
            u = rng.normal(size=depth)
            v = rng.normal(size=depth)
            du = sup_metric(SeminormLadder(np.cumsum(np.abs(u))), None, cfg)
            dv = sup_metric(SeminormLadder(np.cumsum(np.abs(v))), None, cfg)
            dm = sup_metric(SeminormLadder(np.cumsum(np.abs((u + v) / 2.0))), None, cfg)
            assert dm <= max(du, dv)

    def test_standard_nonconvexity_witness(self):
        cfg = standard_config(12)
        wit = standard_ball_nonconvexity_witness(cfg)
        assert wit.first_value == pytest.approx(wit.radius, abs=1e-12)
        assert wit.second_value == pytest.approx(wit.radius, abs=1e-12)
        assert wit.midpoint_value > wit.radius + 1e-6

    def test_witness_matches_element_construction(self):
        # the witness ladders are those of a*e1, b*e2 and their midpoint
        cfg = standard_config(6)
        wit = standard_ball_nonconvexity_witness(cfg, radius=0.2)
        a = wit.first.values[0]
        b = wit.second.values[-1]
        u = np.zeros(6)
        u[0] = a
        v = np.zeros(6)
        v[1] = b
        assert np.allclose(np.cumsum(np.abs(u)), wit.first.values)
        assert np.allclose(np.cumsum(np.abs(v)), wit.second.values)
        assert np.allclose(np.cumsum(np.abs((u + v) / 2)), wit.midpoint.values)


class TestComparability:
    @pytest.mark.parametrize("r", [0.2, 0.5])
    def test_ordered_for_small_ratios(self, r):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lad = random_ladder(rng, 30)
            t1, t2, t3 = comparability_check(lad, r, 30)
            assert t1 <= t2 + 1e-12
            assert t2 <= t3 + 1e-12

    def test_flat_ladder_example(self):
        t1, t2, t3 = comparability_check(SeminormLadder(np.ones(30)), 0.5, 30)
        assert t1 <= t2 <= t3
        assert t2 == pytest.approx(0.25)

    def test_quadratic_ladder_example(self):
        lad = SeminormLadder(np.arange(1.0, 31.0) ** 2)
        t1, t2, t3 = comparability_check(lad, 0.3, 30)
        assert t1 <= t2 <= t3

    def test_zero_ladder_degenerate(self):
        assert comparability_check(zero_ladder(10), 0.5, 10) == (0.0, 0.0, 0.0)

    def test_large_ratio_counterexample(self):
        # the ordering provably fails above r = 1/2: flat ladders break it at 0.8
        t1, t2, _ = comparability_check(SeminormLadder(np.ones(30)), 0.8, 30)
        assert t1 > t2


class TestPiecewiseLineMetric:
    def test_values(self):
        assert piecewise_line_metric(0.0, 2.0) == pytest.approx(0.5)
        assert piecewise_line_metric(0.0, 1.0) == 1.0
        assert piecewise_line_metric(0.0, 0.0) == 0.0

    def test_disconnected_ball_witness(self):
        # radius-0.6 ball around 0 contains 2 but not 1
        assert piecewise_line_metric(0.0, 2.0) < 0.6
        assert piecewise_line_metric(0.0, 1.0) > 0.6

    def test_triangle_inequality_on_short_range(self):
        # subadditivity of the profile holds for separations up to ~1.9
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.8, size=(500, 2))
        for x, gap in pts:
            y = x + gap * rng.choice([-0.5, 0.5, 1.0])
            for z in (x + 0.3, (x + y) / 2.0, y - 0.1):
                if abs(x - z) <= 1.8 and abs(z - y) <= 1.8:
                    lhs = piecewise_line_metric(x, y)
                    rhs = piecewise_line_metric(x, z) + piecewise_line_metric(z, y)
                    assert lhs <= rhs + 1e-12

    def test_triangle_fails_for_large_separations(self):
        # documented defect of the profile: it is not subadditive beyond 2
        assert line_profile(4.0) > line_profile(2.0) + line_profile(2.0)


class TestConfig:
    def test_truncation_bound(self):
        with pytest.raises(ShapeError):
            GradedMetricConfig(STANDARD, geometric_weights(0.5, 4), 5)

    def test_unknown_flavor(self):
        with pytest.raises(DomainError):
            GradedMetricConfig("other", geometric_weights(0.5, 4), 4)

    def test_with_truncation_shares_weights(self):
        cfg = standard_config(8)
        shorter = cfg.with_truncation(5)
        assert shorter.truncation == 5
        assert shorter.weights is cfg.weights
