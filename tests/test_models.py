import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import evaluate

from gradedmetrics.core import standard_config
from gradedmetrics.errors import DomainError, ShapeError
from gradedmetrics.models import (
    CurveSpec,
    PeriodicFunction,
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_metric,
    element_norm,
    function_ladders,
    harmonic,
    line_curve,
    make_fk,
    random_function,
    sequence_ladders,
    unit_sequence,
    zero_function,
    zero_sequence,
)

coords_strategy = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-50.0, max_value=50.0),
)


class TestSequenceLadder:
    def test_first_unit_vector(self):
        lad = unit_sequence(6, 0).ladder(6)
        assert np.allclose(lad.values, np.ones(6))

    def test_partial_sums(self):
        v = TruncatedSequence(np.array([1.0, 2.0, 0.0, 0.0]))
        assert np.allclose(v.ladder(4).values, [1.0, 3.0, 3.0, 3.0])

    def test_zero(self):
        assert zero_sequence(5).ladder(5).is_zero()

    def test_depth_guard(self):
        with pytest.raises(ShapeError):
            zero_sequence(4).ladder(5)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            TruncatedSequence(np.array([1.0, np.nan]))

    @given(coords_strategy, coords_strategy)
    @settings(max_examples=150)
    def test_subadditive(self, a, b):
        n = min(a.size, b.size)
        u = TruncatedSequence(a[:n])
        v = TruncatedSequence(b[:n])
        lhs = (u + v).ladder(n).values
        rhs = u.ladder(n).values + v.ladder(n).values
        assert np.all(lhs <= rhs + 1e-9)

    @given(coords_strategy, st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=150)
    def test_absolute_homogeneity(self, a, c):
        v = TruncatedSequence(a)
        lhs = (v * c).ladder().values
        rhs = abs(c) * v.ladder().values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape, depth", [((9,), 9), ((9,), 4), ((30, 9), 6), ((2, 3, 9), 9)])
def test_sequence_ladders_one_buffer(shape, depth):
    # the ladders as written before they worked in one buffer; inputs stay untouched
    rng = np.random.default_rng(39)
    rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    rows.flags.writeable = False
    before = rows.copy()
    got = sequence_ladders(rows, depth)
    assert np.array_equal(got, np.cumsum(np.abs(rows[..., :depth]), axis=-1))
    assert got.shape == shape[:-1] + (depth,)
    assert np.array_equal(rows, before)
    assert not np.shares_memory(got, rows)


def test_sequence_ladder_of_read_only_coords():
    v = TruncatedSequence(np.random.default_rng(40).normal(size=8))
    before = v.coords.copy()
    assert np.array_equal(v.ladder(5).values, np.cumsum(np.abs(before[:5])))
    assert np.array_equal(v.coords, before)


class TestPeriodicFunction:
    def test_sine_ladder(self):
        f = harmonic(1)
        assert np.allclose(f.ladder(3).values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_zero_ladder(self):
        assert zero_function(4).ladder(3).is_zero()

    def test_fk_ladder(self):
        f = make_fk(2)
        lad = f.ladder(2)
        assert lad.values[0] == pytest.approx(0.5, abs=1e-12)
        assert lad.values[1] == pytest.approx(2.5, abs=1e-12)

    def test_spectral_consistency(self):
        # ladder entries of sin(kx) are partial sums of k^i
        for k in (1, 2, 3, 5):
            f = harmonic(k)
            expect = np.cumsum([float(k) ** i for i in range(5)])
            assert np.allclose(f.ladder(5).values, expect, atol=1e-9)

    def test_derivative_matches_dense_grid(self):
        # independent oracle: differentiate sin(3x) + 0.5 cos(x) analytically
        f = harmonic(3) + harmonic(1, bandwidth=3, amplitude=0.5, cosine=True)
        x = np.linspace(0.0, 2.0 * np.pi, 2011)
        expect = 3.0 * np.cos(3.0 * x) - 0.5 * np.sin(x)
        assert np.allclose(evaluate(f.derivative(), x), expect, atol=1e-10)

    def test_realness_preserved_by_arithmetic(self):
        # derived functions skip the constructor's symmetrization, so the
        # arithmetic itself must keep the modes exactly conjugate-symmetric
        for seed, bandwidth in ((0, 6), (1, 1), (2, 17), (3, 64)):
            rng = np.random.default_rng(seed)
            f = random_function(rng, bandwidth)
            g = random_function(rng, bandwidth, scale=1e3)
            derived = (f + g, f - g, 2.5 * f, f * -0.1, -f, f.derivative(), (f - g) * 3.0 + -g)
            for h in derived:
                sym = np.conj(h.fourier[::-1])
                assert np.array_equal(h.fourier, sym)

    def test_realness_validated(self):
        bad = np.zeros(3, dtype=complex)
        bad[2] = 1.0 + 0.0j  # c_{+1} without matching c_{-1}
        with pytest.raises(DomainError):
            PeriodicFunction(bad)

    @given(st.integers(min_value=1, max_value=5), st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=60)
    def test_homogeneity(self, bandwidth, c):
        rng = np.random.default_rng(bandwidth)
        f = random_function(rng, bandwidth)
        lhs = (f * c).ladder(4).values
        rhs = abs(c) * f.ladder(4).values
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def big_sequence():
    return TruncatedSequence(np.array([1e308]))


def big_function():
    return PeriodicFunction(np.array([1e308 + 0j]))


class TestValidation:
    """Public constructors check everything; derived values check finiteness.

    NaN coordinates and non-real modes are rejected in `test_rejects_nan`
    and `test_realness_validated`.
    """

    @pytest.mark.parametrize(
        ("coords", "error"),
        [
            pytest.param([np.inf, 1.0], DomainError, id="inf"),
            pytest.param([], ShapeError, id="empty"),
            pytest.param([[1.0, 2.0]], ShapeError, id="2d"),
        ],
    )
    def test_sequence_construction_rejects(self, coords, error):
        with pytest.raises(error):
            TruncatedSequence(np.asarray(coords, dtype=float))

    @pytest.mark.parametrize(
        ("fourier", "error"),
        [
            pytest.param([0.0, 1.0], ShapeError, id="even-length"),
            pytest.param([np.nan, 0.0, np.nan], DomainError, id="nan"),
        ],
    )
    def test_function_construction_rejects(self, fourier, error):
        with pytest.raises(error):
            PeriodicFunction(np.asarray(fourier, dtype=complex))

    def test_large_coefficients_construct_finite(self):
        assert np.array_equal(big_function().fourier, [1e308 + 0j])

    @pytest.mark.parametrize(
        "overflow",
        [
            pytest.param(lambda: big_sequence() * 10, id="seq-scale"),
            pytest.param(lambda: big_sequence() + big_sequence(), id="seq-sum"),
            pytest.param(lambda: big_sequence() - -big_sequence(), id="seq-difference"),
            pytest.param(lambda: TruncatedSequence(np.array([1e308, 1e308])).ladder(2), id="seq-ladder"),
            pytest.param(lambda: big_function() * 10, id="fn-scale"),
            pytest.param(lambda: big_function() + big_function(), id="fn-sum"),
            pytest.param(lambda: big_function() - -big_function(), id="fn-difference"),
            # cos x at amplitude 1.5e308: both level norms are finite, their sum is not
            pytest.param(
                lambda: PeriodicFunction(np.array([0.75e308, 0.0, 0.75e308], dtype=complex)).ladder(2),
                id="fn-ladder",
            ),
        ],
    )
    def test_overflow_raises(self, overflow):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            overflow()

    def test_derived_arrays_are_fresh_and_read_only(self):
        rng = np.random.default_rng(60)
        for u, v, field in (
            (TruncatedSequence(rng.normal(size=5)), TruncatedSequence(rng.normal(size=5)), "coords"),
            (random_function(rng, 3), random_function(rng, 3), "fourier"),
        ):
            operands = (getattr(u, field), getattr(v, field))
            derived = [getattr(w, field) for w in (u + v, u - v, u * 2.0, 2.0 * u, u * 1.0, -u)]
            derived.append(u.ladder(4).values)
            for arr in derived:
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, op) for op in operands)

    @pytest.mark.parametrize("depth", [0, -1, 6])
    def test_sequence_depth_outside_range(self, depth):
        v = TruncatedSequence(np.arange(1.0, 6.0))
        with pytest.raises(ShapeError):
            v.ladder(depth)
        with pytest.raises(ShapeError):
            v.level_norms(depth)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_function_depth_below_one(self, depth):
        f = harmonic(2)
        with pytest.raises(ShapeError):
            f.ladder(depth)
        with pytest.raises(ShapeError):
            f.level_norms(depth)


def dense_level_norms(f, depth):
    """Reference: sup norms of derivative orders 0..depth-1 by a dense basis product."""
    k = np.arange(-f.bandwidth, f.bandwidth + 1)
    size = 8 * max(f.bandwidth, 1)
    x = 2.0 * np.pi * np.arange(size) / size
    basis = np.exp(1j * np.outer(x, k))
    coeffs = f.fourier.copy()
    norms = np.empty(depth)
    for i in range(depth):
        norms[i] = np.max(np.abs(np.real(basis @ coeffs)))
        coeffs = coeffs * (1j * k)
    return norms


class TestFFTLadder:
    @pytest.mark.parametrize("bandwidth", [0, 1, 8, 64])
    def test_level_norms_match_dense_basis(self, bandwidth):
        rng = np.random.default_rng(40 + bandwidth)
        for _ in range(5):
            f = random_function(rng, bandwidth)
            expect = dense_level_norms(f, 12)
            assert np.allclose(f.level_norms(12), expect, rtol=1e-12, atol=0.0)
            assert np.allclose(f.ladder(12).values, np.cumsum(expect), rtol=1e-12, atol=0.0)
            assert f.sup_norm() == pytest.approx(expect[0], rel=1e-12, abs=0.0)

    def test_batched_ladders_match_single_rows(self):
        # 400 rows at B = 64 span several blocks of the working array
        rng = np.random.default_rng(44)
        rows = np.array([random_function(rng, 64).fourier for _ in range(400)])
        batched = function_ladders(rows.reshape(20, 20, -1), 12).reshape(400, 12)
        for row, ladder in zip(rows, batched):
            assert np.allclose(ladder, PeriodicFunction(row).ladder(12).values, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("bandwidth", [1, 8, 64])
    def test_coarse_grid_samples_exactly(self, bandwidth):
        # a grid of fewer than 2B+1 points aliases modes; values stay exact
        f = random_function(np.random.default_rng(50 + bandwidth), bandwidth)
        for size in sorted({1, 2, 3, bandwidth, 2 * bandwidth, 8 * bandwidth}):
            x, values = f.grid(size)
            assert x.size == size
            assert np.allclose(values, evaluate(f, x), rtol=0.0, atol=1e-12 * np.sum(np.abs(f.fourier)))


class TestMakeFk:
    def test_base_case(self):
        f = make_fk(1)
        assert f.sup_norm() == pytest.approx(1.0, abs=1e-12)
        assert f.derivative().sup_norm() == pytest.approx(1.0, abs=1e-12)

    def test_k2(self):
        f = make_fk(2)
        assert f.sup_norm() == pytest.approx(0.5, abs=1e-12)
        assert f.derivative().sup_norm() == pytest.approx(2.0, abs=1e-12)

    def test_k3_ratio(self):
        f = make_fk(3)
        assert f.sup_norm() == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert f.derivative().sup_norm() == pytest.approx(3.0, abs=1e-12)
        ratio = f.derivative().sup_norm() / f.sup_norm()
        assert ratio == pytest.approx(9.0, abs=1e-9)

    def test_bandwidth_guard(self):
        with pytest.raises(DomainError):
            make_fk(3, bandwidth=8)


class TestElementMetric:
    def test_translation_invariance(self):
        cfg = standard_config(8)
        rng = np.random.default_rng(1)
        u = TruncatedSequence(rng.normal(size=8))
        v = TruncatedSequence(rng.normal(size=8))
        w = TruncatedSequence(rng.normal(size=8))
        assert element_metric(u, v, cfg) == pytest.approx(
            element_metric(u + w, v + w, cfg), abs=1e-12
        )

    def test_norm_of_unit(self):
        cfg = standard_config(16)
        assert element_norm(unit_sequence(16, 0), cfg) == pytest.approx(0.5, abs=1e-4)
        assert element_norm(unit_sequence(16, 1), cfg) == pytest.approx(0.25, abs=1e-4)


class TestCurves:
    def test_line_midpoint(self):
        v = unit_sequence(4, 0)
        c = line_curve(v)
        assert np.allclose(c.position(0.5).coords, 0.5 * v.coords)
        assert np.allclose(c.velocity(0.5).coords, v.coords)

    def test_affine_matches_line_from_zero(self):
        v = TruncatedSequence(np.array([0.3, -1.0, 2.0]))
        c1 = line_curve(v)
        c2 = affine_curve(zero_sequence(3), v)
        for t in (0.0, 0.25, 0.7, 1.0):
            assert np.allclose(c1.position(t).coords, c2.position(t).coords)

    def test_degenerate_affine(self):
        a = TruncatedSequence(np.array([1.0, 2.0]))
        c = affine_curve(a, a)
        assert np.allclose(c.position(0.4).coords, a.coords)
        assert np.allclose(c.velocity(0.4).coords, 0.0)

    def test_velocity_consistent_with_position(self):
        # central differences of the position reproduce the velocity to O(h^2)
        v = TruncatedSequence(np.array([1.0, -0.5, 0.25]))
        curve = closed_form_curve(
            lambda t: v * np.sin(t),
            lambda t: v * np.cos(t),
            domain=(0.0, 1.0),
        )
        h = 1e-5
        for t in (0.2, 0.5, 0.8):
            fd = (curve.position(t + h) - curve.position(t - h)) * (0.5 / h)
            assert np.allclose(fd.coords, curve.velocity(t).coords, atol=1e-9)

    def test_restriction_guard(self):
        c = line_curve(unit_sequence(2, 0))
        with pytest.raises(DomainError):
            c.restricted(-0.1, 0.5)

    def test_model_mismatch_raises(self):
        with pytest.raises(ShapeError):
            unit_sequence(4, 0) + unit_sequence(5, 0)
        with pytest.raises(ShapeError):
            zero_function(2) + zero_function(3)
        with pytest.raises(ShapeError):
            unit_sequence(4, 0) + zero_function(4)


def test_curvespec_domain_validation():
    with pytest.raises(DomainError):
        CurveSpec("line", (1.0, 1.0), lambda t: t, lambda t: t)
