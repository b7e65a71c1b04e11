import numpy as np
import pytest
from oracles import (
    analytic_rbound_reference,
    evaluate,
    neumann_partial_sums,
    random_function_reference,
    rbound_reference,
    reference_probe_rows,
)

from gradedmetrics.core import standard_config, supremum_config
from gradedmetrics.errors import (
    CertificateViolation,
    ContractionError,
    ConvergenceError,
    DomainError,
    EmptyEstimateError,
    ShapeError,
)
from gradedmetrics.models import (
    element_norm,
    harmonic,
    make_fk,
    random_sequence,
    unit_sequence,
    zero_sequence,
)
from gradedmetrics.operators import (
    FN,
    SEQ,
    LinearOperator,
    ProbePlan,
    composition_operator,
    dense_operator,
    derivative_operator,
    diagonal_operator,
    distortion,
    down_shift,
    identity_operator,
    monotone_growth,
    neumann_invert,
    oscillating_composition,
    peak_function,
    perturbed_invert_bound,
    rbound_estimate,
    rbound_estimates,
    unboundedness_probe,
    up_shift,
)

DEPTH = 16
CFG = standard_config(DEPTH)
PLAN = ProbePlan(seed=0, random_count=60)


class TestApply:
    def test_up_shift_moves_e2_to_e1(self):
        sigma = up_shift(DEPTH)
        image = sigma.apply(unit_sequence(DEPTH, 1))
        assert np.allclose(image.coords, unit_sequence(DEPTH - 1, 0).coords)

    def test_identity(self):
        v = random_sequence(np.random.default_rng(0), DEPTH)
        assert np.array_equal(identity_operator(DEPTH).apply(v).coords, v.coords)

    def test_diagonal(self):
        op = diagonal_operator(np.full(DEPTH, 0.5))
        image = op.apply(unit_sequence(DEPTH, 0))
        assert np.allclose(image.coords, 0.5 * unit_sequence(DEPTH, 0).coords)

    def test_down_shift(self):
        tau = down_shift(4)
        image = tau.apply(unit_sequence(4, 0))
        assert np.allclose(image.coords, [0.0, 1.0, 0.0, 0.0])

    def test_linearity_sampled(self):
        rng = np.random.default_rng(1)
        for op in (up_shift(8), down_shift(8), diagonal_operator(rng.normal(size=8))):
            u = random_sequence(rng, 8)
            v = random_sequence(rng, 8)
            a, b = rng.normal(size=2)
            lhs = op.apply(u * a + v * b)
            rhs = op.apply(u) * a + op.apply(v) * b
            assert np.allclose(lhs.coords, rhs.coords, atol=1e-12)

    def test_structured_matches_dense(self):
        # reference matrices written from each kind's definition, not from apply
        rng = np.random.default_rng(2)
        d, bw = 8, 3
        k = np.arange(-bw, bw + 1)
        fn_diag = np.cos(k) + 2.0  # even in k, so real functions stay real
        diag = rng.normal(size=d)
        dense_seq = rng.normal(size=(d, d))
        dense_fn = np.diag(fn_diag) + 0.3 * np.eye(k.size)[::-1] + 0j  # c_k -> c_k d_k + 0.3 c_-k
        cases = [
            (identity_operator(d), np.eye(d)),
            (up_shift(d), np.eye(d, k=1)[: d - 1]),
            (up_shift(d, drop_level=False), np.eye(d, k=1)),
            (down_shift(d), np.eye(d, k=-1)),
            (diagonal_operator(diag), np.diag(diag)),
            (dense_operator(dense_seq), dense_seq),
            (down_shift(d).compose(diagonal_operator(diag)), np.eye(d, k=-1) @ np.diag(diag)),
            (identity_operator(2 * bw + 1, space=FN), np.eye(2 * bw + 1)),
            (derivative_operator(bw), np.diag(1j * k)),
            (derivative_operator(bw, drop_level=False), np.diag(1j * k)),
            (LinearOperator("diagonal", FN, k.size, k.size, diag=fn_diag), np.diag(fn_diag)),
            (dense_operator(dense_fn, space=FN), dense_fn),
            (
                derivative_operator(bw).compose(LinearOperator("diagonal", FN, k.size, k.size, diag=fn_diag)),
                np.diag(1j * k) @ np.diag(fn_diag),
            ),
        ]
        for op, reference in cases:
            assert np.allclose(op.materialize(), reference, rtol=0.0, atol=1e-14), op.kind
            if op.space == SEQ:
                v = random_sequence(rng, d)
                assert np.allclose(op.apply(v).coords, reference @ v.coords, rtol=0.0, atol=1e-13)
            else:
                f = random_function_reference(rng, bw)
                assert np.allclose(op.apply(f).fourier, reference @ f.fourier, rtol=0.0, atol=1e-13)
        assert np.array_equal(dense_operator(dense_seq).materialize(), dense_seq)

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            up_shift(8).apply(zero_sequence(9))


class TestRBound:
    def test_identity_is_one(self):
        est = rbound_estimate(identity_operator(DEPTH), CFG, plan=PLAN)
        assert est.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert est.analytic_upper == 1.0

    def test_up_shift_bound_two(self):
        est = rbound_estimate(up_shift(DEPTH), CFG, plan=PLAN)
        assert est.analytic_upper == pytest.approx(2.0)
        assert est.lower_bound >= 2.0 - 1e-9
        assert est.lower_bound <= 2.0 + 1e-12

    def test_up_shift_witnessed_at_e2(self):
        sigma = up_shift(DEPTH)
        cod = CFG.with_truncation(DEPTH - 1)
        e2 = unit_sequence(DEPTH, 1)
        ratio = element_norm(sigma.apply(e2), cod) / element_norm(e2, CFG)
        assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_same_depth_up_shift_bound_three(self):
        est = rbound_estimate(up_shift(DEPTH, drop_level=False), CFG, plan=PLAN)
        assert est.analytic_upper == pytest.approx(3.0)
        assert est.lower_bound == pytest.approx(3.0, abs=1e-9)

    def test_down_shift_stays_below_half(self):
        est = rbound_estimate(down_shift(DEPTH), CFG, plan=PLAN)
        assert est.analytic_upper == pytest.approx(0.5)
        assert est.lower_bound <= 0.5 + 1e-12
        assert est.lower_bound >= 0.49

    def test_down_shift_exhaustive_scaled_basis_oracle(self):
        # independent oracle: every scaled basis vector, three orders of magnitude
        tau = down_shift(DEPTH)
        worst = 0.0
        for k in range(DEPTH):
            for t in np.logspace(-4, 4, 33):
                v = unit_sequence(DEPTH, k) * t
                worst = max(worst, element_norm(tau.apply(v), CFG) / element_norm(v, CFG))
        assert worst <= 0.5 + 1e-12

    def test_submultiplicative_on_probes(self):
        rng = np.random.default_rng(3)
        tau = down_shift(DEPTH)
        diag = diagonal_operator(rng.uniform(-1.0, 1.0, DEPTH))
        composed = tau.compose(diag)
        est_t = rbound_estimate(tau, CFG, plan=PLAN)
        est_d = rbound_estimate(diag, CFG, plan=PLAN)
        est_c = rbound_estimate(composed, CFG, plan=PLAN)
        assert est_c.lower_bound <= est_t.analytic_upper * est_d.analytic_upper + 1e-9
        assert est_c.lower_bound <= est_t.lower_bound * est_d.lower_bound * (1 + 1e-6) + 1e-9

    @pytest.mark.parametrize("op", [derivative_operator(3), derivative_operator(8), up_shift(12)])
    def test_batched_probes_match_per_probe_loop(self, op):
        # reference: one model element per probe, normed one at a time
        cfg = standard_config(12)
        cod = cfg.with_truncation(12 - op.ladder_shift)
        plan = ProbePlan(seed=5, random_count=50)
        rng = np.random.default_rng(plan.seed)
        if op.space == SEQ:
            probes = [(f"e{j + 1}", unit_sequence(12, j)) for j in range(12)]
            randoms = [random_sequence(rng, 12) for _ in range(plan.random_count)]
        else:
            bw = (op.domain_dim - 1) // 2
            probes = [
                (f"{name}{mode}", harmonic(mode, bandwidth=bw, cosine=name == "cos"))
                for mode in range(1, bw + 1)
                for name in ("sin", "cos")
            ]
            randoms = [random_function_reference(rng, bw) for _ in range(plan.random_count)]
        labelled = [(f"{name}*{t:g}", v * t) for name, v in probes for t in plan.basis_scales]
        labelled += [(f"rng{i}*{s:g}", v * s) for i, v in enumerate(randoms) for s in plan.random_scales]
        best, witness, count = -np.inf, None, 0
        for label, v in labelled:
            nv = element_norm(v, cfg)
            if nv > 0.0:
                count += 1
                ratio = element_norm(op.apply(v), cod) / nv
                if ratio > best:
                    best, witness = ratio, label
        est = rbound_estimate(op, cfg, plan=plan)
        assert est.probe_count == count
        assert est.witness == witness
        assert est.lower_bound == pytest.approx(best, rel=0.0, abs=1e-12)

    def test_ball_constraint(self):
        with pytest.raises(EmptyEstimateError):
            rbound_estimate(identity_operator(4), standard_config(4), radius=1e-12, plan=PLAN)


def _structured_operators(depth, rng):
    """The operators with a per-kind formula in `oracles.analytic_rbound_reference`."""
    return [
        identity_operator(depth),
        up_shift(depth),
        up_shift(depth, drop_level=False),
        down_shift(depth),
        diagonal_operator(rng.uniform(-2.0, 2.0, depth)),
        diagonal_operator(rng.uniform(-1.0, 1.0, depth)),
        down_shift(depth).compose(diagonal_operator(rng.uniform(-1.0, 1.0, depth))),
        derivative_operator(8),
    ]


class TestCeiling:
    """`analytic_upper` from the one ceiling rule on level matrices."""

    @pytest.mark.parametrize("depth", [4, 16, 64, 256])
    def test_per_kind_formulas_at_ratio_half(self, depth):
        cfg = standard_config(depth)
        for op in _structured_operators(depth, np.random.default_rng(depth)):
            assert op.analytic_rbound(cfg) == analytic_rbound_reference(op, cfg), op.kind

    @pytest.mark.parametrize("depth", [4, 16, 64, 256])
    @pytest.mark.parametrize("ratio", [0.3, 0.8, 0.9])
    def test_per_kind_formulas_at_other_ratios(self, depth, ratio):
        cfg = standard_config(depth, r=ratio)
        for op in _structured_operators(depth, np.random.default_rng(depth)):
            got, want = op.analytic_rbound(cfg), analytic_rbound_reference(op, cfg)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), op.kind
            if op.kind in ("identity", "diagonal"):
                assert got >= want, op.kind

    @pytest.mark.parametrize("config", [standard_config, supremum_config])
    def test_sparse_dense_ceiling_above_probe(self, config):
        # one probe pass for 100 seeded 8 x 8 matrices with about a quarter of
        # their entries nonzero; a ceiling below the probe would also raise
        ops = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ops.append(dense_operator(rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.25)))
        for est in rbound_estimates(ops, config(8)):
            assert est.lower_bound <= est.analytic_upper

    @pytest.mark.parametrize("depth", [16, 64, 256])
    def test_right_inverse_of_ift_solve_closed_form(self, depth):
        # R0 = sum_i (-0.1 tau)^i: the first column of |R0| sums to sum_{i<depth} 0.1^i
        cfg = standard_config(depth)
        forward = dense_operator(np.eye(depth) + 0.1 * down_shift(depth).materialize())
        r0 = neumann_invert(forward, cfg, tol=1e-13, rho=0.5).operator
        est = rbound_estimate(r0, cfg, plan=PLAN)
        closed_form = sum(0.1**i for i in range(depth))
        assert est.analytic_upper == pytest.approx(closed_form, rel=1e-15, abs=0.0)
        assert est.lower_bound <= est.analytic_upper

    @pytest.mark.parametrize("depth", [8, 16])
    def test_same_depth_up_shift_supremum_is_two(self, depth):
        # the supremum flavor takes the largest level term, not the top two summed
        est = rbound_estimate(up_shift(depth, drop_level=False), supremum_config(depth), plan=PLAN)
        assert est.analytic_upper == 2.0
        assert est.lower_bound == pytest.approx(2.0, abs=1e-9)

    def test_function_composition_needs_both_level_matrices(self):
        cfg = standard_config(6)
        d, dense = derivative_operator(4), dense_operator(np.eye(9), space=FN)
        assert d.compose(d).analytic_rbound(cfg) == 4.0
        assert d.compose(identity_operator(9, space=FN)).analytic_rbound(cfg) == 2.0
        assert d.compose(dense).analytic_rbound(cfg) is None
        assert dense.compose(d).analytic_rbound(cfg) is None

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(ShapeError):
            up_shift(8).analytic_rbound(standard_config(6))


REFERENCE_SCALES = tuple(np.logspace(-3.0, 3.0, 7))


def _seq_operators(depth, rng):
    """Seeded sequence operators: exact ones first, then the composition."""
    exact = [
        identity_operator(depth),
        up_shift(depth),
        up_shift(depth, drop_level=False),
        down_shift(depth),
        diagonal_operator(rng.uniform(-2.0, 2.0, depth)),
        dense_operator(rng.normal(size=(depth, depth)) / depth),
    ]
    first, second = (dense_operator(rng.normal(size=(depth, depth)) / depth) for _ in range(2))
    return exact, [first.compose(second)]


def _fn_operators(bandwidth, rng):
    """Seeded function operators: exact ones first, then the dense one."""
    k = np.arange(-bandwidth, bandwidth + 1)
    dim = k.size
    exact = [
        identity_operator(dim, space=FN),
        derivative_operator(bandwidth),
        derivative_operator(bandwidth, drop_level=False),
        LinearOperator("diagonal", FN, dim, dim, diag=np.cos(k) + 2.0),
    ]
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return exact, [dense_operator(mat / dim, space=FN)]


def _outcome(estimate):
    """The estimate, or the message of the certificate violation it raised."""
    try:
        return estimate()
    except CertificateViolation as exc:
        return str(exc)


def _check_against_reference(exact, rounded, cfg, radius, plan, dim):
    """One batch of the operators the reference estimates, and each one it
    rejects alone, against the reference."""
    cases = [(op, bitwise) for ops, bitwise in ((exact, True), (rounded, False)) for op in ops]
    refs = [_outcome(lambda: rbound_reference(op, cfg, radius, plan)) for op, _ in cases]
    kept = [(case, ref) for case, ref in zip(cases, refs) if not isinstance(ref, str)]
    estimates = rbound_estimates([op for (op, _), _ in kept], cfg, radius, plan)
    for ((op, bitwise), ref), est in zip(kept, estimates):
        assert (est.probe_count, est.witness) == (ref.probe_count, ref.witness), op.kind
        assert est.analytic_upper == ref.analytic_upper
        if bitwise:
            assert est.lower_bound == ref.lower_bound, op.kind
        else:
            assert est.lower_bound == pytest.approx(ref.lower_bound, rel=1e-15, abs=0.0)
    for (op, _), ref in zip(cases, refs):
        if isinstance(ref, str):
            # the message carries the probe ratio's repr, so this too is bit for bit
            assert _outcome(lambda: rbound_estimates([op], cfg, radius, plan)[0]) == ref
    probes = len(reference_probe_rows(plan, exact[0].space, dim)[0])
    assert all(0 < est.probe_count < probes if radius < np.inf else est.probe_count == probes for est in estimates)


class TestRBoundEstimates:
    """The one probe pass against `oracles.rbound_reference`, which applies
    each operator to every scaled probe row.

    Operators that map a scaled basis row t*b to exactly t*A(b) match bit
    for bit.  A composition of dense maps, and a dense map on functions
    (whose sine and cosine probes have two nonzero modes each), round the
    sum of products once before scaling instead of after: at most 3 ulp
    (5.4e-16 relative) measured on these cases, against a 1e-15 bound.
    """

    @pytest.mark.parametrize("depth", [4, 16, 64, 256])
    @pytest.mark.parametrize("config", [standard_config, supremum_config])
    @pytest.mark.parametrize("radius", [np.inf, 0.3])
    def test_sequences_match_reference(self, depth, config, radius):
        exact, rounded = _seq_operators(depth, np.random.default_rng(depth))
        plan = ProbePlan(seed=depth, basis_scales=REFERENCE_SCALES, random_count=40)
        _check_against_reference(exact, rounded, config(depth), radius, plan, depth)

    @pytest.mark.parametrize("depth", [4, 16, 64, 256])
    @pytest.mark.parametrize("config", [standard_config, supremum_config])
    @pytest.mark.parametrize("radius", [np.inf, 0.3])
    def test_functions_match_reference(self, depth, config, radius):
        # bandwidth depth/8 (at least 1) and four derivative levels
        bandwidth = max(1, depth // 8)
        exact, rounded = _fn_operators(bandwidth, np.random.default_rng(depth))
        plan = ProbePlan(seed=depth, basis_scales=REFERENCE_SCALES, random_count=20)
        _check_against_reference(exact, rounded, config(4), radius, plan, 2 * bandwidth + 1)

    @pytest.mark.parametrize("space, dim", [(s, d) for d in (9, 3, 17, 65) for s in (SEQ, FN)])
    def test_probe_rows_match_reference(self, space, dim):
        # one normal draw of shape (count, dim) gives the per-direction numbers,
        # to the bit: the harmonic basis and the mode-by-mode function draws
        for seed in (11, 0):
            plan = ProbePlan(seed=seed, random_count=7)
            labels, rows = plan.probe_rows(space, dim)
            ref_labels, ref_rows = reference_probe_rows(plan, space, dim)
            assert labels == ref_labels
            assert rows.dtype == ref_rows.dtype and rows.tobytes() == ref_rows.tobytes()

    def test_mixed_operators_rejected(self):
        with pytest.raises(ShapeError):
            rbound_estimates([identity_operator(9), identity_operator(9, space=FN)], standard_config(9))
        with pytest.raises(ShapeError):
            rbound_estimates([identity_operator(8), identity_operator(9)], standard_config(8))

    def test_empty_ball_and_radius(self):
        ops = [identity_operator(4), down_shift(4)]
        with pytest.raises(EmptyEstimateError):
            rbound_estimates(ops, standard_config(4), radius=1e-12, plan=PLAN)
        for radius in (0.0, -1.0):
            with pytest.raises(DomainError):
                rbound_estimates(ops, standard_config(4), radius=radius, plan=PLAN)


class TestDerivativeOperator:
    def test_differentiates_sine(self):
        d = derivative_operator(3)
        image = d.apply(harmonic(1, bandwidth=3))
        x = np.linspace(0, 2 * np.pi, 257)
        assert np.allclose(evaluate(image, x), np.cos(x), atol=1e-12)

    def test_fk_sup_ratio(self):
        f = make_fk(2)
        d = derivative_operator(f.bandwidth)
        ratio = d.apply(f).sup_norm() / f.sup_norm()
        assert ratio == pytest.approx(4.0, abs=1e-9)

    def test_graded_bound_two(self):
        cfg = standard_config(16)
        est = rbound_estimate(derivative_operator(6), cfg, plan=ProbePlan(random_count=40))
        assert est.analytic_upper == pytest.approx(2.0)
        assert est.lower_bound <= 2.0 + 1e-9

    def test_same_depth_has_no_ceiling(self):
        # its top level needs sup|D^N f|, which the depth-N ladder does not
        # control: the probe reaches 3.80 at B = 8, above the up-shift's 3
        est = rbound_estimate(derivative_operator(8, drop_level=False), standard_config(4))
        assert est.analytic_upper is None
        assert est.lower_bound > 3.0

    def test_ladder_action_reduces_to_shift(self):
        f = harmonic(2) + harmonic(1, bandwidth=2, amplitude=0.3, cosine=True)
        d = derivative_operator(2)
        lhs = d.apply(f).ladder(5).values
        rhs = f.ladder(6).values[1:]
        assert np.all(lhs <= rhs + 1e-9)


class TestNeumann:
    def test_inverts_near_identity(self):
        tau = down_shift(DEPTH)
        a = dense_operator(np.eye(DEPTH) - 0.5 * tau.materialize())
        result = neumann_invert(a, CFG, tol=1e-12, plan=PLAN)
        oracle = np.linalg.inv(a.materialize())
        assert np.max(np.abs(result.operator.materialize() - oracle)) < 1e-10

    def test_identity_one_term(self):
        result = neumann_invert(identity_operator(DEPTH), CFG, plan=PLAN)
        assert result.terms == 0
        assert np.allclose(result.operator.materialize(), np.eye(DEPTH))

    def test_rejects_expanding_gap(self):
        sigma = up_shift(DEPTH, drop_level=False)
        a = dense_operator(np.eye(DEPTH) - sigma.materialize())
        with pytest.raises(ContractionError):
            neumann_invert(a, CFG, plan=PLAN)

    def test_residual_bounds_hold_at_every_truncation(self):
        tau = down_shift(DEPTH)
        a = dense_operator(np.eye(DEPTH) - 0.5 * tau.materialize())
        rho = 0.5
        sums = neumann_partial_sums(a.materialize(), 12)
        inverse = np.linalg.inv(a.materialize())
        for m, s in enumerate(sums):
            resid = dense_operator(a.materialize() @ s - np.eye(DEPTH))
            est = rbound_estimate(resid, CFG, plan=PLAN)
            assert est.lower_bound <= rho ** (m + 1) + 1e-9
            gap = dense_operator(s - inverse)
            est_gap = rbound_estimate(gap, CFG, plan=PLAN)
            assert est_gap.lower_bound <= rho ** (m + 1) / (1 - rho) + 1e-9

    def test_budget_error_carries_partial(self):
        tau = down_shift(DEPTH)
        a = dense_operator(np.eye(DEPTH) - 0.5 * tau.materialize())
        with pytest.raises(ConvergenceError) as info:
            neumann_invert(a, CFG, tol=1e-12, max_terms=3, plan=PLAN)
        assert info.value.partial is not None
        assert np.array_equal(info.value.partial, neumann_partial_sums(a.materialize(), 3)[-1])

    def test_series_equals_fresh_matrix_powers(self):
        a = np.eye(DEPTH) - 0.5 * np.eye(DEPTH, k=-1)
        result = neumann_invert(dense_operator(a), CFG, tol=1e-12, rho=0.5)
        assert np.array_equal(result.operator.matrix, neumann_partial_sums(a, result.terms)[-1])

    @pytest.mark.parametrize("depth", [16, 64, 256])
    def test_residuals_are_gap_powers_with_exact_ceilings(self, depth):
        # what lets `neumann-invert` bound the residual of S_m by the ceiling of G^(m+1)
        g = 0.5 * np.eye(depth, k=-1)
        a = np.eye(depth) - g
        cfg = standard_config(depth)
        for m, s in enumerate(neumann_partial_sums(a, 10)):
            power = np.linalg.matrix_power(g, m + 1)
            assert np.array_equal(a @ s - np.eye(depth), -power)
            assert dense_operator(power).analytic_rbound(cfg) == 0.5 ** (m + 1)


class TestPerturbedInvert:
    def test_worked_values(self):
        assert perturbed_invert_bound(2.0, 0.1) == (pytest.approx(2.5), pytest.approx(0.5))
        assert perturbed_invert_bound(1.0, 0.0) == (1.0, 0.0)
        assert perturbed_invert_bound(2.0, 0.25) == (pytest.approx(4.0), pytest.approx(2.0))

    def test_precondition(self):
        with pytest.raises(ContractionError):
            perturbed_invert_bound(2.0, 0.5)


class TestDistortion:
    def test_diagonal(self):
        rep = distortion(np.diag([2.0, 0.5]))
        assert (rep.upper, rep.lower, rep.total) == (2.0, 2.0, 2.0)

    def test_identity(self):
        rep = distortion(np.eye(3))
        assert (rep.upper, rep.lower, rep.total) == (1.0, 1.0, 1.0)

    def test_rectangular_from_constructed_svd(self):
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        mat = u[:, :2] @ np.diag([3.0, 0.25]) @ v.T
        rep = distortion(mat)
        assert rep.upper == pytest.approx(3.0)
        assert rep.lower == pytest.approx(4.0)
        assert rep.total == pytest.approx(4.0)

    def test_rank_deficient(self):
        rep = distortion(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert rep.lower == np.inf

    def test_inverse_reciprocity(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(5, 5)) + 3 * np.eye(5)
        rep = distortion(mat)
        rep_inv = distortion(np.linalg.inv(mat))
        # largest singular value of F is the reciprocal of the smallest of F^-1
        assert abs(rep.upper - 1.0 / _smallest_singular(np.linalg.inv(mat))) < 1e-10
        assert rep.upper * rep_inv.upper >= 1.0 - 1e-10
        assert rep_inv.lower == pytest.approx(rep.upper, rel=1e-10)


def _smallest_singular(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


class TestUnboundedness:
    def test_fk_ratios_in_c0_norm(self):
        witnesses = [make_fk(k) for k in range(1, 7)]
        ratios = unboundedness_probe(
            lambda f: derivative_operator(f.bandwidth).apply(f),
            witnesses,
            norm_fn=lambda f: f.sup_norm(),
        )
        assert np.allclose(ratios, [k * k for k in range(1, 7)], atol=1e-9)
        assert monotone_growth(ratios)

    def test_identity_all_ones(self):
        rng = np.random.default_rng(6)
        witnesses = [random_sequence(rng, 8) for _ in range(5)]
        ratios = unboundedness_probe(
            lambda v: v, witnesses, norm_fn=lambda v: element_norm(v, standard_config(8))
        )
        assert np.allclose(ratios, 1.0)
        assert not monotone_growth(ratios)

    def test_composition_ratios_grow_with_sharpness(self):
        # difference quotients of h -> P_B(g o h) at sharpening bases; the
        # witness is a fixed gentle peak translated onto the base peak
        depth = 6
        cfg = standard_config(depth)
        ratios = []
        for bandwidth in (8, 16, 32):
            comp = composition_operator(oscillating_composition(rate=bandwidth), bandwidth)
            base = peak_function(bandwidth, center=np.pi) * 0.5
            witness = peak_function(4, center=np.pi).embed(bandwidth)
            (ratio,) = unboundedness_probe(
                comp,
                [witness],
                norm_fn=lambda f: element_norm(f, cfg),
                base=base,
                step=0.1 / bandwidth,
            )
            ratios.append(float(ratio))
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 2.0 * ratios[0]

    def test_zero_witness_rejected(self):
        with pytest.raises(DomainError):
            unboundedness_probe(
                lambda v: v,
                [zero_sequence(4)],
                norm_fn=lambda v: element_norm(v, standard_config(4)),
            )
