import numpy as np
import pytest

from gradedmetrics.core import phi_inverse, standard_config
from gradedmetrics.errors import CertificateViolation, ContractionError, ConvergenceError
from gradedmetrics.models import (
    TruncatedSequence,
    element_metric,
    element_norm,
    harmonic,
    random_sequence,
    unit_sequence,
    zero_function,
    zero_sequence,
)
from gradedmetrics.operators import (
    FN,
    dense_operator,
    diagonal_operator,
    down_shift,
    identity_operator,
    neumann_invert,
    rbound_estimate,
)
from gradedmetrics.solver import (
    banach_fixed_point,
    certify_contraction_radius,
    inverse_derivative_check,
    left_inverse_certificate,
    right_inverse_solve,
)

DEPTH = 16
CFG = standard_config(DEPTH)


def tau_sine(depth=DEPTH, scale=0.1):
    tau = down_shift(depth)

    def f(x):
        return x + tau.apply(TruncatedSequence(np.sin(x.coords))) * scale

    def jacobian(coords):
        return np.eye(depth) + scale * (tau.materialize() * np.cos(coords)[None, :])

    return f, jacobian


def damped_newton_oracle(f, jacobian, y, depth, tol=1e-14, damping=0.5, max_iter=200):
    """Independent dense solver: damped Newton on the coordinate system."""
    x = np.zeros(depth)
    for _ in range(max_iter):
        residual = f(TruncatedSequence(x)).coords - y.coords
        if np.max(np.abs(residual)) < tol:
            break
        x = x - damping * np.linalg.solve(jacobian(x), residual)
    return TruncatedSequence(x)


class TestBanach:
    def test_affine_contraction_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        tau = down_shift(DEPTH)
        c = random_sequence(rng, DEPTH)

        def step(x):
            return tau.apply(x) * 0.5 + c

        fixed, trace = banach_fixed_point(step, zero_sequence(DEPTH), CFG, rho=0.5, tol=1e-12)
        oracle = np.linalg.solve(np.eye(DEPTH) - 0.5 * tau.materialize(), c.coords)
        assert np.max(np.abs(fixed.coords - oracle)) < 1e-10
        assert trace.converged

    def test_identity_map_fixes_start(self):
        x0 = unit_sequence(DEPTH, 2)
        fixed, trace = banach_fixed_point(lambda x: x, x0, CFG, rho=0.0, tol=1e-12)
        assert np.array_equal(fixed.coords, x0.coords)
        assert trace.iterations == 1

    def test_iteration_count_from_rate(self):
        # rho = 0.5, d(x0, x1) = 0.1, tol 1e-8: the a-priori plan is 25 steps
        depth = 30
        cfg = standard_config(depth)
        tau = down_shift(depth)
        scale = phi_inverse(0.1 / float(np.sum(cfg.level_weights)))
        c = unit_sequence(depth, 0) * scale
        assert element_norm(c, cfg) == pytest.approx(0.1, abs=1e-12)

        def step(x):
            return tau.apply(x) * 0.5 + c

        _, trace = banach_fixed_point(step, zero_sequence(depth), cfg, rho=0.5, tol=1e-8)
        assert trace.iterations == 25

    def test_rate_certificate_on_retained_iterates(self):
        rng = np.random.default_rng(1)
        for rho, power in ((0.3, 2), (0.5, 1), (0.8, 1)):
            for _ in range(17):
                tau = down_shift(DEPTH)
                op = tau
                for _ in range(power - 1):
                    op = tau.compose(op)
                op = op.compose(diagonal_operator(rng.uniform(-1.0, 1.0, DEPTH)))
                c = random_sequence(rng, DEPTH)

                def step(x, op=op, c=c):
                    return op.apply(x) + c

                fixed, trace = banach_fixed_point(
                    step, zero_sequence(DEPTH), CFG, rho=rho, tol=1e-11
                )
                d0 = trace.step_distances[0]
                for n, point in enumerate(trace.head):
                    bound = rho**n / (1.0 - rho) * d0
                    assert element_metric(point, fixed, CFG) <= bound + 1e-9

    def test_wrong_rho_aborts(self):
        rng = np.random.default_rng(2)
        tau = down_shift(DEPTH)
        c = random_sequence(rng, DEPTH)

        def step(x):
            return tau.apply(x) * 0.5 + c

        with pytest.raises(CertificateViolation):
            banach_fixed_point(step, zero_sequence(DEPTH), CFG, rho=0.05, tol=1e-12)

    def test_budget_exhaustion(self):
        tau = down_shift(DEPTH)
        c = unit_sequence(DEPTH, 0)

        def step(x):
            return tau.apply(x) * 0.5 + c

        with pytest.raises(ConvergenceError):
            banach_fixed_point(step, zero_sequence(DEPTH), CFG, rho=0.5, tol=1e-12, max_iter=5)

    def test_invalid_rho(self):
        with pytest.raises(ContractionError):
            banach_fixed_point(lambda x: x, zero_sequence(4), standard_config(4), rho=1.0, tol=1e-6)


class TestRightInverse:
    def setup_method(self):
        self.f, self.jacobian = tau_sine()
        forward = dense_operator(self.jacobian(np.zeros(DEPTH)))
        self.r0 = neumann_invert(forward, CFG, tol=1e-13).operator

    def test_solution_matches_newton_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = random_sequence(rng, DEPTH) * 0.02
            x, trace, cert = right_inverse_solve(
                self.f, self.r0, y, zero_sequence(DEPTH), CFG, rho=0.25, tol=1e-13
            )
            oracle = damped_newton_oracle(self.f, self.jacobian, y, DEPTH)
            assert np.max(np.abs(x.coords - oracle.coords)) < 1e-9
            assert element_metric(self.f(x), y, CFG) < 1e-10
            assert trace.residuals[-1] < 1e-10
            assert cert.target_radius is not None
            # residuals shrink monotonically once the contraction engages
            assert np.all(np.diff(trace.residuals[1:]) <= 1e-12)
            # fixed-point characterization: x is fixed by the update map
            update_gap = element_metric(x - self.r0.apply(self.f(x) - y), x, CFG)
            assert update_gap < 1e-10

    def test_right_inverse_bound_is_its_ceiling(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("probe pass")

        monkeypatch.setattr("gradedmetrics.solver.rbound_estimate", no_probe)
        y = unit_sequence(DEPTH, 0) * 0.1
        _, _, cert = right_inverse_solve(self.f, self.r0, y, zero_sequence(DEPTH), CFG, rho=0.25, tol=1e-13)
        assert cert.rho_source == "ceiling"
        assert cert.operator_bound == self.r0.analytic_rbound(CFG)
        assert cert.valid

    def test_bound_without_a_ceiling_is_probed(self):
        # a dense map on functions has no level matrix, so <R0> is the probe floor
        r0, cfg = dense_operator(np.eye(9), space=FN), standard_config(4)
        y = harmonic(1, bandwidth=4) * 0.01
        _, _, cert = right_inverse_solve(
            lambda p: p, r0, y, zero_function(4), cfg, rho=0.0, tol=1e-12, ball_radius=0.5
        )
        assert cert.rho_source == "probed"
        assert cert.operator_bound == rbound_estimate(r0, cfg).lower_bound

    def test_identity_map_one_step(self):
        y = unit_sequence(DEPTH, 0) * 0.1
        x, trace, _ = right_inverse_solve(
            lambda p: p,
            identity_operator(DEPTH),
            y,
            zero_sequence(DEPTH),
            CFG,
            rho=0.0,
            tol=1e-12,
            ball_radius=0.5,
            operator_bound=1.0,
        )
        assert np.allclose(x.coords, y.coords)

    def test_out_of_ball_target_voids_certificate(self):
        y = unit_sequence(DEPTH, 0) * 50.0
        x, _, cert = right_inverse_solve(
            self.f, self.r0, y, zero_sequence(DEPTH), CFG, rho=0.25, tol=1e-12
        )
        assert not cert.valid
        assert element_metric(self.f(x), y, CFG) < 1e-10

    def test_uniqueness_inside_ball(self):
        rng = np.random.default_rng(4)
        y = random_sequence(rng, DEPTH) * 0.02
        x1, _, _ = right_inverse_solve(
            self.f, self.r0, y, zero_sequence(DEPTH), CFG, rho=0.25, tol=1e-13
        )
        x2, _, _ = right_inverse_solve(
            self.f,
            self.r0,
            y,
            random_sequence(rng, DEPTH) * 0.05,
            CFG,
            rho=0.25,
            tol=1e-13,
        )
        assert element_metric(x1, x2, CFG) <= 2e-13


class TestLeftInverse:
    def test_identity_tight(self):
        cert = left_inverse_certificate(
            lambda p: p,
            identity_operator(DEPTH),
            zero_sequence(DEPTH),
            radius=0.25,
            cfg=CFG,
            rho=0.0,
            operator_bound=1.0,
            pairs=100,
        )
        assert cert.lower_lipschitz == 1.0
        assert cert.valid

    def test_tau_sine_certificate(self):
        f, jacobian = tau_sine()
        l0 = neumann_invert(dense_operator(jacobian(np.zeros(DEPTH))), CFG, tol=1e-13).operator
        cert = left_inverse_certificate(
            f, l0, zero_sequence(DEPTH), radius=0.5, cfg=CFG, rho=0.25, pairs=500
        )
        assert cert.valid
        assert cert.lower_lipschitz > 0.0

    def test_violation_detected(self):
        # collapsing map cannot satisfy any positive lower Lipschitz bound
        collapse = lambda p: p * 0.0
        with pytest.raises(CertificateViolation):
            left_inverse_certificate(
                collapse,
                identity_operator(DEPTH),
                zero_sequence(DEPTH),
                radius=0.25,
                cfg=CFG,
                rho=0.0,
                operator_bound=1.0,
                pairs=50,
            )


class TestInverseDerivative:
    def test_identity(self):
        directions = [unit_sequence(DEPTH, k) for k in range(4)]
        dev = inverse_derivative_check(
            lambda p: p, lambda y: y, zero_sequence(DEPTH), directions, CFG
        )
        assert dev < 1e-9

    def test_affine_explicit_inverse(self):
        tau = down_shift(DEPTH)
        rng = np.random.default_rng(5)
        c = random_sequence(rng, DEPTH)
        mat = np.eye(DEPTH) - 0.5 * tau.materialize()

        def f(x):
            return TruncatedSequence(mat @ x.coords) + c

        def inverse(y):
            return TruncatedSequence(np.linalg.solve(mat, (y - c).coords))

        directions = [unit_sequence(DEPTH, k) for k in range(6)]
        dev = inverse_derivative_check(f, inverse, zero_sequence(DEPTH), directions, CFG)
        assert dev < 1e-9

    def test_tau_sine_solver_inverse(self):
        f, jacobian = tau_sine()
        r0 = neumann_invert(dense_operator(jacobian(np.zeros(DEPTH))), CFG, tol=1e-13).operator

        def inverse(y):
            x, _, _ = right_inverse_solve(
                f, r0, y, zero_sequence(DEPTH), CFG, rho=0.25, tol=1e-14, ball_radius=0.5
            )
            return x

        rng = np.random.default_rng(6)
        directions = [random_sequence(rng, DEPTH) * 0.05 for _ in range(20)]
        b = zero_sequence(DEPTH)
        dev = inverse_derivative_check(f, inverse, b, directions, CFG)
        assert dev < 1e-6


def test_certified_radius_is_dyadic():
    f, _ = tau_sine()
    tau = down_shift(DEPTH)

    def step(x):
        return x - (f(x) - zero_sequence(DEPTH))

    radius = certify_contraction_radius(step, zero_sequence(DEPTH), CFG, rho=0.3)
    assert radius in [2.0**-k for k in range(0, 12)]
