"""Fixed-point solvers with a-priori rate certificates.

The contraction factor is always an input, verified online against the
measured step ratios, never estimated silently: the rate certificate
rho**n / (1 - rho) * d(x0, x1) only means something when rho is owned by
the caller.  Three consecutive measured violations abort a run; isolated
ones are recorded in the trace and tolerated as floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateViolation, ContractionError, ConvergenceError, DomainError
from .models import _row_images, _row_norms, _sample_rows, element_metric, element_norm, unit_sequence
from .operators import dense_operator, neumann_invert, rbound_estimate

_RATIO_SLACK = 1e-9
_RADII = tuple(2.0**-k for k in range(12))  # tried by certify_contraction_radius, largest first
_RADIUS_PAIRS = 30  # pairs drawn at each radius
_NEUMANN_TOL = 1e-12  # series tolerance of the forward inverse in `inverse_derivative_check`
_FD_STEP = 1e-4  # central-difference step of `inverse_derivative_check`


@dataclass(frozen=True)
class SolveTrace:
    """Retained iterates and per-step diagnostics of a fixed-point run."""

    head: tuple
    tail: tuple
    step_distances: np.ndarray
    step_ratios: np.ndarray
    apriori_bounds: np.ndarray
    residuals: np.ndarray | None
    rho: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class InverseCertificate:
    """Quantities certifying a local inverse around a base point."""

    base_point: object
    radius: float
    rho: float
    operator_bound: float
    lower_lipschitz: float
    target_radius: float | None
    rho_source: str
    valid: bool


def banach_fixed_point(
    map_fn,
    x0,
    cfg,
    rho,
    tol,
    max_iter=10_000,
    keep=8,
    residual_fn=None,
):
    """Iterate a certified contraction until the a-priori bound meets tol.

    Returns (fixed_point, trace).  The run fails with CertificateViolation
    after three consecutive measured step ratios above rho, and with
    ConvergenceError when the plan exceeds `max_iter`.
    """
    if not 0.0 <= rho < 1.0:
        raise ContractionError(f"certified contraction factor {rho} not in [0, 1)")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    x_prev = x0
    x = map_fn(x0)
    d0 = element_metric(x, x_prev, cfg)
    head = [x0]
    tail = []
    steps = [d0]
    ratios = []
    residuals = [] if residual_fn is None else [residual_fn(x0), residual_fn(x)]
    if d0 == 0.0 or rho == 0.0:
        plan = 1
    else:
        plan = int(np.ceil(np.log(tol * (1.0 - rho) / d0) / np.log(rho)))
        plan = max(plan, 1)
    if plan > max_iter:
        raise ConvergenceError(
            f"a-priori plan needs {plan} iterations, budget is {max_iter}",
            partial=_trace(head, [x], steps, ratios, residuals, rho, 1, False),
        )
    violations = 0
    noise_floor = 1e-15 * max(1.0, d0)
    n = 1
    while n < plan and steps[-1] > noise_floor:
        x_next = map_fn(x)
        d = element_metric(x_next, x, cfg)
        ratio = d / steps[-1]
        ratios.append(ratio)
        if ratio > rho + _RATIO_SLACK and d > noise_floor:
            violations += 1
            if violations >= 3:
                raise CertificateViolation(
                    f"three consecutive step ratios above rho={rho}",
                    witness=ratio,
                    trace=_trace(head, tail, steps, ratios, residuals, rho, n, False),
                )
        else:
            violations = 0
        steps.append(d)
        if residual_fn is not None:
            residuals.append(residual_fn(x_next))
        x_prev, x = x, x_next
        if len(head) < keep:
            head.append(x_prev)
        tail.append(x_prev)
        tail = tail[-keep:]
        n += 1
    trace = _trace(head, tail + [x], steps, ratios, residuals, rho, n, True)
    return x, trace


def _trace(head, tail, steps, ratios, residuals, rho, n, converged):
    steps_arr = np.asarray(steps)
    bounds = (
        rho ** np.arange(steps_arr.size) / (1.0 - rho) * steps_arr[0]
        if rho > 0.0
        else np.zeros(steps_arr.size)
    )
    return SolveTrace(
        head=tuple(head),
        tail=tuple(tail),
        step_distances=steps_arr,
        step_ratios=np.asarray(ratios),
        apriori_bounds=bounds,
        residuals=None if residuals is None else np.asarray(residuals),
        rho=float(rho),
        iterations=n,
        converged=converged,
    )


def _pair_distances(f, x, pairs, cfg):
    """Distances d(a, b) and d(f(a), f(b)) of the sampled pair rows (k, 2, n) around x."""
    images = _row_images(f, x, pairs)
    return _row_norms(pairs[:, 0] - pairs[:, 1], cfg), _row_norms(images[:, 0] - images[:, 1], cfg)


def certify_contraction_radius(step_map, x0, cfg, rho, seed=0):
    """Largest dyadic radius at which measured pair contractions stay below rho.

    Each radius draws its own block of pairs x0 + N(0, 1) * radius / 2;
    pairs at distance 0 are skipped.
    """
    rng = np.random.default_rng(seed)
    for radius in _RADII:
        pairs = _sample_rows(rng, x0, (_RADIUS_PAIRS, 2), 0.5 * radius)
        dab, dfab = _pair_distances(step_map, x0, pairs, cfg)
        if not np.any((dab != 0.0) & (dfab > rho * dab + _RATIO_SLACK)):
            return radius
    raise ContractionError(f"no dyadic radius certifies rho={rho}")


def right_inverse_solve(
    f,
    r0_operator,
    y,
    x0,
    cfg,
    rho,
    tol,
    max_iter=10_000,
    ball_radius=None,
    operator_bound=None,
    seed=0,
):
    """Solve f(x) = y by iterating x - R0(f(x) - y) inside a certified ball.

    R0 is a bounded right inverse of the derivative at x0 (typically from
    a series inversion).  The certificate records the solvable target-ball
    radius (1 - rho) / <R0> * r0; a target outside it voids the
    certificate but the solve is still attempted.
    """

    def step_map(x):
        return x - r0_operator.apply(f(x) - y)

    if ball_radius is None:
        ball_radius = certify_contraction_radius(step_map, x0, cfg, rho, seed=seed)
    if operator_bound is None:
        operator_bound = rbound_estimate(r0_operator, cfg).lower_bound
        bound_source = "probed"
    else:
        bound_source = "analytic"
    forward = element_metric(f(x0), y, cfg)
    target_radius = (1.0 - rho) / operator_bound * ball_radius
    valid = forward <= target_radius
    certificate = InverseCertificate(
        base_point=x0,
        radius=float(ball_radius),
        rho=float(rho),
        operator_bound=float(operator_bound),
        lower_lipschitz=float((1.0 - rho) / operator_bound),
        target_radius=float(target_radius),
        rho_source=bound_source,
        valid=bool(valid),
    )
    solution, trace = banach_fixed_point(
        step_map,
        x0,
        cfg,
        rho,
        tol,
        max_iter=max_iter,
        residual_fn=lambda x: element_metric(f(x), y, cfg),
    )
    return solution, trace, certificate


def left_inverse_certificate(
    f,
    l0_operator,
    x0,
    radius,
    cfg,
    rho,
    pairs=500,
    operator_bound=None,
    seed=0,
):
    """Validate the lower Lipschitz bound (1 - rho) / <L0> on probe pairs.

    L0 is a bounded left inverse of the derivative at x0 and rho bounds
    <L0 f'(x) - 1> over the ball.  Every sampled pair must satisfy
    lower * d(x1, x2) <= d(f(x1), f(x2)) + 1e-9, else the certificate is
    rejected with the first violating pair as witness.
    """
    if not 0.0 <= rho < 1.0:
        raise ContractionError(f"rho {rho} must lie in [0, 1)")
    if pairs < 1:
        raise DomainError("need at least one pair")
    if operator_bound is None:
        operator_bound = rbound_estimate(l0_operator, cfg).lower_bound
        bound_source = "probed"
    else:
        bound_source = "analytic"
    lower = (1.0 - rho) / operator_bound
    rows = _sample_rows(np.random.default_rng(seed), x0, (pairs, 2), 0.5 * radius)
    dab, dfab = _pair_distances(f, x0, rows, cfg)
    violated = np.flatnonzero(lower * dab > dfab + _RATIO_SLACK)
    if violated.size:
        raise CertificateViolation(
            f"lower Lipschitz bound {lower} violated on pair {violated[0]}",
            witness=tuple(type(x0)(row) for row in rows[violated[0]]),
        )
    return InverseCertificate(
        base_point=x0,
        radius=float(radius),
        rho=float(rho),
        operator_bound=float(operator_bound),
        lower_lipschitz=float(lower),
        target_radius=None,
        rho_source=bound_source,
        valid=True,
    )


def inverse_derivative_check(f, inverse_fn, b, directions, cfg):
    """Largest metric gap between the inverse's derivative and the inverse
    of the forward derivative, over the given directions.

    Both sides are numerical: central differences for the inverse map, a
    finite-difference column Jacobian followed by series inversion for the
    forward side.
    """
    phi_b = inverse_fn(b)
    depth = phi_b.depth
    jac = np.zeros((depth, depth))
    for j in range(depth):
        e = unit_sequence(depth, j)
        jac[:, j] = (f(phi_b + e * _FD_STEP) - f(phi_b + e * (-_FD_STEP))).coords / (2.0 * _FD_STEP)
    jac_op = dense_operator(jac)
    inv = neumann_invert(jac_op, cfg, tol=_NEUMANN_TOL).operator
    worst = 0.0
    for v in directions:
        lhs = (inverse_fn(b + v * _FD_STEP) - inverse_fn(b + v * (-_FD_STEP))) * (0.5 / _FD_STEP)
        rhs = inv.apply(v)
        worst = max(worst, element_norm(lhs - rhs, cfg))
    return float(worst)
