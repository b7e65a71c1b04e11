"""Slow reference implementations, kept for the tests to hold the program against.

- `bisected_gauge`: the program reads every ball gauge off the closed
  form in `minkowski`; this solves max_k w_k * phi(p_k / lam) == r for
  lam by monotone bisection instead.
- `evaluate`: the program samples periodic functions by FFT on a grid;
  this sums the Fourier modes at arbitrary points.
- `refined_quadrature` and `chord_sum`: the program evaluates each node
  and dyadic point once and works on rows; these evaluate every node of
  every round and every point of every level afresh, one at a time.
- `rbound_reference`: the program builds the probe side of a bound
  estimate once, applies each operator to the unscaled bases and scales
  their images; this draws the random directions one at a time, applies
  the operator to every scaled probe row in one product and formats every
  probe label.
"""

import numpy as np

from gradedmetrics.core import graded_metric, metric_rows, phi
from gradedmetrics.errors import DomainError, EmptyEstimateError, ShapeError
from gradedmetrics.models import (
    element_metric,
    function_ladders,
    harmonic,
    random_function,
    sequence_ladders,
)
from gradedmetrics.operators import SEQ, ProbePlan, RBoundEstimate

_MAX_BISECT = 200


def _sup_value(normalized, weights, lam):
    return float(np.max(weights * phi(normalized / lam)))


def _bisect_gauge(normalized, weights, target, tol):
    """Solve max_k w_k * phi(u_k / lam) == target for lam, u normalized to max 1."""
    hi = 1.0
    while _sup_value(normalized, weights, hi) > target:
        hi *= 2.0
    lo = hi
    while _sup_value(normalized, weights, lo) < target:
        lo /= 2.0
    for _ in range(_MAX_BISECT):
        if hi - lo <= 0.25 * tol * lo or hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _sup_value(normalized, weights, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisected_gauge(cfg, radius, v, tol=1e-12):
    """Gauge of the supremum ball of the given radius at v, by bisection.

    The bisection runs on the ladder normalized by its top entry.  A radius
    at or above the largest weight on a nonzero ladder level gives 0: the
    whole ray lies inside the ball.
    """
    lad = v.ladder(cfg.truncation).values
    weights = cfg.level_weights
    scale = float(lad[-1])
    if scale == 0.0 or radius >= np.max(weights[lad > 0.0]):
        return 0.0
    return scale * _bisect_gauge(lad / scale, weights, radius, tol)


def evaluate(f, x):
    """Values of the periodic function f at the points x, summed mode by mode."""
    k = np.arange(-f.bandwidth, f.bandwidth + 1)
    return np.real(np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), k)) @ f.fourier)


def refined_quadrature(integrand, domain, nodes, tol, max_rounds=6):
    """Composite Simpson refinement; integrand(t) gives a value or a vector."""
    a, b = domain
    n = max(2, nodes)
    if n % 2:
        n += 1
    prev = None
    for _ in range(max_rounds):
        ts = np.linspace(a, b, n + 1)
        values = np.asarray([integrand(t) for t in ts])
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        est = (b - a) / (3.0 * n) * np.tensordot(weights, values, axes=1)
        if prev is not None and np.max(np.abs(est - prev)) <= tol * (1.0 + np.max(np.abs(est))):
            return est, n
        prev = est
        n *= 2
    return prev, n // 2


def chord_sum(curve, cfg, level):
    """Sum of the chord metrics over the 2**level dyadic pieces of the domain."""
    a, b = curve.domain
    pieces = 2**level
    if curve.kind in ("line", "affine"):
        step = curve.position(a + (b - a) / pieces) - curve.position(a)
        return pieces * graded_metric(step.ladder(cfg.truncation), None, cfg)
    points = [curve.position(t) for t in np.linspace(a, b, pieces + 1)]
    if all(hasattr(p, "coords") for p in points):
        chords = np.diff(np.stack([p.coords for p in points]), axis=0)
        return float(np.sum(metric_rows(sequence_ladders(chords, cfg.truncation), cfg)))
    return float(sum(element_metric(points[i + 1], points[i], cfg) for i in range(pieces)))


def rbound_reference(op, cfg, radius=np.inf, plan=None):
    """Dilation-bound estimate of one operator from every scaled probe row."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    plan = plan or ProbePlan()
    if op.space == SEQ and cfg.truncation != op.domain_dim:
        raise ShapeError("config truncation must match the operator domain")
    cod_cfg = cfg if op.ladder_shift == 0 else cfg.with_truncation(cfg.truncation - op.ladder_shift)
    ladders = sequence_ladders if op.space == SEQ else function_ladders
    labels, rows = reference_probe_rows(plan, op.space, op.domain_dim)
    norms = metric_rows(ladders(rows, cfg.truncation), cfg)
    inside = (norms > 0.0) & (norms < radius)
    if not inside.any():
        raise EmptyEstimateError("no probe fell inside the ball")
    images = op._apply_rows(rows[inside])
    ratios = metric_rows(ladders(images, cod_cfg.truncation), cod_cfg) / norms[inside]
    best = int(np.argmax(ratios))
    return RBoundEstimate(
        radius=float(radius),
        probe_count=int(inside.sum()),
        witness=labels[int(np.flatnonzero(inside)[best])],
        lower_bound=float(ratios[best]),
        analytic_upper=op.analytic_rbound(cfg),
    )


def reference_probe_rows(plan, space, dim):
    """Labels and rows of every probe, in the order of `ProbePlan.probe_rows`."""
    if space == SEQ:
        names = [f"e{k + 1}" for k in range(dim)]
        bases = np.eye(dim)
    else:
        modes = [(name, mode) for mode in range(1, dim // 2 + 1) for name in ("sin", "cos")]
        names = [f"{name}{mode}" for name, mode in modes]
        bases = [harmonic(mode, bandwidth=dim // 2, cosine=name == "cos").fourier for name, mode in modes]
    rng = np.random.default_rng(plan.seed)
    directions = [
        rng.normal(size=dim) if space == SEQ else random_function(rng, dim // 2).fourier
        for _ in range(plan.random_count)
    ]
    labels = [f"{name}*{t:g}" for name in names for t in plan.basis_scales]
    labels += [f"rng{i}*{s:g}" for i in range(plan.random_count) for s in plan.random_scales]
    basis_rows = np.reshape(bases, (-1, 1, dim)) * np.asarray(plan.basis_scales)[:, None]
    random_rows = np.reshape(directions, (-1, 1, dim)) * np.asarray(plan.random_scales)[:, None]
    return labels, np.concatenate([basis_rows.reshape(-1, dim), random_rows.reshape(-1, dim)])
