"""Directional derivatives and bounded-differentiability diagnostics.

Derivatives are Gateaux limits estimated by Richardson-extrapolated
central differences.  Boundedness of a derivative map is reported the
same way operator bounds are: as a probed estimate together with
stability indicators, never as a symbolic proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import graded_metric
from .errors import DomainError, EvaluationError, ShapeError
from .models import element_metric, element_norm, random_sequence, unit_sequence
from .operators import monotone_growth

DEFAULT_STEPS = tuple(0.01 * 0.5**i for i in range(8))


def _random_like(rng, x, cfg, scale):
    if hasattr(x, "coords"):
        return random_sequence(rng, cfg.truncation) * scale
    from .models import random_function

    return random_function(rng, x.bandwidth) * scale


def directional_derivative(f, x, v, steps=DEFAULT_STEPS):
    """Central-difference directional derivative with Richardson refinement.

    Returns (derivative, error_estimate); the error is the sup-coordinate
    distance between the last two extrapolation levels.
    """
    steps = tuple(steps)
    if len(steps) < 3:
        raise ShapeError("need at least three step sizes")
    diffs = []
    for t in steps:
        try:
            plus = f(x + v * t)
            minus = f(x + v * (-t))
            quotient = (plus - minus) * (0.5 / t)
        except DomainError as exc:
            raise EvaluationError(f"non-finite evaluation at step {t}: {exc}") from exc
        diffs.append(quotient)
    first = [(diffs[i + 1] * 4.0 - diffs[i]) * (1.0 / 3.0) for i in range(len(diffs) - 1)]
    second = [(first[i + 1] * 16.0 - first[i]) * (1.0 / 15.0) for i in range(len(first) - 1)]
    error = (second[-1] - second[-2]).sup_coordinate_norm()
    return second[-1], float(error)


@dataclass(frozen=True)
class LineBoundednessVerdict:
    """Whether the per-level seminorms of a direction stay bounded."""

    bounded: bool
    bound: float | None
    increments: np.ndarray

    def __bool__(self):
        return self.bounded


def line_b_differentiable(v, depth):
    """Boundedness test for the ray t -> t*v.

    The ray is bounded-differentiable exactly when the per-level
    seminorms (the ladder increments) admit a uniform bound; a monotone
    increase across the trailing half of the levels is read as growth
    and reported with the increment sequence as witness.
    """
    increments = np.asarray(v.level_norms(depth), dtype=float)
    if monotone_growth(increments):
        return LineBoundednessVerdict(bounded=False, bound=None, increments=increments)
    return LineBoundednessVerdict(
        bounded=True, bound=float(np.max(increments)), increments=increments
    )


@dataclass(frozen=True)
class DifferentiabilityReport:
    """Probe-based differentiability diagnostics of a map at a base point."""

    radius: float
    derivative_table: tuple
    derivative_bound: float
    differentiable: bool
    derivative_bounded: bool
    derivative_continuous: bool
    base_lipschitz: float
    mean_value_margin: float
    witness: str | None


def _scale_series_ratios(f, x, direction, cfg, scales):
    """Metric dilation ratios of the difference quotient along one direction."""
    ratios = []
    fx = f(x)
    for s in scales:
        v = direction * s
        nv = element_norm(v, cfg)
        if nv == 0.0:
            continue
        image = (f(x + v) - fx).ladder(cfg.truncation)
        ratios.append(graded_metric(image, None, cfg) / nv)
    return np.asarray(ratios)


def b_diff_report(
    f,
    x,
    radius,
    cfg,
    directions=None,
    seed=0,
    derivative_error_tol=1e-6,
    segment_samples=5,
    pair_count=20,
):
    """Assemble directional derivatives, a derivative bound estimate, and the
    convex-segment mean-value check at a base point.

    The mean-value margin is the worst slack in
    d(f(y), f(z)) <= d(y, z) * sup of the probed derivative bound along the
    segment; a negative margin beyond tolerance marks a violation.  The
    derivative_bounded flag turns false when the per-direction bound
    estimates grow monotonically along the direction family in the order
    the caller supplied it, which is how an unbounded derivative shows up
    through a graded probe family.
    """
    depth = cfg.truncation
    rng = np.random.default_rng(seed)
    if directions is None:
        directions = [unit_sequence(depth, k) for k in range(min(depth, 6))]
        directions += [random_sequence(rng, depth) for _ in range(6)]

    table = []
    errors = []
    for idx, v in enumerate(directions):
        deriv, err = directional_derivative(f, x, v)
        table.append((f"dir{idx}", deriv, err))
        errors.append(err)
    differentiable = bool(np.all(np.isfinite(errors)) and np.max(errors) <= derivative_error_tol)

    # dilation ratios of difference quotients across probe scales
    scales = np.logspace(-3, 0, 7)
    per_direction = []
    for v in directions:
        ratios = _scale_series_ratios(f, x, v, cfg, scales)
        if ratios.size:
            per_direction.append(np.max(ratios))
    derivative_bound = float(np.max(per_direction))
    derivative_bounded = not monotone_growth(per_direction)

    # continuity of the derivative in the base point, as a Lipschitz quotient
    base_quotients = []
    probe_dir = directions[0]
    d1, _ = directional_derivative(f, x, probe_dir)
    for _ in range(6):
        y = x + _random_like(rng, x, cfg, 0.05 * radius)
        d2, _ = directional_derivative(f, y, probe_dir)
        gap = element_metric(y, x, cfg)
        if gap > 0.0:
            base_quotients.append(element_metric(d2, d1, cfg) / gap)
    base_lipschitz = float(np.max(base_quotients)) if base_quotients else 0.0
    derivative_continuous = bool(np.isfinite(base_lipschitz))

    # mean-value inequality on sampled convex segments
    margin = np.inf
    witness = None
    for i in range(pair_count):
        y = x + _random_like(rng, x, cfg, 0.3 * radius)
        z = x + _random_like(rng, x, cfg, 0.3 * radius)
        dyz = element_metric(y, z, cfg)
        if dyz == 0.0:
            continue
        seg_bound = 0.0
        for t in np.linspace(0.0, 1.0, segment_samples):
            mid = y + (z - y) * t
            ratios = _scale_series_ratios(f, mid, z - y, cfg, np.logspace(-3, 0, 5))
            if ratios.size:
                seg_bound = max(seg_bound, float(np.max(ratios)))
        slack = dyz * seg_bound + 1e-9 - element_metric(f(y), f(z), cfg)
        if slack < margin:
            margin = slack
            witness = f"pair{i}"
    return DifferentiabilityReport(
        radius=float(radius),
        derivative_table=tuple(table),
        derivative_bound=derivative_bound,
        differentiable=differentiable,
        derivative_bounded=derivative_bounded,
        derivative_continuous=derivative_continuous,
        base_lipschitz=base_lipschitz,
        mean_value_margin=float(margin),
        witness=witness,
    )
