"""Minkowski functionals of supremum-metric balls and tame-grade estimates.

The gauge of a convex ball recovers a seminorm from the metric; the
supremum flavor is used because its balls are convex.  The gauge of the
radius-r ball at v is the root lam of max_k w_k * phi(p_k / lam) = r,
p the ladder of v.  Each level with w_k > r pins lam at
p_k * (1 - t_k) / t_k with t_k = r / w_k, and the root is the largest of
these, so every gauge is read off in closed form, many radii at once.
The closed form is linear in the ladder, which makes positive
homogeneity hold up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SUPREMUM
from .errors import DegenerateBallError, DomainError
from .models import element_norm

_MAX_GRADE = 4  # largest grade shift `tame_grade_estimate` tries
_SPREAD_THRESHOLD = 10.0  # largest accepted spread of ratio maxima across magnitude groups


def essential_sup(ladder_values, weights):
    """Limit of the sup-metric value of v/t as t -> 0+: the largest weight
    attached to a nonzero ladder level."""
    mask = np.asarray(ladder_values) > 0.0
    if not mask.any():
        return 0.0
    return float(np.max(np.asarray(weights)[mask]))


def _require_supremum(cfg):
    if cfg.flavor != SUPREMUM:
        raise DomainError("ball gauges require the supremum flavor (convex balls)")


def ball_gauge(cfg, radius, v):
    """Gauge of the closed supremum-metric ball of the given radius.

    Returns the scale at which v enters the ball boundary.  When the
    radius reaches the essential sup of the direction, the whole ray lies
    inside the ball and DegenerateBallError is raised.
    """
    _require_supremum(cfg)
    if not radius > 0.0:
        raise DomainError("radius must be positive")
    lad = v.ladder(cfg.truncation).values
    if lad[-1] == 0.0:
        return 0.0
    if radius >= essential_sup(lad, cfg.level_weights):
        raise DegenerateBallError(
            f"radius {radius} reaches the essential sup of this direction"
        )
    return ball_gauge_closed_form(cfg.level_weights, lad, radius)


def minkowski_functional(cfg, i, v):
    """Gauge seminorm of the radius-1/i supremum ball."""
    if i < 1:
        raise DomainError("ball index must be a positive integer")
    return ball_gauge(cfg, 1.0 / float(i), v)


def ball_gauge_closed_form(weights, ladder_values, radius):
    """Analytic inversion of the gauge equation, vectorized over radii.

    Levels whose weight does not exceed the radius cannot pin the gauge
    and drop out, so a radius at or above the essential sup yields 0.  An
    array of radii gives an array of gauges.  A dropped level gets t = 1 and
    so the candidate 0: its r / w_k could overflow at large depth.  A kept
    level's candidate overflows when t_k is tiny (the smallest dyadic radii
    at ratio 1/2 and depth 1060); a gauge that is not finite raises
    DomainError.
    """
    return _gauges(np.asarray(ladder_values), *_gauge_factors(np.asarray(weights), radius))


def _gauge_factors(weights, radius):
    """(1 - t, t) per radius r, with t_k = r / w_k where w_k > r and 1 elsewhere."""
    radii = np.asarray(radius, dtype=float)[..., None]
    targets = np.where(weights > radii, radii, weights) / weights
    return 1.0 - targets, targets


def _gauges(ladders, keep, targets, out=None):
    """Gauges max_k p_k (1 - t_k) / t_k of ladders p, the candidates formed in `out` if given."""
    with np.errstate(all="ignore"):
        candidates = np.multiply(ladders, keep, out=out)
        gauges = np.max(np.divide(candidates, targets, out=candidates), axis=-1)
    if not np.isfinite(gauges).all():
        raise DomainError("ball gauges must be finite")
    return float(gauges) if gauges.ndim == 0 else gauges


def dyadic_minkowski_family(cfg, v, depth=None):
    """Gauges of the balls of radii 2**-i for i = 2, 3, ... .

    This is the seminorm family recovered from the metric alone; with the
    default geometric weights the first solvable exponent is 2.
    Degenerate levels report 0 (ray inside the ball).
    """
    _require_supremum(cfg)
    depth = cfg.truncation if depth is None else depth
    radii = 2.0 ** -(2.0 + np.arange(depth))
    return ball_gauge_closed_form(cfg.level_weights, v.ladder(cfg.truncation).values, radii)


@dataclass(frozen=True)
class TameEstimate:
    """Outcome of a grade search between two seminorm families."""

    base: int
    grade: int
    constants: np.ndarray | None
    verdict: str
    witness: str | None
    spread_threshold: float

    @property
    def satisfied(self):
        return self.verdict == "satisfied"


def _candidate_constants(values_a, values_b, scales, base, grade, depth, threshold):
    """Per-level constants for one (base, grade) candidate, or a failure reason."""
    constants = np.zeros(depth - grade - base)
    for offset, n in enumerate(range(base, depth - grade)):
        num = values_a[:, n]
        den = values_b[:, n + grade]
        alive = den > 0.0
        if np.any(num[~alive] > 0.0):
            bad = int(np.flatnonzero(num[~alive] > 0.0)[0])
            return None, f"level {n}: probe with zero target seminorm (group {bad})"
        if not np.any(alive):
            constants[offset] = 0.0
            continue
        ratios = num[alive] / den[alive]
        group_max = {}
        for scale, ratio in zip(scales[alive], ratios):
            group_max[scale] = max(group_max.get(scale, 0.0), ratio)
        maxima = np.array([m for m in group_max.values() if m > 0.0])
        if maxima.size >= 2 and np.max(maxima) / np.min(maxima) >= threshold:
            return None, (
                f"level {n}: ratio spread {np.max(maxima) / np.min(maxima):.3g} "
                f"across probe magnitudes"
            )
        constants[offset] = float(np.max(ratios))
    return constants, None


def tame_grade_estimate(family_a, family_b, probes):
    """Smallest (base, grade) with family_a[n] <= C_n * family_b[n + grade].

    `probes` is a sequence of (scale, element) pairs; the scale labels the
    magnitude group of the element.  Constants are accepted only when the
    per-level ratio maxima agree across magnitude groups to within the
    spread threshold, so a nonlinear dependence between the families is
    reported as `falsified` rather than hidden inside a huge constant.
    """
    probes = list(probes)
    if not probes:
        raise DomainError("need at least one probe")
    scales = np.array([s for s, _ in probes])
    values_a = np.array([np.asarray(family_a(p), dtype=float) for _, p in probes])
    values_b = np.array([np.asarray(family_b(p), dtype=float) for _, p in probes])
    depth = min(values_a.shape[1], values_b.shape[1])
    last_reason = "no candidate examined"
    for base in range(depth):
        for grade in range(0, min(_MAX_GRADE, depth - base - 1) + 1):
            constants, reason = _candidate_constants(
                values_a, values_b, scales, base, grade, depth, _SPREAD_THRESHOLD
            )
            if constants is not None:
                return TameEstimate(
                    base=base,
                    grade=grade,
                    constants=constants,
                    verdict="satisfied",
                    witness=None,
                    spread_threshold=_SPREAD_THRESHOLD,
                )
            last_reason = f"(base={base}, grade={grade}) {reason}"
    return TameEstimate(
        base=0,
        grade=0,
        constants=None,
        verdict="falsified",
        witness=last_reason,
        spread_threshold=_SPREAD_THRESHOLD,
    )


def gauge_certificate(cfg, i, v):
    """Value of the sup metric at v / gauge; should equal 1/i up to rounding."""
    lam = minkowski_functional(cfg, i, v)
    if lam == 0.0:
        return 0.0
    return element_norm(v * (1.0 / lam), cfg)
