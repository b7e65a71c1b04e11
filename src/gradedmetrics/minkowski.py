"""Minkowski functionals of supremum-metric balls and tame-grade estimates.

The gauge of a convex ball recovers a seminorm from the metric; the
supremum flavor is used because its balls are convex.  Gauges are found
by monotone bisection on the ball-membership value; the bisection runs
on a ladder normalized by its top entry, which makes positive
homogeneity hold by construction up to the bisection tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SUPREMUM, phi
from .errors import DegenerateBallError, DomainError
from .models import element_norm

_MAX_BISECT = 200


def essential_sup(ladder_values, weights):
    """Limit of the sup-metric value of v/t as t -> 0+: the largest weight
    attached to a nonzero ladder level."""
    mask = np.asarray(ladder_values) > 0.0
    if not mask.any():
        return 0.0
    return float(np.max(np.asarray(weights)[mask]))


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


def ball_gauge(cfg, radius, v, tol=1e-9, degenerate_zero=False):
    """Gauge of the closed supremum-metric ball of the given radius.

    Returns the scale at which v enters the ball boundary.  When the
    radius reaches the essential sup of the direction, the whole ray lies
    inside the ball; that case raises DegenerateBallError unless
    `degenerate_zero` asks for the gauge's literal value 0.
    """
    if cfg.flavor != SUPREMUM:
        raise DomainError("ball gauges require the supremum flavor (convex balls)")
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    lad = v.ladder(cfg.truncation).values
    scale = float(lad[-1])
    if scale == 0.0:
        return 0.0
    if radius >= essential_sup(lad, cfg.level_weights):
        if degenerate_zero:
            return 0.0
        raise DegenerateBallError(
            f"radius {radius} reaches the essential sup of this direction"
        )
    normalized = lad / scale
    return scale * _bisect_gauge(normalized, cfg.level_weights, radius, tol)


def minkowski_functional(cfg, i, v, tol=1e-9):
    """Gauge seminorm of the radius-1/i supremum ball, by monotone bisection."""
    if i < 1:
        raise DomainError("ball index must be a positive integer")
    return ball_gauge(cfg, 1.0 / float(i), v, tol=tol)


def ball_gauge_closed_form(weights, ladder_values, radius):
    """Analytic inversion of the gauge equation, vectorized over radii.

    Agrees with the bisected gauge to within its tolerance; levels whose
    weight does not exceed the radius cannot pin the gauge and drop out,
    so a radius at or above the essential sup yields 0.  An array of radii
    gives an array of gauges.
    """
    weights = np.asarray(weights)
    radii = np.asarray(radius, dtype=float)[..., None]
    targets = radii / weights
    candidates = np.where(weights > radii, np.asarray(ladder_values) * (1.0 - targets) / targets, 0.0)
    gauges = np.max(candidates, axis=-1)
    return float(gauges) if gauges.ndim == 0 else gauges


def dyadic_minkowski_family(cfg, v, depth=None, tol=1e-9, first_exponent=2):
    """Gauges of the balls of radii 2**-i for i = first_exponent, ... .

    This is the seminorm family recovered from the metric alone; with the
    default geometric weights the first solvable exponent is 2.
    Degenerate levels report 0 (ray inside the ball).
    """
    depth = cfg.truncation if depth is None else depth
    return np.array(
        [
            ball_gauge(cfg, 2.0 ** -(first_exponent + n), v, tol=tol, degenerate_zero=True)
            for n in range(depth)
        ]
    )


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


def tame_grade_estimate(family_a, family_b, probes, max_grade=4, spread_threshold=10.0):
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
        for grade in range(0, min(max_grade, depth - base - 1) + 1):
            constants, reason = _candidate_constants(
                values_a, values_b, scales, base, grade, depth, spread_threshold
            )
            if constants is not None:
                return TameEstimate(
                    base=base,
                    grade=grade,
                    constants=constants,
                    verdict="satisfied",
                    witness=None,
                    spread_threshold=spread_threshold,
                )
            last_reason = f"(base={base}, grade={grade}) {reason}"
    return TameEstimate(
        base=0,
        grade=0,
        constants=None,
        verdict="falsified",
        witness=last_reason,
        spread_threshold=spread_threshold,
    )


def gauge_certificate(cfg, i, v, tol=1e-9):
    """Value of the sup metric at v / gauge; should sit within tol of 1/i."""
    lam = minkowski_functional(cfg, i, v, tol=tol)
    if lam == 0.0:
        return 0.0
    return element_norm(v * (1.0 / lam), cfg)
