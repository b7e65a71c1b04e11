"""Curve-length functionals on graded models.

Three lengths are measured: the partition-refinement length (supremum of
chord sums over dyadic partitions), the metric length (time integral of
the weighted modulus of the velocity's ball gauges) and the smooth
length (weighted modulus of the time integrals of the velocity's ladder
seminorms).  The difference between the last two is whether the modulus
sits inside or outside the time integral, so the smooth length dominates
by concavity whenever the two use comparable velocity seminorms.  Each
quadrature node and dyadic point is evaluated once, and the ladders,
gauges and chords of a refinement round are computed on rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import STANDARD, graded_metric, metric_rows, phi
from .errors import SingularVelocityError
from .minkowski import ball_gauge_closed_form
from .models import (
    CurveSpec,
    _checked_ladders,
    _element_rows,
    affine_curve,
    closed_form_curve,
    element_ladders,
    random_sequence,
)

DIVERGENCE_FACTOR = 1.5
DIVERGENCE_WINDOW = 3
_MIN_LEVEL = 8  # below this, bounded directions are still in their transient
_GAUGE_BLOCK = 1 << 18  # entries of the largest (rows, depth, depth) gauge array built at once
_MAX_ROUNDS = 6  # Simpson refinement rounds of `_refined_quadrature`


@dataclass(frozen=True)
class LengthResult:
    """Value (or divergence verdict) of a length functional.

    `status` is one of "converged", "diverged", "indeterminate"; a finite
    value is reported only for converged runs, and an indeterminate
    outcome is a first-class result, never coerced to a number.
    """

    value: float | None
    level: int
    history: np.ndarray
    status: str

    @property
    def diverged(self):
        return self.status == "diverged"

    @property
    def converged(self):
        return self.status == "converged"


def _refine(sample, ts, coarse):
    """Rows at the nodes ts, sampling only ts[1::2] when `coarse` holds the rows
    at ts[::2]: linspace(a, b, 2n + 1)[::2] equals linspace(a, b, n + 1) bit for bit."""
    if coarse is None:
        return sample(ts)
    return np.insert(coarse, np.arange(1, len(coarse)), sample(ts[1::2]), axis=0)


def _chord_sums(curve, cfg):
    """Chord sums over 2**level dyadic pieces for level = 0, 1, ...; each level
    evaluates only its odd points, the level below holds the even ones."""
    a, b = curve.domain
    rows = None
    for level in itertools.count():
        pieces = 2**level
        if curve.kind in ("line", "affine"):
            # constant-velocity curves have equal chords: one metric evaluation
            step = curve.position(a + (b - a) / pieces) - curve.position(a)
            yield pieces * graded_metric(step.ladder(cfg.truncation), None, cfg)
            continue
        ts = np.linspace(a, b, pieces + 1)
        rows = _refine(lambda at: _element_rows([curve.position(t) for t in at]), ts, rows)
        chords = _checked_ladders(np.diff(rows, axis=0), cfg.truncation)
        yield float(np.sum(metric_rows(chords, cfg)))


def gromov_length(curve, cfg, tol=1e-6, max_level=24):
    """Partition-refinement length with divergence detection.

    Dyadic refinement can only increase the chord sum; the value is
    accepted once successive levels agree within tol, and the divergence
    flag is raised when the sum keeps growing by the configured factor
    across the trailing window of levels.
    """
    history = []
    for level, total in zip(range(max_level + 1), _chord_sums(curve, cfg)):
        history.append(total)
        if level >= 1 and abs(history[-1] - history[-2]) < tol:
            return LengthResult(
                value=history[-1], level=level, history=np.asarray(history), status="converged"
            )
        if (
            level >= max(_MIN_LEVEL, DIVERGENCE_WINDOW)
            and history[-1] >= DIVERGENCE_FACTOR * history[-1 - DIVERGENCE_WINDOW]
        ):
            return LengthResult(
                value=None, level=level, history=np.asarray(history), status="diverged"
            )
    return LengthResult(
        value=None, level=max_level, history=np.asarray(history), status="indeterminate"
    )


def _gauge_terms(ladders, cfg):
    """Weighted modulus sum of ball gauges, sum_i w_i phi(g_i), of each ladder row.

    g_i is the gauge of the supremum ball of radius w_i, so the radii follow
    the weights (at the default ratio 1/2 they are the dyadic radii
    2**-(i+1)).  That this keeps the metric length at or below the smooth
    length is checked on seeded curves at ratios 0.3, 0.5 and 0.8, not
    proved.  Rows go in blocks of at most _GAUGE_BLOCK gauge entries (one row at least).
    """
    weights = cfg.level_weights
    step = max(1, _GAUGE_BLOCK // weights.size**2)
    blocks = (ladders[i : i + step, None, :] for i in range(0, len(ladders), step))
    gauges = np.concatenate([ball_gauge_closed_form(weights, block, weights) for block in blocks])
    return np.sum(weights * phi(gauges), axis=-1)


def _refined_quadrature(sample, domain, nodes, tol):
    """Composite Simpson refinement; sample(ts) gives one value or vector per node."""
    a, b = domain
    n = max(2, nodes)
    if n % 2:
        n += 1
    prev = values = None
    for _ in range(_MAX_ROUNDS):
        values = _refine(sample, np.linspace(a, b, n + 1), values)
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        est = (b - a) / (3.0 * n) * np.tensordot(weights, values, axes=1)
        if prev is not None and np.max(np.abs(est - prev)) <= tol * (1.0 + np.max(np.abs(est))):
            return est, n
        prev = est
        n *= 2
    return prev, n // 2


def _velocity_ladders(curve, cfg):
    return lambda ts: element_ladders([curve.velocity(t) for t in ts], cfg.truncation)


def metric_length(curve, cfg, quadrature=32, tol=1e-9):
    """Time integral of the weighted modulus of the velocity's ball gauges."""
    ladders = _velocity_ladders(curve, cfg)
    value, nodes = _refined_quadrature(
        lambda ts: _gauge_terms(ladders(ts), cfg), curve.domain, quadrature, tol
    )
    return LengthResult(
        value=float(value), level=nodes, history=np.asarray([value]), status="converged"
    )


def smooth_length(curve, cfg, quadrature=32, tol=1e-10):
    """Weighted modulus of the time integrals of the velocity ladder."""
    integrals, nodes = _refined_quadrature(
        _velocity_ladders(curve, cfg), curve.domain, quadrature, tol
    )
    value = float(np.sum(cfg.level_weights * phi(np.maximum(integrals, 0.0))))
    return LengthResult(
        value=value, level=nodes, history=np.asarray([value]), status="converged"
    )


def _speeds(ladders, cfg):
    reduce = np.sum if cfg.flavor == STANDARD else np.max
    return reduce(cfg.level_weights * ladders, axis=-1)


def metric_speed(velocity, cfg):
    """Instantaneous metric speed lim d(c(t+h), c(t)) / h of a velocity vector."""
    return float(_speeds(velocity.ladder(cfg.truncation).values, cfg))


def arclength_reparam(curve, cfg, nodes=512):
    """Reparametrize by cumulative metric speed; unit speed at the nodes.

    The metric speed is the derivative of the arc length, which is finite
    and positive for the admitted curves even though the metric itself is
    bounded; the new curve runs on [0, total-arclength].
    """
    a, b = curve.domain
    ts = np.linspace(a, b, nodes + 1)
    speeds = _speeds(_velocity_ladders(curve, cfg)(ts), cfg)
    if np.any(speeds <= 1e-12 * np.max(speeds)) or np.max(speeds) == 0.0:
        raise SingularVelocityError("velocity vanishes at a reparametrization node")
    increments = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(ts)
    cumulative = np.concatenate(([0.0], np.cumsum(increments)))
    total = float(cumulative[-1])

    def t_of_s(s):
        return float(np.interp(s, cumulative, ts))

    def position(s):
        return curve.position(t_of_s(s))

    def velocity(s):
        v = curve.velocity(t_of_s(s))
        return v * (1.0 / metric_speed(v, cfg))

    return CurveSpec("closed-form", (0.0, total), position, velocity)


def affine_minimality_probe(a, b, cfg, count=50, amplitude=0.1, seed=0, quadrature=64):
    """Compare the smooth length of endpoint-fixed perturbations against the
    straight segment; returns (all_longer, minimal_margin).

    Perturbations are sinusoidal bumps along seeded directions, vanishing
    at both endpoints; a margin below -1e-9 would falsify the
    implementation, not the convexity argument behind it.
    """
    base = smooth_length(affine_curve(a, b), cfg, quadrature=quadrature).value
    rng = np.random.default_rng(seed)
    diff = b - a
    margin = np.inf
    for _ in range(count):
        direction = random_sequence(rng, cfg.truncation)

        def position(t, direction=direction):
            return a + diff * t + direction * (amplitude * np.sin(np.pi * t))

        def velocity(t, direction=direction):
            return diff + direction * (amplitude * np.pi * np.cos(np.pi * t))

        perturbed = closed_form_curve(position, velocity)
        margin = min(margin, smooth_length(perturbed, cfg, quadrature=quadrature).value - base)
    return margin >= -1e-9, float(margin)
