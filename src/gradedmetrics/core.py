"""Graded metrics built from weight sequences and a bounded modulus.

Two metric flavors act on seminorm ladders (non-decreasing arrays of
partial-sum seminorms attached to elements of a graded model): the
standard flavor sums weighted modulus values over the levels, the
supremum flavor takes their maximum.  A depth-N model is an exact
finite-dimensional metric space in its own right, not an approximation
of an infinite one.

Everything here is a pure function of immutable values; concurrent use
needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError

STANDARD = "standard-sum"
SUPREMUM = "supremum"
_FLAVORS = (STANDARD, SUPREMUM)
_BLOCK_BYTES = 1 << 19  # bytes of the largest working array a batched kernel builds at once


def phi(x):
    """Bounded modulus x / (1 + x), mapping [0, inf) onto [0, 1).

    Strictly increasing, concave and subadditive with phi(0) == 0; these
    three properties are what turn a seminorm ladder into a metric.
    Accepts scalars or arrays; negative input raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and np.any(arr < 0):
        raise DomainError("phi is defined on [0, inf) only")
    out = arr / (1.0 + arr)
    if arr.ndim == 0:
        return float(out)
    return out


def phi_inverse(y):
    """Inverse modulus y / (1 - y) on [0, 1)."""
    arr = np.asarray(y, dtype=float)
    if arr.size and (np.any(arr < 0) or np.any(arr >= 1)):
        raise DomainError("phi_inverse is defined on [0, 1) only")
    out = arr / (1.0 - arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


def _derived(cls, field, values):
    """Instance of a value type around an array derived from valid values.

    Sums, scalar multiples and partial sums of finite values keep every
    invariant the public constructor checks except finiteness, which
    overflow breaks; that is the one check made here.  `values` must be
    an array the caller has just computed: it is frozen in place, not
    copied, and `__init__` is skipped.
    """
    if not np.isfinite(values).all():
        raise DomainError(f"{cls.__name__} {field} must be finite")
    values.flags.writeable = False
    obj = object.__new__(cls)
    object.__setattr__(obj, field, values)
    return obj


@dataclass(frozen=True)
class WeightSequence:
    """Positive, non-increasing level weights; one weight per ladder level."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError("weights must form a non-empty 1-d array")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise DomainError("weights must be positive and finite")
        if np.any(np.diff(vals) > 0):
            raise DomainError("weights must be non-increasing")
        object.__setattr__(self, "values", _frozen_array(vals))

    def __len__(self):
        return int(self.values.size)

    def head(self, depth):
        if not 1 <= depth <= len(self):
            raise ShapeError(f"depth {depth} outside 1..{len(self)}")
        return self.values[:depth]


def geometric_weights(r, depth):
    """Weight sequence (r, r**2, ..., r**depth) for a ratio r in (0, 1)."""
    if not 0.0 < r < 1.0:
        raise DomainError("geometric ratio must lie in (0, 1)")
    if depth < 1:
        raise DomainError("depth must be positive")
    return WeightSequence(r ** np.arange(1, depth + 1, dtype=float))


@dataclass(frozen=True)
class SeminormLadder:
    """Non-negative, non-decreasing partial-sum seminorms, level 0 upward."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError("ladder must form a non-empty 1-d array")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DomainError("ladder entries must be non-negative and finite")
        if np.any(np.diff(vals) < 0):
            raise DomainError("ladder entries must be non-decreasing")
        object.__setattr__(self, "values", _frozen_array(vals))

    @property
    def depth(self):
        return int(self.values.size)

    def is_zero(self):
        return bool(self.values[-1] == 0.0)


def zero_ladder(depth):
    return SeminormLadder(np.zeros(depth))


@dataclass(frozen=True)
class GradedMetricConfig:
    """Metric flavor, weight sequence and truncation depth of a graded model."""

    flavor: str
    weights: WeightSequence
    truncation: int

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise DomainError(f"unknown flavor {self.flavor!r}; expected one of {_FLAVORS}")
        if not 1 <= self.truncation <= len(self.weights):
            raise ShapeError("truncation must lie within the weight sequence")

    @property
    def level_weights(self):
        return self.weights.head(self.truncation)

    def with_truncation(self, truncation):
        return GradedMetricConfig(self.flavor, self.weights, truncation)


def standard_config(depth, r=0.5):
    """Standard-sum metric with geometric weights, the package default."""
    return GradedMetricConfig(STANDARD, geometric_weights(r, depth), depth)


def supremum_config(depth, r=0.5):
    return GradedMetricConfig(SUPREMUM, geometric_weights(r, depth), depth)


def _block_rows(row_bytes):
    """Rows of `row_bytes` bytes each that fit in _BLOCK_BYTES, one at least."""
    return max(1, _BLOCK_BYTES // row_bytes)


def metric_rows(ladders, cfg):
    """Graded metric of every ladder along the last axis of `ladders`.

    The one ladder-to-metric reduction: an array of shape (..., depth),
    depth equal to the truncation, maps to shape (...).  Entries must be
    non-negative; callers that build ladders from data guarantee it.
    """
    if ladders.shape[-1] != cfg.truncation:
        raise ShapeError(f"ladder depth {ladders.shape[-1]} != truncation {cfg.truncation}")
    terms = ladders + 1.0  # phi, minus its domain check, in one fresh buffer
    np.divide(ladders, terms, out=terms)
    terms *= cfg.level_weights
    return (np.add if cfg.flavor == STANDARD else np.maximum).reduce(terms, axis=-1)


def _as_flavor(cfg, flavor):
    return cfg if cfg.flavor == flavor else replace(cfg, flavor=flavor)


def _difference(a, b):
    if b is None:
        return a.values
    if b.depth != a.depth:
        raise ShapeError(f"ladder depths differ: {a.depth} vs {b.depth}")
    return np.abs(a.values - b.values)


def standard_metric(a, b, cfg):
    """Weighted sum of modulus values over ladder levels.

    `b=None` stands for the zero ladder; callers measuring the distance
    between two model elements pass the ladder of their difference, which
    is what makes the result translation invariant.
    """
    return float(metric_rows(_difference(a, b), _as_flavor(cfg, STANDARD)))


def sup_metric(a, b, cfg):
    """Weighted maximum of modulus values over ladder levels."""
    return float(metric_rows(_difference(a, b), _as_flavor(cfg, SUPREMUM)))


def graded_metric(a, b, cfg):
    if cfg.flavor == STANDARD:
        return standard_metric(a, b, cfg)
    return sup_metric(a, b, cfg)


def comparability_check(ladder, r, depth):
    """Triple (sum metric at ratio r**2, sup metric at r, sum metric at r).

    Write the triple as (T1, T2, T3) and S = max_n r**n phi(p_n), so T2 = S.
    For every r in (0, 1):

    - T2 <= T3, since a maximum of non-negative terms is at most their sum;
    - T1 <= C(r) * T2 with C(r) = r + ... + r**depth = r(1 - r**depth)/(1 - r),
      since T1 = sum_n r**n * (r**n phi(p_n)) <= sum_n r**n * S.

    C(r) < r/(1 - r) <= 1 when r <= 1/2, so there the triple is non-decreasing
    at every depth; for r > 1/2, C(r) exceeds 1 once depth is large enough.
    Above 1/2 the ordering T1 <= T2 fails for generic ladders (a flat ladder
    breaks it at r = 0.8), so callers should treat it as an input-dependent
    fact, not an identity.  A zero ladder degenerates to (0, 0, 0).
    """
    if ladder.depth != depth:
        raise ShapeError(f"ladder depth {ladder.depth} != {depth}")
    return (0.0, 0.0, 0.0) if ladder.is_zero() else _comparability_rows(ladder.values, r, depth)[0]


def _comparability_rows(ladders, r, depth):
    """`comparability_check` triples of ladder rows (..., depth), one `metric_rows` pass per metric."""
    weights = geometric_weights(r, depth)
    cfgs = [(STANDARD, geometric_weights(r * r, depth)), (SUPREMUM, weights), (STANDARD, weights)]
    columns = [metric_rows(ladders, GradedMetricConfig(flavor, w, depth)) for flavor, w in cfgs]
    return list(zip(*np.reshape(columns, (3, -1)).tolist()))


def line_profile(t):
    """Piecewise profile: t on [0,1], 1-(t-1)/2 on [1,2], 1/2+(t-2)/3 beyond."""
    t = float(t)
    if t < 0:
        raise DomainError("profile argument must be non-negative")
    if t <= 1.0:
        return t
    if t <= 2.0:
        return 1.0 - (t - 1.0) / 2.0
    return 0.5 + (t - 2.0) / 3.0


def piecewise_line_metric(x, y):
    """Translation-invariant distance on the line with disconnected balls.

    The radius-0.6 ball around 0 contains 2 (distance 0.5) but not 1
    (distance 1).  The profile is subadditive only for separations below
    roughly 1.9; beyond that the triangle inequality genuinely fails, so
    this is a ball-geometry counterexample, not a full metric.
    """
    return line_profile(abs(float(x) - float(y)))


@dataclass(frozen=True)
class NonConvexityWitness:
    """Two ladders on a standard-metric sphere whose midpoint leaves the ball."""

    radius: float
    first: SeminormLadder
    second: SeminormLadder
    midpoint: SeminormLadder
    first_value: float
    second_value: float
    midpoint_value: float

    @property
    def margin(self):
        return self.midpoint_value - self.radius


def standard_ball_nonconvexity_witness(cfg, radius=None):
    """Search for a witness that standard-metric balls are not convex.

    Places mass `a` on the first level and `b` on the second level so that
    both points sit on the sphere of the given radius; strict concavity of
    the modulus then pushes their midpoint outside the ball.  The returned
    ladders are those of a*e1, b*e2 and (a*e1 + b*e2)/2.
    """
    if cfg.flavor != STANDARD:
        raise DomainError("non-convexity witness targets the standard flavor")
    if cfg.truncation < 2:
        raise ShapeError("need at least two levels")
    w = cfg.level_weights
    total = float(np.sum(w))
    tail = total - float(w[0])
    if radius is None:
        radius = 0.5 * tail
    if not 0.0 < radius < tail:
        raise DomainError(f"radius must lie in (0, {tail})")
    a = phi_inverse(radius / total)
    b = phi_inverse(radius / tail)
    first = SeminormLadder(np.full(cfg.truncation, a))
    second_vals = np.full(cfg.truncation, b)
    second_vals[0] = 0.0
    second = SeminormLadder(second_vals)
    mid_vals = np.full(cfg.truncation, (a + b) / 2.0)
    mid_vals[0] = a / 2.0
    midpoint = SeminormLadder(mid_vals)
    return NonConvexityWitness(
        radius=float(radius),
        first=first,
        second=second,
        midpoint=midpoint,
        first_value=standard_metric(first, None, cfg),
        second_value=standard_metric(second, None, cfg),
        midpoint_value=standard_metric(midpoint, None, cfg),
    )
