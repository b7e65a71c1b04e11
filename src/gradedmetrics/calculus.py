"""Directional derivatives and bounded-differentiability diagnostics.

Derivatives are Gateaux limits estimated by Richardson-extrapolated
central differences.  Boundedness of a derivative map is reported the
same way operator bounds are: as a probed estimate together with
stability indicators, never as a symbolic proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .models import _element_rows, _row_images, _row_norms, _sample_rows
from .operators import monotone_growth

DEFAULT_STEPS = tuple(0.01 * 0.5**i for i in range(8))
_DERIVATIVE_ERROR_TOL = 1e-6  # largest Richardson error of a differentiable report
_SEGMENT_SAMPLES = 5  # points on each mean-value segment
_PAIR_COUNT = 20  # mean-value segments drawn per report


def directional_derivative(f, x, v):
    """Central-difference directional derivative with Richardson refinement
    over the steps DEFAULT_STEPS.

    Returns (derivative, error_estimate); the error is the sup-coordinate
    distance between the last two extrapolation levels.
    """
    diffs = []
    for t in DEFAULT_STEPS:
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
    base_lipschitz: float
    mean_value_margin: float
    witness: str | None


def _scale_series_ratios(f, x, bases, directions, cfg, scales):
    """Metric dilation ratios d(f(b + v s), f(b)) / |v s| of the difference quotient.

    b and v are rows (..., n) of x's model that broadcast together; the ratios
    (..., len(scales)) are -inf where the step v s is zero.  f is called once per
    row of b and once per step.
    """
    steps = directions[..., None, :] * scales[:, None]
    norms = _row_norms(steps, cfg)
    images = _row_images(f, x, bases[..., None, :] + steps) - _row_images(f, x, bases)[..., None, :]
    ratios = np.full(images.shape[:-1], -np.inf)
    return np.divide(_row_norms(images, cfg), norms, out=ratios, where=norms > 0.0)


def b_diff_report(f, x, radius, cfg, directions=None, seed=0):
    """Assemble directional derivatives, a derivative bound estimate, and the
    convex-segment mean-value check at a base point.

    The mean-value margin is the worst slack in
    d(f(y), f(z)) <= d(y, z) * sup of the probed derivative bound along the
    segment; a negative margin beyond tolerance marks a violation.  The
    derivative_bounded flag turns false when the per-direction bound
    estimates grow monotonically along the direction family in the order
    the caller supplied it, which is how an unbounded derivative shows up
    through a graded probe family.  Sampled points are drawn as rows, and
    each sample set is measured in one pass.
    """
    rng = np.random.default_rng(seed)
    if directions is None:  # the first six basis elements and six random ones of x's model
        model, dim = type(x), getattr(x, x._field).size
        rows = np.concatenate([model._basis(dim)[1][:6], model._random_rows(rng, (6,), dim)])
        directions = [model(row) for row in rows]

    table = []
    errors = []
    for idx, v in enumerate(directions):
        deriv, err = directional_derivative(f, x, v)
        table.append((f"dir{idx}", deriv, err))
        errors.append(err)
    differentiable = bool(np.all(np.isfinite(errors)) and np.max(errors) <= _DERIVATIVE_ERROR_TOL)

    # dilation ratios of difference quotients across probe scales
    rows = _element_rows([x, *directions])
    maxima = np.max(_scale_series_ratios(f, x, rows[0], rows[1:], cfg, np.logspace(-3, 0, 7)), axis=-1)
    per_direction = maxima[maxima > -np.inf]
    derivative_bound = float(np.max(per_direction))
    derivative_bounded = not monotone_growth(per_direction)

    # continuity of the derivative in the base point, as a Lipschitz quotient
    ys = _sample_rows(rng, x, (6,), 0.05 * radius)
    gaps = _row_norms(ys - rows[0], cfg)
    derivs = _row_images(lambda y: directional_derivative(f, y, directions[0])[0], x, ys)
    shifts = _row_norms(derivs - _element_rows([table[0][1]]), cfg)
    base_lipschitz = float(np.max(np.divide(shifts, gaps, out=np.zeros(6), where=gaps > 0.0)))

    # mean-value inequality on sampled convex segments
    pairs = _sample_rows(rng, x, (_PAIR_COUNT, 2), 0.3 * radius)
    y, z = pairs[:, 0], pairs[:, 1]
    dyz = _row_norms(y - z, cfg)
    chords = (z - y)[:, None]
    mids = y[:, None] + chords * np.linspace(0.0, 1.0, _SEGMENT_SAMPLES)[:, None]
    ratios = _scale_series_ratios(f, x, mids, chords, cfg, np.logspace(-3, 0, 5))
    seg_bound = np.max(ratios, axis=(1, 2), initial=0.0)
    images = _row_images(f, x, pairs)
    slack = dyz * seg_bound + 1e-9 - _row_norms(images[:, 0] - images[:, 1], cfg)
    slack[dyz == 0.0] = np.inf
    first = int(np.argmin(slack))
    return DifferentiabilityReport(
        radius=float(radius),
        derivative_table=tuple(table),
        derivative_bound=derivative_bound,
        differentiable=differentiable,
        derivative_bounded=derivative_bounded,
        base_lipschitz=base_lipschitz,
        mean_value_margin=float(slack[first]),
        witness=f"pair{first}" if slack[first] < np.inf else None,
    )
