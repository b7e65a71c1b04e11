"""Linear operators on graded models and their bounded-norm calculus.

The dilation bound of an operator (supremum of metric ratios over a
punctured ball) is not computable exactly, so it is bracketed: a
deterministic probe plan yields a certified lower bound, and structured
forms (shifts, diagonals, spectral differentiation) carry an analytic
upper bound obtained by re-indexing the seminorm ladder.  Grade-lowering
forms drop one ladder level in their codomain, which is what makes the
re-indexed bound exact at finite truncation.  One probe pass serves every
operator on one space and domain: the probe rows and their norms are built
once, and each operator maps the unscaled bases, whose images are then
scaled as the probes are (A(t b) = t A(b)), and the random rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateViolation,
    ContractionError,
    ConvergenceError,
    DomainError,
    EmptyEstimateError,
    ShapeError,
)
from .core import metric_rows
from .models import PeriodicFunction, TruncatedSequence, _mode_numbers

SEQ = "seq"
FN = "fn"
_RANK_TOL = 1e-12  # relative singular-value floor of a full-rank map in `distortion`
_GROWTH_SLACK = 1e-12  # relative rise each step of `monotone_growth` must exceed
_BUMP_HALF_WIDTH = 4.0  # support half-width of `plateau_bump`
_OVERSAMPLE = 8  # grid points per unit of bandwidth in `composition_operator`
_MODELS = {SEQ: TruncatedSequence, FN: PeriodicFunction}  # the model of each space


@dataclass(frozen=True)
class LinearOperator:
    """Structured or dense linear map between graded models.

    `ladder_shift` records how many seminorm levels the operator lowers;
    bound estimation evaluates its codomain metric with that many levels
    removed from the truncation.
    """

    kind: str
    space: str
    domain_dim: int
    codomain_dim: int
    ladder_shift: int = 0
    matrix: np.ndarray | None = None
    diag: np.ndarray | None = None
    factors: tuple = ()

    def apply(self, v):
        model = _MODELS[self.space]
        row = getattr(v, model._field, None)
        if row is None or row.size != self.domain_dim:
            raise ShapeError("operator domain mismatch")
        return model(self._apply_rows(row))

    def _apply_rows(self, rows):
        """Apply to coordinate rows along the last axis; the one apply path."""
        if self.kind == "identity":
            return rows
        if self.kind == "up-shift":
            out = rows[..., 1:]
            if self.codomain_dim == rows.shape[-1]:
                out = np.concatenate([out, np.zeros(rows.shape[:-1] + (1,))], axis=-1)
            return out
        if self.kind == "down-shift":
            return np.concatenate([np.zeros(rows.shape[:-1] + (1,)), rows[..., :-1]], axis=-1)
        if self.kind == "diagonal":
            return rows * self.diag
        if self.kind == "derivative":
            return rows * (1j * np.arange(-(self.domain_dim // 2), self.domain_dim // 2 + 1))
        if self.kind == "dense":
            return rows @ self.matrix.T
        if self.kind == "composition":
            for op in reversed(self.factors):
                rows = op._apply_rows(rows)
            return rows
        raise DomainError(f"unknown operator kind {self.kind!r}")

    def materialize(self):
        """Dense matrix of the operator on the truncation."""
        eye = np.eye(self.domain_dim, dtype=float if self.space == SEQ else complex)
        return self._apply_rows(eye).T.copy()

    def compose(self, other):
        if other.codomain_dim != self.domain_dim or other.space != self.space:
            raise ShapeError("composition dimensions do not chain")
        return LinearOperator(
            kind="composition",
            space=self.space,
            domain_dim=other.domain_dim,
            codomain_dim=self.codomain_dim,
            ladder_shift=self.ladder_shift + other.ladder_shift,
            factors=(self, other),
        )

    def analytic_rbound(self, cfg):
        """Upper bound on the metric dilation, when the structure gives one."""
        w = cfg.level_weights
        if self.kind == "identity":
            return 1.0
        if self.kind == "down-shift":
            return float(np.max(w[1:] / w[:-1]))
        if self.kind in ("up-shift", "derivative") and self.ladder_shift == 1:
            return float(np.max(w[:-1] / w[1:]))
        if self.kind == "up-shift":
            # same-depth variant: the last level absorbs the lost tail.  The
            # same-depth derivative has no such bound: its top level needs
            # sup|D^N f|, which the depth-N ladder does not control.
            return float(max(np.max(w[:-1] / w[1:]), (w[-2] + w[-1]) / w[-1]))
        if self.kind == "diagonal":
            return float(max(1.0, np.max(np.abs(self.diag))))
        if self.kind == "composition":
            bounds = [op.analytic_rbound(cfg) for op in self.factors]
            if any(b is None for b in bounds):
                return None
            return float(np.prod(bounds))
        return None


def identity_operator(dim, space=SEQ):
    return LinearOperator("identity", space, dim, dim)


def up_shift(depth, drop_level=True):
    """(sigma a)_n = a_{n+1}; lowers the grade by one level."""
    cod = depth - 1 if drop_level else depth
    if cod < 1:
        raise ShapeError("depth too small for an up-shift")
    return LinearOperator("up-shift", SEQ, depth, cod, ladder_shift=1 if drop_level else 0)


def down_shift(depth):
    """(tau a)_0 = 0, (tau a)_n = a_{n-1}; raises the grade by one level."""
    return LinearOperator("down-shift", SEQ, depth, depth)


def diagonal_operator(values):
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    return LinearOperator("diagonal", SEQ, vals.size, vals.size, diag=vals)


def dense_operator(matrix, space=SEQ):
    mat = np.atleast_2d(np.asarray(matrix))
    return LinearOperator("dense", space, mat.shape[1], mat.shape[0], matrix=mat)


def derivative_operator(bandwidth, drop_level=True):
    """Spectral differentiation on the circle; its ladder action is an up-shift."""
    dim = 2 * bandwidth + 1
    return LinearOperator("derivative", FN, dim, dim, ladder_shift=1 if drop_level else 0)


@dataclass(frozen=True)
class ProbePlan:
    """Deterministic probe battery for dilation-bound estimation.

    Scaled basis elements realize the modulus-saturation suprema that
    random dense vectors miss; the random block guards against structure
    the basis cannot see.
    """

    seed: int = 0
    basis_scales: tuple = tuple(float(t) for t in np.logspace(-3.0, 3.0, 21))
    random_count: int = 200
    random_scales: tuple = tuple(float(t) for t in np.logspace(-3.0, 3.0, 8))

    def probe_rows(self, space, dim):
        """Labels and coordinate rows of every probe in a model of dimension dim.

        Sequences get scaled basis vectors, functions scaled sines and
        cosines of every mode; seeded random directions follow.
        """
        names, _, rows = self._probes(space, dim)
        return [self._label(names, i) for i in range(len(rows))], rows

    def _probes(self, space, dim):
        """Basis names, unscaled basis rows and every probe row, in `probe_rows` order."""
        model = _MODELS[space]
        names, bases = model._basis(dim)
        directions = model._random_rows(np.random.default_rng(self.seed), (self.random_count,), dim)
        rows = [_scaled(bases, self.basis_scales), _scaled(directions, self.random_scales)]
        return names, bases, np.concatenate(rows)

    def _label(self, names, index):
        """Label of the probe in row `index` of `probe_rows`."""
        base, t = divmod(index, len(self.basis_scales))
        if base < len(names):
            return f"{names[base]}*{self.basis_scales[t]:g}"
        i, s = divmod(index - len(names) * len(self.basis_scales), len(self.random_scales))
        return f"rng{i}*{self.random_scales[s]:g}"


def _scaled(bases, scales):
    """Rows base * t, base by base and within each base scale by scale."""
    return (bases[:, None, :] * np.asarray(scales)[:, None]).reshape(-1, bases.shape[-1])


@dataclass(frozen=True)
class RBoundEstimate:
    """Bracket for a dilation bound: certified probe maximum plus, where
    the structure permits, an analytic ceiling."""

    radius: float
    probe_count: int
    witness: str
    lower_bound: float
    analytic_upper: float | None

    def __post_init__(self):
        if self.analytic_upper is not None and self.lower_bound > self.analytic_upper * (1 + 1e-9):
            raise CertificateViolation(
                f"probe ratio {self.lower_bound} exceeds analytic bound {self.analytic_upper}",
                witness=self.witness,
            )


def rbound_estimate(op, cfg, radius=np.inf, plan=None):
    """Estimate the dilation bound of `op` over the punctured radius ball.

    The lower bound is the maximum metric ratio over the probe plan; the
    codomain metric drops as many levels as the operator's ladder shift.
    """
    return rbound_estimates([op], cfg, radius=radius, plan=plan)[0]


def rbound_estimates(ops, cfg, radius=np.inf, plan=None):
    """`rbound_estimate` of each operator in `ops`, from one probe pass; the
    operators share a space and a domain dimension, else ShapeError."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    plan = plan or ProbePlan()
    space, dim = ops[0].space, ops[0].domain_dim
    if any(op.space != space or op.domain_dim != dim for op in ops):
        raise ShapeError("operators must share a space and a domain dimension")
    if space == SEQ and cfg.truncation != dim:
        raise ShapeError("config truncation must match the operator domain")
    ladders = _MODELS[space]._ladders
    names, bases, rows = plan._probes(space, dim)
    norms = metric_rows(ladders(rows, cfg.truncation), cfg)
    inside = (norms > 0.0) & (norms < radius)
    kept = np.flatnonzero(inside)
    if kept.size == 0:
        raise EmptyEstimateError("no probe fell inside the ball")
    split = len(bases) * len(plan.basis_scales)
    partial = kept.size < inside.size  # if not, full slices index by view: nothing is copied
    whole, head, tail = (inside, inside[:split], inside[split:]) if partial else [slice(None)] * 3
    randoms, norms = rows[split:][tail], norms[whole]
    estimates = []
    for op in ops:
        cod_cfg = cfg if op.ladder_shift == 0 else cfg.with_truncation(cfg.truncation - op.ladder_shift)
        basis_images = _scaled(op._apply_rows(bases), plan.basis_scales)[head]
        images = np.concatenate([basis_images, op._apply_rows(randoms)])
        ratios = metric_rows(ladders(images, cod_cfg.truncation), cod_cfg) / norms
        best = int(np.argmax(ratios))
        estimates.append(RBoundEstimate(
            radius=float(radius), probe_count=kept.size, witness=plan._label(names, int(kept[best])),
            lower_bound=float(ratios[best]), analytic_upper=op.analytic_rbound(cfg),
        ))
    return estimates


@dataclass(frozen=True)
class NeumannResult:
    """Truncated geometric-series inverse together with its certificates."""

    operator: LinearOperator
    rho: float
    terms: int
    residual_bound: float
    inverse_bound: float


def neumann_invert(op, cfg, radius=np.inf, tol=1e-10, max_terms=64, rho=None, plan=None):
    """Invert a near-identity operator by its geometric series.

    The series sum_{i<=m} (1 - A)^i is truncated at the first m whose
    a-priori tail bound rho^(m+1) / (1 - rho) falls below `tol`; the
    returned certificates carry that bound and the inverse bound
    1 / (1 - rho).  `rho` defaults to the probe estimate of <1 - A>.
    """
    if op.domain_dim != op.codomain_dim or op.ladder_shift != 0:
        raise ShapeError("series inversion needs an endomorphism")
    a = op.materialize()
    gap = dense_operator(np.eye(a.shape[0], dtype=a.dtype) - a, space=op.space)
    if rho is None:
        rho = rbound_estimate(gap, cfg, radius=radius, plan=plan).lower_bound
    if rho >= 1.0:
        raise ContractionError(f"<1 - A> estimate {rho} is not below 1")
    if rho == 0.0:
        terms = 0
    else:
        terms = int(np.ceil(np.log(tol * (1.0 - rho)) / np.log(rho))) - 1
        terms = max(terms, 0)
    for total in _series_sums(gap.matrix, min(terms, max_terms)):
        pass  # only the last partial sum is kept
    if terms > max_terms:
        raise ConvergenceError(
            f"need {terms} terms for tolerance {tol}, budget is {max_terms}", partial=total
        )
    return NeumannResult(
        operator=dense_operator(total, space=op.space),
        rho=float(rho),
        terms=terms,
        residual_bound=float(rho ** (terms + 1) / (1.0 - rho)),
        inverse_bound=float(1.0 / (1.0 - rho)),
    )


def _series_sums(gap, terms):
    """Yield the partial sums S_0..S_terms of sum_i gap^i, each a new array."""
    power = np.eye(gap.shape[0], dtype=gap.dtype)
    total = power.copy()
    yield total
    for _ in range(terms):
        power = power @ gap
        total = total + power
        yield total


def neumann_partial_sums(op, terms):
    """Partial sums S_0..S_terms of the inversion series, as matrices."""
    a = op.materialize()
    return list(_series_sums(np.eye(a.shape[0], dtype=a.dtype) - a, terms))


def perturbed_invert_bound(ainv_bound, gap):
    """Bounds on <B^-1> and <B^-1 - A^-1> when <A - B> <= gap.

    Returns (ainv / (1 - ainv*gap), ainv**2 * gap / (1 - ainv*gap)).
    """
    if ainv_bound < 0.0 or gap < 0.0:
        raise DomainError("bounds must be non-negative")
    product = ainv_bound * gap
    if product >= 1.0:
        raise ContractionError(f"<A^-1><A-B> = {product} is not below 1")
    denom = 1.0 - product
    return ainv_bound / denom, ainv_bound**2 * gap / denom


@dataclass(frozen=True)
class DistortionReport:
    upper: float
    lower: float
    total: float


def distortion(matrix):
    """Upper/lower/total distortion of a linear map between inner-product
    spaces: largest singular value, reciprocal of the smallest, and their max."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    sv = np.linalg.svd(mat, compute_uv=False)
    upper = float(sv[0]) if sv.size else 0.0
    full_rank = sv.size == mat.shape[1] and sv[-1] > _RANK_TOL * max(sv[0], 1.0)
    lower = float(1.0 / sv[-1]) if full_rank else np.inf
    return DistortionReport(upper=upper, lower=lower, total=max(upper, lower))


def unboundedness_probe(apply_fn, witnesses, norm_fn, base=None, step=1e-3):
    """Dilation ratios along an indexed witness family.

    For linear maps the ratio is norm(f(w)) / norm(w); with a base point
    the difference quotient norm(f(base + step*w) - f(base)) / norm(step*w)
    is used instead.  Monotone growth across the family is the
    unboundedness signal; interpreting it is left to the caller.
    """
    ratios = []
    for w in witnesses:
        if base is None:
            denom = norm_fn(w)
            if denom == 0.0:
                raise DomainError("witnesses must be nonzero")
            ratios.append(norm_fn(apply_fn(w)) / denom)
        else:
            scaled = w * step
            denom = norm_fn(scaled)
            if denom == 0.0:
                raise DomainError("witnesses must be nonzero")
            ratios.append(norm_fn(apply_fn(base + scaled) - apply_fn(base)) / denom)
    return np.asarray(ratios)


def monotone_growth(values):
    """True when the values increase monotonically across their trailing half
    (two values at least)."""
    vals = np.asarray(values, dtype=float)
    tail = vals[-max(vals.size // 2, 2) :]
    if tail.size < 2:
        return False
    return bool(np.all(np.diff(tail) > _GROWTH_SLACK * np.maximum(np.abs(tail[:-1]), 1.0)))


def plateau_bump(y):
    """Smooth profile equal to 1 at the origin, supported on |y| < _BUMP_HALF_WIDTH."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < _BUMP_HALF_WIDTH
    u = y[inside] / _BUMP_HALF_WIDTH
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def oscillating_composition(rate):
    """Scalar map y -> bump(y) * sin(rate * y) used as a composition symbol."""

    def g(y):
        return plateau_bump(y) * np.sin(rate * np.asarray(y, dtype=float))

    return g


def composition_operator(scalar_fn, bandwidth):
    """Post-composition h -> P_B(g o h) on band-limited periodic functions.

    The pointwise composition leaves the band, so the result is projected
    back by an FFT on a grid of _OVERSAMPLE * B points.
    """
    size = _OVERSAMPLE * max(bandwidth, 1)

    def apply(h):
        _, values = h.grid(size)
        spectrum = np.fft.fft(scalar_fn(values)) / size
        return PeriodicFunction(spectrum[_mode_numbers(bandwidth) % size])

    return apply


def peak_function(bandwidth, center=0.0):
    """Fejer-kernel peak of unit height; sharper as the bandwidth grows."""
    k = np.arange(-bandwidth, bandwidth + 1)
    coeffs = (1.0 - np.abs(k) / (bandwidth + 1.0)).astype(complex)
    shifted = coeffs * np.exp(-1j * k * center)
    f = PeriodicFunction(shifted)
    return f * (1.0 / f.sup_norm())
