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
- `contraction_radius_reference`, `left_inverse_reference`,
  `b_diff_reference` and `metrics_compare_reference`: the program draws each
  sample set as rows and measures it in one pass; these draw every sampled
  point on its own, one `random_sequence`, `random_function_reference` or
  ladder at a time, and measure every pair with its own `element_metric`,
  `element_norm` or `graded_metric` call.
- `random_function_reference`: the program draws the modes of random
  functions as rows, in one normal draw per block; this draws them mode by
  mode, two scalar draws for each mode above 0.
- `neumann_partial_sums`: the program keeps one running power and sum of the
  inversion series; this sums numpy matrix powers afresh for every S_m.
"""

import numpy as np

from gradedmetrics.calculus import DifferentiabilityReport, directional_derivative
from gradedmetrics.core import SeminormLadder, comparability_check, graded_metric, metric_rows, phi
from gradedmetrics.errors import (
    CertificateViolation,
    ContractionError,
    DomainError,
    EmptyEstimateError,
    ShapeError,
)
from gradedmetrics.models import (
    PeriodicFunction,
    element_metric,
    element_norm,
    function_ladders,
    harmonic,
    random_sequence,
    sequence_ladders,
    unit_sequence,
)
from gradedmetrics.operators import SEQ, ProbePlan, RBoundEstimate, monotone_growth

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


def random_function_reference(rng, bandwidth, scale=1.0, decay=1.0):
    """Random real trigonometric polynomial with geometrically damped modes, mode by mode."""
    coeffs = np.zeros(2 * bandwidth + 1, dtype=complex)
    center = bandwidth
    coeffs[center] = rng.normal() * scale
    for k in range(1, bandwidth + 1):
        c = (rng.normal() + 1j * rng.normal()) * scale * decay**k
        coeffs[center + k] = c / 2.0
        coeffs[center - k] = np.conj(c) / 2.0
    return PeriodicFunction(coeffs)


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


def neumann_partial_sums(a, terms):
    """Partial sums S_0..S_terms of sum_i (1 - a)^i, a a square matrix."""
    gap = np.eye(len(a)) - a
    return [sum(np.linalg.matrix_power(gap, i) for i in range(m + 1)) for m in range(terms + 1)]


def analytic_rbound_reference(op, cfg):
    """Per-kind dilation ceilings by re-indexing the ladder, standard flavor:
    1 for the identity, max w_{k+1}/w_k for the down-shift, max w_k/w_{k+1}
    for grade-lowering shifts and derivatives, that or (w_{N-2} + w_{N-1})/w_{N-1}
    for the same-depth up-shift, max(1, max|d|) for a diagonal, the product
    of the factors' ceilings for a composition, and None otherwise."""
    w = cfg.level_weights
    if op.kind == "identity":
        return 1.0
    if op.kind == "down-shift":
        return float(np.max(w[1:] / w[:-1]))
    if op.kind in ("up-shift", "derivative") and op.ladder_shift == 1:
        return float(np.max(w[:-1] / w[1:]))
    if op.kind == "up-shift":
        return float(max(np.max(w[:-1] / w[1:]), (w[-2] + w[-1]) / w[-1]))
    if op.kind == "diagonal":
        return float(max(1.0, np.max(np.abs(op.diag))))
    if op.kind == "composition":
        bounds = [analytic_rbound_reference(factor, cfg) for factor in op.factors]
        return None if None in bounds else float(np.prod(bounds))
    return None


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
        rng.normal(size=dim) if space == SEQ else random_function_reference(rng, dim // 2).fourier
        for _ in range(plan.random_count)
    ]
    labels = [f"{name}*{t:g}" for name in names for t in plan.basis_scales]
    labels += [f"rng{i}*{s:g}" for i in range(plan.random_count) for s in plan.random_scales]
    basis_rows = np.reshape(bases, (-1, 1, dim)) * np.asarray(plan.basis_scales)[:, None]
    random_rows = np.reshape(directions, (-1, 1, dim)) * np.asarray(plan.random_scales)[:, None]
    return labels, np.concatenate([basis_rows.reshape(-1, dim), random_rows.reshape(-1, dim)])


def _random_like(rng, x, scale):
    """x + r * scale for one random element r of x's model."""
    if hasattr(x, "coords"):
        return x + random_sequence(rng, x.depth) * scale
    return x + random_function_reference(rng, x.bandwidth) * scale


def contraction_radius_reference(step_map, x0, cfg, rho, seed=0):
    """Largest dyadic radius whose 30 pairs x0 + N(0, 1) * radius / 2 all contract
    by rho up to 1e-9; pairs at distance 0 are skipped.  Each radius draws its
    whole block of pairs before the first is measured."""
    rng = np.random.default_rng(seed)
    for radius in [2.0**-k for k in range(12)]:
        pairs = [(_random_like(rng, x0, 0.5 * radius), _random_like(rng, x0, 0.5 * radius)) for _ in range(30)]
        for a, b in pairs:
            dab = element_metric(a, b, cfg)
            if dab != 0.0 and element_metric(step_map(a), step_map(b), cfg) > rho * dab + 1e-9:
                break
        else:
            return radius
    raise ContractionError(f"no dyadic radius certifies rho={rho}")


def left_inverse_reference(f, x0, radius, cfg, lower, pairs=500, seed=0):
    """Distances (d(a, b), d(f(a), f(b))) of the sampled pairs of a lower Lipschitz
    check, pair by pair; raises CertificateViolation with the pair (a, b) as
    witness at the first pair where lower * d(a, b) > d(f(a), f(b)) + 1e-9."""
    rng = np.random.default_rng(seed)
    distances = []
    for i in range(pairs):
        a = _random_like(rng, x0, 0.5 * radius)
        b = _random_like(rng, x0, 0.5 * radius)
        distances.append((element_metric(a, b, cfg), element_metric(f(a), f(b), cfg)))
        if lower * distances[-1][0] > distances[-1][1] + 1e-9:
            raise CertificateViolation(f"lower Lipschitz bound {lower} violated on pair {i}", witness=(a, b))
    return distances


def _scale_series_ratios(f, x, direction, cfg, scales):
    """Metric dilation ratios of the difference quotient along one direction."""
    ratios = []
    fx = f(x)
    for s in scales:
        v = direction * s
        nv = element_norm(v, cfg)
        if nv == 0.0:
            continue
        ratios.append(graded_metric((f(x + v) - fx).ladder(cfg.truncation), None, cfg) / nv)
    return np.asarray(ratios)


def b_diff_reference(f, x, radius, cfg, directions=None, seed=0):
    """`b_diff_report`, each sampled point drawn and measured on its own."""
    depth = cfg.truncation
    rng = np.random.default_rng(seed)
    if directions is None:
        directions = [unit_sequence(depth, k) for k in range(min(depth, 6))]
        directions += [random_sequence(rng, depth) for _ in range(6)]
    table = []
    for idx, v in enumerate(directions):
        deriv, err = directional_derivative(f, x, v)
        table.append((f"dir{idx}", deriv, err))
    errors = [row[2] for row in table]
    differentiable = bool(np.all(np.isfinite(errors)) and np.max(errors) <= 1e-6)
    per_direction = []
    for v in directions:
        ratios = _scale_series_ratios(f, x, v, cfg, np.logspace(-3, 0, 7))
        if ratios.size:
            per_direction.append(np.max(ratios))
    base_quotients = []
    d1, _ = directional_derivative(f, x, directions[0])
    for _ in range(6):
        y = _random_like(rng, x, 0.05 * radius)
        d2, _ = directional_derivative(f, y, directions[0])
        gap = element_metric(y, x, cfg)
        if gap > 0.0:
            base_quotients.append(element_metric(d2, d1, cfg) / gap)
    margin = np.inf
    witness = None
    for i in range(20):
        y = _random_like(rng, x, 0.3 * radius)
        z = _random_like(rng, x, 0.3 * radius)
        dyz = element_metric(y, z, cfg)
        if dyz == 0.0:
            continue
        seg_bound = 0.0
        for t in np.linspace(0.0, 1.0, 5):
            ratios = _scale_series_ratios(f, y + (z - y) * t, z - y, cfg, np.logspace(-3, 0, 5))
            if ratios.size:
                seg_bound = max(seg_bound, float(np.max(ratios)))
        slack = dyz * seg_bound + 1e-9 - element_metric(f(y), f(z), cfg)
        if slack < margin:
            margin = slack
            witness = f"pair{i}"
    return DifferentiabilityReport(
        radius=float(radius),
        derivative_table=tuple(table),
        derivative_bound=float(np.max(per_direction)),
        differentiable=differentiable,
        derivative_bounded=not monotone_growth(per_direction),
        base_lipschitz=float(np.max(base_quotients)) if base_quotients else 0.0,
        mean_value_margin=float(margin),
        witness=witness,
    )


def metrics_compare_reference(depth, cfgs, ratio, seed):
    """Triangle verdict over the configs `cfgs`, and the comparability
    triples at `ratio`, of the 100 ladder pairs of `metrics-compare`, drawn
    and measured pair by pair."""
    rng = np.random.default_rng(seed)

    def ladder():
        return SeminormLadder(np.cumsum(np.abs(rng.normal(size=depth))))

    tri_ok = True
    triples = []
    for _ in range(100):
        a, b = ladder(), ladder()
        for cfg in cfgs:
            c = ladder()
            tri_ok &= graded_metric(a, b, cfg) <= graded_metric(a, c, cfg) + graded_metric(c, b, cfg) + 1e-12
        if ratio is not None:
            triples.append(comparability_check(a, ratio, depth))
    return tri_ok, triples
