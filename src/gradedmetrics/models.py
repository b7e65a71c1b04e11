"""Concrete graded elements and their seminorm ladders.

Two models are provided: truncated real sequences, whose ladder collects
partial sums of coordinate magnitudes, and band-limited periodic
functions on the circle, whose ladder collects partial sums of sup norms
of successive spectral derivatives.  Both are immutable value types with
exact vector arithmetic, so metric identities hold exactly at finite
depth instead of up to a tail estimate.

Construction validates: the public constructors check shape, finiteness
and (for functions) realness of whatever they are given.  Values derived
from valid ones (sums, differences, real multiples, negations, ladders)
are wrapped by `core._derived`, which checks only finiteness, the one
invariant overflow can break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SeminormLadder, _derived, _frozen_array, graded_metric, metric_rows
from .errors import DomainError, ShapeError

_GRID_FACTOR = 8  # sup norms are taken on a grid this many times the bandwidth


@dataclass(frozen=True)
class TruncatedSequence:
    """Element of the depth-N sequence model; coords[0] is the first level."""

    coords: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeError("coords must form a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise DomainError("coords must be finite")
        object.__setattr__(self, "coords", _frozen_array(vals))

    @property
    def depth(self):
        return int(self.coords.size)

    def _check_same(self, other):
        if not isinstance(other, TruncatedSequence):
            raise ShapeError("mixed graded models in arithmetic")
        if other.depth != self.depth:
            raise ShapeError(f"depth mismatch {self.depth} vs {other.depth}")

    def __add__(self, other):
        self._check_same(other)
        return _derived(TruncatedSequence, "coords", self.coords + other.coords)

    def __sub__(self, other):
        self._check_same(other)
        return _derived(TruncatedSequence, "coords", self.coords - other.coords)

    def __mul__(self, scalar):
        return _derived(TruncatedSequence, "coords", self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return _derived(TruncatedSequence, "coords", -self.coords)

    def level_norms(self, depth=None):
        """Per-level seminorms |coords[k]| (the ladder increments)."""
        depth = self.depth if depth is None else depth
        if not 1 <= depth <= self.depth:
            raise ShapeError(f"depth {depth} outside 1..{self.depth}")
        return np.abs(self.coords[:depth])

    def ladder(self, depth=None):
        """Partial sums of coordinate magnitudes up to the requested depth."""
        return _derived(SeminormLadder, "values", np.cumsum(self.level_norms(depth)))

    def sup_coordinate_norm(self):
        return float(np.max(np.abs(self.coords)))


def zero_sequence(depth):
    return TruncatedSequence(np.zeros(depth))


def unit_sequence(depth, index):
    """Basis vector with a single 1 at the given 0-based level."""
    if not 0 <= index < depth:
        raise ShapeError(f"index {index} outside 0..{depth - 1}")
    coords = np.zeros(depth)
    coords[index] = 1.0
    return TruncatedSequence(coords)


def _mode_numbers(bandwidth):
    return np.arange(-bandwidth, bandwidth + 1)


def sequence_ladders(rows, depth):
    """Ladders of coordinate rows (..., N): partial sums of magnitudes up to depth."""
    ladders = np.abs(rows[..., :depth])
    return np.add.accumulate(ladders, axis=-1, out=ladders)  # cumsum, in place


def function_ladders(rows, depth):
    """Ladders of Fourier rows (..., 2B+1): partial sums of derivative sup norms."""
    return np.cumsum(_derivative_sups(rows, depth), axis=-1)


def _element_rows(elements):
    """Stacked rows of elements of one model: coords, or Fourier modes for functions."""
    kind = type(elements[0])
    if any(type(e) is not kind for e in elements):
        raise ShapeError("mixed graded models in one batch")
    return np.stack([e.fourier if kind is PeriodicFunction else e.coords for e in elements])


def _checked_ladders(rows, depth):
    """Batched ladders of model rows (complex rows are Fourier modes), checked like
    `.ladder(depth)`: finite, and a sequence depth in 1..N, which `sequence_ladders` skips."""
    fourier = np.iscomplexobj(rows)
    if not (fourier or 1 <= depth <= rows.shape[-1]):
        raise ShapeError(f"depth {depth} outside 1..{rows.shape[-1]}")
    ladders = (function_ladders if fourier else sequence_ladders)(rows, depth)
    if not np.isfinite(ladders).all():
        raise DomainError("SeminormLadder values must be finite")
    return ladders


def element_ladders(elements, depth):
    """Ladders (len(elements), depth) of elements of one model, in one batched pass."""
    return _checked_ladders(_element_rows(elements), depth)


_FFT_BLOCK = 1 << 20  # complex entries of the largest grid array built at once


def _grid_values(spectra, size):
    """Real values on the uniform size-point grid of rows of modes -B..B.

    Mode k lands in bin k mod size; a grid coarser than the band
    (size < 2B+1) sums the modes that share a bin, so it still samples the
    function exactly.
    """
    n = spectra.shape[-1]
    bandwidth = (n - 1) // 2
    width = size * -(-n // size)
    folded = np.zeros(spectra.shape[:-1] + (width,), dtype=complex)
    folded[..., : bandwidth + 1] = spectra[..., bandwidth:]
    folded[..., width - bandwidth :] = spectra[..., :bandwidth]
    if width > size:
        folded = folded.reshape(spectra.shape[:-1] + (width // size, size)).sum(axis=-2)
    return np.fft.ifft(folded, axis=-1, norm="forward").real


def _derivative_sups(rows, depth):
    """Sup norms on the default grid of derivative orders 0..depth-1.

    One inverse FFT covers all orders of a block of rows; blocks keep the
    (rows, depth, grid) working array below _FFT_BLOCK entries.
    """
    if depth < 1:
        raise ShapeError(f"depth {depth} must be at least 1")
    n = rows.shape[-1]
    size = _GRID_FACTOR * max((n - 1) // 2, 1)
    powers = np.empty((depth, n), dtype=complex)
    powers[0] = 1.0
    powers[1:] = 1j * _mode_numbers((n - 1) // 2)
    np.cumprod(powers, axis=0, out=powers)
    flat = rows.reshape(-1, n)
    out = np.empty((flat.shape[0], depth))
    step = max(1, _FFT_BLOCK // (depth * size))
    for start in range(0, flat.shape[0], step):
        values = _grid_values(flat[start : start + step, None, :] * powers, size)
        np.max(np.abs(values), axis=-1, out=out[start : start + step])
    return out.reshape(rows.shape[:-1] + (depth,))


@dataclass(frozen=True)
class PeriodicFunction:
    """Real band-limited function on the circle, stored as Fourier modes -B..B."""

    fourier: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.fourier, dtype=complex))
        if vals.ndim != 1 or vals.size % 2 == 0:
            raise ShapeError("fourier must hold modes -B..B (odd length)")
        if not np.all(np.isfinite(vals)):
            raise DomainError("fourier coefficients must be finite")
        mirrored = np.conj(vals[::-1])
        if not np.allclose(vals, mirrored, rtol=0.0, atol=1e-12):
            raise DomainError("realness requires c[-k] == conj(c[k])")
        # symmetrize so the realness constraint holds exactly from here on;
        # halving before adding keeps coefficients near the float limit finite
        object.__setattr__(self, "fourier", _frozen_array(vals / 2.0 + mirrored / 2.0, complex))

    @property
    def bandwidth(self):
        return int((self.fourier.size - 1) // 2)

    def _check_same(self, other):
        if not isinstance(other, PeriodicFunction):
            raise ShapeError("mixed graded models in arithmetic")
        if other.bandwidth != self.bandwidth:
            raise ShapeError(f"bandwidth mismatch {self.bandwidth} vs {other.bandwidth}")

    # sums, differences, real multiples and negations of exactly
    # conjugate-symmetric modes stay exactly symmetric
    def __add__(self, other):
        self._check_same(other)
        return _derived(PeriodicFunction, "fourier", self.fourier + other.fourier)

    def __sub__(self, other):
        self._check_same(other)
        return _derived(PeriodicFunction, "fourier", self.fourier - other.fourier)

    def __mul__(self, scalar):
        return _derived(PeriodicFunction, "fourier", self.fourier * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return _derived(PeriodicFunction, "fourier", -self.fourier)

    def grid(self, size=None):
        """Sample points and values on a uniform grid (default 8x bandwidth)."""
        size = size or _GRID_FACTOR * max(self.bandwidth, 1)
        x = 2.0 * np.pi * np.arange(size) / size
        return x, _grid_values(self.fourier, size)

    def derivative(self, order=1):
        k = _mode_numbers(self.bandwidth)
        return PeriodicFunction(self.fourier * (1j * k) ** order)

    def embed(self, bandwidth):
        """Same function viewed at a larger bandwidth (zero-padded modes)."""
        if bandwidth < self.bandwidth:
            raise ShapeError("embedding cannot reduce the bandwidth")
        pad = bandwidth - self.bandwidth
        return PeriodicFunction(np.pad(self.fourier, (pad, pad)))

    def sup_norm(self):
        return float(_derivative_sups(self.fourier, 1)[0])

    def level_norms(self, depth):
        """Sup norms of the spectral derivatives of orders 0..depth-1."""
        return _derivative_sups(self.fourier, depth)

    def ladder(self, depth):
        """Partial sums of derivative sup norms up to the requested depth."""
        return _derived(SeminormLadder, "values", function_ladders(self.fourier, depth))

    def sup_coordinate_norm(self):
        return self.sup_norm()


def zero_function(bandwidth):
    return PeriodicFunction(np.zeros(2 * bandwidth + 1, dtype=complex))


def harmonic(mode, bandwidth=None, amplitude=1.0, cosine=False):
    """amplitude * sin(mode * x), or the cosine companion."""
    if mode < 0:
        raise DomainError("mode must be non-negative")
    bandwidth = mode if bandwidth is None else bandwidth
    if bandwidth < mode:
        raise DomainError(f"bandwidth {bandwidth} below mode {mode}")
    coeffs = np.zeros(2 * bandwidth + 1, dtype=complex)
    center = bandwidth
    if mode == 0:
        coeffs[center] = amplitude if cosine else 0.0
    elif cosine:
        coeffs[center + mode] = amplitude / 2.0
        coeffs[center - mode] = amplitude / 2.0
    else:
        coeffs[center + mode] = amplitude / 2j
        coeffs[center - mode] = -amplitude / 2j
    return PeriodicFunction(coeffs)


def make_fk(k, bandwidth=None):
    """Witness (1/k) * sin(k^2 x) whose derivative sup grows like k^2."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    mode = k * k
    bandwidth = mode if bandwidth is None else bandwidth
    if bandwidth < mode:
        raise DomainError(f"bandwidth {bandwidth} too small for mode {mode}")
    return harmonic(mode, bandwidth=bandwidth, amplitude=1.0 / k)


def random_sequence(rng, depth, scale=1.0):
    return TruncatedSequence(rng.normal(size=depth) * scale)


def random_function(rng, bandwidth, scale=1.0, decay=1.0):
    """Random real trigonometric polynomial with geometrically damped modes."""
    coeffs = np.zeros(2 * bandwidth + 1, dtype=complex)
    center = bandwidth
    coeffs[center] = rng.normal() * scale
    for k in range(1, bandwidth + 1):
        c = (rng.normal() + 1j * rng.normal()) * scale * decay**k
        coeffs[center + k] = c / 2.0
        coeffs[center - k] = np.conj(c) / 2.0
    return PeriodicFunction(coeffs)


def _sample_rows(rng, x, shape, scale):
    """Rows x + r * scale of one random element r at each index of `shape`, drawn in C order.

    r is the draw of `random_sequence(rng, x.depth)`, or of
    `random_function(rng, x.bandwidth)` for a function x: the same numbers,
    in the same order and at the same bits, as those calls made one by one.
    """
    if not isinstance(x, PeriodicFunction):
        return x.coords + rng.normal(size=(*shape, x.depth)) * scale
    b = x.bandwidth
    draws = rng.normal(size=(*shape, 2 * b + 1))  # mode 0, then re and im of each mode k > 0
    modes = np.empty(draws.shape, dtype=complex)
    modes[..., b] = draws[..., 0]
    modes[..., b + 1 :] = (draws[..., 1::2] + 1j * draws[..., 2::2]) / 2.0
    modes[..., :b] = np.conj(modes[..., : b : -1])
    return x.fourier + modes * scale


def _row_norms(rows, cfg):
    """`element_norm` of the element held in each model row (..., n), in one pass."""
    return metric_rows(_checked_ladders(rows, cfg.truncation), cfg)


def _row_images(f, x, rows):
    """Rows of f at the element of x's model held in each row (..., n) of `rows`;
    f is called once per row, in C order."""
    field = "fourier" if isinstance(x, PeriodicFunction) else "coords"
    flat = rows.reshape(-1, rows.shape[-1])
    images = _element_rows([f(_derived(type(x), field, row)) for row in flat])
    return images.reshape(rows.shape[:-1] + images.shape[-1:])


def element_norm(v, cfg):
    """Graded-metric distance of a model element from the origin."""
    return graded_metric(v.ladder(cfg.truncation), None, cfg)


def element_metric(u, v, cfg):
    """Graded-metric distance between two elements of the same model."""
    return graded_metric((u - v).ladder(cfg.truncation), None, cfg)


@dataclass(frozen=True)
class CurveSpec:
    """Curve in a graded model with explicit position and velocity accessors."""

    kind: str
    domain: tuple
    position: Callable
    velocity: Callable

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise DomainError("domain must be a finite non-degenerate interval")
        object.__setattr__(self, "domain", (float(a), float(b)))

    @property
    def span(self):
        return self.domain[1] - self.domain[0]

    def restricted(self, a, b):
        if not self.domain[0] <= a < b <= self.domain[1]:
            raise DomainError("restriction must stay inside the domain")
        return CurveSpec(self.kind, (a, b), self.position, self.velocity)


def line_curve(v):
    """t -> t*v on [0, 1] with constant velocity v."""
    return CurveSpec("line", (0.0, 1.0), lambda t: v * float(t), lambda t: v)


def affine_curve(a, b):
    """t -> (1-t)*a + t*b on [0, 1] with constant velocity b - a."""
    diff = b - a
    return CurveSpec(
        "affine",
        (0.0, 1.0),
        lambda t: a + diff * float(t),
        lambda t: diff,
    )


def closed_form_curve(position, velocity, domain=(0.0, 1.0)):
    return CurveSpec("closed-form", tuple(domain), position, velocity)
