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


def _mode_numbers(bandwidth):
    return np.arange(-bandwidth, bandwidth + 1)


def sequence_ladders(rows, depth):
    """Ladders of coordinate rows (..., N): partial sums of magnitudes up to depth."""
    ladders = np.abs(rows[..., :depth])
    return np.add.accumulate(ladders, axis=-1, out=ladders)  # cumsum, in place


def function_ladders(rows, depth):
    """Ladders of Fourier rows (..., 2B+1): partial sums of derivative sup norms."""
    return np.cumsum(_derivative_sups(rows, depth), axis=-1)


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


class _Element:
    """Arithmetic of both models on their row field `_field`; each model also names its
    ladders, basis and random draw of rows.  Sums, differences, real multiples and
    negations of exactly conjugate-symmetric modes stay exactly symmetric."""

    def _same_rows(self, other):
        """The rows of self and other, elements of one model of one size."""
        if not isinstance(other, type(self)):
            raise ShapeError("mixed graded models in arithmetic")
        a, b = getattr(self, self._field), getattr(other, self._field)
        if a.size != b.size:
            size = self._size_name
            raise ShapeError(f"{size} mismatch {getattr(self, size)} vs {getattr(other, size)}")
        return a, b

    def __add__(self, other):
        a, b = self._same_rows(other)
        return _derived(type(self), self._field, a + b)

    def __sub__(self, other):
        a, b = self._same_rows(other)
        return _derived(type(self), self._field, a - b)

    def __mul__(self, scalar):
        return _derived(type(self), self._field, getattr(self, self._field) * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return _derived(type(self), self._field, -getattr(self, self._field))


@dataclass(frozen=True)
class TruncatedSequence(_Element):
    """Element of the depth-N sequence model; coords[0] is the first level."""

    coords: np.ndarray
    _field = "coords"
    _size_name = "depth"
    _ladders = staticmethod(sequence_ladders)

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

    @staticmethod
    def _basis(dim):
        """Names e1..eN and rows of the unit basis."""
        return [f"e{k + 1}" for k in range(dim)], np.eye(dim)

    @staticmethod
    def _random_rows(rng, shape, dim):
        """Rows (*shape, dim) of N(0, 1) coordinates, drawn in C order."""
        return rng.normal(size=(*shape, dim))

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


def _element_rows(elements):
    """Stacked rows of elements of one model: coords, or Fourier modes for functions."""
    kind = type(elements[0])
    if any(type(e) is not kind for e in elements):
        raise ShapeError("mixed graded models in one batch")
    return np.stack([getattr(e, kind._field) for e in elements])


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


@dataclass(frozen=True)
class PeriodicFunction(_Element):
    """Real band-limited function on the circle, stored as Fourier modes -B..B."""

    fourier: np.ndarray
    _field = "fourier"
    _size_name = "bandwidth"
    _ladders = staticmethod(function_ladders)

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

    @staticmethod
    def _basis(dim):
        """Names sin1, cos1, sin2, ... and rows of sin(kx) and cos(kx), k = 1..B,
        the modes `harmonic` gives them."""
        b = dim // 2
        k = np.arange(1, b + 1)
        rows = np.zeros((b, 2, dim), dtype=complex)  # per mode: the sine, then the cosine
        rows[k - 1, 0, b + k], rows[k - 1, 0, b - k] = complex(0.0, -0.5), complex(0.0, 0.5)
        rows[k - 1, 1, b + k] = rows[k - 1, 1, b - k] = 0.5
        return [f"{name}{j}" for j in k for name in ("sin", "cos")], rows.reshape(2 * b, dim)

    @staticmethod
    def _random_rows(rng, shape, dim):
        """Modes (*shape, dim) of random real functions, drawn in C order: per
        function N(0, 1) draws for mode 0, then the real and imaginary part of
        each mode k > 0, which becomes (re + i im) / 2."""
        b = dim // 2
        draws = rng.normal(size=(*shape, dim))
        modes = np.empty(draws.shape, dtype=complex)
        modes[..., b] = draws[..., 0]
        modes[..., b + 1 :] = (draws[..., 1::2] + 1j * draws[..., 2::2]) / 2.0
        modes[..., :b] = np.conj(modes[..., : b : -1])
        return modes

    def grid(self, size=None):
        """Sample points and values on a uniform grid (default 8x bandwidth)."""
        size = size or _GRID_FACTOR * max(self.bandwidth, 1)
        x = 2.0 * np.pi * np.arange(size) / size
        return x, _grid_values(self.fourier, size)

    def derivative(self):
        return PeriodicFunction(self.fourier * (1j * _mode_numbers(self.bandwidth)))

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
    return TruncatedSequence(TruncatedSequence._random_rows(rng, (), depth) * scale)


def random_function(rng, bandwidth, scale=1.0, decay=1.0):
    """Random real trigonometric polynomial; mode k is damped by scale * decay**|k|
    (Python's power: numpy's can differ in the last bit)."""
    damping = np.array([decay ** abs(k) for k in range(-bandwidth, bandwidth + 1)])
    return PeriodicFunction(PeriodicFunction._random_rows(rng, (), 2 * bandwidth + 1) * scale * damping)


def _sample_rows(rng, x, shape, scale):
    """Rows x + r * scale of one random element r of x's model at each index of
    `shape`, drawn in C order: the numbers, order and bits of `random_sequence`
    or `random_function` called one by one."""
    row = getattr(x, x._field)
    return row + type(x)._random_rows(rng, shape, row.size) * scale


def _row_norms(rows, cfg):
    """`element_norm` of the element held in each model row (..., n), in one pass."""
    return metric_rows(_checked_ladders(rows, cfg.truncation), cfg)


def _row_images(f, x, rows):
    """Rows of f at the element of x's model held in each row (..., n) of `rows`;
    f is called once per row, in C order."""
    flat = rows.reshape(-1, rows.shape[-1])
    images = _element_rows([f(_derived(type(x), x._field, row)) for row in flat])
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
