"""Request mixes of the three workloads.

A round is one pass over a workload's mix: a list of (kind, params)
requests whose params are plain numbers and numpy arrays drawn from the
run's seed.  Every round of a workload holds the same kinds in the same
counts, so a run that completes whole rounds always attempts the same
share of every kind.  This module imports numpy only; the program sees
the generated inputs, never the seed stream.
"""

from __future__ import annotations

import zlib

import numpy as np

SEQ_DEPTHS = (16, 64, 256)
CURVE_DEPTH = 12
FN_DEPTH = 12
QUADRATURE = 64
SINARC_TOL = 1e-3  # partition length on sin-arc curves: converges at levels 11-15
LINE_TOL = 1e-9  # partition length on t -> t v
# t -> a + (b - a) t loses its finest chords to cancellation (about
# 2**level * 1e-16 relative), so affine partition lengths stop at 1e-6
AFFINE_TOL = 1e-6
FN_RANDOM_PROBES = 50  # random probes in a function-space bound estimate
LINE_MAX_LEVEL = 40

# sin-arc curves c(t) = v sin(pi t / 2) + w t, drawn once from a fixed stream:
# their smooth-length failures (a program fault) must repeat in every run.
SINARC_POOL_SEED = 2006
SINARC_POOL_SIZE = 8


def sinarc_pool():
    rng = np.random.default_rng(SINARC_POOL_SEED)
    return [
        (rng.normal(size=CURVE_DEPTH), rng.normal(size=CURVE_DEPTH))
        for _ in range(SINARC_POOL_SIZE)
    ]


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def random_function_coeffs(rng, bandwidth):
    """Modes -B..B of a random real trigonometric polynomial.

    Draws in the order of `gradedmetrics.models.random_function` (scale
    and decay 1): the constant mode, then real and imaginary part of each
    mode k = 1..B.
    """
    coeffs = np.zeros(2 * bandwidth + 1, dtype=complex)
    coeffs[bandwidth] = rng.normal()
    draws = rng.normal(size=2 * bandwidth)
    c = draws[0::2] + 1j * draws[1::2]
    k = np.arange(1, bandwidth + 1)
    coeffs[bandwidth + k] = c / 2.0
    coeffs[bandwidth - k] = np.conj(c) / 2.0
    return coeffs


def _scaled_line(rng):
    """`lengths` curve text SCALEeINDEX whose partition length is of order 1."""
    index = int(rng.integers(1, 5))
    scale = 2.0 ** (index - 1) * rng.uniform(0.5, 2.0)
    return f"line:{scale:.6f}e{index}"


# Request counts are chosen so that the median and the 90th percentile of
# each mix fall inside a block of requests of one speed, not on the step
# between two kinds: small changes in speed then move a percentile along
# one kind instead of flipping it to another.  The blocks, as measured on
# a 2-core machine, are listed in perfbench/README.md.


def seq_certify_round(rng):
    reqs = []

    def cli(experiment, depth, **extra):
        reqs.append(("cli:" + experiment, dict(experiment=experiment, depth=depth, seed=_seed(rng), **extra)))

    def lengths(depth):
        # no "affine" curve: on some seeds its partition length stops on
        # rounding noise outside its tolerance (see CHANGES.md), and a
        # failure that comes and goes with the seed would make runs differ
        for curve in ("line:e1", _scaled_line(rng), "line:random"):
            cli("lengths", depth, curve=curve)

    def left_inverse(depth):
        reqs.append(("left-inverse", dict(depth=depth, seed=_seed(rng), radius=0.5)))

    def b_diff(depth):
        directions = [np.eye(depth)[k] for k in range(6)]
        directions += [rng.normal(size=depth) for _ in range(6)]
        reqs.append(
            ("b-diff", dict(depth=depth, seed=_seed(rng), x0=0.1 * rng.normal(size=depth), directions=directions))
        )

    # below the median: 15 requests
    for depth in (16, 64):
        lengths(depth)
        lengths(depth)
        cli("shift-bound", depth)
    cli("ift-solve", 16)
    # the median: 10 requests of one speed
    for depth in (16, 64):
        for _ in range(4):
            cli("ball-geometry", depth)
        cli("ift-solve", 64)
    # between: 9 requests
    cli("ball-geometry", 256)
    cli("neumann-invert", 16)
    for depth in SEQ_DEPTHS:
        cli("metrics-compare", depth)
    lengths(256)
    cli("neumann-invert", 64)
    # the 90th percentile: 9 requests, derivative reports in its middle
    left_inverse(16)
    left_inverse(16)
    left_inverse(64)
    b_diff(16)
    b_diff(16)
    b_diff(16)
    b_diff(64)
    cli("shift-bound", 256)
    cli("ift-solve", 256)
    # above: 2 requests
    left_inverse(256)
    cli("neumann-invert", 256)
    return reqs


def fn_spectral_round(rng):
    reqs = []

    def functions(kind, bandwidth, count):
        for _ in range(count):
            reqs.append((kind, dict(bandwidth=bandwidth, coeffs=random_function_coeffs(rng, bandwidth))))

    def harmonic_line(mode):
        reqs.append(("fn-gromov", dict(mode=mode, amplitude=float(rng.uniform(0.5, 2.0)))))

    def rbound(bandwidth):
        reqs.append(("fn-rbound", dict(bandwidth=bandwidth, plan_seed=_seed(rng), random_count=FN_RANDOM_PROBES)))

    # below the median: 15 ladders at B = 8 and 64
    functions("fn-level-norms", 8, 4)
    functions("fn-ladder", 8, 4)
    functions("fn-level-norms", 64, 3)
    functions("fn-ladder", 64, 4)
    # the median: 14 requests of 2-4 ms, divergence verdicts in its middle
    for mode in (2, 3, 4, 5, 6, 8):
        harmonic_line(mode)
        harmonic_line(mode)
    reqs.append(("cli:fk-witness", dict(experiment="fk-witness", depth=16, seed=_seed(rng))))
    reqs.append(
        ("cli:composition-probe", dict(experiment="composition-probe", depth=16, seed=_seed(rng), bandwidth=8))
    )
    # between: 4 requests, 3 of them ladders at B = 512
    harmonic_line(1)
    functions("fn-level-norms", 512, 1)
    functions("fn-ladder", 512, 2)
    # the 90th percentile: 6 bound estimates at B = 8
    for _ in range(6):
        rbound(8)
    # above: 2 bound estimates at B = 16 and 32
    rbound(16)
    rbound(32)
    return reqs


def curves_gauges_round(rng):
    depth = CURVE_DEPTH
    reqs = []

    def affine(kind, count):
        for _ in range(count):
            reqs.append((kind, dict(a=rng.normal(size=depth), b=rng.normal(size=depth))))

    # below the median: 200 requests
    for _ in range(130):
        reqs.append(("ball-gauge", dict(v=rng.normal(size=depth), radius=float(rng.uniform(0.02, 0.45)))))
    affine("gromov-affine", 70)
    # the median: 110 partition lengths of lines
    for _ in range(110):
        reqs.append(("gromov-line", dict(v=rng.normal(size=depth))))
    # the 90th percentile: 60 smooth lengths of segments below 110 gauge families
    affine("smooth-affine", 60)
    for _ in range(110):
        reqs.append(("dyadic-family", dict(v=rng.normal(size=depth))))
    # above, 4% of the mix and most of its time: 20 requests
    affine("metric-affine", 4)
    pool = sinarc_pool()
    for v, w in pool:
        reqs.append(("smooth-sinarc", dict(v=v, w=w)))
    for v, w in pool[:4]:
        reqs.append(("metric-sinarc", dict(v=v, w=w)))
    for v, w in pool[:2]:
        reqs.append(("gromov-sinarc", dict(v=v, w=w)))
    a, b = rng.normal(size=depth), rng.normal(size=depth)
    reqs.append(("affine-minimality", dict(a=a, b=b, seed=_seed(rng), count=3)))
    reqs.append(("cli:minkowski-tame", dict(experiment="minkowski-tame", depth=depth, seed=_seed(rng))))
    return reqs


WORKLOADS = {
    "seq-certify": seq_certify_round,
    "fn-spectral": fn_spectral_round,
    "curves-gauges": curves_gauges_round,
}

# Bandwidths whose spectral basis a workload may touch; set-up builds them.
FN_BANDWIDTHS = {
    "seq-certify": (),
    "fn-spectral": tuple(sorted({1, 2, 3, 4, 5, 6, 8, 16, 32, 64, 512} | {k * k for k in range(1, 7)})),
    "curves-gauges": (),
}


def make_rounds(workload, seed, count):
    """`count` rounds of inputs for a workload, reproducible from the seed."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    make = WORKLOADS[workload]
    return [make(rng) for _ in range(count)]


def warm_round(workload):
    """One request of every cheap kind, on inputs fixed for all seeds."""
    rng = np.random.default_rng(1)
    heavy = {"fn-rbound", "cli:minkowski-tame", "affine-minimality", "gromov-sinarc"}
    seen = set()
    warm = []
    for kind, params in WORKLOADS[workload](rng):
        if kind in heavy or kind in seen:
            continue
        seen.add(kind)
        warm.append((kind, params))
    return warm
