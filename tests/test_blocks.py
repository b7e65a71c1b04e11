"""The blocked kernels against one block and against one unit per block.

`core._BLOCK_BYTES` bounds the largest working array of the probe pass of
`rbound_estimates`, of the spectral sup norms (`models._derivative_sups`)
and of the ball gauges (`length._gauge_terms`).  Every reduction acts per
row, so the budget may move time and memory only: a budget of one byte
(one basis or random direction, one (row, order) pair or one row per
block), a budget of three probe units, the default and a budget that holds
everything in one block must give the same bits.  The working memory of one
call, read from tracemalloc (numpy reports its buffers to it), stays within
a fixed multiple of the budget.
"""

import tracemalloc

import numpy as np
import pytest

from gradedmetrics import core
from gradedmetrics.core import (
    SeminormLadder,
    _comparability_rows,
    comparability_check,
    phi,
    standard_config,
    supremum_config,
)
from gradedmetrics.errors import EmptyEstimateError
from gradedmetrics.length import _gauge_terms
from gradedmetrics.minkowski import ball_gauge_closed_form
from gradedmetrics.models import (
    _derivative_sups,
    element_ladders,
    function_ladders,
    random_function,
    random_sequence,
    sequence_ladders,
)
from gradedmetrics.operators import (
    FN,
    SEQ,
    LinearOperator,
    ProbePlan,
    dense_operator,
    derivative_operator,
    diagonal_operator,
    down_shift,
    identity_operator,
    rbound_estimates,
    up_shift,
)

ONE_UNIT = 1
ONE_BLOCK = 1 << 62
DEFAULT = core._BLOCK_BYTES


def _under_budgets(monkeypatch, budgets, compute):
    """compute() under each budget in turn; the default budget afterwards."""
    results = []
    for budget in budgets:
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        results.append(compute())
    monkeypatch.setattr(core, "_BLOCK_BYTES", DEFAULT)
    return results


def _probe_budgets(dim, itemsize):
    """One unit per block, three bases per block (the last one partial), the
    default and one block."""
    return [ONE_UNIT, 3 * len(ProbePlan.basis_scales) * dim * itemsize, DEFAULT, ONE_BLOCK]


def _seq_operators(depth, rng):
    dense = dense_operator(rng.normal(size=(depth, depth)) / depth)
    return [
        identity_operator(depth),
        up_shift(depth),
        up_shift(depth, drop_level=False),
        down_shift(depth),
        diagonal_operator(rng.uniform(-2.0, 2.0, depth)),
        dense,
        down_shift(depth).compose(dense),
    ]


def _fn_operators(bandwidth, rng):
    k = np.arange(-bandwidth, bandwidth + 1)
    dim = k.size
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense = dense_operator(mat / dim, space=FN)
    return [
        identity_operator(dim, space=FN),
        derivative_operator(bandwidth),
        derivative_operator(bandwidth, drop_level=False),
        LinearOperator("diagonal", FN, dim, dim, diag=np.cos(k) + 2.0),
        dense,
        derivative_operator(bandwidth).compose(dense),
    ]


def _inside_per_unit(plan, space, dim, cfg, radius):
    """Per probe unit (a basis or a random direction, with all its scales): the
    number of its probe rows inside the punctured ball, and of all its rows."""
    _, rows = plan.probe_rows(space, dim)
    ladders = sequence_ladders if space == SEQ else function_ladders
    norms = core.metric_rows(ladders(rows, cfg.truncation), cfg)
    inside = (norms > 0.0) & (norms < radius)
    split = (dim if space == SEQ else dim - 1) * len(plan.basis_scales)
    basis = inside[:split].reshape(-1, len(plan.basis_scales))
    random = inside[split:].reshape(-1, len(plan.random_scales))
    kept = np.concatenate([basis.sum(axis=1), random.sum(axis=1)])
    return kept, np.array([basis.shape[1]] * len(basis) + [random.shape[1]] * len(random))


SEQ_PLAN = ProbePlan(seed=7, random_count=100)
FN_PLAN = ProbePlan(seed=8, random_count=50)


class TestProbeBlocks:
    """Depth 256 leaves the default's last basis and random blocks partial,
    and three bases per block do at bandwidth 16; the identity's ratios are
    all 1.0, so its witness is the first probe inside the ball."""

    @pytest.mark.parametrize("config", [standard_config, supremum_config])
    @pytest.mark.parametrize("radius", [0.3, 1e-3])
    def test_sequences(self, monkeypatch, config, radius):
        cfg, ops = config(256), _seq_operators(256, np.random.default_rng(20))
        results = _under_budgets(
            monkeypatch, _probe_budgets(256, 8), lambda: rbound_estimates(ops, cfg, radius, SEQ_PLAN)
        )
        assert all(result == results[-1] for result in results)
        assert (results[-1][0].lower_bound, results[-1][0].witness) == (1.0, "e1*0.001")
        kept, _ = _inside_per_unit(SEQ_PLAN, SEQ, 256, cfg, radius)
        assert all(estimate.probe_count == kept.sum() for estimate in results[-1])

    @pytest.mark.parametrize("config", [standard_config, supremum_config])
    @pytest.mark.parametrize("radius", [0.3, 0.2])
    def test_functions(self, monkeypatch, config, radius):
        cfg, ops = config(12), _fn_operators(16, np.random.default_rng(21))
        results = _under_budgets(
            monkeypatch, _probe_budgets(33, 16), lambda: rbound_estimates(ops, cfg, radius, FN_PLAN)
        )
        assert all(result == results[-1] for result in results)
        assert (results[-1][0].lower_bound, results[-1][0].witness) == (1.0, "sin1*0.001")
        kept, _ = _inside_per_unit(FN_PLAN, FN, 33, cfg, radius)
        assert all(estimate.probe_count == kept.sum() for estimate in results[-1])

    @pytest.mark.parametrize(
        "space, dim, cfg, plan, radius",
        [(SEQ, 256, standard_config(256), SEQ_PLAN, 1e-3), (FN, 33, standard_config(12), FN_PLAN, 0.2)],
    )
    def test_some_units_keep_none_and_some_part(self, space, dim, cfg, plan, radius):
        # so one-unit blocks are empty and partial as well as full
        kept, total = _inside_per_unit(plan, space, dim, cfg, radius)
        assert (kept == 0).any() and ((kept > 0) & (kept < total)).any()

    def test_empty_ball_raises_under_every_budget(self, monkeypatch):
        cfg, plan = standard_config(16), ProbePlan(random_count=10)
        for budget in _probe_budgets(16, 8):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            with pytest.raises(EmptyEstimateError):
                rbound_estimates([up_shift(16), identity_operator(16)], cfg, 1e-12, plan)


class TestDerivativeSupBlocks:
    @pytest.mark.parametrize("bandwidth", [8, 32, 512])
    def test_blocked_equals_one_block(self, monkeypatch, bandwidth):
        rng = np.random.default_rng(bandwidth)
        rows = np.stack([random_function(rng, bandwidth).fourier for _ in range(5)])
        budgets = (ONE_UNIT, 3 * 8 * bandwidth * 16, DEFAULT, ONE_BLOCK)  # one pair, three pairs, ...
        results = _under_budgets(monkeypatch, budgets, lambda: _derivative_sups(rows, 12))
        assert all(np.array_equal(result, results[-1]) for result in results)
        singles = np.stack([_derivative_sups(row, 12) for row in rows])
        assert np.array_equal(singles, results[-1])

    def test_one_row_at_bandwidth_512_spans_blocks(self):
        # 12 orders on a 4096-point grid of complex values: 786 KB per row
        assert 12 * 8 * 512 * 16 > core._BLOCK_BYTES


class TestGaugeBlocks:
    @pytest.mark.parametrize("depth", [12, 256])
    def test_blocked_equals_single_rows(self, monkeypatch, depth):
        cfg = standard_config(depth)
        weights = cfg.level_weights
        rng = np.random.default_rng(depth)
        ladders = element_ladders([random_sequence(rng, depth) for _ in range(17)], depth)
        budgets = (ONE_UNIT, 3 * 8 * depth**2, DEFAULT, ONE_BLOCK)  # one row, three rows, ...
        results = _under_budgets(monkeypatch, budgets, lambda: _gauge_terms(ladders, cfg))
        assert all(np.array_equal(result, results[-1]) for result in results)
        expected = [np.sum(weights * phi(ball_gauge_closed_form(weights, row, weights))) for row in ladders]
        assert results[-1].tolist() == expected


class TestComparabilityRows:
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8])
    def test_rows_equal_single_checks(self, ratio):
        rng = np.random.default_rng(30)
        ladders = sequence_ladders(rng.normal(size=(40, 30)), 30)
        ladders[3] = 0.0
        expected = [comparability_check(SeminormLadder(row), ratio, 30) for row in ladders]
        assert _comparability_rows(ladders, ratio, 30) == expected
        assert expected[3] == (0.0, 0.0, 0.0)


def _peak_bytes(compute):
    """Peak traced memory of one call above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    def test_probe_pass_at_depth_256(self):
        # full-size (21 * 256 + 800, 256) probe arrays would take about 60 MB
        ops = [up_shift(256), down_shift(256)]
        cfg, plan = standard_config(256), ProbePlan(random_count=100)
        assert _peak_bytes(lambda: rbound_estimates(ops, cfg, plan=plan)) < 10 * DEFAULT

    def test_function_ladders_of_the_bandwidth_32_probes(self):
        # one (rows, 12, 256) complex grid for all rows would take about 52 MB
        _, rows = ProbePlan().probe_rows(FN, 65)
        assert _peak_bytes(lambda: function_ladders(rows, 12)) < 6 * DEFAULT

    def test_gauge_terms_at_depth_256(self):
        # 2 MB blocks of (rows, 256, 256) candidates would take about 4.6 MB
        rng = np.random.default_rng(31)
        ladders = element_ladders([random_sequence(rng, 256) for _ in range(65)], 256)
        assert _peak_bytes(lambda: _gauge_terms(ladders, standard_config(256))) < 6 * DEFAULT
