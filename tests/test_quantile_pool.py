"""The thread pool of ``max_abs_quantiles``: a batch's simulated requests of
dimension below 16 share the cores, with every result the one its request
gets alone on one thread, bit for bit, the pool's memory within its plan,
and no thread left behind."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from perfci import quantiles
from perfci.errors import NotPositiveSemidefiniteError
from perfci.quantiles import (
    MAX_QUANTILE_BYTES,
    QuantileRequest,
    max_abs_quantile,
    max_abs_quantiles,
    planned_bytes,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _corr(dim, seed):
    x = np.random.default_rng(seed).standard_normal((dim, dim + 2))
    c = x @ x.T
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


def _batch():
    dims = (1, 2, 3, 6, 12, 15, 16, 20)
    requests = [QuantileRequest(0.05, _corr(dim, dim), draws=4_000, seed=dim) for dim in dims]
    requests.append(QuantileRequest(0.01, _corr(3, 30), draws=70_000, seed=3))  # two chunks
    # duplicates: the same object twice, and an equal request built again
    return requests + [requests[3], QuantileRequest(0.05, _corr(12, 12), draws=4_000, seed=12)]


@pytest.fixture
def drawn(monkeypatch):
    """``(request, rows, on_calling_thread)`` of every simulated request drawn,
    ``rows`` the most rows one of its blocks of normals held."""
    calls, local = [], threading.local()
    draw, substream = quantiles._monte_carlo_quantile, quantiles._substream

    class Recorded:
        """A chunk's generator that records the rows of each block it fills."""

        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            local.rows.append(out.shape[0])
            return self.rng.standard_normal(out=out)

    def recorded(request):
        local.rows = []
        result = draw(request)
        calls.append((request, max(local.rows), threading.current_thread() is threading.main_thread()))
        return result

    monkeypatch.setattr(quantiles, "_monte_carlo_quantile", recorded)
    monkeypatch.setattr(quantiles, "_substream", lambda seed, *key: Recorded(substream(seed, *key)))
    return calls


def _in_their_blocks(drawn):
    """Whether each recorded request was drawn in blocks of ``_block_rows(dim)``
    rows, or in one block of all its draws when it has fewer."""
    return all(rows == min(r.draws, quantiles._block_rows(r.dim)) for r, rows, _ in drawn)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_a_batch_is_each_request_alone_bit_for_bit(monkeypatch, drawn, cores):
    requests = _batch()
    alone = [max_abs_quantile(r) for r in requests]
    drawn.clear()
    monkeypatch.setattr(quantiles, "_cores", lambda: cores)
    got = max_abs_quantiles(requests)
    assert [r.q.hex() for r in got] == [r.q.hex() for r in alone]
    assert got == alone
    pooled = cores > 1
    for r, _, on_caller in drawn:
        assert on_caller == (not (pooled and r.dim < 16))
    assert _in_their_blocks(drawn)
    assert sorted(r.dim for r, _, _ in drawn) == [3, 3, 6, 6, 12, 12, 15, 16, 20]


def test_the_pooled_peak_is_within_the_workers_plans(monkeypatch, drawn):
    monkeypatch.setattr(quantiles, "_cores", lambda: 4)
    requests = [QuantileRequest(0.05, _corr(dim, dim), draws=60_000, seed=dim) for dim in (3, 6, 9, 12, 15, 6)]
    max_abs_quantiles(requests[:2])  # the pool's first use imports concurrent.futures
    drawn.clear()
    tracemalloc.start()
    try:
        max_abs_quantiles(requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(not on_caller for _, _, on_caller in drawn) and len(drawn) == len(requests)
    assert peak <= 4 * max(planned_bytes(r.dim, r.draws) for r in requests)
    assert peak <= MAX_QUANTILE_BYTES


def test_a_request_over_the_budget_with_its_workers_is_drawn_on_the_calling_thread(monkeypatch, drawn):
    monkeypatch.setattr(quantiles, "_cores", lambda: 2)
    large = QuantileRequest(0.05, _corr(6, 1), draws=40_000, seed=1)
    small = [QuantileRequest(0.05, _corr(3, k), draws=2_000, seed=k) for k in (2, 3)]
    alone = [max_abs_quantile(r) for r in [large, *small]]
    drawn.clear()
    # one large plan fits the budget, two of them do not
    monkeypatch.setattr(quantiles, "MAX_QUANTILE_BYTES", 2 * planned_bytes(6, 40_000) - 1)
    assert max_abs_quantiles([large, *small]) == alone
    assert [(r.dim, on_caller) for r, _, on_caller in drawn] == [(3, False)] * 2 + [(6, True)]
    assert _in_their_blocks(drawn)
    # with the large request out, one small request is left: nothing to share
    drawn.clear()
    assert max_abs_quantiles([large, small[0]]) == alone[:2]
    assert sorted((r.dim, on_caller) for r, _, on_caller in drawn) == [(3, True), (6, True)]
    assert _in_their_blocks(drawn)


@pytest.mark.parametrize("dim, rows", [(3, 10_922), (4, 8_192), (6, 5_461), (15, 2_184), (16, 8_192), (90, 1_456)])
def test_a_lone_request_is_drawn_in_the_blocks_of_its_dimension(drawn, dim, rows):
    # 256 KiB blocks below dim 16, 1 MiB blocks from it, as in a pool
    assert quantiles._block_rows(dim) == rows
    request = QuantileRequest(0.05, _corr(dim, dim), draws=200_000, seed=dim)
    max_abs_quantile(QuantileRequest(0.05, np.eye(3), draws=1_000))  # first-use imports
    drawn.clear()
    tracemalloc.start()
    try:
        max_abs_quantile(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == [(request, rows, True)]
    assert peak <= planned_bytes(dim, request.draws)


def test_no_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(quantiles, "_cores", lambda: 4)
    requests = [QuantileRequest(0.05, _corr(6, k), draws=2_000, seed=k) for k in range(8)]
    before = threading.active_count()
    max_abs_quantiles(requests)
    assert threading.active_count() == before


def test_a_pooled_request_that_fails_raises_after_the_pool_is_done(monkeypatch):
    monkeypatch.setattr(quantiles, "_cores", lambda: 2)
    indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    requests = [QuantileRequest(0.05, _corr(3, k), draws=2_000, seed=k) for k in range(3)]
    requests.insert(1, QuantileRequest(0.05, indefinite, draws=2_000))
    before = threading.active_count()
    with pytest.raises(NotPositiveSemidefiniteError):
        max_abs_quantiles(requests)
    assert threading.active_count() == before


def test_importing_perfci_does_not_import_the_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, perfci.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
