"""The thread pool of ``max_abs_quantile`` and ``max_abs_quantiles``: the
chunks of simulated requests of dimension up to 90 share the cores, with
every result the one its request gets drawn serially on one thread, bit
for bit, the pool's memory within its plan, and no thread left behind."""

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
    dims = (1, 2, 3, 6, 12, 15, 16, 20, 90, 91)
    requests = [QuantileRequest(0.05, _corr(dim, dim), draws=4_000, seed=dim) for dim in dims]
    requests.append(QuantileRequest(0.01, _corr(3, 30), draws=70_000, seed=3))  # several chunks, the last one partial
    # duplicates: the same object twice, and an equal request built again
    return requests + [requests[3], QuantileRequest(0.05, _corr(12, 12), draws=4_000, seed=12)]


@pytest.fixture
def drawn(monkeypatch):
    """Every chunk of a simulated request drawn, as the generator that drew it
    (in place of :func:`quantiles._chunk_stream`): ``seed``, ``chunk``, the
    request's ``dim``, ``reads`` (the rows of each block of normals read, in
    order) and ``on_caller``."""
    chunks = []
    stream = quantiles._chunk_stream

    class Recorded:
        """A chunk's generator that records the blocks it fills and its thread."""

        def __init__(self, seed, chunk):
            self.rng = stream(seed, chunk)
            self.seed, self.chunk, self.dim, self.reads = seed, chunk, None, []
            self.on_caller = threading.current_thread() is threading.main_thread()
            chunks.append(self)

        def standard_normal(self, out):
            self.dim = out.shape[1]
            self.reads.append(out.shape[0])
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(quantiles, "_chunk_stream", Recorded)
    return chunks


@pytest.fixture
def multiplied(monkeypatch):
    """The rows of every product of normals by a Cholesky factor, as the
    ``np.matmul`` calls of :mod:`quantiles` ran them."""
    products = []

    class Numpy:
        """numpy, with the rows of each product recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(factor, z, out):
            products.append(z.shape[1])
            return np.matmul(factor, z, out=out)

    monkeypatch.setattr(quantiles, "np", Numpy())
    return products


def _read_rows(dim, on_caller):
    """Rows of one read of a chunk's stream: one product of the calling
    thread's on it; on a worker, the most whole products of the pool's
    within ``2**15`` floats, and at least one."""
    product = quantiles._block_rows(dim, pooled=not on_caller)
    return product if on_caller else product * max(1, (1 << 15) // (dim * product))


def _in_their_blocks(drawn):
    """Whether each recorded chunk read its stream in consecutive blocks of
    :func:`_read_rows`, the last one partial, or in one block of all its
    draws when it has fewer."""
    for c in drawn:
        read, total = _read_rows(c.dim, c.on_caller), sum(c.reads)
        if c.reads != [min(read, total - start) for start in range(0, total, read)]:
            return False
    return True


def _serial(monkeypatch, requests):
    """``max_abs_quantile`` of each request, drawn on the calling thread."""
    with monkeypatch.context() as patch:
        patch.setattr(quantiles, "_cores", lambda: 1)
        return [max_abs_quantile(r) for r in requests]


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_a_batch_is_each_request_alone_bit_for_bit(monkeypatch, drawn, cores):
    requests = _batch()
    alone = _serial(monkeypatch, requests)
    drawn.clear()
    monkeypatch.setattr(quantiles, "_cores", lambda: cores)
    got = max_abs_quantiles(requests)
    assert [r.q.hex() for r in got] == [r.q.hex() for r in alone]
    assert got == alone
    pooled = cores > 1
    for c in drawn:
        assert c.on_caller == (not (pooled and c.dim <= 90))
    assert _in_their_blocks(drawn)
    assert sorted(c.dim for c in drawn) == [3] * (1 + quantiles._chunks(70_000)) + [6, 6, 12, 12, 15, 16, 20, 90, 91]


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("dim", [3, 16, 30, 90, 91, 150])
def test_a_lone_request_is_its_serial_draw_bit_for_bit(monkeypatch, drawn, dim, cores):
    request = QuantileRequest(0.05, _corr(dim, dim), draws=70_000 if dim > 3 else 140_000, seed=dim)
    serial, = _serial(monkeypatch, [request])
    assert all(c.on_caller for c in drawn)
    drawn.clear()
    monkeypatch.setattr(quantiles, "_cores", lambda: cores)
    got = max_abs_quantile(request)
    assert (got.q.hex(), got.mc_stderr.hex(), got.jitter) == (serial.q.hex(), serial.mc_stderr.hex(), serial.jitter)
    assert got == serial
    assert sorted(c.chunk for c in drawn) == list(range(quantiles._chunks(request.draws)))
    assert all(c.on_caller == (cores == 1 or dim > 90) for c in drawn)
    assert _in_their_blocks(drawn)


def test_workers_share_each_request_without_a_lost_update(monkeypatch):
    # more workers than cores, switching threads every microsecond: a lost update
    # of a request's count of chunks left would leave it unsorted or sort it twice
    requests = [QuantileRequest(0.05, _corr(3, k), draws=140_000, seed=k) for k in range(6)]
    serial = _serial(monkeypatch, requests)
    monkeypatch.setattr(quantiles, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = max_abs_quantiles(requests)
    finally:
        sys.setswitchinterval(interval)
    assert got == serial


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
    assert all(not c.on_caller for c in drawn) and len(drawn) == len(requests) * quantiles._chunks(60_000)
    assert peak <= 4 * max(planned_bytes(r.dim, r.draws) for r in requests)
    assert peak <= MAX_QUANTILE_BYTES


def test_a_request_over_the_budget_with_its_workers_is_drawn_on_the_calling_thread(monkeypatch, drawn):
    monkeypatch.setattr(quantiles, "_cores", lambda: 2)
    large = QuantileRequest(0.05, _corr(6, 1), draws=70_000, seed=1)  # several chunks
    small = [QuantileRequest(0.05, _corr(3, k), draws=2_000, seed=k) for k in (2, 3)]
    alone = _serial(monkeypatch, [large, *small])
    drawn.clear()
    # one large plan fits the budget, two of them do not
    monkeypatch.setattr(quantiles, "MAX_QUANTILE_BYTES", 2 * planned_bytes(6, 70_000) - 1)
    assert max_abs_quantiles([large, *small]) == alone
    assert [(c.dim, c.on_caller) for c in drawn] == [(3, False)] * 2 + [(6, True)] * quantiles._chunks(70_000)
    assert _in_their_blocks(drawn)
    # with the large request out, one small request is left: nothing to share
    drawn.clear()
    assert max_abs_quantiles([large, small[0]]) == alone[:2]
    assert sorted((c.dim, c.on_caller) for c in drawn) == [(3, True)] + [(6, True)] * quantiles._chunks(70_000)
    assert _in_their_blocks(drawn)
    # alone, the large request's chunks would need two plans too
    drawn.clear()
    assert max_abs_quantile(large) == alone[0]
    assert [(c.chunk, c.on_caller) for c in drawn] == [(chunk, True) for chunk in range(quantiles._chunks(70_000))]


# rows of a product on the pool, up to dim 90: at most 256 KiB and under 2**19 multiply-adds
POOLED_ROWS = {3: 10_922, 4: 8_192, 6: 5_461, 15: 2_184, 16: 2_047, 30: 582, 32: 511, 45: 258, 60: 145, 90: 64}
# rows of a read on the pool: the most whole products within 256 KiB
POOLED_READS = {3: 10_922, 4: 8_192, 6: 5_461, 15: 2_184, 16: 2_047, 30: 582, 32: 1_022, 45: 516, 60: 435, 90: 320}


@pytest.mark.parametrize("dim, rows", [(3, 10_922), (4, 8_192), (6, 5_461), (15, 2_184), (16, 8_192), (30, 4_369),
                                       (32, 4_096), (45, 2_912), (60, 2_184), (90, 1_456), (91, 1_440)])
def test_a_lone_request_is_drawn_in_the_blocks_of_its_dimension(monkeypatch, drawn, multiplied, dim, rows):
    # on the calling thread, 256 KiB below dim 16 and 1 MiB from it
    assert quantiles._block_rows(dim, pooled=False) == rows
    assert rows * dim * 8 <= (1 << 18 if dim < 16 else 1 << 20)
    if dim <= 90:
        pooled, read = POOLED_ROWS[dim], POOLED_READS[dim]
        assert quantiles._block_rows(dim, pooled=True) == pooled
        assert pooled * dim <= 1 << 15 and pooled * dim * dim < 1 << 19
        assert _read_rows(dim, on_caller=False) == read
        assert read % pooled == 0 and read * dim <= 1 << 15 < (read + pooled) * dim
    assert _read_rows(dim, on_caller=True) == rows
    request = QuantileRequest(0.05, _corr(dim, dim), draws=200_000, seed=dim)
    max_abs_quantile(QuantileRequest(0.05, np.eye(3), draws=70_000))  # first-use imports
    results = set()
    # at 16 cores, eight workers' reads outweigh the calling thread's blocks in the plan from dim 32
    for cores in (1, 2, 4, 16):
        monkeypatch.setattr(quantiles, "_cores", lambda: cores)
        drawn.clear()
        multiplied.clear()
        tracemalloc.start()
        try:
            results.add(max_abs_quantile(request))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        on_caller = cores == 1 or dim > 90
        assert [(c.seed, c.on_caller) for c in drawn] == [(dim, on_caller)] * quantiles._chunks(200_000)
        assert max(max(c.reads) for c in drawn) == (rows if on_caller else read) and _in_their_blocks(drawn)
        # each read is multiplied in products of the block's rows, the last one partial
        product = rows if on_caller else pooled
        products = [min(product, n - first) for c in drawn for n in c.reads for first in range(0, n, product)]
        assert sorted(multiplied) == sorted(products)
        assert peak <= planned_bytes(dim, request.draws)
    assert len(results) == 1  # the serial draw's, bit for bit


def test_no_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(quantiles, "_cores", lambda: 4)
    requests = [QuantileRequest(0.05, _corr(6, k), draws=2_000, seed=k) for k in range(8)]
    before = threading.active_count()
    max_abs_quantiles(requests)
    assert threading.active_count() == before


def test_no_thread_outlives_a_pooled_lone_request(monkeypatch, drawn):
    monkeypatch.setattr(quantiles, "_cores", lambda: 4)
    before = threading.active_count()
    max_abs_quantile(QuantileRequest(0.05, _corr(30, 1), draws=140_000, seed=1))
    assert threading.active_count() == before
    assert [c.on_caller for c in drawn] == [False] * quantiles._chunks(140_000)


def test_a_pooled_request_that_fails_raises_after_the_pool_is_done(monkeypatch):
    monkeypatch.setattr(quantiles, "_cores", lambda: 2)
    indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    requests = [QuantileRequest(0.05, _corr(3, k), draws=2_000, seed=k) for k in range(3)]
    requests.insert(1, QuantileRequest(0.05, indefinite, draws=2_000))
    before = threading.active_count()
    with pytest.raises(NotPositiveSemidefiniteError):
        max_abs_quantiles(requests)
    with pytest.raises(NotPositiveSemidefiniteError):
        max_abs_quantile(QuantileRequest(0.05, indefinite, draws=70_000))
    assert threading.active_count() == before


def test_a_failing_chunk_raises_after_the_pool_is_joined(monkeypatch):
    monkeypatch.setattr(quantiles, "_cores", lambda: 4)
    draw = quantiles._draw_chunk

    def failing(factor, seed, chunk, out, rows):
        if chunk == 1:
            raise MemoryError(f"chunk 1 of seed {seed}")
        draw(factor, seed, chunk, out, rows)

    monkeypatch.setattr(quantiles, "_draw_chunk", failing)
    lone = QuantileRequest(0.05, _corr(30, 1), draws=140_000, seed=5)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="seed 5"):
        max_abs_quantile(lone)
    assert threading.active_count() == before
    # in a batch, the first failing request in request order raises
    batch = [QuantileRequest(0.05, _corr(6, k), draws=70_000 if k in (2, 3) else 2_000, seed=k) for k in range(5)]
    with pytest.raises(MemoryError, match="seed 2"):
        max_abs_quantiles([*batch, lone])
    # a request drawn on the calling thread raises first when it comes first
    serial = QuantileRequest(0.05, _corr(91, 1), draws=70_000, seed=7)
    with pytest.raises(MemoryError, match="seed 7"):
        max_abs_quantiles([serial, lone])
    assert threading.active_count() == before


def test_importing_perfci_does_not_import_the_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, perfci.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
