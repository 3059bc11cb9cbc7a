"""Gaussian quantiles: two-sided normal and equicoordinate max-|z| quantiles.

Two quantile notions drive every interval in this package:

* ``two_sided_quantile`` -- ``z_{1-alpha/2}``, for the variance-correction
  magnitude and the dim-1 tier below, from the lower tail of
  ``inv_norm_cdf``: the standard library's :meth:`statistics.NormalDist.inv_cdf`
  (Wichura's AS 241, Applied Statistics 37, 1988), good to a few ulps.

* ``max_abs_quantile`` (one request) and ``max_abs_quantiles`` (a list)
  -- the two-sided equicoordinate quantile
  ``q(alpha, R)`` with ``P[max_j |z_j| < q] = 1 - alpha`` for
  ``z ~ N(0, R)``.  The dimension of ``R`` picks one of three tiers:

  - ``"normal"`` (dim 1): ``two_sided_quantile(alpha)``, exact.  Individual
    intervals are dim-1 requests too.
  - ``"bivariate"`` (dim 2): exact up to quadrature.  The box
    probability is one integral over the first coordinate (Drezner &
    Wesolowsky 1990; Genz 2004), evaluated by Gauss-Legendre on three
    panels, and ``q`` is its root by Newton steps on the box
    probability's slope ``4 phi(q) [Phi(q (1 - r) / s) - Phi(-q (1 + r) / s)]``,
    from the scalar quantile, inside a bracket that starts at the
    Bonferroni quantile.  ``mc_stderr`` is then an error bound on ``q``
    (residual plus quadrature error, over the slope), not a standard
    error.  :func:`max_abs_quantiles` solves all the dim-2 requests of a
    list at once; a result does not depend on its batch.
  - ``"monte_carlo"`` (dim 3 and above): Cholesky-factor ``R``
    (with a small jitter ladder for rank-deficient matrices), draw
    correlated Gaussian vectors in fixed-size chunks, each from its own
    seeded SFC64 stream, so results are reproducible for a given seed, and
    read the empirical quantile off the maxima, by one selection and a sort
    of the few at and above its density window.  Each chunk's
    stream is read in blocks of at most 256 KiB or one product, and each
    block multiplied in products whose size follows from the dimension
    and from whether a thread pool draws the request (:func:`_block_rows`,
    :func:`_read_rows`), so a request holds its ``draws`` maxima, a few
    blocks and its ``dim x dim`` matrices, and its time grows as
    ``dim**2 * draws``.
    ``mc_stderr`` is the usual order-statistic standard error: binomial
    noise of the empirical CDF divided by a local density estimate.

  The Monte Carlo tier's memory is planned from the request's shape
  before anything is allocated (:func:`planned_bytes`); a request whose
  plan exceeds ``MAX_QUANTILE_BYTES`` is rejected.

  Up to dim 90, a chunk is the unit of work of a thread pool made for
  the call: :func:`max_abs_quantile` draws a lone request's chunks on one,
  and :func:`max_abs_quantiles` the chunks of all such requests of a
  list, when the process may run on two or more cores and there are two
  or more chunks to share.  The pool reads each stream in blocks of up
  to 256 KiB and multiplies them in products that OpenBLAS runs on the
  drawing thread (320-row reads of five 64-row products at dim 90).
  Above dim 90 the chunks are drawn on the calling thread, in blocks of
  1 MiB whose product OpenBLAS threads itself.  Every result is the one
  its request gets drawn serially on one thread, bit for bit, and a pool
  of ``workers`` threads holds at most ``workers`` plans, which must fit
  ``MAX_QUANTILE_BYTES`` together.

``sidak_quantile``, the closed form for independent coordinates, bounds
``q(alpha, R)`` from above for every ``R`` (Sidak 1967) and equals it at
identity ``R``, which makes it the natural test oracle.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OutOfRangeError,
)

__all__ = [
    "check_alpha",
    "check_draws_and_seed",
    "inv_norm_cdf",
    "two_sided_quantile",
    "norm_cdf",
    "norm_pdf",
    "sidak_quantile",
    "CorrelationMatrix",
    "QuantileRequest",
    "QuantileResult",
    "max_abs_quantile",
    "max_abs_quantiles",
    "planned_bytes",
    "check_budget",
    "DEFAULT_DRAWS",
    "MIN_DRAWS",
    "MAX_QUANTILE_BYTES",
]

DEFAULT_DRAWS = 200_000
MIN_DRAWS = 1_000
# memory budget of one quantile request's allocations, in bytes (see planned_bytes)
MAX_QUANTILE_BYTES = 1 << 30

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    x = float(x)
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def inv_norm_cdf(p: float) -> float:
    """Standard normal inverse CDF (Wichura's AS 241, via
    :class:`statistics.NormalDist`), accurate to a few units in the last place.

    Raises
    ------
    OutOfRangeError
        If ``p`` is not strictly inside ``(0, 1)`` (NaN included).
    """
    p = float(p)
    if not (0.0 < p < 1.0):  # NaN fails both comparisons
        raise OutOfRangeError(p)
    return _STANDARD_NORMAL.inv_cdf(p)


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float.  Raises :class:`OutOfRangeError` unless
    ``0 < alpha < 1``, and ``ValueError`` when ``alpha / 2`` rounds to 0,
    which leaves no tail to invert."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):  # NaN fails both comparisons
        raise OutOfRangeError(alpha, "alpha")
    if alpha / 2.0 == 0.0:
        raise ValueError(f"alpha = {alpha!r} is too small: the smallest alpha accepted is 1e-323")
    return alpha


def _index(value, name: str) -> int:
    """``value`` as an int by ``operator.index``, which refuses a float that
    ``int`` would truncate; ``ValueError`` naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_draws_and_seed(draws: int, seed: int) -> tuple[int, int]:
    """``draws`` and ``seed`` as ints (see :func:`_index`); ``ValueError``
    unless ``draws >= MIN_DRAWS`` and ``seed >= 0``."""
    draws, seed = _index(draws, "draws"), _index(seed, "seed")
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be >= {MIN_DRAWS}, got {draws}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return draws, seed


def two_sided_quantile(alpha: float) -> float:
    """``z_{1-alpha/2}`` as ``-inv_norm_cdf(alpha / 2)``: the lower tail keeps
    every digit at small ``alpha``, where the upper tail's probability rounds
    (to 1.0 below about 1.1e-16).  ``alpha`` must pass :func:`check_alpha`."""
    return -inv_norm_cdf(check_alpha(alpha) / 2.0)


def sidak_quantile(alpha: float, dim: int) -> float:
    """Equicoordinate quantile for ``dim`` independent coordinates.

    Closed form: :func:`two_sided_quantile` at the per-coordinate level
    ``1 - (1 - alpha)**(1/dim)``, taken by ``expm1`` and ``log1p`` so that
    small ``alpha`` keeps its digits.
    """
    alpha = check_alpha(alpha)
    dim = int(dim)
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    return two_sided_quantile(-math.expm1(math.log1p(-alpha) / dim))


# ---------------------------------------------------------------------------
# Equicoordinate quantile: request, tiers, result
# ---------------------------------------------------------------------------

# rows per Monte Carlo chunk; each chunk is one stream, so this fixes the streams.
# The default 200,000 draws are 8 equal chunks, which 2 or 4 workers share evenly.
_CHUNK = 25_000
# the chunks of Monte Carlo requests up to this dimension share the cores, in
# blocks whose product stays under the 2**19 multiply-adds at which OpenBLAS
# threads one
_POOL_DIM = 90
_JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_CORR_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated correlation matrix, from an array or anything with ``values``:
    symmetric, unit diagonal, entries clamped into ``[-1, 1]``."""

    values: np.ndarray

    def __post_init__(self):
        values = getattr(self.values, "values", self.values)
        r = np.array(values, dtype=float, copy=True)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
            raise DimensionMismatchError(
                f"correlation matrix must be square and non-empty, got shape {r.shape}"
            )
        if not np.all(np.isfinite(r)):
            raise ValueError("correlation matrix has non-finite entries")
        bad = np.argwhere(np.abs(r) > 1.0 + _CORR_TOL)
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"correlation entry ({i}, {j}) = {r[i, j]} lies outside [-1, 1]"
            )
        if np.max(np.abs(np.diagonal(r) - 1.0)) > _CORR_TOL:
            raise ValueError("correlation matrix diagonal must be all ones")
        if np.max(np.abs(r - r.T)) > _CORR_TOL:
            raise ValueError("correlation matrix must be symmetric")
        object.__setattr__(self, "values", _normalised(r))

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "CorrelationMatrix":
        """The matrix of ``values``, unchecked: a correlation the program
        computed itself and passed through :func:`_normalised`."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", values)
        return matrix

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _normalised(r: np.ndarray) -> np.ndarray:
    """The square matrices on the last two axes of ``r`` made exactly
    symmetric, clipped into ``[-1, 1]`` and given a unit diagonal."""
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    np.clip(r, -1.0, 1.0, out=r)
    diagonal = np.arange(r.shape[-1])
    r[..., diagonal, diagonal] = 1.0
    return r


def _block_rows(dim: int, pooled: bool) -> int:
    """Rows of one product of normals by the Cholesky factor.  On a thread
    pool (up to ``_POOL_DIM``), at most 256 KiB of float64 and fewer than
    ``2**19`` multiply-adds, ``min(2**15 // dim, (2**19 - 1) // dim**2)``
    rows (64 at dim 90), so OpenBLAS runs each product on the drawing
    thread and the pool's threads keep the cores; it threads a product of
    exactly ``2**19``, as ``2**19 // dim**2`` rows give at dims 16, 32 and
    64.  On the calling thread, 256 KiB below dim 16 (the same blocks) and
    1 MiB from it, where larger blocks gain: on one core of a 2-core VM,
    64-row blocks drew a dim-90 request 8% slower.  The stream is read in
    blocks of :func:`_read_rows`."""
    if pooled:
        return min((1 << 15) // dim, ((1 << 19) - 1) // (dim * dim))
    return max(1, (1 << 15 if dim < 16 else 1 << 17) // dim)


def _read_rows(dim: int, rows: int) -> int:
    """Rows of one read of a chunk's stream whose products hold ``rows``
    rows: the most whole products within 256 KiB of float64, and at least
    one.  A read holds more than one product only on the pool from dim 32
    (five products of 64 rows at dim 90): normals read in large blocks
    cost about 10 ns each, against about 14 ns when each 64-row product
    reads its own (numpy 2.4 on a 2-core Xeon VM)."""
    return rows * max(1, (1 << 15) // dim // rows)


def planned_bytes(dim: int, draws: int) -> int:
    """Peak bytes a quantile request of this shape allocates, besides the
    caller's matrix.

    The Monte Carlo tier counts ``draws`` float64 maxima; blocks of
    ``min(draws, rows) x dim`` float64 (:func:`_block_rows`): three of the
    calling thread's (a block's normals, their correlated image and one
    to spare) or, if more, two of the pool's for each of the
    ``min(cores, chunks)`` threads that may draw the request up to dim 90
    (see :func:`max_abs_quantile`) and one; and four ``dim x dim`` float64
    matrices: the validated correlation, a jittered candidate, its
    Cholesky factor and the copy that LAPACK factors in place.  Validation
    peaks earlier, at three such matrices.  The exact tiers (dims 1 and 2)
    need a few hundred bytes, counted as 0.  In a batch's pool each worker
    draws one chunk at a time, and the pool holds the maxima and matrices
    of only the requests whose chunks it draws, so ``workers`` plans bound
    its peak (:func:`max_abs_quantiles`).  This bounds the ``tracemalloc``
    peak, not resident memory: what BLAS and LAPACK take on first use lies
    outside the plan (a dim-90 request raised a fresh process's RSS by
    11.7 MB against 5.0 MB).
    """
    if dim <= 2:
        return 0
    blocks = 3 * min(draws, _block_rows(dim, pooled=False))
    threads = min(_cores(), _chunks(draws)) if dim <= _POOL_DIM else 1
    if threads > 1:
        read = _read_rows(dim, _block_rows(dim, pooled=True))
        blocks = max(blocks, (2 * threads + 1) * min(draws, read))
    return 8 * (draws + blocks * dim + 4 * dim * dim)


def check_budget(dim: int, draws: int) -> None:
    """Raise ``ValueError`` if :func:`planned_bytes` exceeds ``MAX_QUANTILE_BYTES``."""
    planned = planned_bytes(dim, draws)
    if planned > MAX_QUANTILE_BYTES:
        raise ValueError(
            f"a quantile of dimension {dim} with {draws} draws needs {planned:,} bytes, "
            f"over the budget of {MAX_QUANTILE_BYTES:,}; use fewer draws or a smaller set"
        )


@dataclass(frozen=True, eq=False)
class QuantileRequest:
    """Inputs for one quantile: level, correlation, budget and seed.

    The dimension picks the tier (:attr:`tier`).  ``draws`` and ``seed``
    only matter when simulating, but are checked at every dimension.
    ``corr`` is validated unless it is a :class:`CorrelationMatrix`.
    A simulation is rejected with
    ``ValueError`` when ``alpha * draws < 1`` (``q`` would be the largest
    draw) or when its plan (:func:`planned_bytes`) exceeds
    ``MAX_QUANTILE_BYTES``; the plan is checked on the shape of ``corr``,
    before validation copies it.
    """

    alpha: float
    corr: np.ndarray
    draws: int = DEFAULT_DRAWS
    seed: int = 0

    def __post_init__(self):
        alpha = check_alpha(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        draws = _index(self.draws, "draws")
        shape = np.shape(getattr(self.corr, "values", self.corr))
        if len(shape) == 2 and shape[0] == shape[1]:
            check_budget(shape[0], draws)  # before validation copies the matrix
        valid = isinstance(self.corr, CorrelationMatrix)
        corr = self.corr if valid else CorrelationMatrix(self.corr)
        object.__setattr__(self, "corr", corr.values)
        draws, seed = check_draws_and_seed(draws, self.seed)
        if self.tier == "monte_carlo" and alpha * draws < 1.0:
            needed = 1.0 / alpha  # inf for alpha below about 5.6e-309
            raise ValueError(
                f"alpha = {alpha!r} needs at least {math.ceil(needed) if needed < math.inf else needed:,}"
                f" draws (alpha * draws >= 1) to simulate its quantile, got {draws:,}"
            )
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "seed", seed)

    @property
    def dim(self) -> int:
        return self.corr.shape[0]

    @property
    def tier(self) -> str:
        """The tier that answers this request: ``"normal"`` at dim 1,
        ``"bivariate"`` at dim 2 and ``"monte_carlo"`` above."""
        return {1: "normal", 2: "bivariate"}.get(self.dim, "monte_carlo")


@dataclass(frozen=True)
class QuantileResult:
    """One equicoordinate quantile, its uncertainty and the tier behind it.

    ``method`` is the request's tier: ``"normal"``, ``"bivariate"`` or
    ``"monte_carlo"``.  A simulated ``q`` carries its Monte Carlo standard
    error in ``mc_stderr``, and ``jitter`` records the diagonal inflation
    (0.0 when none was needed) so callers can see when the correlation
    matrix was rank-deficient.  A bivariate ``q`` carries a bound on its
    numerical error in ``mc_stderr`` (positive, at least one ulp of ``q``),
    and a normal ``q`` is ``two_sided_quantile(alpha)`` with ``mc_stderr``
    0.0.  Only a simulated ``q`` has ``draws > 0`` or ``jitter > 0``.
    """

    q: float
    mc_stderr: float
    alpha: float
    dim: int
    draws: int
    seed: int
    jitter: float
    method: str


def max_abs_quantile(request: QuantileRequest) -> QuantileResult:
    """``q`` with ``P[max_j |z_j| < q] = 1 - alpha``, ``z ~ N(0, R)``, from
    the request's tier (see :class:`QuantileRequest`).

    A dim-2 request is the batch of one of :func:`max_abs_quantiles`: the
    same solve, so the same ``q`` and ``mc_stderr`` bit for bit.  A
    simulated request of dimension up to 90 and more than 25,000 draws
    has its chunks drawn on a thread pool made for this call, as a
    batch's are (see :func:`max_abs_quantiles`): ``min(cores, chunks)``
    workers, if that is two or more and that many of its
    :func:`planned_bytes` fit ``MAX_QUANTILE_BYTES``.  The result is the
    serial draw's, bit for bit.

    Raises
    ------
    NotPositiveSemidefiniteError
        If a simulated ``R`` admits no Cholesky factor after the jitter
        ladder.
    """
    if request.tier == "bivariate":
        return _bivariate_quantiles([request])[0]
    if request.tier == "normal":
        return _result(request, None)
    drawn = _pooled_draws([request])
    return _result(request, _drawn(drawn[0]) if drawn else _monte_carlo_quantile(request))


def max_abs_quantiles(requests: Sequence[QuantileRequest]) -> list[QuantileResult]:
    """:func:`max_abs_quantile` of every request, in request order.

    The dim-2 requests are answered together, by one vectorized root-find
    over all their ``(alpha, rho)``.  When the list holds two or more
    simulated requests, the chunks of those of dimension up to 90 (25,000
    draws each, one stream) are the units of work of a thread pool
    made for this call, if the process may run on two or more cores and
    there are two or more chunks; it has ``min(cores, chunks)`` workers.
    The pool multiplies the normals in products of at most 256 KiB and
    fewer than ``2**19`` multiply-adds (:func:`_block_rows`), which
    OpenBLAS runs on the drawing thread; it threads larger products
    itself, and its threads would take the cores the pool needs.  The
    workers take the chunks in request order; the first of a request's
    chunks to start factors ``R`` and the last to finish reads its maxima,
    so the pool holds the maxima of at most ``workers`` requests.  A
    request joins the pool only while ``workers`` times its
    :func:`planned_bytes` is within ``MAX_QUANTILE_BYTES``, which bounds
    the pool's peak.  Every other request is answered by
    :func:`max_abs_quantile`, once the pool is done; so is a lone
    simulated request, whose chunks it pools itself.

    A result is the one its request gets alone, bit for bit, whatever
    shares its batch: each element of the solve follows its own steps,
    and each simulated request reads its own chunk streams whatever thread
    draws them.  Raises what :func:`max_abs_quantile` raises: a dim-2
    request's error before any other request is answered, then the
    first failing request's, in request order.
    """
    requests = list(requests)
    pairs = [r for r in requests if r.tier == "bivariate"]
    solved = iter(_bivariate_quantiles(pairs) if pairs else ())
    # a lone simulated request is max_abs_quantile's, which pools its chunks itself
    drawn = _pooled_draws(requests) if sum(r.tier == "monte_carlo" for r in requests) > 1 else {}
    return [
        next(solved) if r.tier == "bivariate"
        else _result(r, _drawn(drawn[k])) if k in drawn
        else max_abs_quantile(r)
        for k, r in enumerate(requests)
    ]


def _result(request: QuantileRequest, found: tuple[float, float, float] | None) -> QuantileResult:
    """The result of ``request`` given its ``(q, mc_stderr, jitter)``, or of a
    dim-1 request (``found`` is ``None``); ``draws`` and ``method`` follow
    from the request's tier."""
    q, mc_stderr, jitter = found or (two_sided_quantile(request.alpha), 0.0, 0.0)
    return QuantileResult(
        q=q,
        mc_stderr=mc_stderr,
        alpha=request.alpha,
        dim=request.dim,
        draws=request.draws if request.tier == "monte_carlo" else 0,
        seed=request.seed,
        jitter=jitter,
        method=request.tier,
    )


def _substream(seed: int, *key: int) -> np.random.Generator:
    """The Philox generator of substream ``key`` of ``seed``.  Keys in use:
    ``(rep, 0)`` for the sample of coverage replication ``rep``;
    ``(rep, 1 + i)`` for the quantile seed of its joint set ``i``; and
    ``(0xF17, 0, 0)`` for the sample ``OneNNRule.train`` fits.  Key
    ``(chunk,)`` seeds chunk ``chunk`` of a simulated quantile of seed
    ``seed``, which draws from SFC64 instead (:func:`_chunk_stream`).  Each
    use has keys of its own length, so no two share a seed sequence while
    every index is below ``2**32`` (numpy splits a larger one into words)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *key)))


def _chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """The SFC64 generator of chunk ``chunk`` of a simulated quantile of
    seed ``seed``, from the seed sequence of key ``(chunk,)``.  Normals are
    most of a draw's time, and SFC64's cost about 63% of Philox's (numpy
    2.4 on a 2-core Xeon VM)."""
    return np.random.Generator(np.random.SFC64(_seed_sequence(seed, chunk)))


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of key ``key`` of ``seed`` (:func:`_substream`)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux; the CPU affinity set by taskset
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_draws(requests: list[QuantileRequest]) -> dict:
    """``{position: (q, mc_stderr, jitter), or the error it raised}`` for
    the simulated requests whose chunks are drawn on a thread pool; empty
    when the pool would have fewer than two workers (see
    :func:`max_abs_quantiles`).

    Every chunk of every pooled request is submitted at once, in request
    and chunk order, and the workers take them in that order
    (:class:`_ChunkedDraw`).  The workers call only private functions,
    and the pool is shut down, its threads joined, before this returns.
    """
    small = [k for k, r in enumerate(requests) if r.tier == "monte_carlo" and r.dim <= _POOL_DIM]
    workers = min(_cores(), sum(_chunks(requests[k].draws) for k in small))
    pooled = [k for k in small
              if workers * planned_bytes(requests[k].dim, requests[k].draws) <= MAX_QUANTILE_BYTES]
    workers = min(workers, sum(_chunks(requests[k].draws) for k in pooled))
    if workers < 2:
        return {}
    from concurrent.futures import ThreadPoolExecutor  # its import costs milliseconds

    draws = {k: _ChunkedDraw(requests[k], pooled=True) for k in pooled}
    if len(draws) == 1:
        # the calling thread starts a lone request, so that its maxima come from
        # its own heap, as when drawn serially: a worker's malloc arena kept them
        [(k, lone)] = draws.items()
        try:
            lone.start()
        except NotPositiveSemidefiniteError as error:
            return {k: error}
    with ThreadPoolExecutor(workers) as pool:
        chunks = {k: [pool.submit(d.draw, chunk) for chunk in range(d.chunks)] for k, d in draws.items()}
    found = {}
    for k, done in chunks.items():
        errors = [e for e in (chunk.exception() for chunk in done) if e is not None]
        found[k] = errors[0] if errors else draws[k].found
    return found


def _drawn(found: tuple[float, float, float] | Exception) -> tuple[float, float, float]:
    """A pooled request's ``(q, mc_stderr, jitter)``; raises its error if it failed."""
    if isinstance(found, Exception):
        raise found
    return found


def _chunks(draws: int) -> int:
    """Chunks of ``_CHUNK`` draws, the last one partial, in ``draws`` draws."""
    return len(range(0, draws, _CHUNK))


# ---------------------------------------------------------------------------
# Monte Carlo tier
# ---------------------------------------------------------------------------


def _cholesky_with_jitter(r: np.ndarray) -> tuple[np.ndarray, float]:
    for eps in _JITTERS:
        if eps == 0.0:
            candidate = r
        else:
            # inflate the diagonal, then rescale so it is a correlation again
            candidate = (r + eps * np.eye(r.shape[0])) / (1.0 + eps)
        try:
            return np.linalg.cholesky(candidate), eps
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveSemidefiniteError(
        f"Cholesky failed even with diagonal jitter up to {_JITTERS[-1]:g}"
    )


def _monte_carlo_quantile(request: QuantileRequest) -> tuple[float, float, float]:
    """Empirical quantile of ``request.draws`` simulated maxima, as
    ``(q, mc_stderr, jitter)``, drawn chunk by chunk on the calling thread."""
    drawing = _ChunkedDraw(request, pooled=False)
    for chunk in range(drawing.chunks):
        drawing.draw(chunk)
    return drawing.found


class _ChunkedDraw:
    """A simulated request, drawn one chunk at a time on any thread.

    Draws are generated in chunks of ``_CHUNK`` rows, each from its own
    stream of ``request.seed`` (:func:`_draw_chunk`), so the result is
    reproducible as long as ``_CHUNK`` stays fixed, and is the same
    whichever thread draws each chunk, in whatever order.  The
    first chunk to start factors ``R`` and allocates the maxima, unless
    :meth:`start` did, and the last to finish reads them into ``found``,
    ``(q, mc_stderr, jitter)``, and lets them go.  So a request holds its
    maxima only from its start until its last chunk is drawn: a pool that
    takes chunks in request order holds at most ``workers`` requests'
    maxima.  A chunk that fails raises, and ``found`` is then not the
    request's result.
    """

    def __init__(self, request: QuantileRequest, pooled: bool):
        self.request = request
        self.rows = _block_rows(request.dim, pooled)
        self.chunks = _chunks(request.draws)
        self.left = self.chunks
        self.lock = threading.Lock()
        self.factor = self.maxima = self.jitter = self.found = None

    def start(self) -> None:
        """Factor ``R`` and allocate the maxima, unless a chunk already did."""
        with self.lock:  # a chunk that starts while another one factors R waits here
            if self.maxima is None:
                self.factor, self.jitter = _cholesky_with_jitter(self.request.corr)
                self.maxima = np.empty(self.request.draws)

    def draw(self, chunk: int) -> None:
        """Draw chunk ``chunk`` into its slice of the maxima."""
        request = self.request
        self.start()
        maxima, first = self.maxima, chunk * _CHUNK
        try:
            _draw_chunk(self.factor, request.seed, chunk, maxima[first : first + _CHUNK], self.rows)
        finally:
            with self.lock:
                self.left -= 1
                last = not self.left
                if last:
                    self.factor = self.maxima = None
        if last:
            self.found = (*_order_statistics(maxima, request.alpha), self.jitter)


def _draw_chunk(factor: np.ndarray, seed: int, chunk: int, out: np.ndarray, rows: int) -> None:
    """Write into ``out`` the maxima ``max_j |x_j|`` of ``len(out)`` draws
    of ``x = factor @ z``, the normals ``z`` from the SFC64 stream of chunk
    ``chunk`` of ``seed`` (:func:`_chunk_stream`).

    The stream is read in consecutive blocks of :func:`_read_rows` rows,
    which give the draws of one read of the whole chunk, so the block size
    moves no draw.  Each read is correlated in products of ``rows`` rows
    (:func:`_block_rows`), each writing its columns of one ``(dim, read)``
    image, so the max over coordinates is one elementwise reduction per
    read; every product holds the columns it would in blocks of ``rows``
    alone, so no maximum moves either.  The normals and their image are
    written into two buffers allocated once per chunk: a pool worker that
    allocated them per block kept more memory in its thread's malloc arena.
    """
    dim, draws = factor.shape[0], len(out)
    rng = _chunk_stream(seed, chunk)
    read = min(draws, _read_rows(dim, rows))
    normals, image = np.empty(read * dim), np.empty(read * dim)
    for start in range(0, draws, read):
        n = min(draws, start + read) - start
        z = rng.standard_normal(out=normals[: n * dim].reshape(n, dim))
        sample = image[: n * dim].reshape(dim, n)
        for first in range(0, n, rows):
            np.matmul(factor, z[first : first + rows].T, out=sample[:, first : first + rows])
        np.abs(sample, out=sample).max(axis=0, out=out[start : start + n])


def _order_statistics(maxima: np.ndarray, alpha: float) -> tuple[float, float]:
    """``(q, mc_stderr)`` of the simulated maxima, which it reorders in place.

    ``q`` is the empirical ``1 - alpha`` quantile, and ``mc_stderr`` the
    usual order-statistic standard error: binomial noise of the empirical
    CDF divided by a density estimated over a window of about 1% of the
    draws around ``q``.  Both are read off the maxima from the window's
    lower end up, sorted: the values a full sort puts there.
    """
    draws = len(maxima)
    order = math.ceil((1.0 - alpha) * draws)
    order = min(draws, max(1, order))
    level = order / draws
    window = max(1, round(0.005 * draws))
    lo = max(0, order - 1 - window)
    hi = min(draws - 1, order - 1 + window)

    # one selection puts the lo-th smallest at lo and the larger ones above it,
    # and only those are sorted: at 200k maxima (numpy 2.4) 0.27 ms, against
    # 1.2 ms for a full sort and 2.9 ms for np.partition at lo, order - 1 and hi
    maxima.partition(lo)
    maxima[lo:].sort()
    q = float(maxima[order - 1])
    spread = float(maxima[hi] - maxima[lo])
    if spread > 0.0:
        density = ((hi - lo) / draws) / spread
        mc_stderr = math.sqrt(level * (1.0 - level) / draws) / density
    else:
        mc_stderr = 0.0

    return q, mc_stderr


# ---------------------------------------------------------------------------
# Bivariate tier
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per panel; width of the two end panels in conditional
# standard deviations; cap on root-finding steps
_GL_NODES = 24
_END_PANEL = 10.0
_MAX_STEPS = 100
# relative rounding allowance of one quadrature sum, counted in the error bound
_ROUNDING = 3 * _GL_NODES * sys.float_info.epsilon


@functools.cache
def _panels(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x_q, x_edge, w_q, w_edge)``: the nodes of :func:`_box_miss` are
    ``q x_q + edge x_edge`` and their weights ``q w_q + edge w_edge``.

    Three Gauss-Legendre panels of ``nodes`` points each cover
    ``[-q, -q + edge]``, ``[-q + edge, q - edge]`` and ``[q - edge, q]``;
    a last node at ``x = q`` has weight 0 and gives the slope its
    conditional probability.  The weights carry the integrand's constant
    factor ``1 / (2 sqrt(2 pi))``.

    The ``m = 3 nodes`` panel nodes are exact mirrors: node ``m - 1 - j``
    has ``x_q`` and ``x_edge`` the negatives of node ``j``'s, bit for bit,
    so its ``x`` is ``-x`` at every ``(q, edge)``, as rounding is
    symmetric.  The Legendre points are made exact negatives of each other
    to hold this; numpy's ``leggauss`` gives them so, and then that
    changes no bit.
    """
    # built on first use: importing numpy.polynomial costs milliseconds
    t, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (t - t[::-1])  # exact negatives, as a - b is -(b - a) in floating point
    w = w / (2.0 * _SQRT_2PI)
    ones, zeros = np.ones(nodes), np.zeros(nodes)
    x_q = np.concatenate([-ones, t, ones, [1.0]])
    x_edge = np.concatenate([0.5 * (1.0 + t), -t, -0.5 * (1.0 - t), [0.0]])
    w_q = np.concatenate([zeros, w, zeros, [0.0]])
    w_edge = np.concatenate([0.5 * w, -w, 0.5 * w, [0.0]])
    return x_q, x_edge, w_q, w_edge


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` of every element of ``x``, mapped over a list."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _box_miss(
    q: np.ndarray, r: np.ndarray, s: np.ndarray, nodes: int = _GL_NODES
) -> tuple[np.ndarray, np.ndarray]:
    """``(miss, slope)``: ``miss = P[max(|X|, |Y|) >= q]`` for standard
    normals with correlation ``r`` in ``[0, 1)`` and ``s = sqrt(1 - r^2)``,
    and ``slope = 4 phi(q) [Phi(q (1 - r) / s) - Phi(-q (1 + r) / s)]``,
    its rate of decrease in ``q``; elementwise over arrays of ``(q, r, s)``.

    ``miss`` is ``P[|X| >= q]`` plus the integral over ``|x| < q`` of
    ``phi(x) P[|Y| >= q | X = x]``, with ``Y | X = x ~ N(r x, s^2)``.
    Every term is a tail probability, so the sum keeps its relative
    accuracy when ``alpha`` is small.  The integrand turns over a scale
    of ``s`` next to ``x = +-q``, so each end gets its own Gauss-Legendre
    panel, ``edge = _END_PANEL * s`` wide (at most ``q``), and a third
    panel covers the middle (:func:`_panels`).  ``slope`` is
    ``4 phi(q) P[|Y| < q | X = q]``.  Each element's nodes are summed on
    their own row, so no element depends on the others.

    ``P[|Y| >= q | X = x]`` is ``erfc((q - r x) / (s sqrt 2)) / 2`` plus
    ``erfc((q + r x) / (s sqrt 2)) / 2``.  The panel nodes are mirrors
    (:func:`_panels`), and ``r (-x)`` is ``-(r x)``, so the second term at
    a panel node is the first at its mirror, bit for bit.  One erfc call
    takes the first term at every node, the second at the slope node and
    ``erfc(q / sqrt 2)``: ``3 nodes + 3`` values per element, not
    ``6 nodes + 3``.
    """
    x_q, x_edge, w_q, w_edge = _panels(nodes)
    m = 3 * nodes  # the panel nodes; the slope node is node m
    q_, edge = q[:, np.newaxis], np.minimum(q, _END_PANEL * s)[:, np.newaxis]
    x = q_ * x_q + edge * x_edge
    rx = r[:, np.newaxis] * x
    shifted = np.concatenate([q_ - rx, q_ + rx[:, m:]], axis=1) / (s * _SQRT2)[:, np.newaxis]
    tails = _erfc(np.concatenate([shifted, q_ / _SQRT2], axis=1))
    minus = tails[:, : m + 1]  # erfc((q - r x) / (s sqrt 2)) at every node
    plus = np.concatenate([minus[:, m - 1 :: -1], tails[:, m + 1 : m + 2]], axis=1)  # of q + r x
    twice = minus + plus  # 2 P[|Y| >= q | X = x]
    density = np.exp(-0.5 * x * x)  # sqrt(2 pi) phi(x)
    inside = ((q_ * w_q + edge * w_edge) * density * twice).sum(axis=1)
    slope = density[:, -1] * (2.0 - twice[:, -1]) * (2.0 / _SQRT_2PI)
    return tails[:, -1] + inside, slope


def _bivariate_quantiles(requests: Sequence[QuantileRequest]) -> list[QuantileResult]:
    """The dim-2 quantiles of ``requests``, each with a bound on its error,
    from one vectorized solve of ``_box_miss(q) = alpha``.

    Each element starts from the scalar quantile (the root at
    ``|rho| = 1``) and takes Newton steps on ``log _box_miss(q)``, whose
    derivative is minus the slope over the miss: the tail's curvature is
    mostly in that log, so the steps take fewer evaluations than on the
    miss itself.  The steps stay inside a bracket, the last points on
    either side of the root, which starts as the scalar and the Bonferroni
    quantiles (an upper bound at every ``rho``).  A step past the bracket
    tries its upper end, and one below it bisects it.  An element is done
    when its step no longer moves ``q``, when its bracket is down to
    adjacent floats, or once its residual is within ``_ROUNDING * alpha``
    and a step fails to lower it; it keeps the point of smallest residual.
    The bound is that residual plus the quadrature error estimate (the
    change from doubling the nodes, plus a rounding allowance), divided by
    the slope, and is at least ``ulp(q)``.  At ``|rho| = 1`` the pair is
    one coordinate and ``q`` the scalar quantile.  Every step is
    elementwise, so an element's steps and result do not depend on the
    other elements.
    """
    for request in requests:
        if request.alpha < 1.5e-323:  # the Bonferroni bracket's alpha / 4 rounds to 0
            raise ValueError(f"alpha = {request.alpha!r} is too small for a joint pair: "
                             "the smallest alpha a joint pair accepts is 1.5e-323")
    alpha = np.array([request.alpha for request in requests], dtype=float)
    r = np.abs(np.array([request.corr[0, 1] for request in requests], dtype=float))
    s = np.sqrt((1.0 - r) * (1.0 + r))
    q = np.array([two_sided_quantile(a) for a in alpha.tolist()])
    bonferroni = np.array([two_sided_quantile(a / 2.0) for a in alpha.tolist()])
    flat = s == 0.0  # one coordinate repeated: the scalar quantile
    excess = _erfc(q / _SQRT2) - alpha  # _box_miss(q) - alpha, decreasing in q; right where flat
    slope = 2.0 * np.exp(-0.5 * q * q) / _SQRT_2PI

    # the elements still stepping, as compact arrays; idx maps them back
    idx = np.flatnonzero(~flat)
    at, lo, hi = q[idx], q[idx], bonferroni[idx]
    best, least = q[idx], np.full(idx.size, math.inf)
    a, ra, sa, tol = alpha[idx], r[idx], s[idx], _ROUNDING * alpha[idx]
    for _ in range(_MAX_STEPS):
        if not idx.size:
            break
        miss, rate = _box_miss(at, ra, sa)
        fx = miss - a
        better = np.abs(fx) < np.abs(least)
        np.copyto(best, at, where=better)
        np.copyto(least, fx, where=better)
        above = fx > 0.0
        np.copyto(lo, at, where=above)
        np.copyto(hi, at, where=~above)
        newton = at + np.log(miss / a) * miss / rate
        done = newton == at  # the step is below an ulp of q
        done |= np.nextafter(lo, hi) >= hi  # the bracket is down to adjacent floats
        done |= ~better & (np.abs(least) <= tol)
        # a step past hi tries hi, which starts as the Bonferroni quantile: at
        # small alpha and |rho| the root can round to it; one below lo bisects
        at = np.minimum(newton, hi)
        np.copyto(at, (lo + hi) / 2.0, where=at <= lo)
        if done.any():
            q[idx[done]], excess[idx[done]] = best[done], least[done]
            keep = ~done
            idx, at, lo, hi, best = idx[keep], at[keep], lo[keep], hi[keep], best[keep]
            least, a, ra, sa, tol = least[keep], a[keep], ra[keep], sa[keep], tol[keep]
    q[idx], excess[idx] = best, least  # any left at the step cap

    miss = excess + alpha
    # below the smallest normal float, sums round in absolute steps
    quadrature = _ROUNDING * np.maximum(miss, sys.float_info.min)
    curved = ~flat
    if curved.any():
        fine, slope[curved] = _box_miss(q[curved], r[curved], s[curved], 2 * _GL_NODES)
        quadrature[curved] += np.abs(miss[curved] - fine)
    bound = np.maximum(np.spacing(q), (np.abs(excess) + quadrature) / slope)
    return [_result(request, (qk, bk, 0.0)) for qk, bk, request in zip(q.tolist(), bound.tolist(), requests)]
