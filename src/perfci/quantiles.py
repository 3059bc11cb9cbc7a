"""Gaussian quantiles: two-sided normal and equicoordinate max-|z| quantiles.

Two quantile notions drive every interval in this package:

* ``two_sided_quantile`` -- ``z_{1-alpha/2}``, for the variance-correction
  magnitude and the dim-1 tier below, from the lower tail of
  ``inv_norm_cdf``: the standard library's :meth:`statistics.NormalDist.inv_cdf`
  (Wichura's AS 241, Applied Statistics 37, 1988), good to a few ulps.

* ``max_abs_quantile`` -- the two-sided equicoordinate quantile
  ``q(alpha, R)`` with ``P[max_j |z_j| < q] = 1 - alpha`` for
  ``z ~ N(0, R)``.  The dimension of ``R`` picks one of three tiers:

  - ``"normal"`` (dim 1): ``two_sided_quantile(alpha)``, exact.  Individual
    intervals are dim-1 requests too.
  - ``"bivariate"`` (dim 2): exact up to quadrature.  The box
    probability is one integral over the first coordinate (Drezner &
    Wesolowsky 1990; Genz 2004), evaluated by Gauss-Legendre on three
    panels, and ``q`` is its root by Illinois regula falsi between the
    scalar and the Bonferroni quantiles.  ``mc_stderr`` is then an error
    bound on ``q``, not a standard error.
  - ``"monte_carlo"`` (dim 3 and above): Cholesky-factor ``R``
    (with a small jitter ladder for rank-deficient matrices), draw
    correlated Gaussian vectors in fixed-size chunks with counter-based
    substreams so results are reproducible for a given seed, and read
    the empirical quantile off the sorted maxima.  Each chunk's
    substream is drawn in blocks of about 1 MiB, so a request holds its
    ``draws`` maxima, a few blocks and its ``dim x dim`` matrices, and
    its time grows as ``dim**2 * draws``.  ``mc_stderr`` is the
    usual order-statistic standard error: binomial noise of the
    empirical CDF divided by a local density estimate.

  The Monte Carlo tier's memory is planned from the request's shape
  before anything is allocated (:func:`planned_bytes`); a request whose
  plan exceeds ``MAX_QUANTILE_BYTES`` is rejected.

``sidak_quantile``, the closed form for independent coordinates, bounds
``q(alpha, R)`` from above for every ``R`` (Sidak 1967) and equals it at
identity ``R``, which makes it the natural test oracle.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OutOfRangeError,
)

__all__ = [
    "check_alpha",
    "inv_norm_cdf",
    "two_sided_quantile",
    "norm_cdf",
    "norm_pdf",
    "sidak_quantile",
    "CorrelationMatrix",
    "QuantileRequest",
    "QuantileResult",
    "max_abs_quantile",
    "planned_bytes",
    "check_budget",
    "DEFAULT_DRAWS",
    "MIN_DRAWS",
    "MAX_QUANTILE_BYTES",
]

DEFAULT_DRAWS = 200_000
MIN_DRAWS = 1_000
# memory budget of one quantile request, in bytes (see planned_bytes)
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
        raise OutOfRangeError(alpha)
    if alpha / 2.0 == 0.0:
        raise ValueError(f"alpha = {alpha!r} is too small: the smallest alpha accepted is 1e-323")
    return alpha


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

# rows per Monte Carlo chunk; each chunk is one substream, so this fixes the streams
_CHUNK = 1 << 16
# bytes of one block of normals: a chunk's substream is drawn a block at a time
_BLOCK_BYTES = 1 << 20
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
        r = 0.5 * (r + r.T)
        np.clip(r, -1.0, 1.0, out=r)
        np.fill_diagonal(r, 1.0)
        object.__setattr__(self, "values", r)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _block_rows(dim: int) -> int:
    """Rows of one block of normals: about ``_BLOCK_BYTES`` of float64."""
    return max(1, _BLOCK_BYTES // (8 * dim))


def planned_bytes(dim: int, draws: int) -> int:
    """Peak bytes a quantile request of this shape allocates, besides the
    caller's matrix.

    The Monte Carlo tier counts ``draws`` float64 maxima; three blocks of
    ``min(draws, _block_rows(dim)) x dim`` float64 (a block's normals, their
    correlated image, and the last block's image, released when the next is
    assigned); and four ``dim x dim`` float64 matrices: the validated
    correlation, a jittered candidate, its Cholesky factor and the copy
    that LAPACK factors in place.  Validation peaks earlier, at three such
    matrices.  The exact tiers (dims 1 and 2) need a few hundred bytes,
    counted as 0.
    """
    if dim <= 2:
        return 0
    rows = min(draws, _block_rows(dim))
    return 8 * (draws + 3 * rows * dim + 4 * dim * dim)


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
        draws = int(self.draws)
        shape = np.shape(getattr(self.corr, "values", self.corr))
        if len(shape) == 2 and shape[0] == shape[1]:
            check_budget(shape[0], draws)  # before validation copies the matrix
        valid = isinstance(self.corr, CorrelationMatrix)
        corr = self.corr if valid else CorrelationMatrix(self.corr)
        object.__setattr__(self, "corr", corr.values)
        if draws < MIN_DRAWS:
            raise ValueError(f"draws must be >= {MIN_DRAWS}, got {draws}")
        if self.tier == "monte_carlo" and alpha * draws < 1.0:
            needed = 1.0 / alpha  # inf for alpha below about 5.6e-309
            raise ValueError(
                f"alpha = {alpha:g} needs at least {math.ceil(needed) if needed < math.inf else needed:,}"
                f" draws (alpha * draws >= 1) to simulate its quantile, got {draws:,}"
            )
        object.__setattr__(self, "draws", draws)
        seed = int(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
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

    Raises
    ------
    NotPositiveSemidefiniteError
        If a simulated ``R`` admits no Cholesky factor after the jitter
        ladder.
    """
    tier, jitter = request.tier, 0.0
    if tier == "normal":
        q, mc_stderr = two_sided_quantile(request.alpha), 0.0
    elif tier == "bivariate":
        q, mc_stderr = _bivariate_quantile(request.alpha, float(request.corr[0, 1]))
    else:
        q, mc_stderr, jitter = _monte_carlo_quantile(request)
    return QuantileResult(
        q=q,
        mc_stderr=mc_stderr,
        alpha=request.alpha,
        dim=request.dim,
        draws=request.draws if tier == "monte_carlo" else 0,
        seed=request.seed,
        jitter=jitter,
        method=tier,
    )


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
    ``(q, mc_stderr, jitter)``.

    Draws are generated in fixed-size chunks, each from its own
    counter-based substream of ``request.seed``, so the result is
    reproducible as long as ``_CHUNK`` stays fixed.  A chunk's generator
    is read in consecutive blocks of :func:`_block_rows` rows, which give
    the draws of one read of the whole chunk, so the block size moves no
    draw.  Each block is correlated in ``(dim, rows)`` layout, so the max
    over coordinates is an elementwise reduction.
    """
    factor, jitter = _cholesky_with_jitter(request.corr)
    draws, dim = request.draws, request.dim
    block = _block_rows(dim)
    maxima = np.empty(draws, dtype=float)
    for chunk_index, pos in enumerate(range(0, draws, _CHUNK)):
        seq = np.random.SeedSequence(entropy=request.seed, spawn_key=(chunk_index,))
        rng = np.random.Generator(np.random.Philox(seq))
        end = min(draws, pos + _CHUNK)
        for start in range(pos, end, block):
            stop = min(end, start + block)
            sample = factor @ rng.standard_normal((stop - start, dim)).T
            maxima[start:stop] = np.abs(sample, out=sample).max(axis=0)
    # one sort serves q and the window below; np.partition at those three
    # order statistics measured slower (numpy 2.4: 2.4 ms against 1.3 ms at 200k)
    maxima.sort()

    order = math.ceil((1.0 - request.alpha) * draws)
    order = min(draws, max(1, order))
    q = float(maxima[order - 1])

    level = order / draws
    window = max(1, round(0.005 * draws))
    lo = max(0, order - 1 - window)
    hi = min(draws - 1, order - 1 + window)
    spread = float(maxima[hi] - maxima[lo])
    if spread > 0.0:
        density = ((hi - lo) / draws) / spread
        mc_stderr = math.sqrt(level * (1.0 - level) / draws) / density
    else:
        mc_stderr = 0.0

    return q, mc_stderr, jitter


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

_erfc = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # built on first use: importing numpy.polynomial costs milliseconds
    return np.polynomial.legendre.leggauss(nodes)


def _box_miss(q: float, r: float, s: float, nodes: int = _GL_NODES) -> float:
    """``P[max(|X|, |Y|) >= q]`` for standard normals with correlation
    ``r`` in ``[0, 1)`` and ``s = sqrt(1 - r^2)``.

    It is ``P[|X| >= q]`` plus the integral over ``|x| < q`` of
    ``phi(x) P[|Y| >= q | X = x]``, with ``Y | X = x ~ N(r x, s^2)``.
    Every term is a tail probability, so the sum keeps its relative
    accuracy when ``alpha`` is small.  The integrand turns over a scale
    of ``s`` next to ``x = +-q``, so each end gets its own Gauss-Legendre
    panel, ``_END_PANEL * s`` wide (at most ``q``), and a third panel
    covers the middle.
    """
    t, w = _gauss_legendre(nodes)
    edge = min(q, _END_PANEL * s)
    ends = np.array([-q, -q + edge, q - edge, q])
    half = 0.5 * np.diff(ends)[:, np.newaxis]
    x = (0.5 * (ends[:-1] + ends[1:])[:, np.newaxis] + half * t).ravel()
    weights = (half * w).ravel()
    tails = _erfc(np.concatenate([q - r * x, q + r * x]) / (s * _SQRT2)).astype(float)
    given_x = 0.5 * (tails[: x.size] + tails[x.size :])
    inside = float(weights @ (np.exp(-0.5 * x * x) * given_x)) / _SQRT_2PI
    return math.erfc(q / _SQRT2) + inside


def _bivariate_quantile(alpha: float, rho: float) -> tuple[float, float]:
    """The dim-2 quantile for correlation ``rho`` and a bound on its error.

    Solves ``_box_miss(q) = alpha`` by Illinois regula falsi between the
    scalar quantile (the root at ``|rho| = 1``) and the Bonferroni
    quantile (an upper bound at every ``rho``).  The bound is the final
    residual plus the quadrature error estimate (the change from doubling
    the nodes, plus a rounding allowance), divided by the slope
    ``4 phi(q) [Phi(q (1 - r) / s) - Phi(-q (1 + r) / s)]`` of the box
    probability, and is at least ``ulp(q)``.
    """
    if alpha < 1.5e-323:  # the Bonferroni bracket's alpha / 4 rounds to 0
        raise ValueError(f"alpha = {alpha!r} is too small for a joint pair: "
                         "the smallest alpha a joint pair accepts is 1.5e-323")
    r = abs(rho)
    s = math.sqrt((1.0 - r) * (1.0 + r))
    z = two_sided_quantile(alpha)
    if s == 0.0:
        # one coordinate repeated: the scalar two-sided quantile
        miss = math.erfc(z / _SQRT2)
        return z, max(math.ulp(z), (abs(miss - alpha) + _ROUNDING * miss) / (2.0 * norm_pdf(z)))

    def excess(q: float) -> float:  # decreasing in q
        return _box_miss(q, r, s) - alpha

    a, b = z, two_sided_quantile(alpha / 2.0)  # Bonferroni
    fa, fb = excess(a), excess(b)
    q, fq = min((a, fa), (b, fb), key=lambda point: abs(point[1]))
    moved = 0  # which end the last step replaced: -1 lower, +1 upper
    for _ in range(_MAX_STEPS):
        if not (fa > 0.0 > fb):
            break  # an end is already a root, within rounding
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            break  # the bracket is down to adjacent floats
        fc = excess(c)
        if abs(fc) < abs(fq):
            q, fq = c, fc
        if fc > 0.0:
            a, fa = c, fc
            if moved == -1:
                fb *= 0.5  # Illinois: halve the stale end's value
            moved = -1
        elif fc < 0.0:
            b, fb = c, fc
            if moved == 1:
                fa *= 0.5
            moved = 1
        else:
            break
        if abs(fq) <= _ROUNDING * alpha:
            break

    miss = fq + alpha
    quadrature = abs(miss - _box_miss(q, r, s, 2 * _GL_NODES)) + _ROUNDING * miss
    slope = 4.0 * norm_pdf(q) * (norm_cdf(q * (1.0 - r) / s) - norm_cdf(-q * (1.0 + r) / s))
    return q, max(math.ulp(q), (abs(fq) + quadrature) / slope)
