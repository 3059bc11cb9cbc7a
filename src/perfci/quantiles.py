"""Gaussian quantiles: scalar inverse CDF and equicoordinate max-|z| quantile.

Two quantile notions drive every interval in this package:

* ``inv_norm_cdf`` -- the scalar standard-normal inverse CDF, used for
  individual intervals and for the variance-correction magnitude.  It is
  a rational approximation (Acklam's coefficients, three regimes) with
  one Halley refinement step against an independent ``erfc``-based CDF
  evaluation, giving absolute error near machine precision over the
  whole usable range.

* ``max_abs_quantile`` -- the two-sided equicoordinate quantile
  ``q(alpha, R)`` with ``P[max_j |z_j| < q] = 1 - alpha`` for
  ``z ~ N(0, R)``.  No closed form exists for general ``R``, so it is
  estimated by simulation: Cholesky-factor ``R`` (with a small jitter
  ladder for rank-deficient matrices), draw correlated Gaussian vectors
  in fixed-size chunks with counter-based substreams so results are
  reproducible for a given seed, and read the empirical quantile off the
  sorted maxima.  The returned ``mc_stderr`` is the usual order-statistic
  standard error: binomial noise of the empirical CDF divided by a local
  density estimate.

``sidak_quantile`` is the independent-case closed form; it upper-bounds
nothing and lower-bounds nothing in general, but for identity ``R`` the
simulated quantile must match it to Monte Carlo accuracy, which makes it
the natural test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OutOfRangeError,
)

__all__ = [
    "inv_norm_cdf",
    "norm_cdf",
    "norm_pdf",
    "sidak_quantile",
    "CorrelationMatrix",
    "QuantileRequest",
    "QuantileResult",
    "max_abs_quantile",
    "DEFAULT_DRAWS",
    "MIN_DRAWS",
]

DEFAULT_DRAWS = 200_000
MIN_DRAWS = 1_000

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation coefficients for the normal inverse CDF.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    x = float(x)
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p <= _P_HIGH:
        q = p - 0.5
        r = q * q
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
        ) / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def inv_norm_cdf(p: float, refine: bool = True) -> float:
    """Standard normal inverse CDF, accurate to ~1e-15 absolute.

    Parameters
    ----------
    p : float
        Probability strictly inside ``(0, 1)``.
    refine : bool
        Apply one Halley step against an ``erfc``-based CDF evaluation
        (default).  The raw rational approximation alone is good to
        about ``1.2e-9`` relative.

    Raises
    ------
    OutOfRangeError
        If ``p`` is not strictly inside ``(0, 1)`` (NaN included).
    """
    p = float(p)
    if not (0.0 < p < 1.0):  # NaN fails both comparisons
        raise OutOfRangeError(p)
    z = _acklam(p)
    # exp(z*z/2) overflows past |z| ~ 38; the approximation alone serves there
    if refine and abs(z) < 37.0:
        err = 0.5 * math.erfc(-z / _SQRT2) - p
        u = err * _SQRT_2PI * math.exp(0.5 * z * z)
        z -= u / (1.0 + 0.5 * z * u)
    return z


def sidak_quantile(alpha: float, dim: int) -> float:
    """Equicoordinate quantile for ``dim`` independent coordinates.

    Closed form ``inv_norm_cdf((1 + (1 - alpha)**(1/dim)) / 2)``; equals
    the scalar two-sided quantile at ``dim = 1``.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise OutOfRangeError(alpha)
    dim = int(dim)
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    return inv_norm_cdf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / dim)))


# ---------------------------------------------------------------------------
# Monte Carlo equicoordinate quantile
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16
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


@dataclass(frozen=True, eq=False)
class QuantileRequest:
    """Inputs for one simulated quantile: level, correlation, budget, seed."""

    alpha: float
    corr: np.ndarray
    draws: int = DEFAULT_DRAWS
    seed: int = 0

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (0.0 < alpha < 1.0):
            raise OutOfRangeError(alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "corr", CorrelationMatrix(self.corr).values)
        draws = int(self.draws)
        if draws < MIN_DRAWS:
            raise ValueError(f"draws must be >= {MIN_DRAWS}, got {draws}")
        object.__setattr__(self, "draws", draws)
        seed = int(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)

    @property
    def dim(self) -> int:
        return self.corr.shape[0]


@dataclass(frozen=True)
class QuantileResult:
    """Simulated quantile plus its Monte Carlo uncertainty.

    ``jitter`` records the diagonal inflation (0.0 when none was needed)
    so callers can see when the correlation matrix was rank-deficient.
    """

    q: float
    mc_stderr: float
    alpha: float
    dim: int
    draws: int
    seed: int
    jitter: float


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


def max_abs_quantile(request: QuantileRequest) -> QuantileResult:
    """Simulate ``q`` with ``P[max_j |z_j| < q] = 1 - alpha``, ``z ~ N(0, R)``.

    Draws are generated in fixed-size chunks, each from its own
    counter-based substream of ``request.seed``, so the result is
    reproducible and independent of chunking internals staying fixed.

    Raises
    ------
    NotPositiveSemidefiniteError
        If ``R`` admits no Cholesky factor after the jitter ladder.
    """
    factor, jitter = _cholesky_with_jitter(request.corr)
    draws = request.draws
    dim = request.dim
    maxima = np.empty(draws, dtype=float)
    pos = 0
    chunk_index = 0
    while pos < draws:
        size = min(_CHUNK, draws - pos)
        seq = np.random.SeedSequence(entropy=request.seed, spawn_key=(chunk_index,))
        rng = np.random.Generator(np.random.Philox(seq))
        sample = rng.standard_normal((size, dim)) @ factor.T
        maxima[pos : pos + size] = np.max(np.abs(sample), axis=1)
        pos += size
        chunk_index += 1
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

    return QuantileResult(
        q=q,
        mc_stderr=mc_stderr,
        alpha=request.alpha,
        dim=dim,
        draws=draws,
        seed=request.seed,
        jitter=jitter,
    )
