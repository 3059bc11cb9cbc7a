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
  ``z ~ N(0, R)``.  It has two tiers, chosen by ``QuantileRequest.method``:

  - ``"bivariate"`` (dim 2 under ``method="auto"``): exact up to
    quadrature.  The box probability is one integral over the first
    coordinate (Drezner & Wesolowsky 1990; Genz 2004), evaluated by
    Gauss-Legendre on three panels, and ``q`` is its root by Illinois
    regula falsi between the scalar and the Bonferroni quantiles.
    ``mc_stderr`` is then an error bound on ``q``, not a standard error.
  - ``"monte_carlo"`` (the default at every dimension, and every
    dimension but 2 under ``"auto"``): Cholesky-factor ``R`` (with a
    small jitter ladder for rank-deficient matrices), draw correlated
    Gaussian vectors in fixed-size chunks with counter-based substreams
    so results are reproducible for a given seed, and read the empirical
    quantile off the sorted maxima.  ``mc_stderr`` is the usual
    order-statistic standard error: binomial noise of the empirical CDF
    divided by a local density estimate.

  The Monte Carlo tier's memory is planned before it runs
  (:func:`planned_bytes`); a request whose plan exceeds
  ``MAX_QUANTILE_BYTES`` is rejected.

``sidak_quantile`` is the independent-case closed form; it upper-bounds
nothing and lower-bounds nothing in general, but for identity ``R`` the
quantile must match it (to Monte Carlo accuracy when simulated), which
makes it the natural test oracle.
"""

from __future__ import annotations

import functools
import math
import sys
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
    "planned_bytes",
    "check_budget",
    "DEFAULT_DRAWS",
    "MIN_DRAWS",
    "MAX_QUANTILE_BYTES",
    "METHODS",
]

DEFAULT_DRAWS = 200_000
MIN_DRAWS = 1_000
# memory budget of one quantile request, in bytes (see planned_bytes)
MAX_QUANTILE_BYTES = 1 << 30
METHODS = ("monte_carlo", "auto")

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
# Equicoordinate quantile: request, tiers, result
# ---------------------------------------------------------------------------

# rows per Monte Carlo chunk; each chunk is one substream, so this fixes the streams
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


def _tier(dim: int, method: str) -> str:
    return "bivariate" if method == "auto" and dim == 2 else "monte_carlo"


def planned_bytes(dim: int, draws: int, method: str = "monte_carlo") -> int:
    """Bytes a quantile request of this shape allocates besides its
    correlation matrix and Cholesky factor.

    The Monte Carlo tier holds ``draws`` float64 maxima and two chunks of
    ``min(draws, _CHUNK) x dim`` float64 (the normals and their correlated
    image).  The bivariate tier needs a few hundred bytes, counted as 0.
    """
    if _tier(dim, method) == "bivariate":
        return 0
    return 8 * (draws + 2 * min(draws, _CHUNK) * dim)


def check_budget(dim: int, draws: int, method: str = "monte_carlo") -> None:
    """Raise ``ValueError`` if :func:`planned_bytes` exceeds ``MAX_QUANTILE_BYTES``."""
    planned = planned_bytes(dim, draws, method)
    if planned > MAX_QUANTILE_BYTES:
        raise ValueError(
            f"a quantile of dimension {dim} with {draws} draws needs {planned:,} bytes, "
            f"over the budget of {MAX_QUANTILE_BYTES:,}; use fewer draws or a smaller set"
        )


@dataclass(frozen=True, eq=False)
class QuantileRequest:
    """Inputs for one quantile: level, correlation, budget, seed, method.

    ``method="monte_carlo"`` (the default) simulates at every dimension.
    ``"auto"`` computes dim-2 quantiles by the exact bivariate tier and
    simulates the others.  ``draws`` and ``seed`` only matter when
    simulating.  A request whose Monte Carlo plan (:func:`planned_bytes`)
    exceeds ``MAX_QUANTILE_BYTES`` is rejected with ``ValueError``.
    """

    alpha: float
    corr: np.ndarray
    draws: int = DEFAULT_DRAWS
    seed: int = 0
    method: str = "monte_carlo"

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
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_budget(self.dim, draws, self.method)

    @property
    def dim(self) -> int:
        return self.corr.shape[0]

    @property
    def tier(self) -> str:
        """The tier that answers this request: ``"bivariate"`` or ``"monte_carlo"``."""
        return _tier(self.dim, self.method)


@dataclass(frozen=True)
class QuantileResult:
    """One equicoordinate quantile, its uncertainty and the tier behind it.

    ``method`` is ``"monte_carlo"`` or ``"bivariate"``.  A simulated
    ``q`` carries its Monte Carlo standard error in ``mc_stderr``, and
    ``jitter`` records the diagonal inflation (0.0 when none was needed)
    so callers can see when the correlation matrix was rank-deficient.
    A bivariate ``q`` carries a bound on its numerical error in
    ``mc_stderr`` (positive, at least one ulp of ``q``), with
    ``draws = 0`` and ``jitter = 0.0``.
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
    if request.tier == "bivariate":
        q, bound = _bivariate_quantile(request.alpha, float(request.corr[0, 1]))
        return QuantileResult(
            q=q,
            mc_stderr=bound,
            alpha=request.alpha,
            dim=2,
            draws=0,
            seed=request.seed,
            jitter=0.0,
            method="bivariate",
        )
    return _monte_carlo_quantile(request)


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


def _monte_carlo_quantile(request: QuantileRequest) -> QuantileResult:
    """Empirical quantile of ``request.draws`` simulated maxima.

    Draws are generated in fixed-size chunks, each from its own
    counter-based substream of ``request.seed``, so the result is
    reproducible as long as ``_CHUNK`` stays fixed.  Each chunk is
    correlated in ``(dim, rows)`` layout, so the max over coordinates is
    an elementwise reduction.
    """
    factor, jitter = _cholesky_with_jitter(request.corr)
    draws = request.draws
    maxima = np.empty(draws, dtype=float)
    for chunk_index, pos in enumerate(range(0, draws, _CHUNK)):
        size = min(_CHUNK, draws - pos)
        seq = np.random.SeedSequence(entropy=request.seed, spawn_key=(chunk_index,))
        normals = np.random.Generator(np.random.Philox(seq)).standard_normal(
            (size, request.dim)
        )
        sample = factor @ normals.T
        maxima[pos : pos + size] = np.abs(sample, out=sample).max(axis=0)
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

    return QuantileResult(
        q=q,
        mc_stderr=mc_stderr,
        alpha=request.alpha,
        dim=request.dim,
        draws=draws,
        seed=request.seed,
        jitter=jitter,
        method="monte_carlo",
    )


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
    r = abs(rho)
    s = math.sqrt((1.0 - r) * (1.0 + r))
    z = inv_norm_cdf(1.0 - alpha / 2.0)
    if s == 0.0:
        # one coordinate repeated: the scalar two-sided quantile
        miss = math.erfc(z / _SQRT2)
        return z, max(math.ulp(z), (abs(miss - alpha) + _ROUNDING * miss) / (2.0 * norm_pdf(z)))

    def excess(q: float) -> float:  # decreasing in q
        return _box_miss(q, r, s) - alpha

    # the lower tail gives Bonferroni exactly: 1 - alpha / 4 rounds for small alpha
    a, b = z, -inv_norm_cdf(alpha / 4.0)
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
