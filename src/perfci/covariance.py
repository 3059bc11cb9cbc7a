"""Delta-method covariance estimation for measure estimates.

Every measure is a function of its rule's three sample moments, the means
of ``Z*A``, ``A`` and ``Z``.  So the asymptotic covariance ``V`` of the
scaled estimation errors ``sqrt(n) * (estimate - truth)`` is ``G S G^T``:
``S`` is the sample covariance (denominator ``n - 1``) of the ``2R + 1``
indicator columns ``Z*A_r``, ``A_r`` and ``Z``, and row ``k`` of ``G``
holds target ``k``'s gradient in its rule's three columns.  Dividing by
``n`` gives standard errors.

:func:`estimate_targets` reads only the counts of the ``m`` distinct
``(z, a_1..a_R)`` rows: integer sums ``s`` over them give each moment triple
as ``s / n`` and, with the cross-products, ``S`` exact up to one division, in
``O(m R + K R)`` memory for ``K`` targets.  :func:`influence` and
:func:`covariance_from_influences` are a reference that reads only rows: row
means for the moments, one influence value ``d_za * Z*A + d_a * A + d_z * Z``
per target and row.

Two variance choices are offered:

* plug-in (uncorrected): the sample covariance as-is.  It collapses to
  zero on degenerate samples (a rule perfect on the data, or a rare
  event never observed), which both kills the interval and, near the
  boundary, undercovers.
* corrected: add ``||gradient||^2 * z_{1-alpha/2}^2 / (2 n)`` to each
  diagonal entry.  The addend shrinks at the same ``1/n`` rate as the
  variance itself, so nothing changes asymptotically, but the diagonal
  stays strictly positive whenever the gradient is nonzero.  For the
  accuracy measure this reproduces the familiar add-a-few-successes
  interval adjustment.

A target whose influence values agree, within tolerance, on every
``(z, a)`` cell its rule occupies gets an exactly zero row and column, so
downstream code tests degeneracy with a plain comparison and raises
:class:`~perfci.errors.SingularVarianceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import BinaryDataset, EvaluationTarget
from .errors import (
    DimensionMismatchError,
    DomainError,
    PerfciError,
    SingularVarianceError,
    UnknownMeasureError,
    UnknownRuleError,
)
from .measures import (
    GradientTriple,
    MeasureCatalog,
    MeasureSpec,
    MomentTriple,
    resolve_measure,
)
from .quantiles import CorrelationMatrix, two_sided_quantile

__all__ = [
    "InfluenceVector",
    "CovarianceEstimate",
    "CorrelationMatrix",
    "TargetEstimates",
    "estimate_targets",
    "influence",
    "covariance_from_influences",
    "blurring_matrix",
    "correct",
    "correlation",
]

# relative spread below which a target's influence values count as constant
_ZERO_SNAP = 1e-12
# bytes a fit's two float matrices of indicator rows take, summed a chunk at a time
_FIT_BYTES = 1 << 24


@dataclass(frozen=True, eq=False)
class InfluenceVector:
    """Per-row influence values for one target, plus the pieces that
    produced them (sample moments, gradient, point estimate)."""

    target: EvaluationTarget
    values: np.ndarray
    moments: MomentTriple
    gradient: GradientTriple
    estimate: float


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """A ``K x K`` covariance matrix of scaled estimation errors.

    ``d_diag`` holds the per-target correction addends (all zero when
    ``corrected`` is False); ``alpha`` records the level the correction
    was built for, ``None`` when uncorrected.
    """

    v: np.ndarray
    n: int
    corrected: bool = False
    d_diag: np.ndarray = field(default=None)  # type: ignore[assignment]
    alpha: float | None = None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatchError(f"covariance must be square, got {v.shape}")
        object.__setattr__(self, "v", v)
        if self.d_diag is None:
            object.__setattr__(self, "d_diag", np.zeros(v.shape[0]))
        else:
            d = np.asarray(self.d_diag, dtype=float)
            if d.shape != (v.shape[0],):
                raise DimensionMismatchError(
                    f"d_diag shape {d.shape} does not match covariance {v.shape}"
                )
            object.__setattr__(self, "d_diag", d)

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def restrict(self, indices: Sequence[int]) -> "CovarianceEstimate":
        """Sub-matrix for an ordered subset of targets."""
        idx = np.asarray(list(indices), dtype=int)
        return CovarianceEstimate(
            v=self.v[np.ix_(idx, idx)],
            n=self.n,
            corrected=self.corrected,
            d_diag=self.d_diag[idx],
            alpha=self.alpha,
        )


@dataclass(frozen=True, eq=False)
class TargetEstimates:
    """Results of :func:`estimate_targets`.  ``alive`` lists the positions of
    the targets that produced an estimate; ``measures``, ``estimates``,
    ``gradients`` and the rows of ``cov`` follow that order.  ``errors``
    maps every other position to the exception that stopped it."""

    alive: tuple[int, ...]
    measures: tuple[MeasureSpec, ...]
    estimates: np.ndarray
    gradients: tuple[GradientTriple, ...]
    errors: dict[int, PerfciError]
    cov: CovarianceEstimate


def estimate_targets(
    data: BinaryDataset,
    targets: Sequence[EvaluationTarget],
    catalog: MeasureCatalog | None = None,
) -> TargetEstimates:
    """Estimates, gradients and plug-in covariance from one read of the row
    counts: with ``C`` the cross-products of the indicator columns, summed
    over chunks of the distinct rows, and ``s = diag(C)`` their sums, each
    moment triple is ``s / n`` and ``n (n - 1) S = n C - s s^T`` is formed
    in Python ints, exact at any ``n``.  ``UnknownMeasureError``,
    ``UnknownRuleError`` and ``DomainError`` fail one target, not the others."""
    patterns, counts = data.row_counts()
    n, n_rules = data.n, patterns.shape[1] - 1
    c = np.zeros((2 * n_rules + 1,) * 2, np.int64)
    step = max(1, _FIT_BYTES // (16 * len(c)))
    for start in range(0, len(counts), step):
        z, a = patterns[start : start + step, :1], patterns[start : start + step, 1:]
        x = np.hstack([z & a, a, z]).astype(float)
        # 0/1 products weighted by counts: the float sums are exact below 2**53
        c += ((x * counts[start : start + step, np.newaxis]).T @ x).astype(np.int64)
    s = np.diagonal(c)
    alive, measures, estimates, gradients, rules = [], [], [], [], []
    errors: dict[int, PerfciError] = {}
    for pos, target in enumerate(targets):
        try:
            measure = resolve_measure(target.measure_id, catalog)
            if target.rule_id not in data.rule_ids:
                raise UnknownRuleError(target.rule_id, data.rule_ids)
            r = data.rule_ids.index(target.rule_id)
            m = MomentTriple(*(int(s[i]) / n for i in (r, n_rules + r, -1)))
            estimate = measure.evaluate(m)
            gradient = measure.gradient(m)
        except (DomainError, UnknownRuleError, UnknownMeasureError) as exc:
            errors[pos] = exc
            continue
        alive.append(pos)
        measures.append(measure)
        estimates.append(estimate)
        gradients.append(gradient)
        rules.append(r)
    d = np.reshape([(grad.d_za, grad.d_a, grad.d_z) for grad in gradients], (len(rules), 3))
    r, k = np.array(rules, dtype=np.intp), np.arange(len(rules))
    g = np.zeros((len(rules), 2 * n_rules + 1))
    g[k, r], g[k, n_rules + r], g[:, -1] = d.T
    # n * C and s s^T pass int64 once n > 3.04e9; Python ints do not
    s_int = s.astype(object)
    v = g @ (n * c.astype(object) - np.outer(s_int, s_int)).astype(float) @ g.T / (n * (n - 1.0))
    # influence values on the (z, a) cells 00, 01, 10, 11, NaN where one does not occur
    n_za, n_a, n_z = s[r], s[n_rules + r], s[-1]
    occur = np.column_stack([n - n_a - n_z + n_za, n_a - n_za, n_z - n_za, n_za]) > 0
    cells = np.column_stack([np.zeros(len(rules)), d[:, 1], d[:, 2], d[:, 0] + d[:, 1] + d[:, 2]])
    return TargetEstimates(
        alive=tuple(alive),
        measures=tuple(measures),
        estimates=np.array(estimates, dtype=float),
        gradients=tuple(gradients),
        errors=errors,
        cov=CovarianceEstimate(v=_constant_rows_zeroed(v, np.where(occur, cells, np.nan)), n=n),
    )


def influence(
    data: BinaryDataset,
    target: EvaluationTarget,
    catalog: MeasureCatalog | None = None,
) -> InfluenceVector:
    """Influence values of one target on the given sample.

    Propagates ``UnknownRuleError`` (bad rule id), ``UnknownMeasureError``
    (bad measure id) and ``DomainError`` (measure or gradient undefined
    at the sample moments).
    """
    measure = resolve_measure(target.measure_id, catalog)
    z, a = data.z.astype(float), data.rule(target.rule_id).astype(float)
    moments = MomentTriple(*(float(np.mean(v)) for v in (z * a, a, z)))
    estimate = measure.evaluate(moments)
    grad = measure.gradient(moments)
    return InfluenceVector(
        target=target,
        values=grad.d_za * (z * a) + grad.d_a * a + grad.d_z * z,
        moments=moments,
        gradient=grad,
        estimate=estimate,
    )


def covariance_from_influences(
    influences: Sequence[InfluenceVector], n: int
) -> CovarianceEstimate:
    """Sample covariance (denominator ``n - 1``) of stacked influence rows."""
    if not influences:
        raise DimensionMismatchError("need at least one influence vector")
    rows = np.vstack([iv.values for iv in influences])
    if rows.shape[1] != n:
        raise DimensionMismatchError(
            f"influence length {rows.shape[1]} does not match n = {n}"
        )
    centred = rows - rows.mean(axis=1, keepdims=True)
    return CovarianceEstimate(v=_constant_rows_zeroed(centred @ centred.T / (n - 1), rows), n=n)


def _constant_rows_zeroed(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``v`` made exactly symmetric, with an exact zero row and column for
    each target whose influence ``values`` (one row per target, NaN where
    a cell does not occur) agree within ``_ZERO_SNAP`` of their scale."""
    v = 0.5 * (v + v.T)  # exact symmetry regardless of BLAS kernel paths
    hi, lo = np.nanmax(values, axis=1), np.nanmin(values, axis=1)
    constant = hi - lo <= _ZERO_SNAP * np.maximum(1.0, np.maximum(hi, -lo))
    v[constant, :] = 0.0
    v[:, constant] = 0.0
    return v


def blurring_matrix(
    gradients: Sequence[GradientTriple], alpha: float, n: int
) -> np.ndarray:
    """Diagonal correction addends, one per target.

    ``D_k = ||gradient_k||^2 * z**2 / (2 n)`` with ``z = z_{1-alpha/2}``
    from :func:`~perfci.quantiles.two_sided_quantile`; scales as ``1/n``
    and vanishes only for an all-zero gradient.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z = two_sided_quantile(alpha)
    return np.array(
        [g.squared_norm() * z * z / (2.0 * n) for g in gradients], dtype=float
    )


def correct(
    estimate: CovarianceEstimate,
    alpha: float,
    gradients: Sequence[GradientTriple],
) -> CovarianceEstimate:
    """Corrected covariance: plug-in plus the diagonal blurring addends."""
    if estimate.corrected:
        raise ValueError("covariance estimate is already corrected")
    d = blurring_matrix(gradients, alpha, estimate.n)
    if d.shape[0] != estimate.dim:
        raise DimensionMismatchError(
            f"{d.shape[0]} gradients for a {estimate.dim}-target covariance"
        )
    v = estimate.v.copy()
    v[np.diag_indices_from(v)] += d
    return CovarianceEstimate(
        v=v, n=estimate.n, corrected=True, d_diag=d, alpha=float(alpha)
    )


def correlation(estimate: CovarianceEstimate) -> CorrelationMatrix:
    """Correlation matrix of a covariance estimate.

    Raises
    ------
    SingularVarianceError
        If any diagonal entry is not strictly positive; the message
        names the first offending target index.
    """
    diag = np.diagonal(estimate.v)
    bad = np.nonzero(diag <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise SingularVarianceError(k, f"diagonal entry {diag[k]!r}")
    scale = np.sqrt(diag)
    r = estimate.v / np.outer(scale, scale)
    return CorrelationMatrix(values=r)
