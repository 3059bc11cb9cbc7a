"""Delta-method covariance estimation for measure estimates.

Each target (rule, measure) gets an influence value per table row: the
linear combination ``d_za * Z*A + d_a * A + d_z * Z`` with the measure
gradient evaluated at the sample moments.  The sample covariance of these
values (denominator ``n - 1``) estimates the asymptotic covariance ``V``
of the scaled estimation errors ``sqrt(n) * (estimate - truth)``;
dividing by ``n`` gives standard errors.

Influence values depend on a row only through its ``(z, a_1..a_R)``
pattern, so :func:`estimate_targets` computes covariances from the counts
of distinct rows; :func:`influence` and :func:`covariance_from_influences`
keep the per-row form (every count 1) as a reference.

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

A diagonal entry that is zero up to floating tolerance is snapped to
exactly zero here, so downstream code can test degeneracy with a plain
comparison and raise :class:`~perfci.errors.SingularVarianceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import BinaryDataset, EvaluationTarget, compute_moments
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
    "covariance_matrix",
    "covariance_from_influences",
    "blurring_matrix",
    "correct",
    "correlation",
]

# relative scale below which a sample variance is considered exactly zero
_ZERO_SNAP = 1e-12


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
    """Estimates, gradients and plug-in covariance from the distinct rows of
    ``data`` and their counts.  ``UnknownMeasureError``, ``UnknownRuleError``
    and ``DomainError`` fail one target without stopping the others."""
    patterns, counts = data.row_counts()
    alive, measures, estimates, gradients, rows = [], [], [], [], []
    errors: dict[int, PerfciError] = {}
    for pos, target in enumerate(targets):
        try:
            measure = resolve_measure(target.measure_id, catalog)
            m = compute_moments(data, target.rule_id)
            estimate = measure.evaluate(m)
            gradient = measure.gradient(m)
        except (DomainError, UnknownRuleError, UnknownMeasureError) as exc:
            errors[pos] = exc
            continue
        alive.append(pos)
        measures.append(measure)
        estimates.append(estimate)
        gradients.append(gradient)
        a = patterns[:, 1 + data.rule_ids.index(target.rule_id)]
        rows.append(_influence_values(gradient, patterns[:, 0], a))
    rows = np.reshape(rows, (len(rows), counts.size))
    v = _centred_covariance(rows, counts.astype(float), data.n)
    return TargetEstimates(
        alive=tuple(alive),
        measures=tuple(measures),
        estimates=np.array(estimates, dtype=float),
        gradients=tuple(gradients),
        errors=errors,
        cov=CovarianceEstimate(v=v, n=data.n),
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
    moments = compute_moments(data, target.rule_id)
    estimate = measure.evaluate(moments)
    grad = measure.gradient(moments)
    return InfluenceVector(
        target=target,
        values=_influence_values(grad, data.z, data.rule(target.rule_id)),
        moments=moments,
        gradient=grad,
        estimate=estimate,
    )


def _influence_values(grad: GradientTriple, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    z = z.astype(float)
    a = a.astype(float)
    return grad.d_za * (z * a) + grad.d_a * a + grad.d_z * z


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
    return CovarianceEstimate(v=_centred_covariance(rows, np.ones(n), n), n=n)


def _centred_covariance(rows: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Covariance (denominator ``n - 1``) of influence rows whose columns
    occur ``counts`` times each; a numerically constant row is snapped to
    an exact zero row and column."""
    centred = rows - (rows @ counts / n)[:, np.newaxis]
    v = (centred * counts) @ centred.T / (n - 1)
    v = 0.5 * (v + v.T)  # exact symmetry regardless of BLAS kernel paths
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1))
    degenerate = np.diagonal(v) <= (_ZERO_SNAP * scale) ** 2
    v[degenerate, :] = 0.0
    v[:, degenerate] = 0.0
    return v


def covariance_matrix(
    data: BinaryDataset,
    targets: Sequence[EvaluationTarget],
    catalog: MeasureCatalog | None = None,
) -> CovarianceEstimate:
    """Plug-in covariance for an ordered target list; raises the first failure."""
    fit = estimate_targets(data, targets, catalog)
    if fit.errors:
        raise fit.errors[min(fit.errors)]
    return fit.cov


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
