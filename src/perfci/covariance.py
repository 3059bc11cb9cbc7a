"""Delta-method covariance estimation for measure estimates.

Every measure is a function of its rule's three sample moments, the means
of ``Z*A``, ``A`` and ``Z``.  So the asymptotic covariance ``V`` of the
scaled estimation errors ``sqrt(n) * (estimate - truth)`` is ``G S G^T``:
``S`` is the sample covariance (denominator ``n - 1``) of the ``2R + 1``
indicator columns ``Z*A_r``, ``A_r`` and ``Z``, and row ``k`` of ``G``
holds target ``k``'s gradient in its rule's three columns.  Dividing by
``n`` gives standard errors.

:func:`estimate_targets` reads only the table's ``C``, the integer
cross-products of the indicator columns that :mod:`perfci.dataset` folds
every table into: its diagonal ``s`` gives each moment triple as ``s / n``
and, with the rest of ``C``, ``S`` exact up to one division, in ``O(R^2 +
K R)`` memory for ``K`` targets.  Every fit is a
:class:`TargetEstimates`: a stack of ``B`` tables, fitted at once from
their cross-products as one ``(B, 2R + 1, 2R + 1)`` array, with every
estimate, gradient and ``V`` on the same leading table axis, each measure
evaluated once over all its tables and targets, and the targets it
fitted.  ``estimate_targets`` is the stack of one table, and the coverage
harness fits a block of replications as one stack; a table's fit does not
depend on what else its stack holds.  :func:`influence` and
:func:`covariance_from_influences` are a reference that reads only rows: row
means for the moments, one influence value ``d_za * Z*A + d_a * A + d_z * Z``
per target and row.

Two variance choices are offered:

* plug-in (uncorrected): the sample covariance as-is.  It collapses to
  zero on degenerate samples (a rule perfect on the data, or a rare
  event never observed), which both kills the interval and, near the
  boundary, undercovers.
* corrected (:func:`correct`): add ``||gradient||^2 * z_{1-alpha/2}^2 /
  (2 n)`` to each diagonal entry.  The addend shrinks at the same ``1/n``
  rate as the variance itself, so nothing changes asymptotically, but the
  diagonal stays strictly positive whenever the gradient is nonzero.  For the
  accuracy measure this reproduces the familiar add-a-few-successes
  interval adjustment.

A target whose influence values agree, within tolerance, on every
``(z, a)`` cell its rule occupies gets an exactly zero row and column, so
downstream code tests degeneracy with a plain comparison and raises
:class:`~perfci.errors.SingularVarianceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import BinaryDataset, EvaluationTarget, _moment_columns
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
    _Moments,
    resolve_measure,
)
from .quantiles import CorrelationMatrix, two_sided_quantile

__all__ = [
    "InfluenceVector",
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
class TargetEstimates:
    """The fits of ``B`` tables of the same rules and ``n`` over the same ``K``
    ``targets``, stacked on a leading table axis; :func:`estimate_targets`
    gives ``B = 1``.  ``measures[k]`` is ``None`` where target ``k``'s
    measure or rule is unknown.  Where ``failed[b, k]``, ``errors[b][k]``
    holds the exception, the estimate is NaN, and the gradient and the row
    and column of the plug-in covariance ``v`` are 0."""

    targets: tuple[EvaluationTarget, ...]
    n: int
    measures: tuple[MeasureSpec | None, ...]
    estimates: np.ndarray  # (B, K)
    gradients: np.ndarray  # (B, K, 3), as (d_za, d_a, d_z)
    v: np.ndarray  # (B, K, K)
    failed: np.ndarray  # (B, K)
    errors: tuple[dict[int, PerfciError], ...]


def estimate_targets(
    data: BinaryDataset,
    targets: Sequence[EvaluationTarget],
    catalog: MeasureCatalog | None = None,
) -> TargetEstimates:
    """Estimates, gradients and plug-in covariance of ``targets`` from the
    table's cross-products ``C``: the table as a stack of one (:func:`_fit`).
    ``UnknownMeasureError``, ``UnknownRuleError`` and ``DomainError`` fail
    one target, not the others."""
    return _fit(data._cross_products()[np.newaxis], data.n, data.rule_ids, targets, catalog)


def _fit(
    c: np.ndarray,
    n: int,
    rule_ids: Sequence[str],
    targets: Sequence[EvaluationTarget],
    catalog: MeasureCatalog | None = None,
) -> TargetEstimates:
    """The fits of the ``B`` tables of ``n`` rows whose cross-products are
    ``c`` (:func:`~perfci.dataset._fold`).  With ``s`` the diagonal of a table's
    ``C``, each moment triple is ``s / n``, and ``n (n - 1) S = n C - s s^T``
    is exact: in int64 while ``n * n`` fits it, else in Python ints.  Each
    measure is evaluated, with its gradient, once over the moments of all
    its targets in all tables; an element it fails is asked of the scalar
    :meth:`~perfci.measures.MeasureSpec.evaluate` and ``gradient``, so a
    ``DomainError`` fails its (table, target) pair only.  Then ``V = G S G^T``
    of each table, with ``G`` holding each target's gradient in its rule's
    columns, is taken as a stack of products."""
    n_tables, n_rules, n_targets = len(c), len(rule_ids), len(targets)
    s = np.diagonal(c, axis1=1, axis2=2)
    moments = s / n
    measures: list[MeasureSpec | None] = [None] * n_targets
    rules = np.zeros(n_targets, np.intp)
    failed = np.zeros((n_tables, n_targets), bool)
    errors: dict[tuple[int, int], PerfciError] = {}
    by_measure: dict[int, tuple[MeasureSpec, list[int]]] = {}
    for pos, target in enumerate(targets):
        try:
            measure = resolve_measure(target.measure_id, catalog)
            if target.rule_id not in rule_ids:
                raise UnknownRuleError(target.rule_id, tuple(rule_ids))
        except (UnknownRuleError, UnknownMeasureError) as exc:
            failed[:, pos] = True
            errors.update(((b, pos), exc) for b in range(n_tables))
            continue
        measures[pos], rules[pos] = measure, rule_ids.index(target.rule_id)
        by_measure.setdefault(id(measure), (measure, []))[1].append(pos)

    estimates = np.full((n_tables, n_targets), np.nan)
    d = np.zeros((n_tables, n_targets, 3))
    for measure, positions in by_measure.values():
        za, a, z = _moment_columns(rules[positions], n_rules)
        m = _Moments(moments[:, za], moments[:, a], np.repeat(moments[:, z, np.newaxis], len(za), axis=1))
        value, grad = measure.evaluate(m), measure.gradient(m)
        for b, k in np.argwhere(np.isnan(value) | np.isnan(grad).any(axis=-1)).tolist():
            triple = MomentTriple(m.m_za[b, k], m.m_a[b, k], m.m_z[b, k])
            try:
                value[b, k], grad[b, k] = measure.evaluate(triple), measure.gradient(triple).as_tuple()
            except DomainError as exc:
                value[b, k], grad[b, k] = np.nan, 0.0
                failed[b, positions[k]] = True
                errors[b, positions[k]] = exc
        estimates[:, positions], d[:, positions] = value, grad

    k = np.arange(n_targets)
    za, a, z = _moment_columns(rules, n_rules)
    g = np.zeros((n_tables, n_targets, c.shape[-1]))
    g[:, k, za], g[:, k, a], g[:, :, z] = d[..., 0], d[..., 1], d[..., 2]
    exact = c.astype(np.int64 if n * n < 1 << 63 else object)
    s_exact = np.diagonal(exact, axis1=1, axis2=2)
    scatter = (n * exact - s_exact[:, :, np.newaxis] * s_exact[:, np.newaxis, :]).astype(float)
    v = g @ scatter @ g.transpose(0, 2, 1) / (n * (n - 1.0))
    # influence values on the (z, a) cells 00, 01, 10, 11, NaN where one does not occur
    n_za, n_a, n_z = s[:, za], s[:, a], s[:, z, np.newaxis]
    occur = np.stack([n - n_a - n_z + n_za, n_a - n_za, n_z - n_za, n_za], axis=-1) > 0
    cells = np.stack([np.zeros_like(n_za, float), d[..., 1], d[..., 2], d[..., 0] + d[..., 1] + d[..., 2]], axis=-1)
    return TargetEstimates(
        targets=tuple(targets),
        n=n,
        measures=tuple(measures),
        estimates=estimates,
        gradients=d,
        v=_constant_rows_zeroed(v, np.where(occur, cells, np.nan)),
        failed=failed,
        errors=tuple(
            {pos: errors[b, pos] for pos in np.flatnonzero(failed[b]).tolist()} for b in range(n_tables)
        ),
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


def covariance_from_influences(influences: Sequence[InfluenceVector], n: int) -> np.ndarray:
    """The ``(K, K)`` sample covariance (denominator ``n - 1``) of stacked influence rows."""
    if not influences:
        raise DimensionMismatchError("need at least one influence vector")
    rows = np.vstack([iv.values for iv in influences])
    if rows.shape[1] != n:
        raise DimensionMismatchError(
            f"influence length {rows.shape[1]} does not match n = {n}"
        )
    centred = rows - rows.mean(axis=1, keepdims=True)
    return _constant_rows_zeroed(centred @ centred.T / (n - 1), rows)


def _constant_rows_zeroed(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``v`` made exactly symmetric, with an exact zero row and column for
    each target whose influence ``values`` (one row per target, NaN where
    a cell does not occur) agree within ``_ZERO_SNAP`` of their scale.
    Leading axes of both are a stack of tables."""
    v = 0.5 * (v + np.swapaxes(v, -1, -2))  # exact symmetry regardless of BLAS kernel paths
    hi, lo = np.nanmax(values, axis=-1), np.nanmin(values, axis=-1)
    constant = hi - lo <= _ZERO_SNAP * np.maximum(1.0, np.maximum(hi, -lo))
    return np.where(constant[..., :, np.newaxis] | constant[..., np.newaxis, :], 0.0, v)


def blurring_matrix(
    gradients: Sequence[GradientTriple] | np.ndarray, alpha: float, n: int
) -> np.ndarray:
    """Diagonal correction addends, one per target.

    ``D_k = ||gradient_k||^2 * z**2 / (2 n)`` with ``z = z_{1-alpha/2}``
    from :func:`~perfci.quantiles.two_sided_quantile`; scales as ``1/n``
    and vanishes only for an all-zero gradient.  ``gradients`` may also be
    an array whose last axis holds ``(d_za, d_a, d_z)``; the addends then
    have its other axes.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z = two_sided_quantile(alpha)
    if not isinstance(gradients, np.ndarray):
        gradients = np.reshape([g.as_tuple() for g in gradients], (-1, 3))
    # squared as GradientTriple.squared_norm squares, by Python's float power,
    # which rounds differently from x * x in about one square in a thousand
    squared = (gradients.astype(object) ** 2).sum(axis=-1).astype(float)
    return squared * z * z / (2.0 * n)


def correct(
    v: np.ndarray,
    alpha: float,
    gradients: Sequence[GradientTriple] | np.ndarray,
    n: int,
) -> np.ndarray:
    """Corrected covariance: a copy of the plug-in ``v``, a ``(K, K)`` matrix
    or a ``(..., K, K)`` stack, with the :func:`blurring_matrix` addends of
    ``gradients`` (one per target, or an array of shape ``(..., K, 3)``) on
    its diagonal."""
    v = _square(v, stacked=True).copy()
    d = blurring_matrix(gradients, alpha, n)
    if d.shape != v.shape[:-1]:
        raise DimensionMismatchError(f"gradients of {d.shape} targets for a covariance of shape {v.shape}")
    diagonal = np.arange(v.shape[-1])
    v[..., diagonal, diagonal] += d
    return v


def correlation(v: np.ndarray) -> CorrelationMatrix:
    """Correlation matrix of a ``(K, K)`` covariance ``v``.

    Raises
    ------
    SingularVarianceError
        If any diagonal entry is not strictly positive; the message
        names the first offending target index.
    """
    v = _square(v, stacked=False)
    diag = np.diagonal(v)
    bad = np.nonzero(diag <= 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise SingularVarianceError(k, f"diagonal entry {float(diag[k])!r}")
    scale = np.sqrt(diag)
    return CorrelationMatrix(values=v / np.outer(scale, scale))


def _square(v: np.ndarray, stacked: bool) -> np.ndarray:
    """``v`` as a float array, refused unless it is a square matrix or, when
    ``stacked``, a stack of them."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or (v.ndim > 2 and not stacked) or v.shape[-1] != v.shape[-2]:
        shape = "square" if stacked else "square and 2-d"
        raise DimensionMismatchError(f"covariance must be {shape}, got shape {v.shape}")
    return v
