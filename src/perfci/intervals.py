"""Interval construction: individual and simultaneous confidence intervals.

Every interval here has the same shape: ``estimate +/- quantile *
sqrt(v / n)`` with ``v`` a diagonal entry of the chosen covariance
estimate.  What changes is the quantile:

* individual mode uses the scalar two-sided normal quantile, so each
  interval covers its own target at level ``1 - alpha`` but the family
  as a whole covers at a lower, unknown rate;
* joint mode uses the equicoordinate quantile of the estimated
  correlation matrix, so all targets in the requested set are covered
  simultaneously at level ``1 - alpha``.  The set's size picks how
  :func:`~perfci.quantiles.max_abs_quantile` computes it: sets of two
  targets get it exactly (the bivariate tier), and every other size
  simulates it with ``draws`` and ``seed``.

The variance ``choice`` selects the plug-in estimate (1) or the
corrected one (2, default), see :mod:`perfci.covariance`.  In joint
mode the correlation matrix fed to the quantile comes from the same
covariance estimate the widths use.  Every report says which quantile it
used (``quantile_method``: ``normal``, ``bivariate`` or ``monte_carlo``).

One fit serves every joint set: :func:`set_report` turns one
:func:`~perfci.covariance.estimate_targets` fit of the whole target list
into the intervals of one set (restriction, correction, degenerate
variances, quantile, widths).  :func:`analyze`, ``perfci analyze`` and
the coverage harness (:func:`~perfci.simulation.run_coverage`) all call
it, so the harness scores exactly the intervals ``analyze`` reports.

Partial failure policy: a target whose measure is undefined at the
sample moments, or whose variance degenerates, gets its error recorded
inline while the remaining targets proceed; only when every target
fails does :func:`analyze` raise.  Intervals are not truncated to the
measure's natural range unless ``clamp`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .covariance import (
    CovarianceEstimate, TargetEstimates, correct, correlation, estimate_targets
)
from .covariance import influence  # noqa: F401  (bench/spans.py wraps it in this namespace)
from .dataset import BinaryDataset, EvaluationTarget
from .errors import (
    DimensionMismatchError,
    NoUsableTargetsError,
    OutOfRangeError,
    SingularVarianceError,
)
from .measures import MeasureCatalog, resolve_measure
from .quantiles import (
    DEFAULT_DRAWS,
    QuantileRequest,
    max_abs_quantile,
    two_sided_quantile,
)

__all__ = [
    "CHOICE_PLUGIN",
    "CHOICE_CORRECTED",
    "IntervalSpec",
    "TargetInterval",
    "IntervalReport",
    "individual_ci",
    "joint_cis",
    "analyze",
    "set_report",
]

CHOICE_PLUGIN = 1
CHOICE_CORRECTED = 2


@dataclass(frozen=True)
class IntervalSpec:
    """Knobs for one interval request.

    ``target_set`` holds distinct indices into the analyzed target list
    (``None`` means all of them, in order).  ``draws`` and ``seed`` only
    matter in joint mode, and there only for sets whose quantile is
    simulated: a set of two usable targets gets the exact bivariate
    quantile, which neither affects.
    """

    alpha: float = 0.05
    mode: str = "joint"
    choice: int = CHOICE_CORRECTED
    target_set: tuple[int, ...] | None = None
    draws: int = DEFAULT_DRAWS
    seed: int = 0
    clamp: bool = False

    def __post_init__(self):
        if not (0.0 < float(self.alpha) < 1.0):
            raise OutOfRangeError(self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.mode not in ("individual", "joint"):
            raise ValueError(f"mode must be 'individual' or 'joint', got {self.mode!r}")
        if self.choice not in (CHOICE_PLUGIN, CHOICE_CORRECTED):
            raise ValueError(f"choice must be 1 or 2, got {self.choice!r}")
        if self.target_set is not None:
            object.__setattr__(
                self, "target_set", tuple(int(i) for i in self.target_set)
            )


@dataclass(frozen=True)
class TargetInterval:
    """One report row.  Either the interval fields are populated, or
    ``error`` explains why this target produced none."""

    rule_id: str
    measure_id: str
    estimate: float | None = None
    lower: float | None = None
    upper: float | None = None
    half_width: float | None = None
    variance: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class IntervalReport:
    """Interval rows plus the shared quantile metadata.

    ``q`` is the quantile multiplier all successful rows share, and
    ``quantile_method`` how it was computed: ``"normal"`` in individual
    mode, ``"bivariate"`` or ``"monte_carlo"`` in joint mode (see
    :class:`~perfci.quantiles.QuantileResult`), ``None`` when no row is
    usable.  ``mc_stderr`` is the Monte Carlo standard error of a
    simulated ``q``, the numerical error bound of a bivariate one, and 0
    for the normal quantile.  ``jitter`` is the diagonal inflation the
    simulation needed (0.0 otherwise), and ``draws`` the number of
    simulated maxima behind ``q`` (0 for the normal and bivariate
    quantiles).  ``q``, ``mc_stderr`` and ``jitter`` are NaN, and
    ``draws`` is ``None``, when no row is usable.
    """

    n: int
    alpha: float
    mode: str
    choice: int
    q: float
    mc_stderr: float
    quantile_method: str | None
    jitter: float
    draws: int | None
    seed: int
    rows: tuple[TargetInterval, ...]

    @property
    def ok_rows(self) -> tuple[TargetInterval, ...]:
        return tuple(r for r in self.rows if r.ok)

    @property
    def failed_rows(self) -> tuple[TargetInterval, ...]:
        return tuple(r for r in self.rows if not r.ok)


def individual_ci(
    estimate: float,
    variance: float,
    n: int,
    alpha: float,
    index: int | None = None,
) -> tuple[float, float]:
    """Two-sided normal interval ``estimate +/- z * sqrt(variance / n)``.

    ``variance`` is the diagonal covariance entry for the scaled error;
    a non-positive value raises :class:`SingularVarianceError`.
    """
    z = two_sided_quantile(alpha)
    if variance <= 0.0:
        raise SingularVarianceError(index, f"variance {variance!r}")
    half = z * math.sqrt(variance / n)
    return (estimate - half, estimate + half)


def joint_cis(
    estimates: Sequence[float],
    cov: CovarianceEstimate,
    spec: IntervalSpec,
    targets: Sequence[EvaluationTarget] | None = None,
) -> IntervalReport:
    """Simultaneous intervals over ``spec.target_set`` (default: all).

    The equicoordinate quantile comes from the correlation matrix of
    the restricted covariance, so all selected intervals share one
    multiplier.  Raises ``SingularVarianceError`` on a degenerate
    diagonal and ``NotPositiveSemidefiniteError`` if the correlation
    cannot be factored; callers wanting inline per-target failures use
    :func:`analyze` instead.
    """
    k_all = len(estimates)
    if cov.dim != k_all:
        raise DimensionMismatchError(
            f"{k_all} estimates for a {cov.dim}-target covariance"
        )
    indices = _selection(spec, k_all)
    if targets is None:
        if spec.clamp:
            raise ValueError("clamp needs targets: their measures say which intervals to clamp")
        targets = [EvaluationTarget(f"target{i}", "?") for i in range(k_all)]
    chosen = [targets[i] for i in indices]
    return _report(
        chosen,
        [float(estimates[i]) for i in indices],
        # without a catalog, clamping looks measures up in the default one
        [spec.clamp and resolve_measure(t.measure_id).unit_range for t in chosen],
        cov.restrict(indices),
        replace(spec, mode="joint"),
    )


def _selection(spec: IntervalSpec, k_all: int) -> tuple[int, ...]:
    """``spec.target_set`` checked against ``k_all`` targets (default: all)."""
    indices = spec.target_set if spec.target_set is not None else tuple(range(k_all))
    if any(i < 0 or i >= k_all for i in indices):
        raise DimensionMismatchError(
            f"target_set {indices} out of bounds for {k_all} targets"
        )
    if not indices:
        raise DimensionMismatchError("target_set must not be empty")
    if len(set(indices)) < len(indices):
        raise DimensionMismatchError(f"target_set {indices} repeats a target")
    return indices


def _report(
    targets: Sequence[EvaluationTarget],
    estimates: Sequence[float],
    unit_range: Sequence[bool],
    cov: CovarianceEstimate,
    spec: IntervalSpec,
) -> IntervalReport:
    """One interval per row of ``cov``, all with the quantile of ``spec.mode``
    (NaN for no rows); with ``spec.clamp``, rows of unit-range measures are
    cut to ``[0, 1]``."""
    if not targets:
        q = mc_stderr = jitter = float("nan")
        method, draws = None, None
    elif spec.mode == "individual":
        q, mc_stderr, jitter = two_sided_quantile(spec.alpha), 0.0, 0.0
        method, draws = "normal", 0
    else:
        result = max_abs_quantile(
            QuantileRequest(
                alpha=spec.alpha,
                corr=correlation(cov),
                draws=spec.draws,
                seed=spec.seed,
            )
        )
        q, mc_stderr, jitter = result.q, result.mc_stderr, result.jitter
        method, draws = result.method, result.draws
    rows = []
    for k, (target, estimate) in enumerate(zip(targets, estimates)):
        variance = float(cov.v[k, k])
        half = q * math.sqrt(variance / cov.n)
        lower, upper = estimate - half, estimate + half
        if spec.clamp and unit_range[k]:
            lower, upper = max(0.0, lower), min(1.0, upper)
        rows.append(
            TargetInterval(
                target.rule_id, target.measure_id, estimate, lower, upper, half, variance
            )
        )
    return IntervalReport(
        n=cov.n,
        alpha=spec.alpha,
        mode=spec.mode,
        choice=spec.choice,
        q=q,
        mc_stderr=mc_stderr,
        quantile_method=method,
        jitter=jitter,
        draws=draws,
        seed=spec.seed,
        rows=tuple(rows),
    )


def analyze(
    data: BinaryDataset,
    targets: Sequence[EvaluationTarget],
    spec: IntervalSpec,
    catalog: MeasureCatalog | None = None,
) -> IntervalReport:
    """End-to-end report for a dataset and an ordered target list.

    Pipeline: estimates, gradients and plug-in covariance from the counts
    of distinct rows (:func:`~perfci.covariance.estimate_targets`), then
    :func:`set_report` for ``spec.target_set``.  Per-target failures
    (unknown ids, domain violations, singular variances) become inline
    error rows; :class:`NoUsableTargetsError` fires only if nothing
    survives.
    """
    members = _selection(spec, len(targets))
    report = set_report(estimate_targets(data, targets, catalog), targets, members, spec)
    if not report.ok_rows:
        raise NoUsableTargetsError(
            {f"{row.rule_id}:{row.measure_id}": row.error for row in report.rows}
        )
    return report


def set_report(
    fit: TargetEstimates,
    targets: Sequence[EvaluationTarget],
    members: Sequence[int],
    spec: IntervalSpec,
) -> IntervalReport:
    """Intervals for one target set, ``targets[i]`` for ``i`` in ``members``,
    from ``fit = estimate_targets(data, targets)``.

    The fit's covariance is restricted to the members and, for choice 2,
    corrected.  Members the fit failed, or whose variance is not positive,
    get inline error rows; the others share the quantile of ``spec.mode``
    (exact for two usable members, else drawn with ``spec.seed`` in joint
    mode).  ``q``, ``mc_stderr`` and ``jitter`` are NaN, and
    ``quantile_method`` and ``draws`` are ``None``, when no member is usable.
    ``spec.target_set`` is not read.
    """
    row_of = {pos: r for r, pos in enumerate(fit.alive)}
    live = [row_of[i] for i in members if i in row_of]
    cov = fit.cov.restrict(live)
    if spec.choice == CHOICE_CORRECTED:
        cov = correct(cov, spec.alpha, [fit.gradients[r] for r in live])
    usable = [k for k, v in enumerate(cov.v.diagonal()) if v > 0.0]
    report = _report(
        [targets[fit.alive[live[k]]] for k in usable],
        [float(fit.estimates[live[k]]) for k in usable],
        [fit.measures[live[k]].unit_range for k in usable],
        cov.restrict(usable),
        spec,
    )
    ok_rows, variances = iter(report.rows), iter(cov.v.diagonal())
    rows = []
    for i in members:
        if i in fit.errors:
            error = fit.errors[i]
        elif next(variances) > 0.0:
            rows.append(next(ok_rows))
            continue
        else:
            error = SingularVarianceError(i, f"choice {spec.choice}")
        rows.append(
            TargetInterval(targets[i].rule_id, targets[i].measure_id, error=_describe(error))
        )
    return replace(report, rows=tuple(rows))


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc.args[0] if exc.args else exc}"
