"""Interval construction: individual and simultaneous confidence intervals.

Every interval here has the same shape: ``estimate +/- quantile *
sqrt(v / n)`` with ``v`` a diagonal entry of the chosen covariance
estimate.  The quantile is :func:`~perfci.quantiles.max_abs_quantile` of
a correlation matrix, whose dimension picks how it is computed:

* individual mode asks for the 1 x 1 unit matrix, whose quantile is the
  scalar two-sided normal one, so each interval covers its own target at
  level ``1 - alpha`` but the family as a whole covers at a lower,
  unknown rate;
* joint mode asks for the estimated correlation matrix of the set, so
  all its targets are covered simultaneously at level ``1 - alpha``.  A
  set of one usable target gets the same normal quantile as individual
  mode, a set of two gets the exact bivariate one, and larger sets
  simulate it with ``draws`` and ``seed``.

The variance ``choice`` selects the plug-in estimate (1) or the
corrected one (2, default), see :mod:`perfci.covariance`.  In joint
mode the correlation matrix fed to the quantile comes from the same
covariance estimate the widths use.  Every report says which quantile it
used (``quantile_method``: ``normal``, ``bivariate`` or ``monte_carlo``).

:func:`set_report` is the one step from a fit to intervals: it turns
one :func:`~perfci.covariance.estimate_targets` fit of the whole target
list into the intervals of one set of member indices (restriction,
correction, degenerate variances, quantile, widths), so one fit serves
every joint set.  :func:`analyze` (every target, in order), ``perfci
analyze`` and the coverage harness (:func:`~perfci.simulation.run_coverage`)
all call it, so the harness scores exactly the intervals ``analyze``
reports.  A subset is analyzed by passing those targets to
:func:`analyze`, or its indices as ``members`` to :func:`set_report`.

Partial failure policy: a target whose measure is undefined at the
sample moments, or whose variance degenerates, gets its error recorded
inline while the remaining targets proceed; only when every target
fails does :func:`analyze` raise.  Intervals are not truncated to the
measure's natural range unless ``clamp`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .covariance import TargetEstimates, correct, correlation, estimate_targets
from .covariance import influence  # noqa: F401  (bench/spans.py wraps it in this namespace)
from .dataset import BinaryDataset, EvaluationTarget
from .errors import (
    DimensionMismatchError,
    NoUsableTargetsError,
    SingularVarianceError,
)
from .measures import MeasureCatalog
from .quantiles import (
    DEFAULT_DRAWS,
    QuantileRequest,
    check_alpha,
    max_abs_quantile,
)

__all__ = [
    "CHOICE_PLUGIN",
    "CHOICE_CORRECTED",
    "IntervalSpec",
    "TargetInterval",
    "IntervalReport",
    "analyze",
    "set_report",
]

CHOICE_PLUGIN = 1
CHOICE_CORRECTED = 2


@dataclass(frozen=True)
class IntervalSpec:
    """Knobs for one interval request.

    ``draws`` and ``seed`` are checked in both modes but only matter for
    joint sets of three or more usable targets, whose quantile is
    simulated.
    """

    alpha: float = 0.05
    mode: str = "joint"
    choice: int = CHOICE_CORRECTED
    draws: int = DEFAULT_DRAWS
    seed: int = 0
    clamp: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if self.mode not in ("individual", "joint"):
            raise ValueError(f"mode must be 'individual' or 'joint', got {self.mode!r}")
        if self.choice not in (CHOICE_PLUGIN, CHOICE_CORRECTED):
            raise ValueError(f"choice must be 1 or 2, got {self.choice!r}")


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
    ``quantile_method`` how it was computed (see
    :class:`~perfci.quantiles.QuantileResult`): ``"normal"`` in individual
    mode and for a joint set of one usable row, ``"bivariate"`` for two and
    ``"monte_carlo"`` for more, ``None`` when no row is usable.
    ``mc_stderr`` is the Monte Carlo standard error of a simulated ``q``,
    the numerical error bound of a bivariate one, and 0 for the normal
    quantile.  ``jitter`` is the diagonal inflation the
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


def analyze(
    data: BinaryDataset,
    targets: Sequence[EvaluationTarget],
    spec: IntervalSpec,
    catalog: MeasureCatalog | None = None,
) -> IntervalReport:
    """End-to-end report for a dataset and an ordered target list.

    Pipeline: estimates, gradients and plug-in covariance from the counts
    of distinct rows (:func:`~perfci.covariance.estimate_targets`), then
    :func:`set_report` over every target, in order.  Per-target failures
    (unknown ids, domain violations, singular variances) become inline
    error rows; :class:`NoUsableTargetsError` fires only if nothing
    survives.  An empty target list raises :class:`DimensionMismatchError`.
    """
    fit = estimate_targets(data, targets, catalog)
    report = set_report(fit, targets, range(len(targets)), spec)
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
    from ``fit = estimate_targets(data, targets)``; one row per member, in
    member order.

    ``members`` must be non-empty, distinct and in ``range(len(targets))``,
    else :class:`DimensionMismatchError`.  The fit's covariance is
    restricted to the members and, for choice 2, corrected.  Members the
    fit failed, or whose variance is not positive, get inline error rows;
    the others share the quantile of ``spec.mode``: that of their
    correlation in joint mode (exact for up to two usable members, else
    drawn with ``spec.seed``), of one coordinate in individual mode.  With
    ``spec.clamp``, rows of unit-range measures are cut to ``[0, 1]``.
    ``q``, ``mc_stderr`` and ``jitter`` are NaN, and ``quantile_method``
    and ``draws`` are ``None``, when no member is usable.
    """
    members = tuple(members)
    if not members:
        raise DimensionMismatchError("a target set must not be empty")
    if not all(0 <= i < len(targets) for i in members):
        raise DimensionMismatchError(
            f"target set {members} out of range for {len(targets)} targets"
        )
    if len(set(members)) < len(members):
        raise DimensionMismatchError(f"target set {members} repeats a target")
    row_of = {pos: r for r, pos in enumerate(fit.alive)}
    live = [i for i in members if i in row_of]
    cov = fit.cov.restrict([row_of[i] for i in live])
    if spec.choice == CHOICE_CORRECTED:
        cov = correct(cov, spec.alpha, [fit.gradients[row_of[i]] for i in live])
    variance = dict(zip(live, cov.v.diagonal().tolist()))
    usable = [k for k, i in enumerate(live) if variance[i] > 0.0]
    q = mc_stderr = jitter = float("nan")
    method = draws = None
    if usable:
        corr = correlation(cov.restrict(usable)) if spec.mode == "joint" else [[1.0]]
        result = max_abs_quantile(QuantileRequest(spec.alpha, corr, spec.draws, spec.seed))
        q, mc_stderr, jitter = result.q, result.mc_stderr, result.jitter
        method, draws = result.method, result.draws
    rows = []
    for i in members:
        rule_id, measure_id = targets[i].rule_id, targets[i].measure_id
        if i in fit.errors:
            rows.append(TargetInterval(rule_id, measure_id, error=_describe(fit.errors[i])))
        elif variance[i] > 0.0:
            r = row_of[i]
            estimate = float(fit.estimates[r])
            half = q * math.sqrt(variance[i] / cov.n)
            lower, upper = estimate - half, estimate + half
            if spec.clamp and fit.measures[r].unit_range:
                lower, upper = max(0.0, lower), min(1.0, upper)
            rows.append(
                TargetInterval(rule_id, measure_id, estimate, lower, upper, half, variance[i])
            )
        else:
            error = SingularVarianceError(i, f"choice {spec.choice}")
            rows.append(TargetInterval(rule_id, measure_id, error=_describe(error)))
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


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc.args[0] if exc.args else exc}"
