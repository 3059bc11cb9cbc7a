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

:func:`set_reports` answers asks ``(fit, members, spec)``: each pairs an
:func:`~perfci.covariance.estimate_targets` fit, which names its targets,
with the member indices of one set of them and a spec.  The asks of one
fit, one spec and one member count are restricted and corrected as one
stack, one :func:`~perfci.quantiles.max_abs_quantiles` call answers all
their quantiles, and each ask gets the report it would get alone.
``perfci analyze`` asks once per joint set of its one fit;
:func:`analyze` and :func:`set_report` ask once.  The body behind it
works on the stacks of tables that every fit is, and
:func:`~perfci.simulation.run_coverage` asks it for every set of a block
of replications at once, so its memory is bounded by the block, and it
scores exactly the intervals ``analyze`` reports.

Partial failure policy: a target whose measure is undefined at the
sample moments, or whose variance degenerates, gets its error recorded
inline while the remaining targets proceed; only when every target
fails does :func:`analyze` raise.  Intervals are not truncated to the
measure's natural range unless ``clamp`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import TargetEstimates, correct, estimate_targets
from .covariance import correlation, influence  # noqa: F401  (bench/spans.py wraps them in this namespace)
from .dataset import BinaryDataset, EvaluationTarget
from .errors import (
    DimensionMismatchError,
    NoUsableTargetsError,
    SingularVarianceError,
)
from .measures import MeasureCatalog
from .quantiles import (
    DEFAULT_DRAWS,
    CorrelationMatrix,
    QuantileRequest,
    QuantileResult,
    _normalised,
    check_alpha,
    check_draws_and_seed,
    max_abs_quantile,  # noqa: F401  (bench/spans.py wraps it in this namespace)
    max_abs_quantiles,
)

__all__ = [
    "CHOICE_PLUGIN",
    "CHOICE_CORRECTED",
    "IntervalSpec",
    "TargetInterval",
    "IntervalReport",
    "analyze",
    "set_report",
    "set_reports",
]

CHOICE_PLUGIN = 1
CHOICE_CORRECTED = 2
_UNIT = CorrelationMatrix([[1.0]])  # the correlation of one coordinate, shared by every request


@dataclass(frozen=True)
class IntervalSpec:
    """Knobs for one interval request.

    ``draws`` and ``seed`` are checked here, in both modes, but only
    matter for joint sets of three or more usable targets, whose quantile
    is simulated.
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
        draws, seed = check_draws_and_seed(self.draws, self.seed)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "seed", seed)


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
    quantiles).  When no row is usable there is no quantile, and all five
    of these fields are ``None``, so two reports of the same failed set
    compare and hash equal.
    """

    n: int
    alpha: float
    mode: str
    choice: int
    q: float | None
    mc_stderr: float | None
    quantile_method: str | None
    jitter: float | None
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

    Pipeline: estimates, gradients and plug-in covariance from the table's
    cross-products (:func:`~perfci.covariance.estimate_targets`), then
    :func:`set_report` over every target, in order.  Per-target failures
    (unknown ids, domain violations, singular variances) become inline
    error rows; :class:`NoUsableTargetsError` fires only if nothing
    survives.  An empty target list raises :class:`DimensionMismatchError`.
    """
    fit = estimate_targets(data, targets, catalog)
    report = set_report(fit, range(len(targets)), spec)
    if not report.ok_rows:
        raise NoUsableTargetsError(
            {f"{row.rule_id}:{row.measure_id}": row.error for row in report.rows}
        )
    return report


def set_report(fit: TargetEstimates, members: Sequence[int], spec: IntervalSpec) -> IntervalReport:
    """The report of the one ask ``(fit, members, spec)``: the batch of one
    of :func:`set_reports`, whose report it is in any batch."""
    return set_reports([(fit, members, spec)])[0]


def set_reports(asks: Sequence[tuple[TargetEstimates, Sequence[int], IntervalSpec]]) -> list[IntervalReport]:
    """The report of each ask ``(fit, members, spec)``, in ask order.

    The report holds the intervals of ``fit.targets[i]`` for ``i`` in
    ``members``, one row per member, in member order, from a fit of one
    table such as ``estimate_targets(data, targets)``; a fit of more tables
    raises :class:`DimensionMismatchError`.  Asks may hold fits of
    different tables and targets, and different specs.  ``members`` must
    be non-empty, distinct and in ``range(len(fit.targets))``, else
    :class:`DimensionMismatchError`.  The fit's covariance is restricted
    to the members and, for choice 2, corrected.  Members the fit failed,
    or whose variance is not positive, get inline error rows; the others
    share the quantile of ``spec.mode``: that of their correlation in
    joint mode (exact for up to two usable members, else drawn with
    ``spec.seed``), of one coordinate in individual mode.  With
    ``spec.clamp``, rows of unit-range measures are cut to ``[0, 1]``.
    ``q``, ``mc_stderr``, ``jitter``, ``quantile_method`` and ``draws``
    are ``None`` when no member is usable.

    This is the list view of :func:`_answers`, which
    :func:`~perfci.simulation.run_coverage` asks for whole blocks of
    tables.  Every ask is checked, then the asks of one fit, one spec and
    one member count are restricted and corrected as one stack, before one
    :func:`~perfci.quantiles.max_abs_quantiles` call answers all the
    quantiles, so many pairs' exact dim-2 quantiles are one vectorized
    solve.  A report does not depend on the other asks: it is the one
    :func:`set_report` gives its ask alone, bit for bit.  Every ask's fit
    and report are held until the call returns, so the caller bounds the
    memory by how many asks it passes.
    """
    for fit, _, _ in asks:
        if len(fit.estimates) != 1:
            raise DimensionMismatchError(f"a report needs a fit of one table, got {len(fit.estimates)} tables")
    answers = _answers([(fit, members, spec, (spec.seed,)) for fit, members, spec in asks])
    return [_report(answer) for answer in answers]


@dataclass(frozen=True, eq=False)
class _Answer:
    """One ask ``(members, spec)`` of each of the ``B`` tables of a stacked
    fit, answered.  ``usable[b, j]`` says whether member ``j`` has an
    interval in table ``b``; ``variance`` and ``half`` hold its (corrected)
    variance and half-width, NaN where it has none, and ``q`` and
    ``mc_stderr`` the table's quantile, NaN where no member is usable."""

    fits: TargetEstimates
    members: tuple[int, ...]
    spec: IntervalSpec
    usable: np.ndarray  # (B, k)
    variance: np.ndarray  # (B, k)
    half: np.ndarray  # (B, k)
    results: tuple[QuantileResult | None, ...]  # (B,)
    q: np.ndarray  # (B,)
    mc_stderr: np.ndarray  # (B,)


def _answers(asks) -> list[_Answer]:
    """Each ask ``(fits, members, spec, seeds)`` answered over the ``B`` tables
    of the fit ``fits``, table ``b`` drawing a simulated quantile with seed
    ``seeds[b]``: the one body from fits to intervals.

    Every ask's members are checked first, in ask order.  The asks that
    share a fit object, an equal spec and a member count are then one
    group, restricted and corrected as one ``(B, A, k, k)`` stack of their
    ``A`` asks (:func:`_restricted`); a lone ask is a group of one.  One
    :func:`~perfci.quantiles.max_abs_quantiles` call answers every table's
    quantile, requested in ask order and, within an ask, in table order.
    Each step is elementwise over the (table, ask) rows of a stack, so
    table ``b`` of an ask is answered as its stack of one would be, bit
    for bit."""
    asks = [(fits, tuple(members), spec, seeds) for fits, members, spec, seeds in asks]
    for fits, members, _, _ in asks:
        _check(members, len(fits.targets))
    groups: dict[tuple, list[int]] = {}
    for a, (fits, members, spec, _) in enumerate(asks):
        groups.setdefault((id(fits), spec, len(members)), []).append(a)
    parts = [None] * len(asks)
    for group in groups.values():
        for a, part in zip(group, _restricted([asks[a] for a in group])):
            parts[a] = part
    results = iter(max_abs_quantiles([r for *_, requests in parts for r in requests if r is not None]))
    return [
        _answered(*part, tuple(None if r is None else next(results) for r in requests))
        for *part, requests in parts
    ]


def _check(members: tuple[int, ...], n_targets: int) -> None:
    """Raise :class:`DimensionMismatchError` unless ``members`` is a non-empty
    set of distinct indices into ``n_targets`` targets."""
    if not members:
        raise DimensionMismatchError("a target set must not be empty")
    if not all(0 <= i < n_targets for i in members):
        raise DimensionMismatchError(f"target set {members} out of range for {n_targets} targets")
    if len(set(members)) < len(members):
        raise DimensionMismatchError(f"target set {members} repeats a target")


def _restricted(group):
    """``fits, members, spec, usable, variance, requests`` of each checked
    ask of ``group``, ``A`` asks of one fit, one spec and ``k`` members each:
    which members are usable in each table, their (corrected) variances,
    and each table's request for their quantile (``None`` when no member
    is usable).  The fit's ``(B, K, K)`` covariance is gathered into one
    ``(B, A, k, k)`` stack, which is corrected, masked, scaled and
    normalised at once."""
    fits, _, spec, _ = group[0]
    idx = np.array([members for _, members, _, _ in group], dtype=np.intp)  # (A, k)
    v = fits.v[:, idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    if spec.choice == CHOICE_CORRECTED:
        v = correct(v, spec.alpha, fits.gradients[:, idx], fits.n)
    variance = np.diagonal(v, axis1=2, axis2=3)  # (B, A, k)
    usable = ~fits.failed[:, idx] & (variance > 0.0)
    if spec.mode == "joint":
        scale = np.sqrt(np.where(usable, variance, 1.0))
        corr = _normalised(v / (scale[..., :, np.newaxis] * scale[..., np.newaxis, :]))
    masked = np.where(usable, variance, np.nan)
    parts = []
    for a, (_, members, _, seeds) in enumerate(group):
        ask = usable[:, a]
        requests = [None] * len(ask)
        for b in np.flatnonzero(ask.any(axis=1)).tolist():
            if spec.mode == "individual":
                matrix = _UNIT
            elif ask[b].all():
                matrix = CorrelationMatrix._trusted(corr[b, a])
            else:
                matrix = CorrelationMatrix._trusted(corr[b, a][np.ix_(ask[b], ask[b])])
            requests[b] = QuantileRequest(spec.alpha, matrix, spec.draws, seeds[b])
        parts.append((fits, members, spec, ask, masked[:, a], requests))
    return parts


def _answered(fits, members, spec, usable, variance, results) -> _Answer:
    """The :class:`_Answer` of a :func:`_restricted` ask, given its tables' quantile ``results``."""
    q = np.array([np.nan if r is None else r.q for r in results])
    mc_stderr = np.array([np.nan if r is None else r.mc_stderr for r in results])
    half = q[:, np.newaxis] * np.sqrt(variance / fits.n)  # NaN where not usable
    return _Answer(fits, members, spec, usable, variance, half, results, q, mc_stderr)


def _report(answer: _Answer) -> IntervalReport:
    """The report of table 0 of an answered ask."""
    fits, spec, result = answer.fits, answer.spec, answer.results[0]
    q = mc_stderr = jitter = method = draws = None
    if result is not None:
        q, mc_stderr, jitter = result.q, result.mc_stderr, result.jitter
        method, draws = result.method, result.draws
    rows = []
    for i, usable, variance, half in zip(
        answer.members, answer.usable[0].tolist(), answer.variance[0].tolist(), answer.half[0].tolist()
    ):
        rule_id, measure_id = fits.targets[i].rule_id, fits.targets[i].measure_id
        if i in fits.errors[0]:
            rows.append(TargetInterval(rule_id, measure_id, error=_describe(fits.errors[0][i])))
        elif usable:
            estimate = float(fits.estimates[0, i])
            lower, upper = estimate - half, estimate + half
            if spec.clamp and fits.measures[i].unit_range:
                lower, upper = max(0.0, lower), min(1.0, upper)
            rows.append(TargetInterval(rule_id, measure_id, estimate, lower, upper, half, variance))
        else:
            error = SingularVarianceError(i, f"choice {spec.choice}")
            rows.append(TargetInterval(rule_id, measure_id, error=_describe(error)))
    return IntervalReport(
        n=fits.n,
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
