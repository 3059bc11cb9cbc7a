"""Coverage simulation harness for the interval constructions.

The harness repeatedly samples a test set from a known data process,
applies fixed classification rules, builds intervals with the estimators
under study, and scores them against the known true measure values.
Three coverage notions are reported:

* individual: per target, how often its own individual interval covers;
* joint-of-individual: how often every individual interval covers at
  once (the naive reading of a table of marginal intervals);
* joint: how often the simultaneous intervals cover all their targets.

Each replication fits its sample once and builds every interval with
:func:`perfci.intervals.set_report`, the step behind
:func:`~perfci.intervals.analyze` and ``perfci analyze``, so
:func:`run_coverage` scores the same intervals ``analyze`` reports.

Data processes
--------------
``GaussianMixtureProcess`` draws labels fair-coin and a scalar feature
``x ~ N(z, 1)``, so threshold and 1-NN rules, whose predictions are
step functions of ``x``, have closed-form true moments.
``EmpiricalBootstrapProcess`` resamples rows of a fixed population table
with replacement; true values are the population plug-ins.  Setting
``with_replacement=False`` with test size equal to the population size
turns the process into a pure permutation, a degenerate configuration
whose estimates must equal the truth exactly in every replication; it
exists as an end-to-end self-check of the harness.

Reproducibility
---------------
Every replication derives its own counter-based substream from the
master seed and the replication index, and every simulated quantile gets
its own derived seed, so runs are deterministic for a fixed seed and
independent of execution order.  Neither depends on the variance
``choice``, so two studies that differ only in ``choice`` score the same
samples with the same quantile seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .covariance import estimate_targets
from .dataset import (
    BinaryDataset, EvaluationTarget, check_rule_ids, compute_moments, make_joint_sets,
    make_targets,
)
from .errors import PerfciError
from .intervals import IntervalSpec, set_report
from .measures import MeasureCatalog, MomentTriple, resolve_measure
from .quantiles import max_abs_quantile  # noqa: F401  (bench/spans.py wraps it in this namespace)
from .quantiles import norm_cdf

__all__ = [
    "SampleBatch",
    "GaussianMixtureProcess",
    "EmpiricalBootstrapProcess",
    "ThresholdRule",
    "OneNNRule",
    "FixedPredictionRule",
    "TrueParams",
    "true_params",
    "CoverageConfig",
    "JointSetCoverage",
    "CoverageDiagnostics",
    "CoverageResult",
    "run_coverage",
    "rare_positive_stress",
    "stress_population",
]

DEFAULT_SIM_DRAWS = 20_000


def _substream(seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _substream_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Data processes and rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One sampled test set before rules run.

    Feature-based processes fill ``x``; row-resampling processes fill
    ``population`` and ``indices`` so prediction columns can be sliced
    lazily per rule.
    """

    z: np.ndarray
    x: np.ndarray | None = None
    population: BinaryDataset | None = None
    indices: np.ndarray | None = None


class GaussianMixtureProcess:
    """Fair label coin; feature ``x ~ N(z, 1)`` given the label ``z``."""

    kind = "gaussian_mixture"

    def sample(self, n: int, rng: np.random.Generator) -> SampleBatch:
        z = (rng.random(n) < 0.5).astype(np.uint8)
        x = rng.standard_normal(n) + z
        return SampleBatch(z=z, x=x)

    def __repr__(self) -> str:
        return "GaussianMixtureProcess()"


class EmpiricalBootstrapProcess:
    """Row resampling from a fixed population table.

    ``with_replacement=False`` requires the test size to not exceed the
    population; at exactly the population size each replication is a
    permutation and estimates reproduce the population values exactly.
    """

    kind = "empirical_bootstrap"

    def __init__(self, population: BinaryDataset, with_replacement: bool = True):
        self.population = population
        self.with_replacement = bool(with_replacement)

    def sample(self, n: int, rng: np.random.Generator) -> SampleBatch:
        size = self.population.n
        if self.with_replacement:
            idx = rng.integers(0, size, n)
        else:
            if n > size:
                raise ValueError(
                    f"cannot draw {n} rows without replacement from {size}"
                )
            idx = rng.permutation(size)[:n]
        return SampleBatch(
            z=self.population.z[idx], population=self.population, indices=idx
        )

    def __repr__(self) -> str:
        return (
            f"EmpiricalBootstrapProcess(n={self.population.n}, "
            f"with_replacement={self.with_replacement})"
        )


class ThresholdRule:
    """Predict positive when the scalar feature exceeds ``theta``."""

    def __init__(self, theta: float, rule_id: str | None = None):
        self.theta = float(theta)
        self.id = rule_id if rule_id is not None else f"threshold({self.theta:g})"

    def predict(self, batch: SampleBatch) -> np.ndarray:
        if batch.x is None:
            raise PerfciError(f"rule {self.id!r} needs a feature sample")
        return (batch.x > self.theta).astype(np.uint8)

    def __repr__(self) -> str:
        return f"ThresholdRule({self.theta:g})"


class OneNNRule:
    """Label of the nearest training feature (scalar feature space).

    Equidistant neighbors resolve to the smaller training feature, so
    predictions are deterministic.  The rule is a step function: it
    predicts ``first`` for ``x <= cuts[0]`` and flips its prediction at
    each further cut, the midpoints between sorted training features of
    different labels.  Use :meth:`train` to fit one on a fresh training
    sample from a process.
    """

    def __init__(self, train_x: np.ndarray, train_z: np.ndarray, rule_id: str = "one_nn"):
        train_x = np.asarray(train_x, dtype=float)
        train_z = np.asarray(train_z)
        if train_x.shape != train_z.shape or train_x.ndim != 1 or train_x.size == 0:
            raise ValueError("training arrays must be equal-length non-empty vectors")
        order = np.argsort(train_x, kind="stable")
        xs, zs = train_x[order], train_z[order].astype(np.uint8)
        flips = np.flatnonzero(zs[1:] != zs[:-1])
        self.cuts = 0.5 * (xs[flips] + xs[flips + 1])
        self.first = int(zs[0])
        self._size = xs.size
        self.id = rule_id

    @classmethod
    def train(
        cls,
        process: GaussianMixtureProcess,
        size: int,
        seed: int,
        rule_id: str = "one_nn",
    ) -> "OneNNRule":
        rng = _substream(seed, 0xF17, 0)
        batch = process.sample(size, rng)
        return cls(batch.x, batch.z, rule_id=rule_id)

    def predict(self, batch: SampleBatch) -> np.ndarray:
        if batch.x is None:
            raise PerfciError(f"rule {self.id!r} needs a feature sample")
        # a query exactly on a cut takes the side below it
        return ((np.searchsorted(self.cuts, batch.x) + self.first) % 2).astype(np.uint8)

    def __repr__(self) -> str:
        return f"OneNNRule(train_size={self._size})"


class FixedPredictionRule:
    """Predictions come from a stored column of the population table."""

    def __init__(self, column: str, rule_id: str | None = None):
        self.column = column
        self.id = rule_id if rule_id is not None else column

    def predict(self, batch: SampleBatch) -> np.ndarray:
        if batch.population is None or batch.indices is None:
            raise PerfciError(f"rule {self.id!r} needs a resampled population batch")
        return batch.population.rule(self.column)[batch.indices]

    def __repr__(self) -> str:
        return f"FixedPredictionRule({self.column!r})"


# ---------------------------------------------------------------------------
# True parameter values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrueParams:
    """True measure values per target, with per-target provenance
    (``"analytic"`` or ``"population"``)."""

    targets: tuple[EvaluationTarget, ...]
    values: np.ndarray
    moments: dict[str, MomentTriple]
    provenance: tuple[str, ...]


def _mixture_step_moments(cuts: Sequence[float], first: int) -> MomentTriple:
    """Moments of a rule that predicts ``first`` for ``x <= cuts[0]`` and
    flips its prediction at each further (sorted) cut."""
    # P(lo < x <= hi | z) = Phi(hi - z) - Phi(lo - z) for z in {0, 1}
    edges = (-math.inf, *cuts, math.inf)
    positive = [0.0, 0.0]  # P(a = 1 | z = 0), P(a = 1 | z = 1)
    for k in range(1 - first, len(edges) - 1, 2):
        for z in (0, 1):
            positive[z] += norm_cdf(edges[k + 1] - z) - norm_cdf(edges[k] - z)
    return MomentTriple(
        m_za=0.5 * positive[1], m_a=0.5 * (positive[0] + positive[1]), m_z=0.5
    )


def true_params(
    process,
    rules: Sequence,
    measure_ids: Sequence[str],
    catalog: MeasureCatalog | None = None,
) -> TrueParams:
    """Exact true measure values for every (rule, measure) target.

    Threshold and 1-NN rules under the Gaussian mixture have closed
    forms; any fixed-prediction rule under a bootstrap process has its
    population plug-in.  Any other pair raises :class:`PerfciError`.
    """
    measures = [resolve_measure(mid, catalog) for mid in measure_ids]
    moments: dict[str, MomentTriple] = {}
    how: dict[str, str] = {}
    for rule in rules:
        if isinstance(process, EmpiricalBootstrapProcess) and isinstance(
            rule, FixedPredictionRule
        ):
            moments[rule.id] = compute_moments(process.population, rule.column)
            how[rule.id] = "population"
        elif isinstance(process, GaussianMixtureProcess) and isinstance(
            rule, ThresholdRule
        ):
            moments[rule.id] = _mixture_step_moments((rule.theta,), 0)
            how[rule.id] = "analytic"
        elif isinstance(process, GaussianMixtureProcess) and isinstance(rule, OneNNRule):
            moments[rule.id] = _mixture_step_moments(rule.cuts, rule.first)
            how[rule.id] = "analytic"
        else:
            raise PerfciError(f"no exact true value for rule {rule!r} under {process!r}")

    targets = make_targets([r.id for r in rules], [m.id for m in measures])
    values = np.array([m.evaluate(moments[r.id]) for r in rules for m in measures])
    provenance = tuple(how[t.rule_id] for t in targets)
    return TrueParams(
        targets=targets, values=values, moments=dict(moments), provenance=provenance
    )


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverageConfig:
    """Everything one coverage study needs.

    ``joint_sets`` is a spec for :func:`perfci.dataset.make_joint_sets`
    over the rule-major target list, such as ``"all"``,
    ``"per-rule,all"``, ``"0,1;2"`` or ``((0,), (0, 1))``.  Rule ids must
    be distinct (``threshold(0.3)`` and ``threshold(0.30)`` are not) and
    not ``z``, as in :meth:`BinaryDataset.from_arrays`.

    There is no catalog field: ``measure_ids`` resolve in the default
    measure catalog only, so a study cannot use a measure registered in
    another :class:`~perfci.measures.MeasureCatalog`.
    """

    process: object
    rules: tuple
    measure_ids: tuple[str, ...]
    n: int
    replications: int = 2000
    alpha: float = 0.05
    choice: int = 1
    joint_sets: object = "all"
    draws: int = DEFAULT_SIM_DRAWS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "measure_ids", tuple(self.measure_ids))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.choice not in (1, 2):
            raise ValueError(f"choice must be 1 or 2, got {self.choice}")
        if not self.rules or not self.measure_ids:
            raise ValueError("need at least one rule and one measure")
        check_rule_ids(rule.id for rule in self.rules)


@dataclass(frozen=True, eq=False)
class JointSetCoverage:
    """Coverage of the simultaneous intervals over one target subset."""

    label: str
    indices: tuple[int, ...]
    coverage: float
    avg_length: np.ndarray  # per member target, mean over covering-capable reps
    avg_q: float
    error_rate: float  # fraction of replications where some member failed


@dataclass(frozen=True, eq=False)
class CoverageDiagnostics:
    """Per-replication raw arrays, for tests and width comparisons.

    Not part of any serialized output.  ``individual_half`` entries are
    NaN where the target failed in that replication.
    """

    estimates: np.ndarray  # (reps, targets)
    variances: np.ndarray  # (reps, targets), after the choice's correction
    individual_half: np.ndarray  # (reps, targets)
    joint_half: dict[str, np.ndarray]  # label -> (reps, set size)
    joint_q: dict[str, np.ndarray]  # label -> (reps,)
    joint_mc_stderr: dict[str, np.ndarray]  # label -> (reps,)


@dataclass(frozen=True, eq=False)
class CoverageResult:
    """Aggregated coverage study output for one variance choice."""

    choice: int
    n: int
    alpha: float
    replications: int
    seed: int
    draws: int
    targets: tuple[EvaluationTarget, ...]
    true_values: np.ndarray
    provenance: tuple[str, ...]
    individual_coverage: np.ndarray  # per target
    avg_individual_length: np.ndarray  # per target
    joint_of_individual: float
    joint_sets: tuple[JointSetCoverage, ...]
    target_error_counts: np.ndarray  # per target, replications with no interval
    diagnostics: CoverageDiagnostics | None = None

    def joint_set(self, label: str) -> JointSetCoverage:
        for js in self.joint_sets:
            if js.label == label:
                return js
        raise KeyError(f"no joint set labeled {label!r}")

    def as_dict(self) -> dict:
        """JSON-friendly summary (diagnostics excluded; NaN averages as None)."""
        return {
            "meta": {
                "n": self.n,
                "alpha": self.alpha,
                "choice": self.choice,
                "replications": self.replications,
                "seed": self.seed,
                "draws": self.draws,
            },
            "targets": [
                {
                    "rule": t.rule_id,
                    "measure": t.measure_id,
                    "true_value": float(self.true_values[k]),
                    "provenance": self.provenance[k],
                    "individual_coverage": float(self.individual_coverage[k]),
                    "avg_individual_length": _finite_or_none(self.avg_individual_length[k]),
                    "error_count": int(self.target_error_counts[k]),
                }
                for k, t in enumerate(self.targets)
            ],
            "joint_of_individual": self.joint_of_individual,
            "joint_sets": [
                {
                    "label": js.label,
                    "indices": list(js.indices),
                    "coverage": js.coverage,
                    "avg_length": [_finite_or_none(v) for v in js.avg_length],
                    "avg_q": _finite_or_none(js.avg_q),
                    "error_rate": js.error_rate,
                }
                for js in self.joint_sets
            ],
        }


def _finite_or_none(value) -> float | None:
    return None if np.isnan(value) else float(value)


def run_coverage(config: CoverageConfig) -> CoverageResult:
    """Run one coverage study with the variance choice set in ``config``.

    Replication ``rep`` samples from substream ``(seed, rep, 0)`` and
    joint set ``i`` draws its quantile with seed ``(seed, rep, 1 + i)``.
    """
    rules = config.rules
    truth = true_params(config.process, rules, config.measure_ids)
    targets = truth.targets
    n_targets = len(targets)
    sets = make_joint_sets(config.joint_sets, targets)
    reps = config.replications
    spec = IntervalSpec(alpha=config.alpha, choice=config.choice, draws=config.draws)
    individual = replace(spec, mode="individual")

    est = np.full((reps, n_targets), np.nan)
    variances = np.full((reps, n_targets), np.nan)
    ind_half = np.full((reps, n_targets), np.nan)
    joint_half = {label: np.full((reps, len(idx)), np.nan) for label, idx in sets}
    joint_q = {label: np.full(reps, np.nan) for label, _ in sets}
    joint_mc = {label: np.full(reps, np.nan) for label, _ in sets}

    for rep in range(reps):
        batch = config.process.sample(config.n, _substream(config.seed, rep, 0))
        data = BinaryDataset(
            np.ascontiguousarray(batch.z, dtype=np.uint8),
            {rule.id: np.ascontiguousarray(rule.predict(batch), dtype=np.uint8) for rule in rules},
        )
        fit = estimate_targets(data, targets)
        est[rep, np.asarray(fit.alive, dtype=int)] = fit.estimates

        # failed rows carry None, which float arrays store as NaN
        report = set_report(fit, targets, range(n_targets), individual)
        variances[rep] = [row.variance for row in report.rows]
        ind_half[rep] = [row.half_width for row in report.rows]
        for set_pos, (label, idx) in enumerate(sets):
            seed = _substream_seed(config.seed, rep, 1 + set_pos)
            report = set_report(fit, targets, idx, replace(spec, seed=seed))
            joint_q[label][rep] = report.q
            joint_mc[label][rep] = report.mc_stderr
            joint_half[label][rep] = [row.half_width for row in report.rows]

    # ---- aggregate --------------------------------------------------------
    # NaN entries mean "no interval in that replication": comparisons give
    # False (not covered) and averages skip them.
    ind_cover = np.abs(est - truth.values) <= ind_half
    set_results = []
    for label, idx in sets:
        jh = joint_half[label]
        members = np.asarray(idx)
        cover = np.abs(est[:, members] - truth.values[members]) <= jh
        set_results.append(
            JointSetCoverage(
                label=label,
                indices=tuple(int(i) for i in idx),
                coverage=float(cover.all(axis=1).mean()),
                avg_length=2.0 * _nanmean(jh),
                avg_q=float(_nanmean(joint_q[label])),
                error_rate=float(np.isnan(jh).any(axis=1).mean()),
            )
        )
    return CoverageResult(
        choice=config.choice,
        n=config.n,
        alpha=config.alpha,
        replications=reps,
        seed=config.seed,
        draws=config.draws,
        targets=targets,
        true_values=truth.values,
        provenance=truth.provenance,
        individual_coverage=ind_cover.mean(axis=0),
        avg_individual_length=2.0 * _nanmean(ind_half),
        joint_of_individual=float(ind_cover.all(axis=1).mean()),
        joint_sets=tuple(set_results),
        target_error_counts=np.isnan(ind_half).sum(axis=0),
        diagnostics=CoverageDiagnostics(
            estimates=est,
            variances=variances,
            individual_half=ind_half,
            joint_half=joint_half,
            joint_q=joint_q,
            joint_mc_stderr=joint_mc,
        ),
    )


def _nanmean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of the non-NaN entries; NaN where there are none."""
    with np.errstate(invalid="ignore"):
        return np.nansum(values, axis=0) / np.sum(~np.isnan(values), axis=0)


# ---------------------------------------------------------------------------
# Built-in rare-positive stress setting
# ---------------------------------------------------------------------------

_STRESS_ROWS = 3333
_STRESS_POSITIVES = 300  # base rate 0.090
_STRESS_PREDICTED = 33
_STRESS_OVERLAP = 5  # true F0.5 = 6.25 / 108 ~ 0.0579


def stress_population() -> BinaryDataset:
    """Deterministic rare-positive population with one weak rule.

    3333 rows, 300 actual positives, 33 predicted positives, 5 in both;
    the weak rule's true F0.5 is about 0.058 and a size-3000 resample
    sees on average 4.5 of the 5 overlap rows, so zero-overlap samples
    (which break the plug-in variance) occur at a noticeable rate.
    """
    z = np.zeros(_STRESS_ROWS, dtype=np.uint8)
    a = np.zeros(_STRESS_ROWS, dtype=np.uint8)
    z[:_STRESS_POSITIVES] = 1
    a[:_STRESS_OVERLAP] = 1
    a[_STRESS_POSITIVES : _STRESS_POSITIVES + (_STRESS_PREDICTED - _STRESS_OVERLAP)] = 1
    return BinaryDataset(z, {"weak": a})


def rare_positive_stress(
    n: int = 3000,
    replications: int = 2000,
    alpha: float = 0.05,
    draws: int = DEFAULT_SIM_DRAWS,
    seed: int = 0,
) -> tuple[CoverageResult, CoverageResult]:
    """Plug-in vs corrected coverage on the built-in rare-event setting.

    Returns ``(plug_in, corrected)``: two :func:`run_coverage` studies
    that differ only in ``choice``, so they score identical sampled data
    and quantile streams, and their difference isolates the effect of the
    variance correction.
    """
    population = stress_population()
    config = CoverageConfig(
        process=EmpiricalBootstrapProcess(population),
        rules=(FixedPredictionRule("weak"),),
        measure_ids=("f_beta(0.5)", "accuracy"),
        n=n,
        replications=replications,
        alpha=alpha,
        choice=1,
        joint_sets="all",
        draws=draws,
        seed=seed,
    )
    return run_coverage(config), run_coverage(replace(config, choice=2))
