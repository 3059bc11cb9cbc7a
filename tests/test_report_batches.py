"""One report path: ``set_reports`` answers each ``(fit, members, spec)`` ask as
``set_report`` answers it alone, whatever else the batch holds, and
``run_coverage``, which asks for a block of replications at once, gives what
one ``set_report`` call per replication and set gave."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfci import intervals, simulation
from perfci.covariance import _fit, correct, estimate_targets
from perfci.dataset import BinaryDataset, make_joint_sets, make_targets
from perfci.errors import DimensionMismatchError
from perfci.intervals import IntervalSpec, set_report, set_reports
from perfci.measures import builtin_measures
from perfci.quantiles import two_sided_quantile
from perfci.simulation import (
    CoverageConfig,
    CoverageDiagnostics,
    CoverageResult,
    EmpiricalBootstrapProcess,
    FixedPredictionRule,
    GaussianMixtureProcess,
    JointSetCoverage,
    OneNNRule,
    ThresholdRule,
    run_coverage,
    stress_population,
    true_params,
)
from test_core_properties import tables

MEASURES = tuple(m.id for m in builtin_measures())
# no table has a rule "gone", so a set of its targets has no usable member
RULES = ("r0", "r1", "gone")


@st.composite
def asks(draw, fits, n_targets):
    size = draw(st.sampled_from([1, 2, 3, 5]))
    members = draw(st.lists(st.integers(0, n_targets - 1), min_size=size, max_size=size, unique=True))
    spec = IntervalSpec(
        alpha=draw(st.sampled_from([0.05, 0.2])),
        mode=draw(st.sampled_from(["individual", "joint"])),
        choice=draw(st.sampled_from([1, 2])),
        draws=1_000,
        seed=draw(st.integers(0, 3)),
    )
    return draw(st.sampled_from(fits)), members, spec


@settings(max_examples=60, deadline=None)
@given(st.lists(tables(), min_size=1, max_size=3), st.data())
def test_a_batch_answers_each_ask_as_set_report_answers_it_alone(datasets, data):
    targets = make_targets(RULES, MEASURES)
    fits = [estimate_targets(table, targets) for table in datasets]
    batch = data.draw(st.lists(asks(fits, len(targets)), min_size=1, max_size=8))
    gone = [i for i, t in enumerate(targets) if t.rule_id == "gone"][:3]
    batch.insert(data.draw(st.integers(0, len(batch))), (fits[0], gone, IntervalSpec()))

    reports = set_reports(batch)
    assert len(reports) == len(batch)
    for (fit, members, spec), report in zip(batch, reports):
        # repr names every field, floats to the last bit and NaN as nan
        assert repr(report) == repr(set_report(fit, members, spec))
        assert [(r.rule_id, r.measure_id) for r in report.rows] == [
            (targets[i].rule_id, targets[i].measure_id) for i in members
        ]
    unusable = reports[[members for _, members, _ in batch].index(gone)]
    assert unusable.q is None and unusable.quantile_method is None


def _two_rules():
    rng = np.random.default_rng(9)
    return BinaryDataset.from_arrays(rng.integers(0, 2, 60), {r: rng.integers(0, 2, 60) for r in ("r0", "r1")})


def test_a_batch_mixes_fits_of_different_targets():
    # each fit names its own targets: member i of the fit of targets[2:] is targets[2 + i]
    data = _two_rules()
    targets = make_targets(data.rule_ids, ("accuracy", "f1", "jaccard"))
    full, tail = estimate_targets(data, targets), estimate_targets(data, targets[2:])
    assert full.targets == tuple(targets) and tail.targets == tuple(targets[2:])
    batch = [
        (full, [0, 2, 4], IntervalSpec(draws=1_000, seed=1)),
        (tail, [0, 1], IntervalSpec()),
        (tail, [3, 2, 1], IntervalSpec(draws=1_000, seed=2)),
        (full, [5, 1], IntervalSpec(mode="individual", choice=1)),
    ]
    reports = set_reports(batch)
    for (fit, members, spec), report in zip(batch, reports, strict=True):
        assert repr(report) == repr(set_report(fit, members, spec))
        assert [(r.rule_id, r.measure_id) for r in report.rows] == [
            (fit.targets[i].rule_id, fit.targets[i].measure_id) for i in members
        ]
    assert [(r.rule_id, r.measure_id) for r in reports[2].rows] == [
        (targets[i].rule_id, targets[i].measure_id) for i in (5, 4, 3)
    ]


def test_asks_of_one_shape_are_corrected_as_one_stack_and_answered_as_alone(monkeypatch):
    rng = np.random.default_rng(3)
    tables = [
        BinaryDataset.from_arrays(rng.integers(0, 2, 80), {r: rng.integers(0, 2, 80) for r in ("r0", "r1", "r2")})
        for _ in range(2)
    ]
    targets = make_targets(("r0", "r1", "r2", "gone"), ("accuracy", "f1", "jaccard"))
    gone = [t.rule_id for t in targets].index("gone")
    one, two = (estimate_targets(table, targets) for table in tables)
    joint, triple = IntervalSpec(), IntervalSpec(draws=1_000, seed=7)
    batch = [
        (one, [0, 1], joint),
        (two, [0, 1], IntervalSpec()),  # an equal spec of another fit: its own stack
        (one, [4, 3], IntervalSpec()),
        (one, [0, 1], joint),  # a repeated member list
        (one, [gone, 2], joint),  # a failed member: the pair has one usable member
        (one, [0, 1, 2], triple),
        (one, [5, 7, 6], triple),
        (one, [3], joint),
        (one, [0, 1], IntervalSpec(choice=1)),
        (one, [2, 5], IntervalSpec(mode="individual")),
        (two, [2, 6, 8], triple),
        (one, [8], IntervalSpec(mode="individual", choice=1)),
        (one, [gone, gone + 1], joint),  # no usable member
        (two, [7, 2], IntervalSpec()),
    ]
    alone = [set_report(fit, members, spec) for fit, members, spec in batch]
    stacks = []
    monkeypatch.setattr(intervals, "correct", lambda v, *rest: stacks.append(v.shape) or correct(v, *rest))
    reports = set_reports(batch)
    assert reports == alone
    assert [r.quantile_method for r in reports] == [
        "bivariate", "bivariate", "bivariate", "bivariate", "normal", "monte_carlo", "monte_carlo",
        "normal", "bivariate", "normal", "monte_carlo", "normal", None, "bivariate",
    ]
    # one correction per (fit, spec, member count) group, in the order groups first appear
    assert stacks == [(1, 5, 2, 2), (1, 2, 2, 2), (1, 2, 3, 3), (1, 1, 1, 1), (1, 1, 2, 2), (1, 1, 3, 3)]


def test_a_batch_raises_for_its_first_bad_ask():
    fit = estimate_targets(_two_rules(), make_targets(("r0", "r1"), ("accuracy", "f1")))
    spec = IntervalSpec()
    for batch, message in [
        ([(fit, [0, 1], spec), (fit, [1, 1], spec), (fit, [9], spec)], "repeats a target"),
        ([(fit, [0, 1], spec), (fit, [0, 9], spec), (fit, [], spec)], "out of range"),
        ([(fit, [2], spec), (fit, [], spec), (fit, [3, 3], spec)], "must not be empty"),
    ]:
        with pytest.raises(DimensionMismatchError, match=message):
            set_reports(batch)


def test_a_report_refuses_a_fit_of_two_tables():
    # this raised a bare IndexError on the seed of the second table
    data = _two_rules()
    targets = make_targets(data.rule_ids, ("accuracy", "f1"))
    c = data._cross_products()
    stack = _fit(np.stack([c, c]), data.n, data.rule_ids, targets)
    with pytest.raises(DimensionMismatchError, match="a fit of one table, got 2 tables"):
        set_report(stack, [0, 1], IntervalSpec())
    with pytest.raises(DimensionMismatchError, match="one table"):
        set_reports([(estimate_targets(data, targets), [0], IntervalSpec()), (stack, [0], IntervalSpec())])


def per_replication_coverage(config):
    """``run_coverage`` as one ``set_report`` call per replication for the
    individual set, then one per joint set."""
    truth = true_params(config.process, config.rules, config.measure_ids)
    targets = truth.targets
    sets = make_joint_sets(config.joint_sets, targets)
    reps, n_targets = config.replications, len(targets)
    spec = IntervalSpec(alpha=config.alpha, choice=config.choice, draws=config.draws)
    est = np.full((reps, n_targets), np.nan)
    variances = np.full((reps, n_targets), np.nan)
    ind_half = np.full((reps, n_targets), np.nan)
    joint_half = {label: np.full((reps, len(idx)), np.nan) for label, idx in sets}
    joint_q = {label: np.full(reps, np.nan) for label, _ in sets}
    joint_mc = {label: np.full(reps, np.nan) for label, _ in sets}
    for rep in range(reps):
        batch = config.process.sample(config.n, simulation._substream(config.seed, rep, 0))
        data = BinaryDataset(
            np.ascontiguousarray(batch.z, dtype=np.uint8),
            {r.id: np.ascontiguousarray(r.predict(batch), dtype=np.uint8) for r in config.rules},
        )
        fit = estimate_targets(data, targets)
        est[rep] = fit.estimates[0]
        report = set_report(fit, range(n_targets), replace(spec, mode="individual"))
        variances[rep] = [row.variance for row in report.rows]
        ind_half[rep] = [row.half_width for row in report.rows]
        for k, (label, idx) in enumerate(sets):
            seed = simulation._substream_seed(config.seed, rep, 1 + k)
            report = set_report(fit, idx, replace(spec, seed=seed))
            joint_q[label][rep] = report.q
            joint_mc[label][rep] = report.mc_stderr
            joint_half[label][rep] = [row.half_width for row in report.rows]

    mean = simulation._nanmean
    ind_cover = np.abs(est - truth.values) <= ind_half
    joint = []
    for label, idx in sets:
        cover = np.abs(est[:, list(idx)] - truth.values[list(idx)]) <= joint_half[label]
        joint.append(JointSetCoverage(
            label, tuple(idx), float(cover.all(axis=1).mean()), 2.0 * mean(joint_half[label]),
            float(mean(joint_q[label])), float(np.isnan(joint_half[label]).any(axis=1).mean()),
        ))
    return CoverageResult(
        config.choice, config.n, config.alpha, reps, config.seed, config.draws, targets,
        truth.values, truth.provenance, ind_cover.mean(axis=0), 2.0 * mean(ind_half),
        float(ind_cover.all(axis=1).mean()), tuple(joint), np.isnan(ind_half).sum(axis=0),
        CoverageDiagnostics(est, variances, ind_half, joint_half, joint_q, joint_mc),
    )


def test_run_coverage_matches_one_set_report_per_replication_and_set():
    # two blocks and a part block of each study.  Resamples of the stress
    # population that miss all five overlap rows have singular plug-in rows
    # under choice 1.  In mixture samples of six rows, threshold(inf) never
    # fires: its f_beta(0.5) and jaccard leave their domain in a sample with
    # no positive label, and many rows of every rule are singular
    stress = CoverageConfig(
        process=EmpiricalBootstrapProcess(stress_population()),
        rules=(FixedPredictionRule("weak"),),
        measure_ids=("f_beta(0.5)", "accuracy", "f1"),
        n=3000,
        replications=2 * simulation._BLOCK + 3,
        joint_sets="0,1;all",  # a pair and a Monte Carlo triple
        draws=1_000,
        seed=4,
    )
    mixture = CoverageConfig(
        process=GaussianMixtureProcess(),
        rules=(ThresholdRule(0.3), OneNNRule.train(GaussianMixtureProcess(), 200, 5), ThresholdRule(math.inf)),
        measure_ids=("f_beta(0.5)", "accuracy", "jaccard"),
        n=6,
        replications=2 * simulation._BLOCK + 3,
        joint_sets="per-rule,all",  # three Monte Carlo triples and a set of nine
        draws=1_000,
        seed=5,
    )
    # per-rule pairs: each block's three pair sets are one stack, answered by one solve
    pairs = replace(mixture, measure_ids=("f_beta(0.5)", "accuracy"), seed=6)
    labels = {stress: {"set0", "all"}, mixture: {"threshold(0.3)", "one_nn", "threshold(inf)", "all"}}
    labels[pairs] = labels[mixture]
    for config in (stress, mixture, pairs):
        for choice in (1, 2):
            got = run_coverage(replace(config, choice=choice))
            want = per_replication_coverage(replace(config, choice=choice))
            assert got.as_dict() == want.as_dict()
            g, w = got.diagnostics, want.diagnostics
            for name in ("estimates", "variances", "individual_half"):
                assert same_bits(getattr(g, name), getattr(w, name))
            for name in ("joint_half", "joint_q", "joint_mc_stderr"):
                assert getattr(g, name).keys() == getattr(w, name).keys() == labels[config]
                for label, values in getattr(w, name).items():
                    assert same_bits(getattr(g, name)[label], values)
            if choice == 1:
                assert np.isnan(g.individual_half[:, 0]).any()
            assert np.isnan(g.estimates).any() == (config is mixture)  # the domain rows
            if config is pairs:
                # under choice 1 a pair has two, one or no usable members in some
                # replications: an exact pair, the normal quantile, no quantile
                q, z = g.joint_q["threshold(0.3)"], two_sided_quantile(config.alpha)
                seen = [bool((q > z).any()), bool((q == z).any()), bool(np.isnan(q).any())]
                assert seen == ([True, True, True] if choice == 1 else [True, False, False])


def same_bits(a, b):
    """Equal shapes and dtypes, and the same bits in every entry, NaN included."""
    return (a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes()
