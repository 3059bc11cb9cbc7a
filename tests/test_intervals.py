"""Individual and simultaneous interval construction, end to end."""

import math

import numpy as np
import pytest

from perfci.covariance import (
    CovarianceEstimate,
    TargetEstimates,
    correct,
    correlation,
    covariance_from_influences,
    estimate_targets,
    influence,
)
from perfci.dataset import BinaryDataset, EvaluationTarget, make_targets
from perfci.errors import (
    DimensionMismatchError,
    NoUsableTargetsError,
    OutOfRangeError,
)
from perfci.intervals import (
    CHOICE_CORRECTED,
    CHOICE_PLUGIN,
    IntervalSpec,
    analyze,
    set_report,
)
from perfci.measures import GradientTriple, resolve_measure
from perfci.quantiles import QuantileRequest, inv_norm_cdf, max_abs_quantile, sidak_quantile

Z = inv_norm_cdf(0.975)


def toy_dataset():
    return BinaryDataset.from_arrays([1, 1, 0, 0], {"a": [1, 0, 1, 0]})


def random_dataset(rng, n, rules=1):
    while True:
        z = rng.integers(0, 2, n)
        cols = {f"r{i}": rng.integers(0, 2, n) for i in range(rules)}
        if 0 < z.sum() < n and all(
            0 < a.sum() < n and (z * a).sum() > 0 for a in cols.values()
        ):
            return BinaryDataset.from_arrays(z, cols)


def test_interval_spec_validation():
    with pytest.raises(ValueError):
        IntervalSpec(mode="both")
    with pytest.raises(ValueError):
        IntervalSpec(choice=3)
    with pytest.raises(OutOfRangeError):
        IntervalSpec(alpha=1.0)


def test_accuracy_individual_reduces_to_binomial_interval():
    rng = np.random.default_rng(51)
    spec = IntervalSpec(mode="individual", choice=CHOICE_PLUGIN)
    for _ in range(30):
        n = int(rng.integers(6, 60))
        data = random_dataset(rng, n)
        p = float(np.mean(data.z == data.rule("r0")))
        if p in (0.0, 1.0):
            continue  # snapped variance, no plug-in interval
        report = analyze(data, make_targets(["r0"], ["accuracy"]), spec)
        row = report.rows[0]
        half = Z * math.sqrt(p * (1 - p) / (n - 1))
        assert row.estimate == pytest.approx(p, abs=1e-15)
        assert row.half_width == pytest.approx(half, abs=1e-12)
        assert report.q == pytest.approx(Z, abs=1e-15)
        assert report.mc_stderr == 0.0


def test_singleton_joint_matches_individual_to_mc_accuracy():
    data = toy_dataset()
    targets = make_targets(["a"], ["accuracy"])
    joint = analyze(data, targets, IntervalSpec(choice=CHOICE_PLUGIN, draws=50_000))
    assert joint.q == pytest.approx(Z, abs=max(0.03, 4 * joint.mc_stderr))


def test_joint_cis_on_synthetic_independent_pair():
    targets = [EvaluationTarget("a", "accuracy"), EvaluationTarget("b", "accuracy")]
    fit = TargetEstimates(
        alive=(0, 1),
        measures=(resolve_measure("accuracy"),) * 2,
        estimates=np.array([0.5, 0.6]),
        gradients=(GradientTriple(2.0, -1.0, -1.0),) * 2,
        errors={},
        cov=CovarianceEstimate(v=np.eye(2), n=100),
    )
    spec = IntervalSpec(choice=CHOICE_PLUGIN, draws=50_000, seed=2)
    report = set_report(fit, targets, (0, 1), spec)
    assert report.q == pytest.approx(sidak_quantile(0.05, 2), abs=0.03)
    for row, est in zip(report.rows, (0.5, 0.6)):
        assert row.estimate == est
        assert row.half_width == pytest.approx(report.q / 10.0, rel=1e-12)
        assert row.lower == pytest.approx(est - row.half_width)


def test_joint_cis_duplicate_targets_collapse_to_scalar_quantile():
    target = EvaluationTarget("a", "accuracy")
    spec = IntervalSpec(choice=CHOICE_PLUGIN, draws=50_000)
    report = analyze(toy_dataset(), [target, target], spec)
    assert report.q == pytest.approx(Z, abs=0.03)


def test_joint_cis_shape_and_subset_checks():
    data = toy_dataset()
    spec = IntervalSpec(choice=CHOICE_PLUGIN)
    with pytest.raises(DimensionMismatchError, match="empty"):
        analyze(data, [], spec)
    targets = make_targets(["a"], ["accuracy", "f1"])
    fit = estimate_targets(data, targets)
    with pytest.raises(DimensionMismatchError, match="out of range"):
        set_report(fit, targets, (0, 5), spec)
    with pytest.raises(DimensionMismatchError, match="empty"):
        set_report(fit, targets, (), spec)


def test_analyze_matches_manual_pipeline_exactly():
    rng = np.random.default_rng(52)
    data = random_dataset(rng, 40, rules=2)
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    spec = IntervalSpec(choice=CHOICE_CORRECTED, draws=20_000, seed=4)
    report = analyze(data, targets, spec)

    ivs = [influence(data, t) for t in targets]
    cov = correct(
        covariance_from_influences(ivs, data.n),
        spec.alpha,
        [iv.gradient for iv in ivs],
    )
    res = max_abs_quantile(
        QuantileRequest(
            alpha=spec.alpha, corr=correlation(cov), draws=spec.draws, seed=spec.seed
        )
    )
    assert report.q == res.q
    for k, row in enumerate(report.rows):
        assert row.variance == pytest.approx(cov.v[k, k], abs=1e-15)
        assert row.half_width == pytest.approx(
            res.q * math.sqrt(cov.v[k, k] / data.n), abs=1e-15
        )


def test_analyze_target_order_and_subset():
    data = random_dataset(np.random.default_rng(53), 30, rules=2)
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    spec = IntervalSpec(mode="individual")
    report = analyze(data, [targets[3], targets[0]], spec)
    assert [(r.rule_id, r.measure_id) for r in report.rows] == [
        ("r1", "f1"),
        ("r0", "accuracy"),
    ]


def test_analyze_partial_failure_keeps_good_rows():
    # rule "tie" has equal positive rates, so overlap has no gradient there
    data = BinaryDataset.from_arrays(
        [1, 1, 0, 0], {"good": [1, 0, 1, 1], "tie": [0, 0, 1, 1]}
    )
    targets = make_targets(["good", "tie"], ["accuracy", "overlap"])
    report = analyze(data, targets, IntervalSpec(mode="individual", choice=CHOICE_CORRECTED))
    assert len(report.rows) == 4
    bad = [r for r in report.rows if not r.ok]
    assert len(bad) == 1
    assert bad[0].rule_id == "tie" and bad[0].measure_id == "overlap"
    assert "DomainError" in bad[0].error
    assert len(report.ok_rows) == 3 and len(report.failed_rows) == 1
    # failed rows carry no interval fields
    assert bad[0].lower is None and bad[0].half_width is None


def test_analyze_all_failures_raise():
    data = BinaryDataset.from_arrays([1, 1, 0, 0], {"tie": [0, 0, 1, 1]})
    with pytest.raises(NoUsableTargetsError) as err:
        analyze(data, make_targets(["tie"], ["overlap"]), IntervalSpec())
    assert "tie:overlap" in str(err.value)


def test_analyze_perfect_rule_needs_correction():
    z = [1, 0, 1, 0, 1]
    data = BinaryDataset.from_arrays(z, {"perfect": list(z)})
    targets = make_targets(["perfect"], ["accuracy"])
    with pytest.raises(NoUsableTargetsError) as err:
        analyze(data, targets, IntervalSpec(mode="individual", choice=CHOICE_PLUGIN))
    assert "SingularVarianceError" in str(err.value)

    report = analyze(data, targets, IntervalSpec(mode="individual", choice=CHOICE_CORRECTED))
    row = report.rows[0]
    d = 6.0 * Z * Z / (2.0 * data.n)
    assert row.estimate == 1.0
    assert row.variance == pytest.approx(d, rel=1e-12)
    assert row.half_width == pytest.approx(Z * math.sqrt(d / data.n), rel=1e-12)
    assert row.upper > 1.0  # unclamped by default


def test_analyze_mixed_singular_and_alive_targets():
    z = [1, 0, 1, 0, 1, 0]
    data = BinaryDataset.from_arrays(
        z, {"perfect": list(z), "noisy": [1, 1, 0, 0, 1, 0]}
    )
    targets = make_targets(["perfect", "noisy"], ["accuracy"])
    report = analyze(data, targets, IntervalSpec(choice=CHOICE_PLUGIN, draws=20_000))
    assert len(report.failed_rows) == 1
    assert report.failed_rows[0].rule_id == "perfect"
    assert "SingularVarianceError" in report.failed_rows[0].error
    assert report.ok_rows[0].rule_id == "noisy"


def test_corrected_intervals_are_wider():
    rng = np.random.default_rng(54)
    for _ in range(15):
        data = random_dataset(rng, 30, rules=1)
        targets = make_targets(["r0"], ["accuracy", "f1"])
        spec1 = IntervalSpec(mode="individual", choice=CHOICE_PLUGIN)
        spec2 = IntervalSpec(mode="individual", choice=CHOICE_CORRECTED)
        r1 = analyze(data, targets, spec1)
        r2 = analyze(data, targets, spec2)
        for a, b in zip(r1.rows, r2.rows):
            assert b.half_width > a.half_width
            assert b.variance > a.variance


def test_joint_intervals_not_narrower_than_individual():
    data = random_dataset(np.random.default_rng(55), 60, rules=2)
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    joint = analyze(data, targets, IntervalSpec(choice=CHOICE_PLUGIN, draws=50_000))
    indiv = analyze(
        data, targets, IntervalSpec(mode="individual", choice=CHOICE_PLUGIN)
    )
    slack = 1.0 - (3 * joint.mc_stderr + 1e-3) / joint.q
    for j, i in zip(joint.rows, indiv.rows):
        assert j.half_width >= i.half_width * slack


def test_clamp_limits_unit_range_measures_only():
    data = toy_dataset()
    targets = make_targets(["a"], ["accuracy", "lift"])
    spec = IntervalSpec(mode="individual", choice=CHOICE_CORRECTED, clamp=True)
    report = analyze(data, targets, spec)
    acc = next(r for r in report.rows if r.measure_id == "accuracy")
    lift = next(r for r in report.rows if r.measure_id == "lift")
    assert 0.0 <= acc.lower and acc.upper <= 1.0
    assert lift.upper > 1.0 or lift.lower < 0.0  # untouched open-range measure

    plain = analyze(
        data, targets, IntervalSpec(mode="individual", choice=CHOICE_CORRECTED)
    )
    acc_plain = next(r for r in plain.rows if r.measure_id == "accuracy")
    assert acc_plain.upper > 1.0
