"""Data processes, rules, true values and the coverage study engine."""

import json

import numpy as np
import pytest

from perfci.dataset import BinaryDataset, compute_moments
from perfci.errors import PerfciError
from perfci.measures import resolve_measure
from perfci.quantiles import inv_norm_cdf, norm_cdf
from perfci.simulation import (
    CoverageConfig,
    EmpiricalBootstrapProcess,
    FixedPredictionRule,
    GaussianMixtureProcess,
    OneNNRule,
    SampleBatch,
    ThresholdRule,
    rare_positive_stress,
    run_coverage,
    stress_population,
    true_params,
)

# frozen analytic values for the mixture process, 30-digit arithmetic
ACC_THETA_05 = 0.691462461274013
ACC_THETA_03 = 0.687973884993849
F05_THETA_03 = 0.681626102069445
F05_THETA_07 = 0.695924518569659


def small_population(rng, n=40):
    while True:
        z = rng.integers(0, 2, n)
        a = rng.integers(0, 2, n)
        if 0 < z.sum() < n and 0 < a.sum() < n and (z * a).sum() > 0:
            if float(np.mean(z == a)) not in (0.0, 1.0):
                return BinaryDataset.from_arrays(z, {"fixed": a})


def test_mixture_process_sampling():
    rng = np.random.default_rng(61)
    batch = GaussianMixtureProcess().sample(5000, rng)
    assert set(np.unique(batch.z)) <= {0, 1}
    assert batch.x.shape == (5000,)
    # feature mean shifts by one between classes
    assert np.mean(batch.x[batch.z == 1]) - np.mean(batch.x[batch.z == 0]) == pytest.approx(
        1.0, abs=0.15
    )


def test_threshold_rule_ids_and_predictions():
    rule = ThresholdRule(0.5)
    assert rule.id == "threshold(0.5)"
    batch = SampleBatch(z=np.array([0, 1]), x=np.array([0.49, 0.51]))
    np.testing.assert_array_equal(rule.predict(batch), [0, 1])
    with pytest.raises(PerfciError):
        rule.predict(SampleBatch(z=np.array([0, 1])))  # no feature column
    assert ThresholdRule(0.5, rule_id="mine").id == "mine"


def test_one_nn_small_cases_and_tie_break():
    rule = OneNNRule(np.array([0.0, 1.0]), np.array([0, 1]))
    batch = SampleBatch(z=np.zeros(3, dtype=np.uint8), x=np.array([0.4, 0.6, 0.5]))
    # 0.5 is equidistant: resolves to the smaller training feature
    np.testing.assert_array_equal(rule.predict(batch), [0, 1, 0])
    with pytest.raises(ValueError):
        OneNNRule(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        OneNNRule(np.array([0.0, 1.0]), np.array([0]))


def test_one_nn_agrees_with_brute_force():
    rng = np.random.default_rng(62)
    for _ in range(10):
        xs = rng.standard_normal(15)
        zs = rng.integers(0, 2, 15)
        rule = OneNNRule(xs, zs)
        queries = rng.standard_normal(60)
        got = rule.predict(SampleBatch(z=np.zeros(60, dtype=np.uint8), x=queries))
        for q, label in zip(queries, got):
            d = np.abs(xs - q)
            best = d.min()
            nearest = np.nonzero(d == best)[0]
            pick = nearest[np.argmin(xs[nearest])]
            assert label == zs[pick]


def test_one_nn_training_is_seed_deterministic():
    proc = GaussianMixtureProcess()
    a = OneNNRule.train(proc, size=50, seed=9)
    b = OneNNRule.train(proc, size=50, seed=9)
    c = OneNNRule.train(proc, size=50, seed=10)
    batch = proc.sample(200, np.random.default_rng(0))
    np.testing.assert_array_equal(a.predict(batch), b.predict(batch))
    assert not np.array_equal(a.predict(batch), c.predict(batch))


def test_bootstrap_process_modes():
    pop = small_population(np.random.default_rng(63))
    rng = np.random.default_rng(1)
    with_rep = EmpiricalBootstrapProcess(pop).sample(100, rng)
    assert with_rep.z.shape == (100,)
    assert with_rep.population is pop

    no_rep = EmpiricalBootstrapProcess(pop, with_replacement=False)
    exact = no_rep.sample(pop.n, rng)
    np.testing.assert_array_equal(np.sort(exact.indices), np.arange(pop.n))
    with pytest.raises(ValueError):
        no_rep.sample(pop.n + 1, rng)


def test_fixed_prediction_rule_slices_population():
    pop = small_population(np.random.default_rng(64))
    rule = FixedPredictionRule("fixed")
    assert rule.id == "fixed"
    idx = np.array([3, 0, 3, 7])
    batch = SampleBatch(z=pop.z[idx], population=pop, indices=idx)
    np.testing.assert_array_equal(rule.predict(batch), pop.rule("fixed")[idx])
    with pytest.raises(PerfciError):
        rule.predict(SampleBatch(z=pop.z[idx]))


def test_true_params_analytic_for_mixture_thresholds():
    truth = true_params(
        GaussianMixtureProcess(),
        [ThresholdRule(0.3), ThresholdRule(0.5), ThresholdRule(0.7)],
        ["accuracy", "f_beta(0.5)"],
    )
    assert truth.provenance == ("analytic",) * 6
    by_label = {t.label(): v for t, v in zip(truth.targets, truth.values)}
    assert by_label["threshold(0.3):accuracy"] == pytest.approx(ACC_THETA_03, abs=1e-9)
    assert by_label["threshold(0.3):f_beta(0.5)"] == pytest.approx(F05_THETA_03, abs=1e-9)
    assert by_label["threshold(0.5):accuracy"] == pytest.approx(ACC_THETA_05, abs=1e-9)
    assert by_label["threshold(0.7):f_beta(0.5)"] == pytest.approx(F05_THETA_07, abs=1e-9)
    m = truth.moments["threshold(0.5)"]
    assert m.m_z == 0.5
    assert m.m_a == pytest.approx(0.5, abs=1e-12)
    assert m.m_za == pytest.approx(0.5 * norm_cdf(0.5), abs=1e-12)


def test_true_params_population_plug_in_for_bootstrap():
    pop = small_population(np.random.default_rng(65))
    truth = true_params(
        EmpiricalBootstrapProcess(pop), [FixedPredictionRule("fixed")], ["accuracy", "f1"]
    )
    assert truth.provenance == ("population", "population")
    m = compute_moments(pop, "fixed")
    assert truth.values[0] == resolve_measure("accuracy").evaluate(m)
    assert truth.values[1] == resolve_measure("f1").evaluate(m)


def test_true_params_one_nn_equals_its_threshold_cell():
    proc = GaussianMixtureProcess()
    cut = true_params(proc, [ThresholdRule(0.5)], ["accuracy"]).moments["threshold(0.5)"]
    truth = true_params(proc, [OneNNRule([0.0, 1.0], [0, 1])], ["accuracy"])
    assert truth.provenance == ("analytic",)
    assert truth.moments["one_nn"] == cut
    flipped = true_params(proc, [OneNNRule([0.0, 1.0], [1, 0])], ["accuracy"])
    assert flipped.moments["one_nn"].m_a == pytest.approx(1.0 - cut.m_a, abs=1e-15)
    assert flipped.moments["one_nn"].m_za == pytest.approx(0.5 - cut.m_za, abs=1e-15)


def test_true_params_one_nn_duplicate_features_follow_tie_rule():
    # sorted training set is x = (0, 0, 1), z = (1, 0, 1): queries at or
    # below 0 take the first duplicate, those just above it the last one
    rule = OneNNRule([0.0, 1.0, 0.0], [1, 1, 0])
    batch = SampleBatch(z=np.zeros(4, dtype=np.uint8), x=np.array([-0.1, 0.0, 0.1, 0.6]))
    np.testing.assert_array_equal(rule.predict(batch), [1, 1, 0, 1])
    m = true_params(GaussianMixtureProcess(), [rule], ["accuracy"]).moments["one_nn"]
    positive = [norm_cdf(-z) + 1.0 - norm_cdf(0.5 - z) for z in (0, 1)]
    assert m.m_za == pytest.approx(0.5 * positive[1], abs=1e-15)
    assert m.m_a == pytest.approx(0.5 * sum(positive), abs=1e-15)
    assert m.m_z == 0.5


def test_true_params_one_nn_agrees_with_predict_sample():
    proc = GaussianMixtureProcess()
    rule = OneNNRule.train(proc, size=500, seed=2)
    m = true_params(proc, [rule], ["accuracy"]).moments["one_nn"]
    rng = np.random.default_rng(67)
    rows, za, a = 4_000_000, 0, 0
    for _ in range(4):
        batch = proc.sample(rows // 4, rng)
        pred = rule.predict(batch)
        za += int(np.sum(pred & batch.z))
        a += int(np.sum(pred))
    for exact, count in ((m.m_za, za), (m.m_a, a)):
        stderr = np.sqrt(exact * (1.0 - exact) / rows)
        assert abs(count / rows - exact) <= 4.0 * stderr


def test_true_params_rejects_pairs_without_exact_truth():
    pop = small_population(np.random.default_rng(68))
    with pytest.raises(PerfciError, match="no exact true value"):
        true_params(GaussianMixtureProcess(), [FixedPredictionRule("fixed")], ["accuracy"])
    with pytest.raises(PerfciError, match="no exact true value"):
        true_params(EmpiricalBootstrapProcess(pop), [ThresholdRule(0.5)], ["accuracy"])


def test_coverage_config_validation():
    proc = GaussianMixtureProcess()
    rules = (ThresholdRule(0.5),)
    with pytest.raises(ValueError):
        CoverageConfig(process=proc, rules=rules, measure_ids=("accuracy",), n=1)
    with pytest.raises(ValueError):
        CoverageConfig(
            process=proc, rules=rules, measure_ids=("accuracy",), n=50, choice=3
        )
    with pytest.raises(ValueError):
        CoverageConfig(process=proc, rules=(), measure_ids=("accuracy",), n=50)
    with pytest.raises(ValueError):
        CoverageConfig(
            process=proc, rules=rules, measure_ids=("accuracy",), n=50, replications=0
        )
    with pytest.raises(ValueError):
        CoverageConfig(
            process=proc, rules=rules, measure_ids=("accuracy",), n=50, alpha=0.0
        )


def test_exhaustive_permutation_covers_exactly():
    pop = small_population(np.random.default_rng(66))
    config = CoverageConfig(
        process=EmpiricalBootstrapProcess(pop, with_replacement=False),
        rules=(FixedPredictionRule("fixed"),),
        measure_ids=("accuracy", "f1"),
        n=pop.n,
        replications=25,
        choice=1,
        draws=2_000,
        seed=3,
    )
    result = run_coverage(config)
    # every permutation reproduces the population estimate exactly
    assert np.all(result.diagnostics.estimates == result.true_values[np.newaxis, :])
    np.testing.assert_array_equal(result.individual_coverage, [1.0, 1.0])
    assert result.joint_of_individual == 1.0
    assert result.joint_sets[0].coverage == 1.0
    assert np.all(result.target_error_counts == 0)


def test_mixture_smoke_study_structure_and_determinism():
    config = CoverageConfig(
        process=GaussianMixtureProcess(),
        rules=(ThresholdRule(0.3), ThresholdRule(0.7)),
        measure_ids=("accuracy", "f1"),
        n=120,
        replications=60,
        choice=1,
        joint_sets="per-rule,all",
        draws=2_000,
        seed=4,
    )
    result = run_coverage(config)
    assert [t.label() for t in result.targets] == [
        "threshold(0.3):accuracy",
        "threshold(0.3):f1",
        "threshold(0.7):accuracy",
        "threshold(0.7):f1",
    ]
    assert [js.label for js in result.joint_sets] == [
        "threshold(0.3)",
        "threshold(0.7)",
        "all",
    ]
    assert result.joint_set("all").indices == (0, 1, 2, 3)
    assert result.joint_set("threshold(0.3)").indices == (0, 1)
    with pytest.raises(KeyError):
        result.joint_set("nope")

    assert np.all((result.individual_coverage >= 0) & (result.individual_coverage <= 1))
    assert result.joint_of_individual <= result.individual_coverage.min() + 1e-12
    assert np.all(result.target_error_counts == 0)
    assert np.all(result.avg_individual_length > 0)

    # joint multiplier never undercuts the scalar quantile beyond MC noise
    z = inv_norm_cdf(1.0 - config.alpha / 2.0)
    d = result.diagnostics
    for label in ("threshold(0.3)", "threshold(0.7)", "all"):
        assert np.all(d.joint_q[label] + 4.0 * d.joint_mc_stderr[label] + 1e-9 >= z)
    all_len = result.joint_set("all").avg_length
    assert np.all(all_len >= result.avg_individual_length * 0.9)

    again = run_coverage(config)
    np.testing.assert_array_equal(result.individual_coverage, again.individual_coverage)
    np.testing.assert_array_equal(d.estimates, again.diagnostics.estimates)
    assert result.joint_sets[2].coverage == again.joint_sets[2].coverage

    other = run_coverage(
        CoverageConfig(
            process=config.process,
            rules=config.rules,
            measure_ids=config.measure_ids,
            n=config.n,
            replications=config.replications,
            choice=1,
            joint_sets="per-rule,all",
            draws=2_000,
            seed=5,
        )
    )
    assert not np.array_equal(d.estimates, other.diagnostics.estimates)


def test_explicit_joint_sets_and_bad_tokens():
    config = CoverageConfig(
        process=GaussianMixtureProcess(),
        rules=(ThresholdRule(0.5),),
        measure_ids=("accuracy", "f1"),
        n=60,
        replications=5,
        choice=2,
        joint_sets=((0,), (0, 1)),
        draws=2_000,
        seed=6,
    )
    result = run_coverage(config)
    assert [js.label for js in result.joint_sets] == ["set0", "set1"]
    assert result.joint_sets[1].indices == (0, 1)

    bad_token = CoverageConfig(
        process=config.process,
        rules=config.rules,
        measure_ids=config.measure_ids,
        n=60,
        replications=5,
        joint_sets="everything",
        draws=2_000,
    )
    with pytest.raises(ValueError):
        run_coverage(bad_token)
    out_of_range = CoverageConfig(
        process=config.process,
        rules=config.rules,
        measure_ids=config.measure_ids,
        n=60,
        replications=5,
        joint_sets=((7,),),
        draws=2_000,
    )
    with pytest.raises(ValueError):
        run_coverage(out_of_range)


def test_result_serializes_to_json():
    config = CoverageConfig(
        process=GaussianMixtureProcess(),
        rules=(ThresholdRule(0.5),),
        measure_ids=("accuracy",),
        n=50,
        replications=5,
        choice=2,
        draws=2_000,
        seed=7,
    )
    payload = run_coverage(config).as_dict()
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["meta"]["choice"] == 2
    assert parsed["targets"][0]["rule"] == "threshold(0.5)"
    assert parsed["targets"][0]["provenance"] == "analytic"
    assert "diagnostics" not in parsed


def test_stress_population_layout():
    pop = stress_population()
    assert pop.n == 3333
    assert int(pop.z.sum()) == 300
    a = pop.rule("weak")
    assert int(a.sum()) == 33
    assert int((pop.z * a).sum()) == 5
    m = compute_moments(pop, "weak")
    assert resolve_measure("f_beta(0.5)").evaluate(m) == pytest.approx(6.25 / 108)


def test_stress_pair_shows_correction_benefit():
    plug, fixed = rare_positive_stress(
        n=3000, replications=600, draws=1_500, seed=11
    )
    assert plug.choice == 1 and fixed.choice == 2
    # same sampled data scored under both variance choices
    np.testing.assert_array_equal(
        plug.diagnostics.estimates, fixed.diagnostics.estimates
    )
    both = ~np.isnan(plug.diagnostics.variances)
    assert np.all(
        fixed.diagnostics.variances[both] > plug.diagnostics.variances[both]
    )
    # the correction never loses a target, the plug-in sometimes does
    assert np.all(fixed.target_error_counts == 0)
    assert np.all(plug.target_error_counts >= fixed.target_error_counts)
    assert fixed.joint_sets[0].coverage > plug.joint_sets[0].coverage
    assert np.all(
        fixed.avg_individual_length > plug.avg_individual_length * 0.999
    )
