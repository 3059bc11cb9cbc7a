"""Influence vectors, delta-method covariance, diagonal correction."""

import numpy as np
import pytest

from perfci.covariance import (
    CorrelationMatrix,
    blurring_matrix,
    correct,
    correlation,
    covariance_from_influences,
    estimate_targets,
    influence,
)
from perfci.dataset import BinaryDataset, EvaluationTarget, make_targets
from perfci.errors import (
    DimensionMismatchError,
    DomainError,
    SingularVarianceError,
    UnknownRuleError,
)
from perfci.measures import GradientTriple, resolve_measure
from perfci.quantiles import two_sided_quantile

Z_975_SQ = 1.95996398454005423552**2

# frozen reference: accuracy correction addend at alpha 0.05, n 500
D_ACCURACY_500 = 0.0230487529
# frozen reference: 1/3 plug-in variance plus accuracy addend at n = 4
CORRECTED_THIRD_N4 = 3.21442744885392


def toy_dataset():
    return BinaryDataset.from_arrays([1, 1, 0, 0], {"a": [1, 0, 1, 0]})


def sample_dataset(rng, rule_count, n):
    """Random table whose moments keep every test measure differentiable."""
    while True:
        z = rng.integers(0, 2, n)
        rules = {f"r{i}": rng.integers(0, 2, n) for i in range(rule_count)}
        if not (0 < z.sum() < n):
            continue
        if all(
            0 < a.sum() < n and (z * a).sum() > 0 for a in rules.values()
        ):
            return BinaryDataset.from_arrays(z, rules)


def stacked_moment_oracle(data, targets):
    """Independent covariance oracle: project np.cov of the raw moment
    rows (z*a and a per rule, plus z) through the measure gradients."""
    rule_ids = list(dict.fromkeys(t.rule_id for t in targets))
    rows = []
    index = {}
    for r in rule_ids:
        a = data.rule(r).astype(float)
        index[("za", r)] = len(rows)
        rows.append(data.z.astype(float) * a)
        index[("a", r)] = len(rows)
        rows.append(a)
    index["z"] = len(rows)
    rows.append(data.z.astype(float))
    c = np.atleast_2d(np.cov(np.vstack(rows)))

    proj = np.zeros((len(targets), len(rows)))
    for k, t in enumerate(targets):
        iv = influence(data, t)
        proj[k, index[("za", t.rule_id)]] = iv.gradient.d_za
        proj[k, index[("a", t.rule_id)]] = iv.gradient.d_a
        proj[k, index["z"]] = iv.gradient.d_z
    return proj @ c @ proj.T


def test_influence_values_for_accuracy_toy():
    iv = influence(toy_dataset(), EvaluationTarget("a", "accuracy"))
    np.testing.assert_array_equal(iv.values, [0.0, -1.0, -1.0, 0.0])
    assert iv.estimate == pytest.approx(0.5)
    assert iv.moments.m_za == 0.25
    assert iv.gradient.as_tuple() == (2.0, -1.0, -1.0)


def test_plugin_variance_for_accuracy_toy():
    fit = estimate_targets(toy_dataset(), [EvaluationTarget("a", "accuracy")])
    assert fit.v[0].shape == (1, 1)
    assert fit.v[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert fit.n == 4


def test_influence_propagates_specific_errors():
    data = toy_dataset()
    with pytest.raises(UnknownRuleError):
        influence(data, EvaluationTarget("nope", "accuracy"))
    allzero = BinaryDataset.from_arrays([0, 0, 0], {"r": [0, 0, 0]})
    with pytest.raises(DomainError):
        influence(allzero, EvaluationTarget("r", "f1"))
    tie = BinaryDataset.from_arrays([1, 1, 0, 0], {"r": [0, 0, 1, 1]})
    with pytest.raises(DomainError):
        influence(tie, EvaluationTarget("r", "overlap"))  # m_a == m_z kink


def test_accuracy_variance_matches_binomial_formula():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(5, 80))
        data = sample_dataset(rng, 1, n)
        v = estimate_targets(data, [EvaluationTarget("r0", "accuracy")]).v[0]
        p = float(np.mean(data.z == data.rule("r0")))
        assert v[0, 0] == pytest.approx(n * p * (1 - p) / (n - 1), abs=1e-13)


def test_covariance_matches_stacked_moment_oracle():
    rng = np.random.default_rng(42)
    measures = ["accuracy", "f1", "lift", "correlation"]
    for _ in range(100):
        n = int(rng.integers(10, 51))
        rule_count = int(rng.integers(1, 3))
        data = sample_dataset(rng, rule_count, n)
        picked = list(rng.choice(measures, size=rng.integers(1, 3), replace=False))
        targets = make_targets(data.rule_ids, picked)
        got = estimate_targets(data, targets).v[0]
        want = stacked_moment_oracle(data, targets)
        assert np.max(np.abs(got - want)) < 1e-12


def test_covariance_is_symmetric_and_near_psd():
    rng = np.random.default_rng(43)
    for _ in range(25):
        data = sample_dataset(rng, 2, int(rng.integers(12, 40)))
        targets = make_targets(data.rule_ids, ["accuracy", "f1"])
        v = estimate_targets(data, targets).v[0]
        np.testing.assert_array_equal(v, v.T)
        assert np.linalg.eigvalsh(v).min() > -1e-10 * max(1.0, np.max(np.abs(v)))


def test_degenerate_rows_snap_to_exact_zero():
    z = np.array([1, 0, 1, 0, 1])
    data = BinaryDataset.from_arrays(z, {"perfect": z.copy(), "noisy": [1, 1, 0, 0, 1]})
    targets = make_targets(["perfect", "noisy"], ["accuracy"])
    v = estimate_targets(data, targets).v[0]
    assert v[0, 0] == 0.0
    assert v[0, 1] == 0.0 and v[1, 0] == 0.0
    assert v[1, 1] > 0.0
    with pytest.raises(SingularVarianceError) as err:
        correlation(v)
    msg = str(err.value)
    assert "corrected" in msg  # points at the Choice II remedy
    assert "(diagonal entry 0.0)" in msg  # it printed the numpy scalar, np.float64(0.0)


def test_covariance_from_influences_length_check():
    data = toy_dataset()
    iv = influence(data, EvaluationTarget("a", "accuracy"))
    with pytest.raises(DimensionMismatchError):
        covariance_from_influences([iv], n=5)
    with pytest.raises(DimensionMismatchError):
        covariance_from_influences([], n=4)


def test_blurring_values_and_scaling():
    acc = resolve_measure("accuracy")
    g = acc.gradient(
        influence(toy_dataset(), EvaluationTarget("a", "accuracy")).moments
    )
    d500 = blurring_matrix([g], alpha=0.05, n=500)
    assert d500[0] == pytest.approx(D_ACCURACY_500, abs=1e-8)
    assert d500[0] == pytest.approx(6.0 * Z_975_SQ / 1000.0, rel=1e-12)
    for n in (1, 10, 1000):
        dn = blurring_matrix([g], alpha=0.05, n=n)
        assert dn[0] * n == pytest.approx(d500[0] * 500, rel=1e-12)
    assert blurring_matrix([GradientTriple(0.0, 0.0, 0.0)], 0.05, 100)[0] == 0.0
    with pytest.raises(ValueError):
        blurring_matrix([g], alpha=0.05, n=0)


def test_blurring_of_a_gradient_stack_squares_as_squared_norm_does():
    # under glibc, 0.4846648782067015 ** 2 is one ulp above the product of the float with itself
    grads = [GradientTriple(0.4846648782067015, 0.0, 0.0), GradientTriple(2.0, -1.0, -1.0)]
    z = two_sided_quantile(0.05)
    want = np.array([g.squared_norm() * z * z / (2.0 * 300) for g in grads])
    assert blurring_matrix(grads, 0.05, 300).tobytes() == want.tobytes()
    stack = np.array([[g.as_tuple() for g in grads]] * 3)
    assert blurring_matrix(stack, 0.05, 300).tobytes() == np.array([want] * 3).tobytes()


def test_correct_adds_diagonal_only():
    fit = estimate_targets(toy_dataset(), [EvaluationTarget("a", "accuracy")])
    v = fit.v[0]
    g = influence(toy_dataset(), EvaluationTarget("a", "accuracy")).gradient
    fixed = correct(v, alpha=0.05, gradients=[g], n=fit.n)
    assert fixed[0, 0] == pytest.approx(CORRECTED_THIRD_N4, abs=1e-10)
    d = blurring_matrix([g], alpha=0.05, n=fit.n)
    assert d[0] == pytest.approx(fixed[0, 0] - v[0, 0], rel=1e-12)
    assert v[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)  # a copy: the fit keeps its plug-in v
    with pytest.raises(DimensionMismatchError):
        correct(v, alpha=0.05, gradients=[g, g], n=fit.n)


def test_correct_leaves_off_diagonals_unchanged():
    rng = np.random.default_rng(44)
    data = sample_dataset(rng, 2, 30)
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    ivs = [influence(data, t) for t in targets]
    v = covariance_from_influences(ivs, data.n)
    fixed = correct(v, alpha=0.05, gradients=[iv.gradient for iv in ivs], n=data.n)
    off = ~np.eye(len(v), dtype=bool)
    np.testing.assert_array_equal(fixed[off], v[off])
    assert np.all(np.diagonal(fixed) > np.diagonal(v))


def test_correct_of_a_stack_is_correct_of_each_table():
    rng = np.random.default_rng(45)
    a = rng.normal(size=(4, 3, 3))
    v, gradients = a @ a.transpose(0, 2, 1), rng.normal(size=(4, 3, 3))
    stacked = correct(v, 0.05, gradients, 50)
    for b in range(4):
        assert stacked[b].tobytes() == correct(v[b], 0.05, gradients[b], 50).tobytes()
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_array_equal(stacked[:, off], v[:, off])
    np.testing.assert_array_equal(
        np.diagonal(stacked, axis1=1, axis2=2), np.diagonal(v, axis1=1, axis2=2) + blurring_matrix(gradients, 0.05, 50)
    )
    for wrong in (gradients[:3], gradients[:, :2]):
        with pytest.raises(DimensionMismatchError):
            correct(v, 0.05, wrong, 50)


def test_correct_and_correlation_refuse_a_non_square_covariance():
    g = GradientTriple(1.0, 0.0, 0.0)
    for v in (np.ones((2, 3)), np.ones(2), np.ones((2, 2, 3))):
        with pytest.raises(DimensionMismatchError, match="covariance must be square"):
            correct(v, 0.05, [g, g], 10)
        with pytest.raises(DimensionMismatchError, match="covariance must be square"):
            correlation(v)
    with pytest.raises(DimensionMismatchError, match="covariance must be square and 2-d"):
        correlation(np.ones((2, 2, 2)))


def test_correlation_values():
    r = correlation(np.array([[4.0, 1.0], [1.0, 1.0]]))
    assert r.values[0, 1] == pytest.approx(0.5)
    np.testing.assert_array_equal(np.diagonal(r.values), [1.0, 1.0])

    data = toy_dataset()
    iv = influence(data, EvaluationTarget("a", "accuracy"))
    dup = covariance_from_influences([iv, iv], data.n)
    assert correlation(dup).values[0, 1] == 1.0  # identical rows, clamped


def test_correlation_matrix_validation_and_clamp():
    spill = 1.0 + 5e-9
    r = CorrelationMatrix(np.array([[1.0, spill], [spill, 1.0]]))
    assert r.values[0, 1] == 1.0
    assert r.dim == 2
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[1.0, 1.1], [1.1, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[1.0, 0.3], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        CorrelationMatrix(np.ones((2, 3)))
