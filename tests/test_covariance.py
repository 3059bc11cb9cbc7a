"""Influence vectors, delta-method covariance, diagonal correction."""

import numpy as np
import pytest

from perfci.covariance import (
    CorrelationMatrix,
    CovarianceEstimate,
    blurring_matrix,
    correct,
    correlation,
    covariance_from_influences,
    covariance_matrix,
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
    est = covariance_matrix(toy_dataset(), [EvaluationTarget("a", "accuracy")])
    assert est.v.shape == (1, 1)
    assert est.v[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert est.n == 4 and not est.corrected
    assert est.d_diag[0] == 0.0 and est.alpha is None


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
        est = covariance_matrix(data, [EvaluationTarget("r0", "accuracy")])
        p = float(np.mean(data.z == data.rule("r0")))
        assert est.v[0, 0] == pytest.approx(n * p * (1 - p) / (n - 1), abs=1e-13)


def test_covariance_matches_stacked_moment_oracle():
    rng = np.random.default_rng(42)
    measures = ["accuracy", "f1", "lift", "correlation"]
    for _ in range(100):
        n = int(rng.integers(10, 51))
        rule_count = int(rng.integers(1, 3))
        data = sample_dataset(rng, rule_count, n)
        picked = list(rng.choice(measures, size=rng.integers(1, 3), replace=False))
        targets = make_targets(data.rule_ids, picked)
        got = covariance_matrix(data, targets).v
        want = stacked_moment_oracle(data, targets)
        assert np.max(np.abs(got - want)) < 1e-12


def test_covariance_is_symmetric_and_near_psd():
    rng = np.random.default_rng(43)
    for _ in range(25):
        data = sample_dataset(rng, 2, int(rng.integers(12, 40)))
        targets = make_targets(data.rule_ids, ["accuracy", "f1"])
        v = covariance_matrix(data, targets).v
        np.testing.assert_array_equal(v, v.T)
        assert np.linalg.eigvalsh(v).min() > -1e-10 * max(1.0, np.max(np.abs(v)))


def test_degenerate_rows_snap_to_exact_zero():
    z = np.array([1, 0, 1, 0, 1])
    data = BinaryDataset.from_arrays(z, {"perfect": z.copy(), "noisy": [1, 1, 0, 0, 1]})
    targets = make_targets(["perfect", "noisy"], ["accuracy"])
    est = covariance_matrix(data, targets)
    assert est.v[0, 0] == 0.0
    assert est.v[0, 1] == 0.0 and est.v[1, 0] == 0.0
    assert est.v[1, 1] > 0.0
    with pytest.raises(SingularVarianceError) as err:
        correlation(est)
    msg = str(err.value)
    assert "corrected" in msg  # points at the Choice II remedy


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


def test_correct_adds_diagonal_only():
    est = covariance_matrix(toy_dataset(), [EvaluationTarget("a", "accuracy")])
    g = influence(toy_dataset(), EvaluationTarget("a", "accuracy")).gradient
    fixed = correct(est, alpha=0.05, gradients=[g])
    assert fixed.corrected and fixed.alpha == 0.05
    assert fixed.v[0, 0] == pytest.approx(CORRECTED_THIRD_N4, abs=1e-10)
    assert fixed.d_diag[0] == pytest.approx(fixed.v[0, 0] - est.v[0, 0], rel=1e-12)
    with pytest.raises(ValueError):
        correct(fixed, alpha=0.05, gradients=[g])
    with pytest.raises(DimensionMismatchError):
        correct(est, alpha=0.05, gradients=[g, g])


def test_correct_leaves_off_diagonals_unchanged():
    rng = np.random.default_rng(44)
    data = sample_dataset(rng, 2, 30)
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    ivs = [influence(data, t) for t in targets]
    est = covariance_from_influences(ivs, data.n)
    fixed = correct(est, alpha=0.05, gradients=[iv.gradient for iv in ivs])
    off = ~np.eye(est.dim, dtype=bool)
    np.testing.assert_array_equal(fixed.v[off], est.v[off])
    assert np.all(np.diagonal(fixed.v) > np.diagonal(est.v))


def test_correlation_values():
    est = CovarianceEstimate(v=np.array([[4.0, 1.0], [1.0, 1.0]]), n=10)
    r = correlation(est)
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


def test_restrict_selects_ordered_submatrix():
    v = np.arange(9, dtype=float).reshape(3, 3)
    v = 0.5 * (v + v.T)
    est = CovarianceEstimate(v=v, n=20, corrected=True, d_diag=np.array([1.0, 2.0, 3.0]), alpha=0.1)
    sub = est.restrict([2, 0])
    np.testing.assert_array_equal(sub.v, v[np.ix_([2, 0], [2, 0])])
    np.testing.assert_array_equal(sub.d_diag, [3.0, 1.0])
    assert sub.n == 20 and sub.corrected and sub.alpha == 0.1


def test_covariance_estimate_checks_its_shapes():
    with pytest.raises(DimensionMismatchError, match="covariance must be square"):
        CovarianceEstimate(v=np.ones((2, 3)), n=10)
    with pytest.raises(DimensionMismatchError, match="d_diag shape"):
        CovarianceEstimate(v=np.eye(2), n=10, d_diag=np.ones(3))
