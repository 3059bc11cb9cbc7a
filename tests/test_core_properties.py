"""Property tests: the count-based core against the per-row reference.

``estimate_targets`` works on the distinct ``(z, a_1..a_R)`` rows of a
table with their counts; ``influence`` plus ``covariance_from_influences``
is the per-row form of the same formulas.  Tables are random, with
degenerate columns mixed in (constant ``z``, constant ``a``, ``a == z``,
``a == 1 - z``), and every built-in measure is a target.  Further
properties: the plug-in covariance is positive semidefinite, the
correction never lowers a variance, reports do not depend on the order
of the rule columns, and every JSON report of ``perfci analyze``,
``perfci coverage`` and ``perfci quantile`` parses with a strict parser.
"""

import dataclasses
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfci.cli import main
from perfci.covariance import (
    correct,
    covariance_from_influences,
    covariance_matrix,
    estimate_targets,
    influence,
)
from perfci.dataset import BinaryDataset, make_targets
from perfci.errors import DomainError, UnknownMeasureError, UnknownRuleError
from perfci.intervals import CHOICE_CORRECTED, CHOICE_PLUGIN, IntervalSpec, analyze, set_report
from perfci.measures import builtin_measures
from test_regressions import strict_loads

MEASURES = tuple(m.id for m in builtin_measures())
COLUMN_KINDS = ("random", "zeros", "ones", "copy_z", "flip_z")


@st.composite
def tables(draw):
    n = draw(st.integers(2, 40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    z_kind = draw(st.sampled_from(("random", "random", "zeros", "ones")))
    z = np.array(draw(bits) if z_kind == "random" else [int(z_kind == "ones")] * n)
    rules = {}
    for r in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        if kind == "random":
            rules[f"r{r}"] = np.array(draw(bits))
        else:
            rules[f"r{r}"] = {"zeros": 0 * z, "ones": 0 * z + 1, "copy_z": z, "flip_z": 1 - z}[kind]
    return BinaryDataset.from_arrays(z, rules)


def per_row_reference(data, targets):
    """Per-row estimates, errors and covariance over the targets that work."""
    ivs, errors = {}, {}
    for pos, target in enumerate(targets):
        try:
            ivs[pos] = influence(data, target)
        except (DomainError, UnknownRuleError, UnknownMeasureError) as exc:
            errors[pos] = exc
    alive = sorted(ivs)
    cov = covariance_from_influences([ivs[p] for p in alive], data.n) if alive else None
    return ivs, errors, alive, cov


# 70 rules: the gradient columns of a wide table, and row codes past 62 bits
# that must keep apart rows differing only in z
_BASE = np.random.default_rng(11).integers(0, 2, (4, 71))
WIDE = np.vstack([_BASE, _BASE ^ np.eye(1, 71, dtype=int)])[np.random.default_rng(12).integers(0, 8, 60)]


@settings(max_examples=150, deadline=None)
@example(BinaryDataset.from_arrays(WIDE[:, 0], {f"r{j}": WIDE[:, 1 + j] for j in range(70)}))
@given(tables())
def test_core_matches_per_row_reference(data):
    targets = make_targets(data.rule_ids, MEASURES)
    fit = estimate_targets(data, targets)
    ivs, errors, alive, ref = per_row_reference(data, targets)

    assert list(fit.alive) == alive
    assert {p: (type(e), str(e)) for p, e in fit.errors.items()} == {
        p: (type(e), str(e)) for p, e in errors.items()
    }
    for r, pos in enumerate(alive):
        assert fit.estimates[r] == ivs[pos].estimate  # bit-identical
        assert fit.gradients[r] == ivs[pos].gradient
    if not alive:
        assert fit.cov.dim == 0
        return
    v, want = fit.cov.v, ref.v
    assert np.max(np.abs(v - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    np.testing.assert_array_equal(np.diagonal(v) == 0.0, np.diagonal(want) == 0.0)


@settings(max_examples=100, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_row_permutation_leaves_covariance_unchanged(data, random):
    order = list(range(data.n))
    random.shuffle(order)
    shuffled = BinaryDataset(
        data.z[order], {rid: data.rule(rid)[order] for rid in data.rule_ids}
    )
    targets = make_targets(data.rule_ids, MEASURES)
    a = estimate_targets(data, targets)
    b = estimate_targets(shuffled, targets)
    assert a.alive == b.alive
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert np.max(np.abs(a.cov.v - b.cov.v), initial=0.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(tables())
def test_plugin_covariance_is_positive_semidefinite(data):
    v = estimate_targets(data, make_targets(data.rule_ids, MEASURES)).cov.v
    if v.size:
        assert np.linalg.eigvalsh(v).min() >= -1e-12 * np.trace(v)


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from([0.01, 0.05, 0.3]))
def test_corrected_variances_are_at_least_the_plugin_ones(data, alpha):
    targets = make_targets(data.rule_ids, MEASURES)
    fit = estimate_targets(data, targets)
    corrected = correct(fit.cov, alpha, fit.gradients)
    assert np.all(np.diagonal(corrected.v) >= np.diagonal(fit.cov.v))
    reports = [
        set_report(fit, targets, range(len(targets)), IntervalSpec(alpha, "individual", choice))
        for choice in (CHOICE_PLUGIN, CHOICE_CORRECTED)
    ]
    for plugin, corrected_row in zip(*(report.rows for report in reports)):
        if plugin.ok:
            assert corrected_row.ok and corrected_row.variance >= plugin.variance


def _outcome(data, targets, spec):
    try:
        return analyze(data, targets, spec)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return (type(exc), str(exc))


@settings(max_examples=100, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_reordering_rule_columns_leaves_reports_unchanged(data, random):
    ids = list(data.rule_ids)
    random.shuffle(ids)
    reordered = BinaryDataset.from_arrays(data.z, [(rid, data.rule(rid)) for rid in ids])
    targets = make_targets(data.rule_ids, MEASURES)
    for spec in (IntervalSpec(mode="individual"), IntervalSpec(draws=2000, seed=3)):
        want, got = _outcome(data, targets, spec), _outcome(reordered, targets, spec)
        if isinstance(want, tuple):
            assert got == want
            continue
        # sums over the distinct rows run in another order: last bits may move
        close = lambda *x: pytest.approx(x, rel=1e-9, abs=1e-12, nan_ok=True)
        blank = dict(q=0.0, mc_stderr=0.0, rows=())
        assert dataclasses.replace(got, **blank) == dataclasses.replace(want, **blank)
        assert (got.q, got.mc_stderr) == close(want.q, want.mc_stderr)
        for row, old in zip(got.rows, want.rows, strict=True):
            assert (row.rule_id, row.measure_id, row.error, row.estimate) == (
                old.rule_id, old.measure_id, old.error, old.estimate
            )
            if row.ok:
                assert (row.lower, row.upper, row.variance) == close(old.lower, old.upper, old.variance)


def test_all_positive_labels_give_exact_zero_lift_and_overlap_variance():
    # z == 1 everywhere: lift and overlap influence values are constant
    data = BinaryDataset.from_arrays([1] * 6, {"a": [1, 0, 1, 1, 0, 0]})
    targets = make_targets(["a"], ["accuracy", "lift", "overlap"])
    for cov in (
        estimate_targets(data, targets).cov,
        covariance_from_influences([influence(data, t) for t in targets], data.n),
    ):
        assert cov.v[1, 1] == 0.0 and cov.v[2, 2] == 0.0
        assert np.all(cov.v[1:, :] == 0.0) and np.all(cov.v[:, 1:] == 0.0)
        assert cov.v[0, 0] > 0.0

    report = analyze(data, targets, IntervalSpec(mode="individual", choice=CHOICE_PLUGIN))
    assert report.rows[0].ok
    for row in report.rows[1:]:
        assert row.error.startswith("SingularVarianceError")


def test_row_counts_match_a_direct_tally_past_the_code_width():
    # 70 rules plus z exceed the 62 bits one int64 row code can hold;
    # rows repeat a few random patterns, with small bit flips
    rng = np.random.default_rng(7)
    n, rules = 300, 70
    grid = rng.integers(0, 2, (6, 1 + rules))[rng.integers(0, 6, n)]
    grid[rng.random(grid.shape) < 0.002] ^= 1
    z = grid[:, 0]
    cols = {f"r{j}": grid[:, 1 + j] for j in range(rules)}
    data = BinaryDataset.from_arrays(z, cols)
    patterns, counts = data.row_counts()
    assert data.row_counts()[0] is patterns  # cached
    got = Counter()
    for row, count in zip(patterns, counts):
        got[tuple(map(int, row))] += int(count)
    want = Counter(
        (int(z[i]), *(int(cols[r][i]) for r in data.rule_ids)) for i in range(n)
    )
    assert got == want
    assert len(got) == counts.size  # rows are distinct


def test_covariance_matrix_raises_the_first_target_failure():
    data = BinaryDataset.from_arrays([1, 1, 0, 0], {"tie": [0, 0, 1, 1]})
    with pytest.raises(DomainError):
        covariance_matrix(data, make_targets(["tie"], ["accuracy", "overlap"]))
    with pytest.raises(UnknownRuleError):
        covariance_matrix(data, make_targets(["nope"], ["accuracy"]))


@settings(max_examples=80, deadline=None)
@given(
    tables(),
    st.lists(st.sampled_from(MEASURES), min_size=1, max_size=4, unique=True),
    st.sampled_from(["1", "2"]),
    st.booleans(),
)
def test_analyze_json_is_strict_json(data, measures, choice, clamp):
    # degenerate columns fail targets, and whole sets when no measure is total
    lines = [",".join(["z", *data.rule_ids])]
    lines += [",".join(map(str, row)) for row in zip(data.z, *map(data.rule, data.rule_ids))]
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp) / "t.csv", Path(tmp) / "out.json"
        table.write_text("\n".join(lines) + "\n")
        for joint in ("none", "all", "per-rule"):
            argv = ["analyze", str(table), "--measures", ",".join(measures), "--joint", joint,
                    "--choice", choice, "--draws", "1000", "--format", "json", "--output", str(out)]
            out.unlink(missing_ok=True)
            assert main(argv + ["--clamp"] * clamp) in (0, 1, 2)
            payload = strict_loads(out.read_text())
            reports = payload if isinstance(payload, list) else [payload]
            assert sum(len(r["targets"]) for r in reports) == len(measures) * len(data.rule_ids)


# the first example has an all-zero rule: f1 never gets a plug-in interval, so
# its averages and its whole per-rule joint set are missing
@settings(max_examples=40, deadline=None)
@example(BinaryDataset.from_arrays([1, 0] * 4, {"r0": [0] * 8, "r1": [1, 0, 0, 1] * 2}),
         ["f1"], "1", "per-rule", 6)
@given(
    tables(),
    st.lists(st.sampled_from(MEASURES), min_size=1, max_size=3, unique=True),
    st.sampled_from(["1", "2"]),
    st.sampled_from(["per-rule", "all", "none"]),
    st.integers(2, 12),
)
def test_coverage_json_is_strict_json(data, measures, choice, joint, n):
    lines = [",".join(["z", *data.rule_ids])]
    lines += [",".join(map(str, row)) for row in zip(data.z, *map(data.rule, data.rule_ids))]
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp) / "pop.csv", Path(tmp) / "out.json"
        table.write_text("\n".join(lines) + "\n")
        argv = ["coverage", "--process", "bootstrap", "--population", str(table),
                "--rules", ",".join(data.rule_ids), "--measures", ",".join(measures),
                "--joint", joint, "--choice", choice, "--n", str(n), "--replications", "3",
                "--draws", "1000", "--format", "json", "--output", str(out)]
        code = main(argv)
        # a measure undefined on the population has no truth: a hard error, no output
        assert code == 0 or (code == 1 and not out.exists())
        if code:
            return
        payload = strict_loads(out.read_text())
    assert len(payload["targets"]) == len(measures) * len(data.rule_ids)


@st.composite
def correlation_args(draw):
    """``--dim`` of 1 to 3, or ``--corr`` with a 2 x 2 matrix or a rank-one 3 x 3."""
    kind = draw(st.sampled_from(["dim", "pair", "rank_one"]))
    if kind == "dim":
        return ["--dim", str(draw(st.integers(1, 3)))]
    if kind == "pair":
        rho = draw(st.floats(-1.0, 1.0))
        return ["--corr", f"1,{rho!r};{rho!r},1"]
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3))
    return ["--corr", ";".join(",".join(str(a * b) for b in signs) for a in signs)]


@settings(max_examples=60, deadline=None)
@given(correlation_args(), st.floats(1e-10, 0.9), st.integers(0, 2**32))
def test_quantile_json_is_strict_json(corr_args, alpha, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        argv = ["quantile", *corr_args, "--alpha", repr(alpha), "--draws", "1000",
                "--seed", str(seed), "--format", "json", "--output", str(out)]
        simulated = corr_args[1] not in ("1", "2") and corr_args[1].count(";") != 1
        if simulated and alpha * 1000 < 1.0:
            # 1000 draws cannot simulate a quantile beyond their largest
            assert main(argv) == 1 and not out.exists()
            return
        assert main(argv) == 0
        payload = strict_loads(out.read_text())
    assert payload["q"] > 0.0 and payload["mc_stderr"] >= 0.0
    assert payload["method"] == {1: "normal", 2: "bivariate"}.get(payload["dim"], "monte_carlo")
