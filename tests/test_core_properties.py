"""Property tests: the count-based core against the per-row reference.

``estimate_targets`` works on the cross-products of a table's indicator
columns, which one fold builds from every table; ``influence`` plus
``covariance_from_influences`` is the per-row form of the same formulas.  Tables are random, with
degenerate columns mixed in (constant ``z``, constant ``a``, ``a == z``,
``a == 1 - z``), and every built-in measure is a target.  Further
properties: the plug-in covariance is positive semidefinite, the
correction never lowers a variance, reports do not depend on the order
of the rule columns, and every JSON report of ``perfci analyze``,
``perfci coverage`` and ``perfci quantile`` parses with a strict parser.
"""

import csv
import dataclasses
import io
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfci.cli import main
from perfci.covariance import (
    correct,
    covariance_from_influences,
    estimate_targets,
    influence,
)
from perfci import dataset
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

    assert np.flatnonzero(~fit.failed[0]).tolist() == alive
    assert {p: (type(e), str(e)) for p, e in fit.errors[0].items()} == {
        p: (type(e), str(e)) for p, e in errors.items()
    }
    for pos in alive:
        assert fit.estimates[0, pos] == ivs[pos].estimate  # bit-identical
        assert tuple(fit.gradients[0, pos]) == ivs[pos].gradient.as_tuple()
    if not alive:
        assert not fit.v.any()
        return
    v, want = fit.v[0][np.ix_(alive, alive)], ref
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
    np.testing.assert_array_equal(a.failed, b.failed)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert np.max(np.abs(a.v - b.v), initial=0.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(tables())
def test_plugin_covariance_is_positive_semidefinite(data):
    v = estimate_targets(data, make_targets(data.rule_ids, MEASURES)).v[0]
    if v.size:
        assert np.linalg.eigvalsh(v).min() >= -1e-12 * np.trace(v)


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from([0.01, 0.05, 0.3]))
def test_corrected_variances_are_at_least_the_plugin_ones(data, alpha):
    targets = make_targets(data.rule_ids, MEASURES)
    fit = estimate_targets(data, targets)
    corrected = correct(fit.v[0], alpha, fit.gradients[0], fit.n)
    assert np.all(np.diagonal(corrected) >= np.diagonal(fit.v[0]))
    reports = [
        set_report(fit, range(len(targets)), IntervalSpec(alpha, "individual", choice))
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


@settings(max_examples=150, deadline=None)
@given(tables(), st.data(), st.sampled_from(["individual", "joint"]), st.sampled_from([1, 2]))
def test_subset_fit_matches_the_full_fit(data, pick, mode, choice):
    # a subset is analyzed by fitting only its targets; set_report over those
    # members of the full fit must agree with it
    targets = make_targets(data.rule_ids, MEASURES)
    members = pick.draw(
        st.lists(st.integers(0, len(targets) - 1), min_size=1, max_size=4, unique=True)
    )
    subset = [targets[i] for i in members]
    spec = IntervalSpec(mode=mode, choice=choice, draws=1000, seed=5)
    full = set_report(estimate_targets(data, targets), members, spec)
    own = set_report(estimate_targets(data, subset), range(len(subset)), spec)
    if full.ok_rows:
        assert (own.q, own.quantile_method, own.draws) == (full.q, full.quantile_method, full.draws)
    else:
        assert own.q is None and own.quantile_method is None
    for j, (row, want) in enumerate(zip(own.rows, full.rows, strict=True)):
        # a singular-variance error names the target's position in its own list
        error = row.error and row.error.replace(f"for target {j}", f"for target {members[j]}")
        assert (row.rule_id, row.measure_id, error, row.estimate) == (
            want.rule_id, want.measure_id, want.error, want.estimate
        )
        if row.ok:
            assert (row.variance, row.half_width) == pytest.approx(
                (want.variance, want.half_width), rel=1e-12
            )


def test_all_positive_labels_give_exact_zero_lift_and_overlap_variance():
    # z == 1 everywhere: lift and overlap influence values are constant
    data = BinaryDataset.from_arrays([1] * 6, {"a": [1, 0, 1, 1, 0, 0]})
    targets = make_targets(["a"], ["accuracy", "lift", "overlap"])
    for cov in (
        estimate_targets(data, targets).v[0],
        covariance_from_influences([influence(data, t) for t in targets], data.n),
    ):
        assert cov[1, 1] == 0.0 and cov[2, 2] == 0.0
        assert np.all(cov[1:, :] == 0.0) and np.all(cov[:, 1:] == 0.0)
        assert cov[0, 0] > 0.0

    report = analyze(data, targets, IntervalSpec(mode="individual", choice=CHOICE_PLUGIN))
    assert report.rows[0].ok
    for row in report.rows[1:]:
        assert row.error.startswith("SingularVarianceError")


def int_tally(rows, width: int) -> list[list[int]]:
    """The cross-products of the indicator columns ``z*a_1..z*a_R, a_1..a_R,
    z`` of 0/1 ``rows`` of ``width`` cells, ``z`` first, in Python ints."""
    c = [[0] * (2 * width - 1) for _ in range(2 * width - 1)]
    for row, count in Counter(map(tuple, rows)).items():
        z, a = row[0], row[1:]
        x = [z * v for v in a] + list(a) + [z]
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                c[i][j] += count * xi * xj
    return c


def test_cross_products_match_a_direct_tally_past_the_code_width():
    # 70 rules plus z exceed the 62 bits one int64 row code can hold;
    # rows repeat a few random patterns, with small bit flips
    rng = np.random.default_rng(7)
    n, rules = 300, 70
    grid = rng.integers(0, 2, (6, 1 + rules))[rng.integers(0, 6, n)]
    grid[rng.random(grid.shape) < 0.002] ^= 1
    z = grid[:, 0]
    cols = {f"r{j}": grid[:, 1 + j] for j in range(rules)}
    data = BinaryDataset.from_arrays(z, cols)
    c = data._cross_products()
    assert data._cross_products() is c  # cached
    assert (data.n, data.rule_ids, c.dtype) == (n, tuple(cols), np.int64)
    assert c.tolist() == int_tally(grid.tolist(), 1 + rules)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 80), rules=st.integers(1, 70), distinct=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), block=st.integers(1, 64), canonical=st.booleans(),
       known=st.booleans(), fit_bytes=st.sampled_from([1, 1 << 24]))
# 64 bins for 80 rows, and 2**71 possible rows, from each block source
@example(rows=80, rules=5, distinct=8, seed=0, block=1, canonical=True, known=True, fit_bytes=1 << 24)
@example(rows=80, rules=5, distinct=8, seed=0, block=64, canonical=False, known=True, fit_bytes=1)
@example(rows=64, rules=70, distinct=2, seed=0, block=1, canonical=True, known=True, fit_bytes=1 << 24)
@example(rows=64, rules=70, distinct=2, seed=0, block=64, canonical=False, known=False, fit_bytes=1)
def test_the_fold_matches_a_python_int_tally(tmp_path_factory, rows, rules, distinct, seed, block, canonical,
                                              known, fit_bytes):
    # rows go to 2**width bins when n is known and those are at most
    # min(_MAX_BINS, 2n), else each block is added into C as float32
    # products; blocks of 1 to 64 bytes, or chunks of 1 to 16 cells
    # (_BLOCK_CHARS // 4), put block ends on every line, and 1 fit byte
    # makes every row a product of its own
    rng = np.random.default_rng(seed)
    width = 1 + rules
    grid = rng.integers(0, 2, (distinct, width), dtype=np.uint8)[rng.integers(0, distinct, rows)]
    names = ["z"] + [f"r{j}" for j in range(rules)]
    body = "".join(",".join(map(str, row)) + "\n" for row in grid.tolist())
    path = tmp_path_factory.getbasetemp() / "fold.csv"
    path.write_text(",".join(names) + "\n" + body)
    with open(path, "rb") as fh, mock.patch.object(dataset, "_BLOCK_CHARS", block), \
            mock.patch.object(dataset, "_FIT_BYTES", fit_bytes), \
            mock.patch.object(dataset, "_row_codes", wraps=dataset._row_codes) as row_codes:
        if canonical:
            _, _, zero, blocks = dataset._canonical_blocks(fh)
        else:
            _, _, zero, blocks = dataset._cell_blocks(names, csv.reader(io.StringIO(body)))
        got_rows, c = dataset._fold((b.T for b in blocks), width, rows if known else None, zero)
    assert row_codes.called == (known and 2**width <= min(dataset._MAX_BINS, 2 * rows))
    assert got_rows == rows and c.dtype == np.int64
    assert c.tolist() == int_tally(grid.tolist(), width)


def test_estimate_targets_records_each_target_failure():
    data = BinaryDataset.from_arrays([1, 1, 0, 0], {"tie": [0, 0, 1, 1]})
    fit = estimate_targets(data, make_targets(["tie"], ["accuracy", "overlap"]))
    assert fit.failed.tolist() == [[False, True]] and isinstance(fit.errors[0][1], DomainError)
    fit = estimate_targets(data, make_targets(["nope"], ["accuracy"]))
    assert fit.failed.tolist() == [[True]] and isinstance(fit.errors[0][0], UnknownRuleError)


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
