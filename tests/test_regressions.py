"""Regression tests for defects fixed after the first release."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import perfci
from perfci.cli import EXIT_HARD, EXIT_OK, _split_csv_list, main
from perfci.covariance import estimate_targets, influence
from perfci.dataset import BinaryDataset, EvaluationTarget, make_targets, read_csv
from perfci.errors import DimensionMismatchError, DuplicateRuleIdError
from perfci.intervals import CHOICE_CORRECTED, IntervalSpec, analyze, set_report
from perfci.measures import GradientTriple, MeasureCatalog, MeasureSpec, builtin_measures
from perfci.quantiles import two_sided_quantile
from perfci.simulation import (
    CoverageConfig,
    GaussianMixtureProcess,
    ThresholdRule,
    rare_positive_stress,
)

TOY = "z,r\n1,1\n1,0\n0,1\n0,0\n1,1\n0,0\n"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def recall_only_catalog():
    catalog = MeasureCatalog(include_builtins=False)
    catalog.register(
        MeasureSpec(
            id="recall",
            params=(),
            unit_range=True,
            value_fn=lambda m: m.m_za / m.m_z,
            gradient_fn=lambda m: GradientTriple(1.0 / m.m_z, 0.0, -m.m_za / m.m_z**2),
            domain_fn=lambda m: m.m_z > 0.0,
        )
    )
    return catalog


def test_clamp_uses_the_callers_catalog():
    data = BinaryDataset.from_arrays([1, 1, 1, 0], {"a": [1, 1, 0, 1]})
    spec = IntervalSpec(mode="individual", choice=CHOICE_CORRECTED, clamp=True)
    report = analyze(data, [EvaluationTarget("a", "recall")], spec, catalog=recall_only_catalog())
    row = report.rows[0]
    assert row.ok and row.estimate == 2.0 / 3.0
    assert 0.0 <= row.lower and row.upper == 1.0


def test_coverage_json_maps_missing_averages_to_null(tmp_path, capsys):
    # an all-zero rule has a zero-variance f1 estimate: no plug-in interval ever
    pop = tmp_path / "pop.csv"
    pop.write_text("z,r\n" + "1,0\n0,0\n" * 10)
    argv = [
        "coverage", "--process", "bootstrap", "--population", str(pop),
        "--rules", "r", "--measures", "f1", "--choice", "1", "--n", "10",
        "--replications", "5", "--draws", "1000", "--format", "json",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    payload = strict_loads(capsys.readouterr().out)
    assert payload["targets"][0]["avg_individual_length"] is None
    assert payload["targets"][0]["error_count"] == 5
    joint = payload["joint_sets"][0]
    assert joint["avg_q"] is None and joint["avg_length"] == [None]
    assert joint["error_rate"] == 1.0


def test_measure_list_keeps_commas_inside_parentheses(tmp_path, capsys):
    assert _split_csv_list("tversky(0.3,0.4), accuracy,,f_beta(0.5)") == [
        "tversky(0.3,0.4)", "accuracy", "f_beta(0.5)",
    ]
    assert _split_csv_list("threshold(0.3),one_nn(50),threshold(0.7)") == [
        "threshold(0.3)", "one_nn(50)", "threshold(0.7)",
    ]
    table = tmp_path / "t.csv"
    table.write_text(TOY)
    argv = ["analyze", str(table), "--measures", "tversky(0.3,0.4)", "--format", "json"]
    assert main(argv + ["--joint", "none"]) == EXIT_OK
    payload = strict_loads(capsys.readouterr().out)
    assert [t["measure"] for t in payload["targets"]] == ["tversky(0.3,0.4)"]


def test_cli_module_runs_as_a_script(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text(TOY)
    env = dict(os.environ)
    src = str(Path(perfci.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "perfci.cli", "analyze", str(table), "--format", "json",
         "--joint", "none"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert strict_loads(done.stdout)["meta"]["mode"] == "individual"


def test_read_csv_skips_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + TOY.encode())
    data = read_csv(str(path))
    assert data.rule_ids == ("r",) and data.n == 6


def _coverage_config(tmp_path, text, prefix=b""):
    pop = tmp_path / "pop.csv"
    pop.write_text("z,r\n1,1\n1,0\n1,1\n0,0\n0,1\n0,0\n1,1\n0,0\n0,1\n1,0\n")
    cfg = tmp_path / "cov.cfg"
    cfg.write_bytes(prefix + text.format(pop=pop).encode())
    return str(cfg)


def test_coverage_config_rejects_unknown_keys(tmp_path, capsys):
    body = "process = bootstrap\npopulation = {pop}\nrules = r\nn = 8\ndraws = 1000\n"
    for line in ("replicatons = 7", "true_mc_size = 1000000"):
        cfg = _coverage_config(tmp_path, body + line + "\n")
        assert main(["coverage", "--config", cfg, "--format", "json"]) == EXIT_HARD
        err = capsys.readouterr().err
        assert f"{cfg}:6: unknown key {line.split()[0]!r}" in err


def test_coverage_config_skips_utf8_byte_order_mark(tmp_path, capsys):
    body = "process = bootstrap\npopulation = {pop}\nrules = r\nmeasures = accuracy\n"
    cfg = _coverage_config(tmp_path, body + "n = 8\nreplications = 3\n", b"\xef\xbb\xbf")
    assert main(["coverage", "--config", cfg, "--format", "json"]) == EXIT_OK
    payload = strict_loads(capsys.readouterr().out)
    assert payload["targets"][0]["provenance"] == "population"


def test_coverage_rejects_duplicate_rule_ids(capsys):
    argv = ["coverage", "--rules", "threshold(0.3),threshold(0.3)", "--measures", "accuracy",
            "--n", "50", "--replications", "20", "--draws", "2000"]
    assert main(argv) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate rule" in captured.err and "threshold(0.3)" in captured.err
    # thresholds that print alike share the id "threshold(0.3)", too
    with pytest.raises(DuplicateRuleIdError):
        CoverageConfig(
            process=GaussianMixtureProcess(),
            rules=(ThresholdRule(0.3), ThresholdRule(0.3000001)),
            measure_ids=("accuracy",),
            n=50,
        )


def _eight_rows():
    return BinaryDataset.from_arrays([1, 1, 0, 0, 1, 0, 1, 0], {"a": [1, 0, 1, 0, 1, 1, 0, 0]})


def test_target_set_rejects_a_repeated_index():
    data, targets = _eight_rows(), make_targets(["a"], ["accuracy", "jaccard"])
    fit = estimate_targets(data, targets)
    spec = IntervalSpec(seed=1)
    for members in ((0, 0), (1, 0, 1)):
        with pytest.raises(DimensionMismatchError, match="repeat"):
            set_report(fit, targets, members, spec)
    report = analyze(data, targets[:1], spec)
    assert report.q == two_sided_quantile(0.05)


def test_set_report_refuses_members_out_of_range():
    # these raised a bare StopIteration, with no message
    data, targets = _eight_rows(), make_targets(["a"], ["accuracy", "jaccard"])
    fit = estimate_targets(data, targets)
    for members in ((0, 2), (2,), (-1,)):
        with pytest.raises(DimensionMismatchError, match="out of range for 2 targets"):
            set_report(fit, targets, members, IntervalSpec(seed=1))


def test_clamp_cuts_unit_range_rows():
    data, targets = _eight_rows(), make_targets(["a"], ["accuracy", "jaccard"])
    report = analyze(data, targets, IntervalSpec(clamp=True, seed=1))
    assert all(0.0 <= row.lower <= row.upper <= 1.0 for row in report.rows)


def test_quantile_reads_a_correlation_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "corr.csv"
    path.write_bytes(b"\xef\xbb\xbf1,0.5\n0.5,1\n")
    argv = ["quantile", "--draws", "2000", "--seed", "1", "--format", "json"]
    assert main(argv + ["--corr", str(path)]) == EXIT_OK
    from_file = strict_loads(capsys.readouterr().out)
    assert main(argv + ["--corr", "1,0.5;0.5,1"]) == EXIT_OK
    assert from_file == strict_loads(capsys.readouterr().out)
    assert from_file["dim"] == 2


def test_cli_tables_print_error_bounds_in_g_notation(tmp_path, capsys):
    # a bivariate error bound is near 1e-14, which fixed-point formats printed
    # as 0; a per-rule table whose sets differ in q printed no mc_stderr at all
    path = tmp_path / "two.csv"
    path.write_text("z,a,b\n1,1,1\n1,1,0\n1,0,1\n0,0,0\n0,1,0\n0,0,1\n1,1,1\n0,0,0\n1,1,0\n1,1,1\n")
    assert main(["analyze", str(path), "--joint", "0,1"]) == EXIT_OK
    q_line = capsys.readouterr().out.splitlines()[1]
    assert 0.0 < float(q_line.split("mc_stderr=")[1]) < 1e-10

    assert main(["analyze", str(path)]) == EXIT_OK  # per-rule, two bivariate sets
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header.split()[:3] == ["rule", "q", "mc_stderr"]
    qs = {row.split()[1] for row in rows}
    assert len(qs) == 2 and all(0.0 < float(row.split()[2]) < 1e-10 for row in rows)

    assert main(["quantile", "--dim", "2"]) == EXIT_OK
    stderr = capsys.readouterr().out.split("mc_stderr=")[1].split()[0]
    assert 0.0 < float(stderr) < 1e-10


def test_reports_record_their_draws(tmp_path, capsys):
    data, targets = _eight_rows(), make_targets(["a"], ["accuracy", "f1", "jaccard"])
    for members, mode, method, draws in (
        ((0, 1, 2), "joint", "monte_carlo", 3000),
        ((0, 1), "joint", "bivariate", 0),
        ((0, 1, 2), "individual", "normal", 0),
    ):
        spec = IntervalSpec(mode=mode, draws=3000, seed=1)
        report = analyze(data, [targets[i] for i in members], spec)
        assert (report.quantile_method, report.draws) == (method, draws)

    # a set with no usable member reports null draws, as it does q
    path = tmp_path / "zero.csv"
    path.write_text("z,a,zero\n1,1,0\n1,1,0\n1,0,0\n0,0,0\n0,1,0\n0,0,0\n1,1,0\n0,0,0\n")
    argv = ["analyze", str(path), "--measures", "f1,lift", "--choice", "1", "--format", "json"]
    assert main(argv) == 2
    good, zero = (report["meta"] for report in strict_loads(capsys.readouterr().out))
    assert good["draws"] == 0 and good["quantile_method"] == "bivariate"
    assert zero["draws"] is None and zero["q"] is None


def test_analyze_table_shows_q_when_the_first_set_has_no_usable_target(tmp_path, capsys):
    # lift is undefined for the all-zero rule a, so the first per-rule set has no q
    path = tmp_path / "zero.csv"
    path.write_text("z,a,b\n1,0,1\n1,0,0\n0,0,1\n0,0,0\n1,0,1\n0,0,1\n")
    argv = ["analyze", str(path), "--measures", "lift", "--joint", "per-rule"]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("q=") and float(lines[1].split()[0][2:]) > 1.9
    assert main(argv + ["--format", "json"]) == 2
    zero, b = (report["meta"] for report in strict_loads(capsys.readouterr().out))
    assert zero["q"] is None and lines[1] == f"q={b['q']:.4f}  mc_stderr={b['mc_stderr']:.3g}"


def test_coverage_numbers_one_nn_rules_of_different_sizes(capsys):
    argv = ["coverage", "--process", "mixture", "--n", "50", "--replications", "2",
            "--draws", "1000", "--measures", "accuracy", "--format", "json"]
    assert main(argv + ["--rules", "one_nn(50),threshold(0.5),one_nn(80)"]) == EXIT_OK
    ids = [t["rule"] for t in strict_loads(capsys.readouterr().out)["targets"]]
    assert ids == ["one_nn_0", "threshold(0.5)", "one_nn_2"]
    assert main(argv + ["--rules", "threshold(0.5),one_nn(80)"]) == EXIT_OK
    ids = [t["rule"] for t in strict_loads(capsys.readouterr().out)["targets"]]
    assert ids == ["threshold(0.5)", "one_nn"]


def test_small_alpha_reads_the_normal_quantile_from_its_lower_tail(tmp_path, capsys):
    # 1 - alpha / 2 rounded to 1.0, so both commands failed with an error
    # about a probability of 1.0 that the user never gave
    path = tmp_path / "eight.csv"
    path.write_text("z,a\n1,1\n1,0\n0,1\n0,0\n1,1\n0,1\n1,0\n0,0\n")
    argv = ["analyze", str(path), "--joint", "none", "--alpha", "1e-17", "--format", "json"]
    assert main(argv) == EXIT_OK
    meta = strict_loads(capsys.readouterr().out)["meta"]
    assert (meta["q"], meta["quantile_method"]) == (8.573944076720885, "normal")
    assert main(["quantile", "--dim", "2", "--alpha", "1e-17", "--format", "json"]) == EXIT_OK
    assert strict_loads(capsys.readouterr().out)["q"] > 8.573944076720885


def test_quantile_refuses_a_simulation_too_short_for_its_alpha(capsys):
    # with alpha * draws < 1 this printed the largest draw and mc_stderr=0
    assert main(["quantile", "--dim", "3", "--draws", "1000", "--alpha", "1e-4"]) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "10,000 draws" in captured.err


def test_monte_carlo_refusal_of_a_tiny_alpha_is_an_error_line(capsys):
    # 1 / alpha overflowed while the refusal was worded: an OverflowError traceback
    assert main(["quantile", "--dim", "3", "--alpha", "1e-310"]) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha = 1e-310 needs at least")


def test_alpha_whose_half_rounds_to_zero_is_refused_by_name(tmp_path, capsys):
    # the refusal spoke of a probability of 0.0 that the user never gave
    path = tmp_path / "six.csv"
    path.write_text(TOY)
    assert main(["analyze", str(path), "--alpha", "5e-324"]) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: alpha = 5e-324 is too small: the smallest alpha accepted is 1e-323\n"
    )
    with pytest.raises(ValueError, match="1e-323"):
        IntervalSpec(alpha=5e-324)


def test_joint_pair_alpha_below_its_bracket_is_refused_by_name(tmp_path, capsys):
    # the refusal named alpha = 5e-324, half of what the user gave
    path = tmp_path / "six.csv"
    path.write_text(TOY)
    refusal = (
        "error: alpha = 1e-323 is too small for a joint pair: "
        "the smallest alpha a joint pair accepts is 1.5e-323\n"
    )
    for argv in (["quantile", "--dim", "2"], ["analyze", str(path), "--measures", "accuracy,f1"]):
        assert main(argv + ["--alpha", "1e-323"]) == EXIT_HARD
        assert capsys.readouterr() == ("", refusal)
        assert main(argv + ["--alpha", "1.5e-323", "--format", "json"]) == EXIT_OK
        assert "bivariate" in capsys.readouterr().out
    assert main(["quantile", "--dim", "1", "--alpha", "1e-323"]) == EXIT_OK


def test_one_member_joint_sets_print_the_individual_intervals(tmp_path, capsys):
    # a one-member set simulated its quantile: method=monte_carlo q=1.9611
    path = tmp_path / "six.csv"
    path.write_text(TOY)
    out = {}
    for joint in ("0;1", "none"):
        for fmt in ("table", "json"):
            assert main(["analyze", str(path), "--joint", joint, "--format", fmt]) == EXIT_OK
            out[joint, fmt] = capsys.readouterr().out
    interval = re.compile(r"\(-?\d+\.\d{4}, -?\d+\.\d{4}\)")
    assert interval.findall(out["0;1", "table"]) == interval.findall(out["none", "table"])
    assert out["0;1", "table"].splitlines()[1] == out["none", "table"].splitlines()[1] == (
        "q=1.9600  mc_stderr=0"
    )
    sets, single = strict_loads(out["0;1", "json"]), strict_loads(out["none", "json"])
    assert [t for report in sets for t in report["targets"]] == single["targets"]
    quantile = ("q", "mc_stderr", "quantile_method", "jitter", "draws")
    for report in sets:
        assert [report["meta"][k] for k in quantile] == [single["meta"][k] for k in quantile]


def test_covariance_memory_stays_below_one_target_by_row_matrix():
    # one influence value per target and distinct row (K = 270, m ~ 50,000)
    # peaked above 300 MB, against 108 MB for one such float matrix
    rng = np.random.default_rng(3)
    n, rules = 50_000, 30
    data = BinaryDataset.from_arrays(
        rng.integers(0, 2, n), {f"r{j}": rng.integers(0, 2, n) for j in range(rules)}
    )
    targets = make_targets(data.rule_ids, [m.id for m in builtin_measures()])
    tracemalloc.start()
    try:
        fit = estimate_targets(data, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fit.alive) == len(targets) == 270
    assert data.row_counts()[1].size > 49_000
    assert peak < 270 * 50_000 * 8


def test_stress_study_finishes_when_a_set_loses_a_member():
    # a set left with one member was simulated, and 1,000 draws cannot reach
    # alpha = 1e-4, so the first such replication aborted the study
    plug, fixed = rare_positive_stress(n=3000, replications=200, alpha=1e-4, draws=1000, seed=0)
    one_member = np.isnan(plug.diagnostics.joint_half["all"]).sum(axis=1) == 1
    assert one_member.any()
    assert (plug.diagnostics.joint_q["all"][one_member] == two_sided_quantile(1e-4)).all()
    assert fixed.joint_set("all").error_rate == 0.0


def test_analyze_and_coverage_refuse_a_repeated_measure_id(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("z,a,b\n1,1,0\n1,0,1\n0,1,1\n0,0,0\n1,1,1\n0,0,1\n1,1,0\n0,0,0\n")
    # f_beta(1) resolves to f1
    assert main(["analyze", str(table), "--measures", "f1,f_beta(1)"]) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == "" and "duplicate measure id 'f1'" in captured.err
    argv = ["coverage", "--process", "mixture", "--rules", "threshold(0.5)", "--measures",
            "accuracy,accuracy", "--n", "50", "--replications", "5", "--draws", "1000",
            "--joint", "all"]
    assert main(argv) == EXIT_HARD
    captured = capsys.readouterr()
    assert captured.out == "" and "duplicate measure id 'accuracy'" in captured.err


def test_coverage_refuses_a_negative_seed_by_name(capsys):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        CoverageConfig(
            process=GaussianMixtureProcess(),
            rules=(ThresholdRule(0.5),),
            measure_ids=("accuracy",),
            n=50,
            seed=-1,
        )
    # a one_nn rule trains from the seed before the study's config is built
    for rules, seed in (("threshold(0.5)", "-1"), ("one_nn(50)", "-1"), ("one_nn(50)", "-400000")):
        argv = ["coverage", "--process", "mixture", "--rules", rules, "--measures", "accuracy",
                "--n", "50", "--replications", "5", "--draws", "1000", "--seed", seed]
        assert main(argv) == EXIT_HARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be non-negative, got {seed}\n"


def test_a_fit_reads_the_row_counts_once():
    rng = np.random.default_rng(3)
    z = rng.integers(0, 2, 200)
    data = BinaryDataset.from_arrays(z, {f"r{j}": rng.integers(0, 2, 200) for j in range(4)})
    targets = make_targets(data.rule_ids, ["accuracy", "f1", "jaccard", "lift"])
    with mock.patch.object(
        BinaryDataset, "row_counts", autospec=True, side_effect=BinaryDataset.row_counts
    ) as row_counts:
        fit = estimate_targets(data, targets)
        assert len(fit.alive) == len(targets)
        assert row_counts.call_count == 1
        # the per-row reference reads rows only
        influence(data, targets[0])
        assert row_counts.call_count == 1
