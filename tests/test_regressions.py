"""Regression tests for defects fixed after the first release."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import perfci
from perfci.cli import EXIT_HARD, EXIT_OK, _split_csv_list, main
from perfci.dataset import BinaryDataset, EvaluationTarget, read_csv
from perfci.errors import DuplicateRuleIdError
from perfci.intervals import CHOICE_CORRECTED, IntervalSpec, analyze
from perfci.measures import GradientTriple, MeasureCatalog, MeasureSpec
from perfci.simulation import CoverageConfig, GaussianMixtureProcess, ThresholdRule

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
