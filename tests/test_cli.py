"""Command line: argument handling, output formats, exit codes."""

import json

import pytest

from perfci.cli import EXIT_HARD, EXIT_OK, EXIT_PARTIAL, main
from perfci.dataset import make_joint_sets, make_targets
from perfci.quantiles import inv_norm_cdf

TOY = "z,r\n1,1\n1,0\n0,1\n0,0\n"
TWO_RULES = "z,a,b\n1,1,1\n1,1,0\n1,0,1\n0,0,0\n0,1,0\n0,0,1\n1,1,1\n0,0,0\n"
TIE = "z,good,tie\n1,1,0\n1,0,0\n0,1,1\n0,1,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_joint_all_emits_single_object(tmp_path, capsys):
    table = write(tmp_path, "two.csv", TWO_RULES)
    code, payload = run_json(
        capsys,
        ["analyze", table, "--joint", "all", "--format", "json", "--draws", "5000"],
    )
    assert code == EXIT_OK
    assert isinstance(payload, dict)
    meta = payload["meta"]
    assert meta["n"] == 8 and meta["mode"] == "joint" and meta["choice"] == 2
    assert meta["q"] > 1.9 and meta["mc_stderr"] > 0
    rows = payload["targets"]
    assert [(r["rule"], r["measure"]) for r in rows] == [
        ("a", "accuracy"),
        ("a", "f1"),
        ("b", "accuracy"),
        ("b", "f1"),
    ]
    for r in rows:
        assert r["lower"] <= r["estimate"] <= r["upper"]
        assert r["half_width"] == pytest.approx((r["upper"] - r["lower"]) / 2)


def test_analyze_per_rule_emits_array(tmp_path, capsys):
    table = write(tmp_path, "two.csv", TWO_RULES)
    code, payload = run_json(
        capsys, ["analyze", table, "--format", "json", "--draws", "5000"]
    )
    assert code == EXIT_OK
    assert isinstance(payload, list) and len(payload) == 2
    assert {r["rule"] for r in payload[0]["targets"]} == {"a"}
    assert {r["rule"] for r in payload[1]["targets"]} == {"b"}


def test_analyze_joint_none_gives_individual_mode(tmp_path, capsys):
    table = write(tmp_path, "toy.csv", TOY)
    code, payload = run_json(
        capsys, ["analyze", table, "--joint", "none", "--format", "json"]
    )
    assert code == EXIT_OK
    assert payload["meta"]["mode"] == "individual"
    assert payload["meta"]["q"] == pytest.approx(inv_norm_cdf(0.975), abs=1e-12)
    assert payload["meta"]["mc_stderr"] == 0.0


def test_analyze_explicit_index_groups(tmp_path, capsys):
    table = write(tmp_path, "two.csv", TWO_RULES)
    code, payload = run_json(
        capsys,
        ["analyze", table, "--joint", "0,3;1,2", "--format", "json", "--draws", "5000"],
    )
    assert code == EXIT_OK
    assert len(payload) == 2
    assert [(r["rule"], r["measure"]) for r in payload[0]["targets"]] == [
        ("a", "accuracy"),
        ("b", "f1"),
    ]


def test_analyze_partial_failure_exit_code(tmp_path, capsys):
    table = write(tmp_path, "tie.csv", TIE)
    code, payload = run_json(
        capsys,
        [
            "analyze",
            table,
            "--measures",
            "accuracy,overlap",
            "--joint",
            "none",
            "--format",
            "json",
        ],
    )
    assert code == EXIT_PARTIAL
    errors = [r for r in payload["targets"] if "error" in r]
    assert len(errors) == 1
    assert errors[0]["rule"] == "tie" and errors[0]["measure"] == "overlap"
    assert "DomainError" in errors[0]["error"]
    assert "estimate" not in errors[0]


def test_analyze_total_failure_exit_code(tmp_path, capsys):
    table = write(tmp_path, "onetie.csv", "z,tie\n1,0\n1,0\n0,1\n0,1\n")
    code, payload = run_json(
        capsys,
        ["analyze", table, "--measures", "overlap", "--joint", "none", "--format", "json"],
    )
    assert code == EXIT_HARD
    assert payload["meta"]["q"] is None
    assert all("error" in r for r in payload["targets"])


def test_analyze_reports_an_all_failed_joint_set_inline(tmp_path, capsys):
    # every target of the all-zero rule fails: f1 has zero plug-in variance
    # and lift divides by the zero positive rate
    table = write(tmp_path, "zero.csv", "z,a,b,zero\n" + "1,1,1,0\n1,1,0,0\n1,0,1,0\n"
                  "0,0,0,0\n0,1,0,0\n0,0,1,0\n1,1,1,0\n0,0,0,0\n")
    code, payload = run_json(
        capsys,
        ["analyze", table, "--measures", "f1,lift", "--choice", "1", "--joint", "per-rule",
         "--draws", "2000", "--format", "json"],
    )
    assert code == EXIT_PARTIAL
    assert [[r["rule"] for r in report["targets"]] for report in payload] == [
        ["a", "a"], ["b", "b"], ["zero", "zero"]
    ]
    *good, failed = payload
    assert failed["meta"]["q"] is None and failed["meta"]["mc_stderr"] is None
    assert failed["meta"]["mode"] == "joint"
    f1, lift = failed["targets"]
    assert f1["error"].startswith("SingularVarianceError") and "target 4 " in f1["error"]
    assert lift["error"].startswith("DomainError") and "estimate" not in lift
    for report in good:
        assert report["meta"]["q"] > inv_norm_cdf(0.975)
        assert all("error" not in r for r in report["targets"])


def test_analyze_table_output(tmp_path, capsys):
    table = write(tmp_path, "two.csv", TWO_RULES)
    code = main(["analyze", table, "--joint", "all", "--draws", "5000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "accuracy" in out and "f1" in out
    assert "a" in out.splitlines()[2]
    assert out.count("(") >= 4  # one interval cell per target
    assert "q=" in out


def test_analyze_clamp_flag(tmp_path, capsys):
    table = write(tmp_path, "toy.csv", TOY)
    argv = ["analyze", table, "--measures", "accuracy", "--joint", "none", "--format", "json"]
    _, plain = run_json(capsys, argv)
    assert plain["targets"][0]["upper"] > 1.0
    _, clamped = run_json(capsys, argv + ["--clamp"])
    assert clamped["targets"][0]["upper"] == 1.0
    assert clamped["targets"][0]["lower"] >= 0.0


def test_analyze_hard_errors_go_to_stderr(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing.csv")])
    captured = capsys.readouterr()
    assert code == EXIT_HARD
    assert captured.err.startswith("error:") and captured.out == ""

    bad = write(tmp_path, "bad.csv", "z,r\n1,0\n0,yes\n")
    code = main(["analyze", bad])
    err = capsys.readouterr().err
    assert code == EXIT_HARD
    assert "row 2" in err and "'r'" in err

    table = write(tmp_path, "toy.csv", TOY)
    assert main(["analyze", table, "--measures", "nope"]) == EXIT_HARD
    assert "unknown measure" in capsys.readouterr().err
    assert main(["analyze", table, "--joint", "0,x"]) == EXIT_HARD
    assert "--joint" in capsys.readouterr().err
    assert main(["analyze", table, "--joint", "0,9"]) == EXIT_HARD
    capsys.readouterr()


def test_analyze_output_is_byte_deterministic(tmp_path):
    table = write(tmp_path, "two.csv", TWO_RULES)
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["analyze", table, "--format", "json", "--draws", "5000"]
    assert main(argv + ["--output", str(first)]) == EXIT_OK
    assert main(argv + ["--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_quantile_identity_dimension(capsys):
    code, payload = run_json(
        capsys, ["quantile", "--dim", "1", "--draws", "50000", "--format", "json"]
    )
    assert code == EXIT_OK
    assert payload["q"] == pytest.approx(1.95996, abs=0.05)
    assert payload["dim"] == 1 and payload["draws"] == 50000
    assert payload["jitter"] == 0.0
    assert payload["mc_stderr"] > 0


def test_quantile_corr_inline_equals_file(tmp_path, capsys):
    inline = ["quantile", "--corr", "1,.5;.5,1", "--draws", "20000", "--format", "json"]
    code, from_inline = run_json(capsys, inline)
    assert code == EXIT_OK and from_inline["dim"] == 2

    path = write(tmp_path, "corr.csv", "1,.5\n.5,1\n")
    _, from_file = run_json(
        capsys, ["quantile", "--corr", path, "--draws", "20000", "--format", "json"]
    )
    assert from_file["q"] == from_inline["q"]


def test_quantile_rejects_bad_entries(capsys):
    code = main(["quantile", "--corr", "1,1.5;1.5,1"])
    err = capsys.readouterr().err
    assert code == EXIT_HARD
    assert "(0, 1)" in err and "1.5" in err


def test_quantile_table_format(capsys):
    code = main(["quantile", "--dim", "2", "--draws", "20000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("q=") and "dim=2" in out


COVERAGE_CFG = """\
# smoke coverage settings
process = gaussian_mixture
rules = threshold(0.3), threshold(0.7)
measures = accuracy,f1
n = 80
replications = 25
draws = 2000
seed = 3
joint = per-rule,all
"""


def test_coverage_from_config_file(tmp_path, capsys):
    cfg = write(tmp_path, "cov.cfg", COVERAGE_CFG)
    code, payload = run_json(
        capsys, ["coverage", "--config", cfg, "--format", "json"]
    )
    assert code == EXIT_OK
    assert payload["meta"]["replications"] == 25
    assert payload["meta"]["n"] == 80
    rows = payload["targets"]
    assert [r["rule"] for r in rows] == ["threshold(0.3)"] * 2 + ["threshold(0.7)"] * 2
    assert all(r["provenance"] == "analytic" for r in rows)
    assert [js["label"] for js in payload["joint_sets"]] == [
        "threshold(0.3)",
        "threshold(0.7)",
        "all",
    ]
    assert all(0.0 <= js["coverage"] <= 1.0 for js in payload["joint_sets"])


def test_coverage_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path, "cov.cfg", COVERAGE_CFG)
    code, payload = run_json(
        capsys,
        ["coverage", "--config", cfg, "--replications", "10", "--format", "json"],
    )
    assert code == EXIT_OK
    assert payload["meta"]["replications"] == 10


def test_coverage_output_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, "cov.cfg", COVERAGE_CFG)
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["coverage", "--config", cfg, "--format", "json"]
    assert main(argv + ["--output", str(first)]) == EXIT_OK
    assert main(argv + ["--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_coverage_bootstrap_process_via_flags(tmp_path, capsys):
    pop = write(
        tmp_path, "pop.csv", "z,r\n1,1\n1,0\n1,1\n0,0\n0,1\n0,0\n1,1\n0,0\n0,1\n1,0\n"
    )
    code, payload = run_json(
        capsys,
        [
            "coverage",
            "--process",
            "bootstrap",
            "--population",
            pop,
            "--rules",
            "r",
            "--measures",
            "accuracy",
            "--n",
            "8",
            "--replications",
            "10",
            "--draws",
            "2000",
            "--format",
            "json",
        ],
    )
    assert code == EXIT_OK
    assert payload["targets"][0]["provenance"] == "population"
    assert payload["targets"][0]["true_value"] == pytest.approx(0.6)


def test_coverage_table_format(tmp_path, capsys):
    cfg = write(tmp_path, "cov.cfg", COVERAGE_CFG)
    code = main(["coverage", "--config", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "indiv_cov" in out
    assert "joint[all]:" in out
    assert "threshold(0.3):accuracy" in out


def test_coverage_errors(tmp_path, capsys):
    base = ["coverage", "--measures", "accuracy", "--n", "50", "--replications", "5"]
    code = main(base + ["--process", "gaussian_mixture", "--rules", "tree(3)"])
    assert code == EXIT_HARD
    assert "tree(3)" in capsys.readouterr().err
    code = main(base + ["--process", "bootstrap", "--rules", "r"])
    assert code == EXIT_HARD
    assert "population" in capsys.readouterr().err
    code = main(["coverage", "--process", "gaussian_mixture", "--rules", "threshold(0.5)"])
    assert code == EXIT_HARD
    assert "--n" in capsys.readouterr().err


def test_analyze_and_coverage_share_the_joint_set_grammar(tmp_path, capsys):
    table = write(tmp_path, "two.csv", TWO_RULES)
    targets = make_targets(["a", "b"], ["accuracy", "f1"])
    labels = [(t.rule_id, t.measure_id) for t in targets]
    for spec in ("per-rule", "all", "per-rule,all", "0,1;2", "all;0,3"):
        expected = [idx for _, idx in make_joint_sets(spec, targets)]
        code, payload = run_json(
            capsys, ["analyze", table, "--joint", spec, "--format", "json", "--draws", "2000"]
        )
        assert code == EXIT_OK
        reports = payload if isinstance(payload, list) else [payload]
        analyzed = [
            tuple(labels.index((r["rule"], r["measure"])) for r in report["targets"])
            for report in reports
        ]
        code, payload = run_json(
            capsys,
            ["coverage", "--process", "bootstrap", "--population", table, "--rules", "a,b",
             "--n", "8", "--replications", "3", "--draws", "1000", "--joint", spec,
             "--format", "json"],
        )
        assert code == EXIT_OK
        covered = [tuple(js["indices"]) for js in payload["joint_sets"]]
        assert analyzed == covered == expected, spec


@pytest.mark.parametrize(
    "spec", ["everything", "0,x", "0,9", "-1", "all,0", ";", "all;all", "0,0"]
)
def test_bad_joint_specs_fail_in_both_commands(tmp_path, capsys, spec):
    table = write(tmp_path, "two.csv", TWO_RULES)
    assert main(["analyze", table, "--joint", spec]) == EXIT_HARD
    assert "--joint" in capsys.readouterr().err
    argv = ["coverage", "--process", "bootstrap", "--population", table, "--rules", "a",
            "--n", "8", "--replications", "3", "--draws", "1000", "--joint", spec]
    assert main(argv) == EXIT_HARD
    assert "joint set" in capsys.readouterr().err
