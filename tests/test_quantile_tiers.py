"""Quantile tiers: the exact bivariate tier, the Monte Carlo layout, the
memory budget, and the provenance every report carries."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfci.cli
from perfci.cli import EXIT_HARD, EXIT_OK, main
from perfci.dataset import BinaryDataset, make_targets
from perfci.intervals import IntervalSpec, analyze
from perfci.quantiles import (
    QuantileRequest,
    check_budget,
    inv_norm_cdf,
    max_abs_quantile,
    planned_bytes,
    sidak_quantile,
    two_sided_quantile,
)

ORACLE_RHOS = (0.0, 0.5, -0.5, 0.9, 0.99, 0.999, 0.9999, 0.999999, 1 - 1e-9, 1.0, -1.0)


def exact(alpha, rho):
    corr = np.array([[1.0, rho], [rho, 1.0]])
    return max_abs_quantile(QuantileRequest(alpha=alpha, corr=corr))


def mp_box(mp, q, rho):
    """``P[|X| < q, |Y| < q]`` and its derivative in ``q``, in mpmath."""
    q, r = mp.mpf(q), abs(mp.mpf(rho))
    s = mp.sqrt((1 - r) * (1 + r))
    if s == 0:
        return 2 * mp.ncdf(q) - 1, 2 * mp.npdf(q)
    inner = lambda x: mp.npdf(x) * (mp.ncdf((q - r * x) / s) - mp.ncdf((-q - r * x) / s))
    edge = min(q, 20 * s)
    points = sorted({-q, -q + edge / 4, -q + edge, mp.mpf(0), q - edge, q - edge / 4, q})
    slope = 4 * mp.npdf(q) * (mp.ncdf(q * (1 - r) / s) - mp.ncdf(-q * (1 + r) / s))
    return mp.quad(inner, points), slope


@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_bivariate_tier_against_mpmath(rho):
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 25
    alpha = 0.05
    result = exact(alpha, rho)
    assert result.method == "bivariate" and result.draws == 0 and result.jitter == 0.0
    level = 1 - mp.mpf(alpha)
    box, slope = mp_box(mp, result.q, rho)
    assert abs(box - level) <= 1e-12
    # two Newton steps in mpmath from the tier's answer
    q_true = result.q - (box - level) / slope
    box, slope = mp_box(mp, q_true, rho)
    q_true -= (box - level) / slope
    assert abs(q_true - result.q) <= result.mc_stderr
    assert result.mc_stderr >= math.ulp(result.q)


def test_bivariate_tier_at_zero_correlation_is_sidak():
    for alpha in (0.01, 0.05, 0.2):
        assert exact(alpha, 0.0).q == pytest.approx(sidak_quantile(alpha, 2), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(1e-4, 0.5),
)
def test_bivariate_tier_is_bracketed_symmetric_and_monotone(rho, other, alpha):
    result = exact(alpha, rho)
    # lower-tail form of Bonferroni: 1 - alpha / 4 would round
    assert -inv_norm_cdf(alpha / 2.0) <= result.q <= -inv_norm_cdf(alpha / 4.0)
    assert exact(alpha, -rho) == result
    weak, strong = (exact(alpha, r) for r in sorted((abs(rho), abs(other))))
    assert strong.q <= weak.q + weak.mc_stderr + strong.mc_stderr


def test_joint_pair_refuses_an_alpha_whose_bracket_underflows_by_name():
    # the Bonferroni bracket halved alpha again: a refusal about 5e-324
    with pytest.raises(ValueError) as info:
        exact(1e-323, 0.5)
    assert str(info.value) == (
        "alpha = 1e-323 is too small for a joint pair: "
        "the smallest alpha a joint pair accepts is 1.5e-323"
    )
    assert exact(1.5e-323, 0.5).method == "bivariate"


def test_monte_carlo_tier_keeps_its_random_streams():
    """The ``(dim, draws)`` layout draws the same normals from the same
    substreams as the ``(draws, dim)`` reference below."""
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]])
    draws, seed = 150_000, 9
    factor = np.linalg.cholesky(corr)
    maxima = []
    for index, pos in enumerate(range(0, draws, 1 << 16)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        sample = np.random.Generator(np.random.Philox(seq)).standard_normal(
            (min(1 << 16, draws - pos), 3)
        )
        maxima.append(np.max(np.abs(sample @ factor.T), axis=1))
    want = np.sort(np.concatenate(maxima))[math.ceil(0.95 * draws) - 1]
    got = max_abs_quantile(QuantileRequest(0.05, corr, draws=draws, seed=seed))
    assert got.q == pytest.approx(want, abs=1e-12)


def test_monte_carlo_blocks_keep_the_chunk_streams():
    """Chunks read in blocks of 4,369 rows (15 full blocks and one of a
    single row per chunk, then a partial chunk) give the ``q`` of whole
    chunks drawn at once, and repeat bit for bit."""
    dim, draws, seed = 30, 140_000, 4
    corr = np.full((dim, dim), 0.4)
    np.fill_diagonal(corr, 1.0)
    factor = np.linalg.cholesky(corr)
    maxima = []
    for index, pos in enumerate(range(0, draws, 1 << 16)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        sample = np.random.Generator(np.random.Philox(seq)).standard_normal(
            (min(1 << 16, draws - pos), dim)
        )
        maxima.append(np.max(np.abs(sample @ factor.T), axis=1))
    want = np.sort(np.concatenate(maxima))[math.ceil(0.95 * draws) - 1]
    request = QuantileRequest(0.05, corr, draws=draws, seed=seed)
    got = max_abs_quantile(request)
    assert got.q == pytest.approx(want, abs=1e-12)
    assert max_abs_quantile(request) == got


def test_planned_bytes_counts_the_maxima_blocks_and_matrices():
    # dim 90: blocks of 1,456 rows; dim 3: the 5,000 draws fit one block
    assert planned_bytes(90, 200_000) == 8 * (200_000 + 3 * 1_456 * 90 + 4 * 90 * 90)
    assert planned_bytes(90, 200_000) < 8 << 20
    assert planned_bytes(3, 5_000) == 8 * (5_000 + 3 * 5_000 * 3 + 4 * 3 * 3)
    assert planned_bytes(2, 10**9) == 0


def _low_rank_corr(dim, rank):
    x = np.random.default_rng(dim).standard_normal((dim, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x @ x.T


@pytest.mark.parametrize(
    "corr, draws",
    [
        (np.eye(3), 140_000),  # three chunks
        (np.eye(90), 200_000),  # the dim-90 set of a 10-rule table
        (np.full((400, 400), 0.5) + 0.5 * np.eye(400), 2_000),  # 327-row blocks
        (_low_rank_corr(60, 5), 3_000),  # takes the jitter ladder
    ],
    ids=["chunks", "dim-90", "blocks-under-dim", "jitter"],
)
def test_the_plan_bounds_the_traced_peak(corr, draws):
    # modules a first simulation imports are not the request's memory
    max_abs_quantile(QuantileRequest(0.05, np.eye(3), draws=1_000))
    tracemalloc.start()
    try:
        result = max_abs_quantile(QuantileRequest(0.05, corr, draws=draws))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "monte_carlo"
    assert (result.jitter > 0.0) == (np.linalg.matrix_rank(corr) < len(corr))
    assert peak <= planned_bytes(len(corr), draws)


@pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-12, 1e-17])
def test_one_coordinate_is_the_exact_normal_tier(alpha):
    # dim 1 was simulated: --dim 1 printed 1.9659 for 1.95996
    res = max_abs_quantile(QuantileRequest(alpha, np.eye(1), draws=1_000, seed=9))
    assert res.q == two_sided_quantile(alpha)
    assert (res.method, res.draws, res.mc_stderr, res.jitter) == ("normal", 0, 0.0, 0.0)
    assert (res.dim, res.seed) == (1, 9)


def test_the_exact_tiers_plan_no_bytes():
    assert planned_bytes(1, 10**12) == 0


def test_requests_over_the_budget_are_rejected_before_they_run():
    # 8 * (65_536 + 3 * rows * dim + 4 * dim**2) crosses 2**30 between dims
    # 5782 and 5783; the shape is checked before validation copies the
    # matrix, so a read-only broadcast view stands in for the 5783 x 5783
    check_budget(5782, 65_536)
    with pytest.raises(ValueError, match="budget"):
        QuantileRequest(0.05, np.broadcast_to(0.0, (5783, 5783)), draws=65_536)
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert QuantileRequest(0.05, corr, draws=200_000_000).tier == "bivariate"


def test_quantile_dim_checks_the_budget_before_building_the_identity(monkeypatch, capsys):
    def no_identity(*args, **kwargs):
        raise AssertionError("np.eye called for an over-budget dimension")

    monkeypatch.setattr(perfci.cli.np, "eye", no_identity)
    assert main(["quantile", "--dim", "1000000"]) == EXIT_HARD
    assert "budget" in capsys.readouterr().err


def test_quantile_dim_counts_its_matrices_in_the_budget(monkeypatch, capsys):
    # one 11000 x 11000 matrix is 968 MB, under the 1 GiB budget, but the
    # request holds four of them at its peak
    def no_identity(*args, **kwargs):
        raise AssertionError("np.eye called for an over-budget dimension")

    monkeypatch.setattr(perfci.cli.np, "eye", no_identity)
    assert main(["quantile", "--dim", "11000", "--draws", "1000"]) == EXIT_HARD
    assert "budget" in capsys.readouterr().err


def test_quantile_command_reports_its_method(capsys):
    assert main(["quantile", "--dim", "2", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "bivariate" and payload["draws"] == 0
    assert payload["q"] == pytest.approx(sidak_quantile(0.05, 2), abs=1e-9)
    assert 0.0 < payload["mc_stderr"] < 1e-12
    assert main(["quantile", "--dim", "3", "--draws", "5000"]) == EXIT_OK
    assert "method=monte_carlo" in capsys.readouterr().out


def test_reports_carry_quantile_provenance():
    z = [1, 1, 0, 0, 1, 0, 1, 0, 1, 0]
    data = BinaryDataset.from_arrays(
        z, {"a": [1, 0, 1, 0, 1, 1, 0, 0, 1, 0], "b": [1, 1, 0, 1, 0, 0, 1, 0, 1, 1]}
    )
    targets = make_targets(data.rule_ids, ["accuracy", "f1"])
    individual = analyze(data, targets, IntervalSpec(mode="individual"))
    assert (individual.quantile_method, individual.jitter) == ("normal", 0.0)
    pair = analyze(data, targets, IntervalSpec(target_set=(0, 1), draws=5_000))
    assert (pair.quantile_method, pair.jitter) == ("bivariate", 0.0)
    other = analyze(data, targets, IntervalSpec(target_set=(0, 1), draws=9_000, seed=3))
    assert (other.q, other.mc_stderr, other.rows) == (pair.q, pair.mc_stderr, pair.rows)
    four = analyze(data, targets, IntervalSpec(draws=5_000))
    assert four.quantile_method == "monte_carlo" and four.jitter >= 0.0


def test_analyze_json_meta_carries_quantile_provenance(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("z,a,b\n1,1,1\n1,1,0\n1,0,1\n0,0,0\n0,1,0\n0,0,1\n1,1,1\n0,0,0\n")
    argv = ["analyze", str(table), "--format", "json", "--draws", "5000"]
    assert main(argv + ["--joint", "per-rule,all"]) == EXIT_OK
    metas = [report["meta"] for report in json.loads(capsys.readouterr().out)]
    assert [m["quantile_method"] for m in metas] == ["bivariate", "bivariate", "monte_carlo"]
    assert all(m["jitter"] == 0.0 for m in metas)
    assert main(argv + ["--joint", "none"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["meta"]["quantile_method"] == "normal"
    assert main(argv + ["--joint", "per-rule,all", "--format", "table"]) == EXIT_OK
    assert "method=bivariate,monte_carlo" in capsys.readouterr().out.splitlines()[0]


def test_a_set_with_no_usable_target_has_no_quantile_method(tmp_path, capsys):
    table = tmp_path / "zero.csv"
    table.write_text("z,a,zero\n1,1,0\n1,1,0\n1,0,0\n0,0,0\n0,1,0\n0,0,0\n1,1,0\n0,0,0\n")
    argv = ["analyze", str(table), "--measures", "f1,lift", "--choice", "1", "--format", "json"]
    main(argv)
    good, failed = (report["meta"] for report in json.loads(capsys.readouterr().out))
    assert (good["quantile_method"], good["jitter"]) == ("bivariate", 0.0)
    assert failed["quantile_method"] is None and failed["jitter"] is None
