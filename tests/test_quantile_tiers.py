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
from perfci import quantiles
from perfci.cli import EXIT_HARD, EXIT_OK, main
from perfci.dataset import BinaryDataset, make_targets
from perfci.intervals import IntervalSpec, analyze
from perfci.quantiles import (
    QuantileRequest,
    check_budget,
    inv_norm_cdf,
    max_abs_quantile,
    max_abs_quantiles,
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


@st.composite
def mixed_requests(draw):
    """Dim-2 requests at random and edge correlations (0, +-1, repeats),
    among dim-1 and simulated dim-3 requests."""
    alpha = st.one_of(st.floats(1e-3, 0.5), st.sampled_from([1e-6, 1e-12, 1e-30]))
    rho = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1.0, -1.0, 0.9, 1 - 1e-9]))
    pair = st.builds(lambda a, r: QuantileRequest(a, np.array([[1.0, r], [r, 1.0]])), alpha, rho)
    single = st.builds(lambda a: QuantileRequest(a, np.eye(1)), alpha)
    triple = st.builds(
        lambda a, c, seed: QuantileRequest(a, np.full((3, 3), c) + (1 - c) * np.eye(3),
                                           draws=1_000, seed=seed),
        st.floats(1e-3, 0.5), st.floats(-0.45, 0.95), st.integers(0, 5),
    )
    # pairs come twice as often as the other tiers
    requests = draw(st.lists(st.one_of(pair, pair, single, triple), min_size=1, max_size=8))
    return requests + draw(st.lists(st.sampled_from(requests), max_size=3))


@settings(max_examples=60, deadline=None)
@given(mixed_requests())
def test_a_batch_answers_each_request_as_it_is_answered_alone(requests):
    batch = max_abs_quantiles(requests)
    assert batch == [max_abs_quantile(request) for request in requests]
    assert [(res.alpha, res.dim) for res in batch] == [(req.alpha, req.dim) for req in requests]


def test_joint_pair_refuses_an_alpha_whose_bracket_underflows_by_name():
    # the Bonferroni bracket halved alpha again: a refusal about 5e-324
    with pytest.raises(ValueError) as info:
        exact(1e-323, 0.5)
    assert str(info.value) == (
        "alpha = 1e-323 is too small for a joint pair: "
        "the smallest alpha a joint pair accepts is 1.5e-323"
    )
    assert exact(1.5e-323, 0.5).method == "bivariate"


def test_a_subnormal_alpha_bounds_q_by_its_rounding():
    # below the smallest normal float the miss rounds in absolute steps of
    # about 5e-324, a third of this alpha, so q is known only to about 0.1
    for rho in (0.0, 0.5, 0.9, 0.999, 1.0):
        assert exact(1.5e-323, rho).mc_stderr > 0.1


@pytest.mark.parametrize("nodes", [24, 48])
def test_the_panel_nodes_are_exact_negated_mirrors(nodes):
    x_q, x_edge, w_q, w_edge = quantiles._panels(nodes)
    m = 3 * nodes  # the panel nodes; node m is the slope node at x = q
    t, w = np.polynomial.legendre.leggauss(nodes)
    assert np.array_equal(x_q[nodes : 2 * nodes], t)  # symmetrising moved no Legendre point
    assert np.array_equal(w_q[nodes : 2 * nodes], w / (2.0 * math.sqrt(2.0 * math.pi)))
    assert (x_q[m], x_edge[m], w_q[m], w_edge[m]) == (1.0, 0.0, 0.0, 0.0)
    for x in (x_q, x_edge):
        assert same_bits(x[m - 1 :: -1], -x[:m])
    q = np.array([1.5, 2.0, 2.2414, 3.7, 10.0, 30.0])[:, np.newaxis]
    for edge in (q, 0.37 * q, np.full_like(q, 1e-4)):
        x = q * x_q + edge * x_edge
        # equal as numbers: where edge = q the middle panel is all zeros, +0 on
        # both sides, and q - r * 0 is q whatever the zero's sign
        assert np.array_equal(x[:, m - 1 :: -1], -x[:, :m])
        assert same_bits(np.abs(x[:, m - 1 :: -1]), np.abs(x[:, :m]))


def two_sided_box_miss(q, r, s, nodes):
    """``quantiles._box_miss`` as it was before it took each tail once: both
    erfc terms at every node, and ``erfc(q / sqrt 2)`` on its own."""
    x_q, x_edge, w_q, w_edge = quantiles._panels(nodes)
    q_, edge = q[:, np.newaxis], np.minimum(q, quantiles._END_PANEL * s)[:, np.newaxis]
    x = q_ * x_q + edge * x_edge
    rx = r[:, np.newaxis] * x
    tails = quantiles._erfc(np.concatenate([q_ - rx, q_ + rx], axis=1) / (s * quantiles._SQRT2)[:, np.newaxis])
    twice = tails[:, : x.shape[1]] + tails[:, x.shape[1] :]
    density = np.exp(-0.5 * x * x)
    inside = ((q_ * w_q + edge * w_edge) * density * twice).sum(axis=1)
    slope = density[:, -1] * (2.0 - twice[:, -1]) * (2.0 / quantiles._SQRT_2PI)
    return quantiles._erfc(q / quantiles._SQRT2) + inside, slope


@pytest.mark.parametrize("nodes", [24, 48])
def test_box_miss_is_the_two_sided_formula_bit_for_bit(nodes):
    # r = 0 and s = 1 give edge = q up to q = 10; r near 1 gives a thin edge panel
    rs = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.999999, 1.0 - 1e-9, 1.0 - 2.0**-52])
    qs = np.array([1.5, 1.96, 2.2414, 2.8, 4.0, 7.5, 10.0, 12.0, 20.0, 30.0])
    r, q = (grid.ravel() for grid in np.meshgrid(rs, qs))
    s = np.sqrt((1.0 - r) * (1.0 + r))
    s_edge = math.sqrt((1.0 - 0.995) * (1.0 + 0.995))  # and one element at q = _END_PANEL * s
    r, q, s = np.append(r, 0.995), np.append(q, quantiles._END_PANEL * s_edge), np.append(s, s_edge)
    assert (np.minimum(q, quantiles._END_PANEL * s) == q).sum() > len(rs)
    miss, slope = quantiles._box_miss(q, r, s, nodes)
    want_miss, want_slope = two_sided_box_miss(q, r, s, nodes)
    assert same_bits(miss, want_miss) and same_bits(slope, want_slope)


def full_sort_order_statistics(maxima, alpha):
    """``quantiles._order_statistics`` as it was, off fully sorted maxima."""
    maxima = np.sort(maxima)
    draws = len(maxima)
    order = min(draws, max(1, math.ceil((1.0 - alpha) * draws)))
    level = order / draws
    window = max(1, round(0.005 * draws))
    lo, hi = max(0, order - 1 - window), min(draws - 1, order - 1 + window)
    spread = float(maxima[hi] - maxima[lo])
    if spread <= 0.0:
        return float(maxima[order - 1]), 0.0
    return float(maxima[order - 1]), math.sqrt(level * (1.0 - level) / draws) / (((hi - lo) / draws) / spread)


@pytest.mark.parametrize("draws", [quantiles.MIN_DRAWS, 1_001, 20_000])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995, 0.9999999, 1e-9, 0.004])
@pytest.mark.parametrize("ties", [False, True])
def test_order_statistics_by_selection_are_those_of_a_full_sort(draws, alpha, ties):
    # alpha 0.9999999 gives order = 1, 1e-9 order = draws (so hi is clipped),
    # and 0.995 lo = 0; tied maxima have a zero spread in places
    maxima = np.abs(np.random.default_rng(draws).standard_normal(draws)) + 1.0
    if ties:
        maxima = np.round(maxima, 1)
    want = full_sort_order_statistics(maxima, alpha)
    got = maxima.copy()
    assert quantiles._order_statistics(got, alpha) == want
    assert same_bits(np.sort(got), np.sort(maxima))  # reordered in place, no value lost
    if ties and alpha == 0.9999999:
        assert want[1] == 0.0


def same_bits(a, b):
    """Equal shapes and dtypes, and the same bits in every entry."""
    return (a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes()


def test_monte_carlo_tier_keeps_its_random_streams():
    """The ``(dim, draws)`` layout draws the same normals from the same
    substreams as the ``(draws, dim)`` reference below."""
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]])
    draws, seed = 150_000, 9
    factor = np.linalg.cholesky(corr)
    maxima = []
    for index, pos in enumerate(range(0, draws, quantiles._CHUNK)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        sample = np.random.Generator(np.random.SFC64(seq)).standard_normal(
            (min(quantiles._CHUNK, draws - pos), 3)
        )
        maxima.append(np.max(np.abs(sample @ factor.T), axis=1))
    want = np.sort(np.concatenate(maxima))[math.ceil(0.95 * draws) - 1]
    got = max_abs_quantile(QuantileRequest(0.05, corr, draws=draws, seed=seed))
    assert got.q == pytest.approx(want, abs=1e-12)
    # the default draws are eight equal chunks, which two or four workers share evenly
    assert quantiles.DEFAULT_DRAWS == 8 * quantiles._CHUNK


def test_monte_carlo_blocks_keep_the_chunk_streams():
    """Chunks read in blocks of 4,369 rows on the calling thread (five
    full blocks and one of 3,155 rows per chunk, then a partial chunk),
    or of 582 rows on a thread pool, give the ``q`` of whole chunks drawn
    at once, and repeat bit for bit."""
    dim, draws, seed = 30, 140_000, 4
    corr = np.full((dim, dim), 0.4)
    np.fill_diagonal(corr, 1.0)
    factor = np.linalg.cholesky(corr)
    maxima = []
    for index, pos in enumerate(range(0, draws, quantiles._CHUNK)):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        sample = np.random.Generator(np.random.SFC64(seq)).standard_normal(
            (min(quantiles._CHUNK, draws - pos), dim)
        )
        maxima.append(np.max(np.abs(sample @ factor.T), axis=1))
    want = np.sort(np.concatenate(maxima))[math.ceil(0.95 * draws) - 1]
    request = QuantileRequest(0.05, corr, draws=draws, seed=seed)
    got = max_abs_quantile(request)
    assert got.q == pytest.approx(want, abs=1e-12)
    assert max_abs_quantile(request) == got


def equicorrelated_quantile(alpha, rho, dim):
    """The exact ``q`` of ``dim`` coordinates of correlation ``rho >= 0``:
    given a shared standard normal ``t``, each is ``sqrt(rho) t`` plus its
    own normal of variance ``1 - rho``, so ``P[max_j |z_j| < q]`` is one
    integral over ``t``, solved for ``q`` by Brent's method (scipy)."""
    integrate, optimize, special = (pytest.importorskip(f"scipy.{m}") for m in ("integrate", "optimize", "special"))
    shift, scale = math.sqrt(rho), math.sqrt(1.0 - rho)

    def box(q):
        inside = lambda t: (special.ndtr((q - shift * t) / scale) - special.ndtr((-q - shift * t) / scale)) ** dim
        return integrate.quad(lambda t: math.exp(-0.5 * t * t) * inside(t), -12.0, 12.0,
                              points=(0.0,), epsabs=1e-13, epsrel=1e-12, limit=200)[0] / math.sqrt(2.0 * math.pi)

    return optimize.brentq(lambda q: box(q) - (1.0 - alpha), 1.0, 10.0, xtol=1e-12)


@pytest.mark.parametrize("rho", [0.3, 0.8])
@pytest.mark.parametrize("dim", [3, 6, 30, 90])
def test_monte_carlo_tier_against_the_exact_equicorrelated_quantile(dim, rho):
    corr = np.full((dim, dim), rho)
    np.fill_diagonal(corr, 1.0)
    result = max_abs_quantile(QuantileRequest(0.05, corr))
    assert result.method == "monte_carlo" and result.draws == quantiles.DEFAULT_DRAWS
    assert abs(result.q - equicorrelated_quantile(0.05, rho, dim)) <= 4.0 * result.mc_stderr


def test_planned_bytes_counts_the_maxima_blocks_and_matrices(monkeypatch):
    # dim 90: three 1 MiB blocks of 1,456 rows on the calling thread, or, if
    # more, two pooled reads of 320 rows for each of up to min(cores, chunks)
    # threads and one: 2 * 8 + 1 of them at 16 cores; dim 3: 10,922-row blocks,
    # the same on the pool; the 5,000 draws fit one block of one chunk
    for cores, blocks in ((1, 3 * 1_456), (2, 3 * 1_456), (16, 17 * 320)):
        threads = min(cores, quantiles._chunks(200_000))
        monkeypatch.setattr(quantiles, "_cores", lambda: cores)
        assert planned_bytes(90, 200_000) == 8 * (200_000 + blocks * 90 + 4 * 90 * 90)
        assert planned_bytes(90, 200_000) < 8 << 20
        assert planned_bytes(91, 200_000) == 8 * (200_000 + 3 * 1_440 * 91 + 4 * 91 * 91)
        assert planned_bytes(3, 200_000) == 8 * (200_000 + (2 * threads + 1) * 10_922 * 3 + 4 * 3 * 3)
        assert planned_bytes(3, 5_000) == 8 * (5_000 + 3 * 5_000 * 3 + 4 * 3 * 3)
    assert planned_bytes(2, 10**9) == 0


def _low_rank_corr(dim, rank):
    x = np.random.default_rng(dim).standard_normal((dim, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x @ x.T


@pytest.mark.parametrize(
    "corr, draws",
    [
        (np.eye(3), 140_000),  # six chunks, the last one partial
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
    pair = analyze(data, targets[:2], IntervalSpec(draws=5_000))
    assert (pair.quantile_method, pair.jitter) == ("bivariate", 0.0)
    other = analyze(data, targets[:2], IntervalSpec(draws=9_000, seed=3))
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
