"""Acceptance gate: ten go/no-go checks at fixed tolerances.

One test per criterion, in order, so a verbose pytest run reads as a
pass/fail line per criterion.  The heavy coverage studies (criteria 5-7
share one run, 8-9 add a second) sit in module-scoped fixtures so each
is simulated exactly once.
"""

import json
import math
import time

import numpy as np
import pytest

from perfci.cli import main
from perfci.covariance import estimate_targets, influence
from perfci.dataset import BinaryDataset, make_targets
from perfci.measures import (
    MomentTriple,
    builtin_measures,
    make_f_beta,
    make_tversky,
)
from perfci.quantiles import (
    QuantileRequest,
    inv_norm_cdf,
    max_abs_quantile,
    sidak_quantile,
)
from perfci.simulation import (
    CoverageConfig,
    GaussianMixtureProcess,
    ThresholdRule,
    rare_positive_stress,
    run_coverage,
)

Z_975 = 1.959964


# ---------------------------------------------------------------------------
# shared simulation runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixture_run():
    """Three threshold rules, two measures, n=500, 2000 replications."""
    config = CoverageConfig(
        process=GaussianMixtureProcess(),
        rules=(ThresholdRule(0.3), ThresholdRule(0.5), ThresholdRule(0.7)),
        measure_ids=("f_beta(0.5)", "accuracy"),
        n=500,
        replications=2000,
        alpha=0.05,
        choice=1,
        joint_sets="all",
        draws=20_000,
        seed=1,
    )
    start = time.perf_counter()
    result = run_coverage(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def stress_run():
    """Rare-positive bootstrap stress, both variance choices, 2000 reps."""
    start = time.perf_counter()
    plug, fixed = rare_positive_stress(
        n=3000, replications=2000, alpha=0.05, draws=20_000, seed=0
    )
    return plug, fixed, time.perf_counter() - start


def interior_triple(rng, margin=0.05):
    while True:
        m_a = rng.uniform(0.08, 0.92)
        m_z = rng.uniform(0.08, 0.92)
        lo = max(0.0, m_a + m_z - 1.0) + margin
        hi = min(m_a, m_z) - margin
        if hi <= lo or abs(m_a - m_z) < margin:
            continue
        return MomentTriple(rng.uniform(lo, hi), m_a, m_z)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_inverse_normal_cdf_accuracy():
    """Scalar inverse CDF: <1e-8 abs error on a 1000-point grid, the
    0.975 quantile to 1e-6, all inside one second."""
    from scipy.special import ndtri

    start = time.perf_counter()
    grid = np.linspace(1e-10, 1.0 - 1e-10, 1000)
    got = np.array([inv_norm_cdf(p) for p in grid])
    worst = float(np.max(np.abs(got - ndtri(grid))))
    assert worst < 1e-8

    # independent arbitrary-precision spot checks on 25 grid points
    from mpmath import erfinv, mp, mpf, sqrt as mp_sqrt

    mp.dps = 30
    spot = 0.0
    for p in grid[::40]:
        want = float(erfinv(2 * mpf(repr(float(p))) - 1) * mp_sqrt(2))
        spot = max(spot, abs(inv_norm_cdf(p) - want))
    assert spot < 1e-8

    assert abs(inv_norm_cdf(0.975) - Z_975) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 01 PASS: grid err {worst:.2e}, spot err {spot:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_02_quantile_matches_closed_forms():
    """Simulated equicoordinate quantile vs the independent-case closed
    form for five dimensions, and the rank-one collapse, within 0.01."""
    start = time.perf_counter()
    worst = 0.0
    for dim in (1, 2, 3, 6, 12):
        res = max_abs_quantile(
            QuantileRequest(alpha=0.05, corr=np.eye(dim), draws=200_000, seed=0)
        )
        diff = abs(res.q - sidak_quantile(0.05, dim))
        assert diff < 0.01, f"dim {dim}: |q - sidak| = {diff:.4f}"
        worst = max(worst, diff)
    ones = max_abs_quantile(
        QuantileRequest(alpha=0.05, corr=np.ones((3, 3)), draws=200_000, seed=0)
    )
    assert abs(ones.q - 1.9600) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"criterion 02 PASS: max sidak gap {worst:.4f}, "
        f"all-ones gap {abs(ones.q - 1.9600):.4f}, {elapsed:.2f}s"
    )


def test_criterion_03_gradients_match_finite_differences():
    """Closed-form gradients vs central differences, relative error
    below 1e-5, for every stock measure and extra parameterizations."""
    start = time.perf_counter()
    specs = list(builtin_measures()) + [
        make_f_beta(2.0),
        make_tversky(0.3, 0.4),
    ]
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for spec in specs:
        for _ in range(25):
            m = interior_triple(rng)
            got = np.asarray(spec.gradient(m).as_tuple())
            fd = []
            for shift in ((h, 0, 0), (0, h, 0), (0, 0, h)):
                up = MomentTriple(m.m_za + shift[0], m.m_a + shift[1], m.m_z + shift[2])
                dn = MomentTriple(m.m_za - shift[0], m.m_a - shift[1], m.m_z - shift[2])
                fd.append((spec.evaluate(up) - spec.evaluate(dn)) / (2 * h))
            fd = np.asarray(fd)
            rel = np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-3))
            assert rel < 1e-5, f"{spec.id}: relative error {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 03 PASS: worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_delta_method_identity():
    """Influence-based covariance equals the gradient-projected moment
    covariance to 1e-12; accuracy variance equals the binomial form."""
    rng = np.random.default_rng(77)
    measures = ["accuracy", "f1", "lift", "correlation"]
    worst = 0.0
    worst_acc = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        while True:
            z = rng.integers(0, 2, n)
            rules = {
                f"r{i}": rng.integers(0, 2, n)
                for i in range(int(rng.integers(1, 3)))
            }
            if 0 < z.sum() < n and all(
                0 < a.sum() < n and (z * a).sum() > 0 for a in rules.values()
            ):
                break
        data = BinaryDataset.from_arrays(z, rules)
        picked = list(rng.choice(measures, size=rng.integers(1, 3), replace=False))
        targets = make_targets(data.rule_ids, picked)
        got = estimate_targets(data, targets).cov.v

        # oracle: np.cov of the stacked raw moment rows, projected
        rows, index = [], {}
        for rid in data.rule_ids:
            a = data.rule(rid).astype(float)
            index[("za", rid)] = len(rows)
            rows.append(data.z.astype(float) * a)
            index[("a", rid)] = len(rows)
            rows.append(a)
        index["z"] = len(rows)
        rows.append(data.z.astype(float))
        c = np.atleast_2d(np.cov(np.vstack(rows)))
        proj = np.zeros((len(targets), len(rows)))
        for k, t in enumerate(targets):
            g = influence(data, t).gradient
            proj[k, index[("za", t.rule_id)]] = g.d_za
            proj[k, index[("a", t.rule_id)]] = g.d_a
            proj[k, index["z"]] = g.d_z
        worst = max(worst, float(np.max(np.abs(got - proj @ c @ proj.T))))

        for k, t in enumerate(targets):
            if t.measure_id != "accuracy":
                continue
            p = float(np.mean(data.z == data.rule(t.rule_id)))
            worst_acc = max(
                worst_acc, abs(got[k, k] - n * p * (1 - p) / (n - 1))
            )
    assert worst < 1e-12
    assert worst_acc < 1e-12
    print(
        f"criterion 04 PASS: oracle gap {worst:.2e}, "
        f"binomial gap {worst_acc:.2e} over 100 datasets"
    )


def test_criterion_05_individual_coverage_band(mixture_run):
    """Each of the six plug-in individual intervals covers its true
    value with probability in [0.93, 0.965] at n=500."""
    result, elapsed = mixture_run
    cov = result.individual_coverage
    assert cov.shape == (6,)
    assert np.all(result.target_error_counts == 0)
    assert np.all((cov >= 0.93) & (cov <= 0.965)), cov
    assert elapsed < 120.0
    print(
        "criterion 05 PASS: individual coverages "
        + ", ".join(f"{c:.4f}" for c in cov)
        + f", run took {elapsed:.1f}s"
    )


def test_criterion_06_joint_of_individual_undercovers(mixture_run):
    """The six individual intervals, read simultaneously, cover all six
    true values in at most 90% of replications."""
    result, _ = mixture_run
    assert result.joint_of_individual <= 0.90
    print(
        f"criterion 06 PASS: joint-of-individual {result.joint_of_individual:.4f}"
    )


def test_criterion_07_joint_coverage_band(mixture_run):
    """The simultaneous six-target intervals restore coverage into
    [0.93, 0.965]."""
    result, _ = mixture_run
    js = result.joint_set("all")
    assert js.error_rate == 0.0
    assert 0.93 <= js.coverage <= 0.965, js.coverage
    print(
        f"criterion 07 PASS: joint coverage {js.coverage:.4f} "
        f"(avg multiplier {js.avg_q:.3f})"
    )


def test_criterion_08_variance_correction_benefit(stress_run):
    """Rare-positive stress: the corrected variance keeps simultaneous
    coverage in [0.93, 0.975] while the plug-in falls >= 0.01 short."""
    plug, fixed, elapsed = stress_run
    plug_cov = plug.joint_sets[0].coverage
    fixed_cov = fixed.joint_sets[0].coverage
    assert fixed_cov >= plug_cov
    assert 0.93 <= fixed_cov <= 0.975, fixed_cov
    assert plug_cov <= fixed_cov - 0.01, (plug_cov, fixed_cov)
    assert elapsed < 300.0
    print(
        f"criterion 08 PASS: plug-in {plug_cov:.4f} vs corrected "
        f"{fixed_cov:.4f}, run took {elapsed:.1f}s"
    )


def test_criterion_09_width_dominance(mixture_run, stress_run):
    """Joint half-widths dominate individual ones up to 3 MC standard
    errors on the multiplier; corrected halves dominate plug-in exactly."""
    z = inv_norm_cdf(0.975)

    def check_joint_vs_individual(result):
        d = result.diagnostics
        for label in d.joint_q:
            q = d.joint_q[label]
            mc = d.joint_mc_stderr[label]
            live = ~np.isnan(q)
            assert np.all(q[live] + 3.0 * mc[live] >= z - 1e-12), label
            # same per-target scale, so the multiplier bound is the
            # half-width bound; spot it on the raw arrays as well
            jh = d.joint_half[label][live]
            ih = d.individual_half[live][:, list(result.joint_set(label).indices)]
            both = ~np.isnan(jh) & ~np.isnan(ih)
            slack = (3.0 * mc[live] / z)[:, np.newaxis] * ih
            assert np.all(jh[both] + slack[both] >= ih[both] - 1e-12)

    mix_result, _ = mixture_run
    plug, fixed, _ = stress_run
    for result in (mix_result, plug, fixed):
        check_joint_vs_individual(result)

    both = ~np.isnan(plug.diagnostics.individual_half) & ~np.isnan(
        fixed.diagnostics.individual_half
    )
    assert np.all(
        fixed.diagnostics.individual_half[both]
        >= plug.diagnostics.individual_half[both]
    )
    assert np.all(
        fixed.diagnostics.variances[both] >= plug.diagnostics.variances[both]
    )
    print("criterion 09 PASS: width dominance holds across all three runs")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Repeated CLI runs with fixed seeds write byte-identical JSON,
    for both the analyze and the coverage commands."""
    table = tmp_path / "table.csv"
    table.write_text(
        "z,a,b\n1,1,1\n1,1,0\n1,0,1\n0,0,0\n0,1,0\n0,0,1\n1,1,1\n0,0,0\n"
    )
    a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
    argv = ["analyze", str(table), "--format", "json", "--draws", "20000", "--seed", "7"]
    assert main(argv + ["--output", str(a1)]) == 0
    assert main(argv + ["--output", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    json.loads(a1.read_text())  # well-formed

    cfg = tmp_path / "cov.cfg"
    cfg.write_text(
        "process = gaussian_mixture\n"
        "rules = threshold(0.3), threshold(0.7)\n"
        "measures = accuracy,f1\n"
        "n = 80\nreplications = 25\ndraws = 2000\nseed = 3\n"
        "joint = per-rule,all\n"
    )
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    argv = ["coverage", "--config", str(cfg), "--format", "json"]
    assert main(argv + ["--output", str(c1)]) == 0
    assert main(argv + ["--output", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    json.loads(c1.read_text())
    print("criterion 10 PASS: analyze and coverage JSON byte-identical")
