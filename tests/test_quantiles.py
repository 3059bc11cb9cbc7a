"""Scalar inverse CDF and the simulated equicoordinate max-|z| quantile."""

import math

import mpmath
import numpy as np
import pytest

from perfci.errors import (
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    OutOfRangeError,
)
from perfci.quantiles import (
    DEFAULT_DRAWS,
    MIN_DRAWS,
    CorrelationMatrix,
    QuantileRequest,
    QuantileResult,
    inv_norm_cdf,
    max_abs_quantile,
    norm_cdf,
    norm_pdf,
    sidak_quantile,
    two_sided_quantile,
)

# precomputed with a 30-digit arbitrary-precision erfinv
Z_975 = 1.95996398454005423552
INV_995 = 2.575829303548900761
INV_001 = -3.0902323061678135415
INV_1E10 = -6.3613409024040562047
SIDAK_05 = {
    1: Z_975,
    2: 2.23647664455779,
    3: 2.38773788707081,
    6: 2.63103828453677,
    12: 2.85784262394892,
}


def test_inv_norm_cdf_frozen_values():
    assert inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-15)
    assert inv_norm_cdf(0.975) == pytest.approx(Z_975, abs=1e-12)
    assert inv_norm_cdf(0.995) == pytest.approx(INV_995, abs=1e-12)
    assert inv_norm_cdf(0.001) == pytest.approx(INV_001, abs=1e-12)
    assert inv_norm_cdf(1e-10) == pytest.approx(INV_1E10, abs=1e-11)


def test_inv_norm_cdf_symmetry_and_monotonicity():
    # central grid: rounding of the argument 1 - p is negligible here
    for p in np.linspace(0.001, 0.5, 250):
        assert inv_norm_cdf(1.0 - p) == pytest.approx(-inv_norm_cdf(p), abs=1e-12)
    # tails: rounding 1 - p already shifts the true answer by ~1e-11
    for p in (1e-6, 1e-5, 1e-4):
        assert inv_norm_cdf(1.0 - p) == pytest.approx(-inv_norm_cdf(p), abs=1e-9)
    grid = np.linspace(1e-6, 1 - 1e-6, 501)
    values = [inv_norm_cdf(p) for p in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_inv_norm_cdf_roundtrip():
    rng = np.random.default_rng(31)
    for p in rng.uniform(1e-8, 1 - 1e-8, 200):
        assert norm_cdf(inv_norm_cdf(p)) == pytest.approx(p, rel=1e-9, abs=1e-13)


def test_inv_norm_cdf_extreme_tails_stay_finite():
    z = inv_norm_cdf(1e-300)
    assert -38.0 < z < -37.0
    assert inv_norm_cdf(1.0 - 1e-16) > 8.0


def test_inv_norm_cdf_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(OutOfRangeError):
            inv_norm_cdf(p)


def test_norm_pdf_and_cdf_sanity():
    assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert norm_cdf(0.0) == pytest.approx(0.5)
    assert norm_cdf(Z_975) == pytest.approx(0.975, abs=1e-15)


def test_sidak_frozen_values():
    for dim, want in SIDAK_05.items():
        assert sidak_quantile(0.05, dim) == pytest.approx(want, abs=1e-10)
    with pytest.raises(OutOfRangeError):
        sidak_quantile(0.0, 2)
    with pytest.raises(DimensionMismatchError):
        sidak_quantile(0.05, 0)


def test_request_validation():
    eye = np.eye(2)
    with pytest.raises(OutOfRangeError):
        QuantileRequest(alpha=0.0, corr=eye)
    with pytest.raises(OutOfRangeError):
        QuantileRequest(alpha=1.0, corr=eye)
    with pytest.raises(ValueError):
        QuantileRequest(alpha=0.05, corr=eye, draws=MIN_DRAWS - 1)
    with pytest.raises(ValueError):
        QuantileRequest(alpha=0.05, corr=eye, seed=-1)
    with pytest.raises(DimensionMismatchError):
        QuantileRequest(alpha=0.05, corr=np.ones((2, 3)))
    with pytest.raises(ValueError) as err:
        QuantileRequest(alpha=0.05, corr=np.array([[1.0, 1.5], [1.5, 1.0]]))
    assert "(0, 1)" in str(err.value) and "1.5" in str(err.value)
    with pytest.raises(ValueError):
        QuantileRequest(alpha=0.05, corr=np.array([[0.9, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        QuantileRequest(alpha=0.05, corr=np.array([[1.0, 0.3], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        QuantileRequest(alpha=0.05, corr=np.array([[1.0, float("nan")], [0.0, 1.0]]))


def test_two_sided_and_sidak_quantiles_keep_every_digit_at_small_alpha():
    # the upper-tail form inv_norm_cdf(1 - alpha / 2) lost digits at small
    # alpha, and failed below about 1.1e-16 where 1 - alpha / 2 rounds to 1
    with mpmath.workdps(60):
        for alpha in (0.05, 1e-6, 1e-12, 1e-17):
            want = mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(alpha))
            assert two_sided_quantile(alpha) == pytest.approx(float(want), rel=1e-15)
        want = mpmath.sqrt(2) * mpmath.erfinv(mpmath.sqrt(1 - mpmath.mpf(1e-12)))
        assert sidak_quantile(1e-12, 2) == pytest.approx(float(want), rel=1e-15)
    for alpha in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(OutOfRangeError):
            two_sided_quantile(alpha)


def test_monte_carlo_request_needs_one_draw_beyond_its_quantile():
    # alpha * draws < 1 made q the largest draw with mc_stderr 0
    with pytest.raises(ValueError, match=r"alpha = 0\.0001 needs at least 10,000 draws"):
        QuantileRequest(1e-4, np.eye(3), draws=1000)
    res = max_abs_quantile(QuantileRequest(1e-3, np.eye(3), draws=1000))
    assert res.method == "monte_carlo" and res.mc_stderr > 0.0
    # the bivariate tier simulates nothing, so it answers any alpha
    assert max_abs_quantile(QuantileRequest(1e-4, np.eye(2), draws=1000)).draws == 0


def test_request_keeps_a_validated_correlation_matrix():
    corr = CorrelationMatrix(np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]]))
    assert QuantileRequest(0.05, corr).corr is corr.values
    same = (QuantileRequest(0.05, c, draws=5000, seed=2) for c in (corr, corr.values))
    assert max_abs_quantile(next(same)) == max_abs_quantile(next(same))


def test_request_accepts_wrapper_with_values_attribute():
    class Wrapped:
        values = np.eye(2)

    req = QuantileRequest(alpha=0.05, corr=Wrapped())
    assert req.dim == 2


def test_identity_matches_scalar_quantile():
    req = QuantileRequest(alpha=0.05, corr=np.eye(1), draws=50_000, seed=3)
    res = max_abs_quantile(req)
    assert isinstance(res, QuantileResult)
    assert res.q == pytest.approx(Z_975, abs=max(0.03, 4 * res.mc_stderr))
    assert res.jitter == 0.0
    assert res.dim == 1 and res.draws == 50_000 and res.seed == 3


def test_independent_coordinates_match_sidak():
    for dim in (2, 3, 6):
        res = max_abs_quantile(
            QuantileRequest(alpha=0.05, corr=np.eye(dim), draws=50_000, seed=5)
        )
        assert res.q == pytest.approx(SIDAK_05[dim], abs=0.03)


def test_perfectly_correlated_collapses_to_scalar():
    ones = np.ones((3, 3))
    res = max_abs_quantile(QuantileRequest(alpha=0.05, corr=ones, draws=50_000, seed=7))
    assert res.q == pytest.approx(Z_975, abs=0.03)
    assert res.jitter > 0.0  # rank-one matrix needs the jitter ladder


def test_intermediate_correlation_sits_between_extremes():
    rho = 0.8
    r = np.full((3, 3), rho)
    np.fill_diagonal(r, 1.0)
    res = max_abs_quantile(QuantileRequest(alpha=0.05, corr=r, draws=50_000, seed=9))
    assert Z_975 + 0.05 < res.q < SIDAK_05[3] - 0.05


def test_quantile_monotone_in_dim_and_alpha():
    qs = [
        max_abs_quantile(
            QuantileRequest(alpha=0.05, corr=np.eye(d), draws=20_000, seed=11)
        ).q
        for d in (1, 2, 4)
    ]
    assert qs[0] < qs[1] < qs[2]
    strict = max_abs_quantile(
        QuantileRequest(alpha=0.01, corr=np.eye(2), draws=20_000, seed=11)
    ).q
    loose = max_abs_quantile(
        QuantileRequest(alpha=0.10, corr=np.eye(2), draws=20_000, seed=11)
    ).q
    assert strict > loose


def test_determinism_and_seed_sensitivity():
    r = np.full((3, 3), 0.4)
    np.fill_diagonal(r, 1.0)
    a = max_abs_quantile(QuantileRequest(alpha=0.05, corr=r, draws=30_000, seed=42))
    b = max_abs_quantile(QuantileRequest(alpha=0.05, corr=r, draws=30_000, seed=42))
    c = max_abs_quantile(QuantileRequest(alpha=0.05, corr=r, draws=30_000, seed=43))
    assert a.q == b.q and a.mc_stderr == b.mc_stderr
    assert a.q != c.q


def test_random_correlations_bracketed_by_bonferroni():
    rng = np.random.default_rng(33)
    alpha = 0.05
    for _ in range(6):
        d = int(rng.integers(2, 6))
        w = rng.normal(size=(d, d + 2))
        s = w @ w.T
        scale = np.sqrt(np.diag(s))
        r = s / np.outer(scale, scale)
        res = max_abs_quantile(QuantileRequest(alpha=alpha, corr=r, draws=30_000, seed=13))
        bonferroni = inv_norm_cdf(1.0 - alpha / (2 * d))
        slack = 3 * res.mc_stderr + 0.01
        assert Z_975 - slack <= res.q <= bonferroni + slack


def test_indefinite_matrix_raises():
    r = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    # entrywise valid but min eigenvalue is -0.8, beyond any jitter repair
    with pytest.raises(NotPositiveSemidefiniteError):
        max_abs_quantile(QuantileRequest(alpha=0.05, corr=r, draws=2_000))


def test_mc_stderr_magnitude_at_default_budget():
    res = max_abs_quantile(
        QuantileRequest(alpha=0.05, corr=np.eye(1), draws=DEFAULT_DRAWS, seed=1)
    )
    assert 0.001 < res.mc_stderr < 0.02
