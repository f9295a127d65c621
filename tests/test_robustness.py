import json
import math

import numpy as np
import pytest

from qmci.qae import estimate_amplitude, schedule
from qmci.robustness import (
    EstimatorStats,
    amplitude_sweep,
    _bca,
    _NORMAL,
    bootstrap_ci,
    estimator_stats,
)


def test_stats_constant_samples_flagged():
    st = estimator_stats([0.3] * 10, 0.3)
    assert st.bias == pytest.approx(0.0, abs=1e-15)
    assert st.mse == 0.0
    assert st.degenerate
    assert math.isnan(st.skewness)


def test_stats_symmetric_two_point():
    st = estimator_stats([1.0 - 0.2, 1.0 + 0.2] * 5, 1.0)
    assert st.bias == pytest.approx(0.0)
    assert st.rmse == pytest.approx(0.2)
    assert st.skewness == pytest.approx(0.0)


def test_stats_gaussian_excess_kurtosis(rng):
    s = rng.normal(size=1_000_000)
    st = estimator_stats(s, 0.0)
    assert abs(st.excess_kurtosis) < 0.02
    assert st.kurtosis == pytest.approx(st.excess_kurtosis + 3.0)
    assert st.rmse == pytest.approx(math.sqrt(st.mse))
    assert st.mse >= st.bias**2


def test_stats_permutation_invariance(rng):
    s = rng.normal(size=100)
    a = estimator_stats(s, 0.1)
    b = estimator_stats(np.flip(s), 0.1)
    assert a == b


def test_stats_affine_equivariance(rng):
    s = rng.normal(size=2000) + 0.3
    alpha, beta = 2.5, -0.7
    base = estimator_stats(s, 0.3)
    scaled = estimator_stats(alpha * s + beta, alpha * 0.3 + beta)
    assert scaled.bias == pytest.approx(alpha * base.bias, abs=1e-12)
    assert scaled.skewness == pytest.approx(base.skewness, rel=1e-9)
    assert scaled.excess_kurtosis == pytest.approx(base.excess_kurtosis, rel=1e-9)


def _scalar_stats(samples, true_value):
    """The moment formulas on one sorted sample, on Python floats."""
    s = np.sort(np.asarray(samples, dtype=float))
    mean = float(s.mean())
    mse = float(np.mean((s - true_value) ** 2))
    mu2 = float(np.mean((s - mean) ** 2))
    if mu2 <= (1e-14 * max(1.0, abs(mean))) ** 2:
        nan = float("nan")
        return EstimatorStats(mean - true_value, mse, math.sqrt(mse), nan, nan, nan,
                              s.size, degenerate=True)
    kurt = float(np.mean((s - mean) ** 4)) / mu2**2
    return EstimatorStats(mean - true_value, mse, math.sqrt(mse),
                          float(np.mean((s - mean) ** 3)) / mu2**1.5, kurt, kurt - 3.0,
                          s.size)


def test_stats_equal_scalar_formulas():
    gen = np.random.default_rng(20)
    for scale in (1e-9, 1e-4, 1e-2, 1.0, 1e3):
        for n in (4, 37, 200):
            for _ in range(80):
                s = 0.3 + scale * gen.standard_normal(n)
                assert json.dumps(estimator_stats(s, 0.3).to_dict()) == json.dumps(
                    _scalar_stats(s, 0.3).to_dict())
    flat = estimator_stats([0.25] * 6, 0.2)
    assert json.dumps(flat.to_dict()) == json.dumps(_scalar_stats([0.25] * 6, 0.2).to_dict())


def test_stats_too_few_samples():
    with pytest.raises(ValueError):
        estimator_stats([1.0, 2.0, 3.0], 0.0)


def test_bootstrap_constant_samples():
    assert bootstrap_ci([2.0] * 20, "mean", 0.68, 500, seed=0) == (2.0, 2.0)


def test_bootstrap_symmetric_location(rng):
    s = rng.normal(size=10_000)
    lo, hi = bootstrap_ci(s, "mean", 0.68, 400, seed=1)
    mid = float(np.mean(s))
    assert lo < mid < hi
    asym = abs((hi - mid) - (mid - lo))
    assert asym <= 0.1 * (hi - lo)


def test_bootstrap_deterministic():
    rng = np.random.default_rng(0)
    s = rng.normal(size=50)
    a = bootstrap_ci(s, "mean", 0.68, 300, seed=7)
    b = bootstrap_ci(s, "mean", 0.68, 300, seed=7)
    assert a == b


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([1, 2, 3], "mean", 1.5, 200, 0)
    with pytest.raises(ValueError):
        bootstrap_ci([1, 2, 3], "mean", 0.68, 10, 0)


def test_bootstrap_coverage(rng):
    n_sets, n, hits = 600, 40, 0
    for i in range(n_sets):
        s = rng.normal(size=n)
        lo, hi = bootstrap_ci(s, "mean", 0.68, 200, seed=i)
        hits += lo <= 0.0 <= hi
    coverage = hits / n_sets
    assert abs(coverage - 0.68) <= 0.04


def test_sweep_pam_constants_and_bias():
    rep = amplitude_sweep("PAM", [0.25, 0.5, 0.75], [100, 400], repeats=600, seed=2)
    for a, c in rep.fitted_conservative.items():
        assert c <= 0.5 * 1.1
    agg = rep.aggregate()
    assert agg["max"] <= 0.55
    # binomial at p = 1/2 is symmetric: bias within 3 standard errors
    cell = rep.cells[(0.5, 400)]
    se = 0.5 / math.sqrt(400) / math.sqrt(600)
    assert abs(cell["bias"]) <= 3 * se


def test_sweep_cis_contain_point_estimates():
    rep = amplitude_sweep("PAM", [0.3], [200], repeats=300, seed=5)
    cell = rep.cells[(0.3, 200)]
    for metric in ("bias", "rmse", "skewness", "excess_kurtosis"):
        lo, hi = cell[f"{metric}_ci"]
        assert lo <= cell[metric] + 1e-9 and cell[metric] - 1e-9 <= hi


def test_sweep_interval_finite_when_some_resamples_are_flat():
    # 98 of the 100 estimates are 0, so some bootstrap resamples are
    # all-equal and their skewness and kurtosis are undefined
    rep = amplitude_sweep("PAM", [0.002], [10], repeats=100, n_resamples=100)
    cell = rep.cells[(0.002, 10)]
    assert math.isfinite(cell["skewness"])
    for metric in ("skewness", "excess_kurtosis"):
        lo, hi = cell[f"{metric}_ci"]
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi


def test_bca_drops_nan_replicates():
    gen = np.random.default_rng(7)
    boot, jack = gen.normal(size=200), gen.normal(size=50)
    nan = float("nan")
    with_nan = _bca(0.1, np.insert(boot, [0, 17, 200], nan), np.insert(jack, 3, nan), 0.68)
    assert with_nan == _bca(0.1, boot, jack, 0.68)
    assert all(math.isfinite(v) for v in with_nan)
    assert all(math.isnan(v) for v in _bca(0.1, np.full(100, nan), jack, 0.68))
    assert all(math.isfinite(v) for v in _bca(0.1, boot, np.full(50, nan), 0.68))


def test_bca_normal_matches_scipy():
    # BCa's Phi and Phi^-1 (the standard library's normal law) against
    # scipy's ndtr / ndtri, which serve here as a reference only
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-8.0, 8.0, 16001)
    assert np.abs(np.array([_NORMAL.cdf(v) for v in x]) - special.ndtr(x)).max() <= 1e-15
    tails = np.geomspace(1e-6, 0.5, 2001)
    p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 10001), tails, 1.0 - tails])
    want = special.ndtri(p)
    got = np.array([_NORMAL.inv_cdf(v) for v in p])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_sweep_deterministic_bytes():
    r1 = amplitude_sweep("MLQAE", [0.4], [300], repeats=150, seed=9, n_resamples=150)
    r2 = amplitude_sweep("MLQAE", [0.4], [300], repeats=150, seed=9, n_resamples=150)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_sweep_validation():
    with pytest.raises(ValueError):
        amplitude_sweep("PAM", [1.5], [100], repeats=200, seed=0)
    with pytest.raises(ValueError):
        amplitude_sweep("PAM", [0.5], [100], repeats=10, seed=0)
    with pytest.raises(ValueError):
        amplitude_sweep("PAM", [0.5], [100], repeats=200, seed=0, n_resamples=99)
    with pytest.raises(ValueError):
        amplitude_sweep("PAM", [0.5, 0.5], [100], repeats=200, seed=0)
    with pytest.raises(ValueError):
        amplitude_sweep("PAM", [0.5], [100, 100], repeats=200, seed=0)


@pytest.mark.parametrize("kind,amps,q_list,repeats,n_resamples", [
    ("PAM", [1e-9, 0.3], [50, 400], 120, 100),
    ("MLQAE", [0.2, 0.85], [1, 300], 100, 150),
    ("IQAE", [0.45], [100, 2000], 150, 100),
    ("LCU", [0.6], [500, 4000], 130, 110),
    ("LCU", [0.35], [4000], 1000, 100),
])
def test_sweep_cells_equal_per_resample_reference(kind, amps, q_list, repeats, n_resamples):
    """Every cell is byte for byte what one statistic call per bootstrap
    resample and per jackknife deletion gives."""
    seed = 4
    rep = amplitude_sweep(kind, amps, q_list, repeats=repeats, seed=seed,
                          n_resamples=n_resamples)
    for ai, a in enumerate(amps):
        for qi, q in enumerate(q_list):
            sub = int(np.random.SeedSequence((seed, ai, qi)).generate_state(1)[0])
            est = estimate_amplitude(schedule(kind, q), a, sub, 0.5, repeats=repeats)
            st = estimator_stats(est, a)
            ref = {"bias": st.bias, "rmse": st.rmse, "skewness": st.skewness,
                   "excess_kurtosis": st.excess_kurtosis}
            for name, fn in (
                ("bias", lambda x: float(np.mean(x)) - a),
                ("rmse", lambda x: float(np.sqrt(np.mean((x - a) ** 2)))),
                ("skewness", lambda x: estimator_stats(x, a).skewness),
                ("excess_kurtosis", lambda x: estimator_stats(x, a).excess_kurtosis),
            ):
                ref[f"{name}_ci"] = bootstrap_ci(est, fn, 0.68, n_resamples, seed=sub + 1)
            assert json.dumps(rep.cells[(a, q)]) == json.dumps(ref), (a, q)
    if kind == "PAM":
        assert math.isnan(rep.cells[(1e-9, 50)]["skewness"])
