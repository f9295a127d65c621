"""Statistical characterisation of estimators: bias / RMSE / skewness /
excess kurtosis, BCa bootstrap intervals, and the amplitude-sweep
benchmark harness.

Moment estimators are population-style (divide by n) to match the
definitional formulas the metrics are reported against; skewness and
kurtosis are therefore slightly biased at small n, which is fine for the
benchmark sample sizes used here.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import qae as qae_mod

_NORMAL = statistics.NormalDist()  # BCa's Phi is its cdf, Phi^-1 its inv_cdf


@dataclass(frozen=True)
class EstimatorStats:
    bias: float
    mse: float
    rmse: float
    skewness: float
    kurtosis: float
    excess_kurtosis: float
    n_samples: int
    degenerate: bool = False  # all samples equal: skew/kurtosis undefined

    def to_dict(self) -> dict:
        return {
            "bias": self.bias,
            "mse": self.mse,
            "rmse": self.rmse,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "excess_kurtosis": self.excess_kurtosis,
            "n_samples": self.n_samples,
            "degenerate": self.degenerate,
        }


def _row_stats(rows: np.ndarray, true_value: float) -> dict:
    """The ``EstimatorStats`` fields of every row of a 2-D sample matrix,
    as arrays.  Bias and MSE are taken on the rows as given; the central
    moments are two-pass, about the mean of each row sorted.

    Row-wise ``np.mean`` equals the 1-D mean of each row bit for bit, and
    the last step runs on Python floats because numpy's vector power rounds
    ``mu2 ** 1.5`` differently, so each row gives exactly what one call
    per row would.
    """
    mean = np.mean(rows, axis=1)
    mse = np.mean((rows - true_value) ** 2, axis=1)
    s = np.sort(rows, axis=1)
    smean = np.mean(s, axis=1)
    dev = s - smean[:, None]
    mu2 = np.mean(dev**2, axis=1)
    mu3 = np.mean(dev**3, axis=1)
    mu4 = np.mean(dev**4, axis=1)
    nan = float("nan")
    skew, kurt, degenerate = [], [], []
    for m, v2, v3, v4 in zip(smean.tolist(), mu2.tolist(), mu3.tolist(), mu4.tolist()):
        flat = v2 <= (1e-14 * max(1.0, abs(m))) ** 2
        degenerate.append(flat)
        skew.append(nan if flat else v3 / v2**1.5)
        kurt.append(nan if flat else v4 / v2**2)
    kurt = np.array(kurt)
    return {
        "bias": mean - true_value,
        "mse": mse,
        "rmse": np.sqrt(mse),
        "skewness": np.array(skew),
        "kurtosis": kurt,
        "excess_kurtosis": kurt - 3.0,
        "degenerate": np.array(degenerate),
    }


def estimator_stats(samples, true_value: float) -> EstimatorStats:
    """Bias and MSE about ``true_value``; central moments about the sample
    mean.  Needs at least four samples (moments up to order four).
    Samples are sorted internally, so the result is exactly invariant
    under permutation of the input."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size < 4:
        raise ValueError("need at least 4 samples")
    row = _row_stats(s[None, :], true_value)
    return EstimatorStats(
        **{k: float(row[k][0]) for k in ("bias", "mse", "rmse", "skewness",
                                         "kurtosis", "excess_kurtosis")},
        n_samples=s.size, degenerate=bool(row["degenerate"][0]),
    )


_NAMED_STATISTICS = {
    "mean": np.mean,
    "median": np.median,
    "std": np.std,
}


def bootstrap_ci(samples, statistic, level: float = 0.68,
                 n_resamples: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Bias-corrected and accelerated bootstrap interval.

    ``statistic`` is a callable on a 1-D sample array or one of the tags
    "mean" / "median" / "std".  z0 comes from the resample CDF at the
    point estimate, the acceleration from the jackknife skewness.
    Deterministic under ``seed``; degenerate (all-equal) samples give a
    zero-width interval.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    stat = _NAMED_STATISTICS.get(statistic, statistic)
    s = np.asarray(samples, dtype=float)
    n = s.size
    if n < 2 or np.all(s == s[0]):
        v = float(stat(s))
        return (v, v)
    point = float(stat(s))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_resamples, n))
    boot = np.array([float(stat(s[row])) for row in idx])
    jack = np.array([float(stat(np.delete(s, i))) for i in range(n)])
    return _bca(point, boot, jack, level)


def _bca(point: float, boot: np.ndarray, jack: np.ndarray,
         level: float) -> tuple[float, float]:
    """The BCa interval from a statistic's point value, its bootstrap
    replicates and its leave-one-out (jackknife) values.

    NaN replicates (a statistic undefined on, say, an all-equal resample)
    are dropped; the interval is NaN only when no bootstrap replicate is
    left."""
    boot, jack = boot[~np.isnan(boot)], jack[~np.isnan(jack)]
    if boot.size == 0:
        return (float("nan"), float("nan"))
    n_resamples = boot.size
    below = float(np.sum(boot < point) + 0.5 * np.sum(boot == point))
    frac = min(max(below / n_resamples, 1.0 / (2 * n_resamples)),
               1.0 - 1.0 / (2 * n_resamples))
    z0 = _NORMAL.inv_cdf(frac)
    jm = jack.mean() if jack.size else 0.0
    num = float(np.sum((jm - jack) ** 3))
    den = float(np.sum((jm - jack) ** 2)) ** 1.5
    a = num / (6.0 * den) if den > 0 else 0.0
    alpha = 1.0 - level
    z = np.array([_NORMAL.inv_cdf(alpha / 2.0), _NORMAL.inv_cdf(1.0 - alpha / 2.0)])
    adj = z0 + (z0 + z) / (1.0 - a * (z0 + z))  # a zero denominator gives +-inf
    lo, hi = np.quantile(boot, [_NORMAL.cdf(v) for v in adj])
    return (float(min(lo, hi)), float(max(lo, hi)))


# --------------------------------------------------------------------------
# the amplitude-sweep harness


_METRICS = ("bias", "rmse", "skewness", "excess_kurtosis")


def _sweep_intervals(samples, true_value: float, n_resamples: int,
                     seed: int) -> dict:
    """68% BCa intervals for the four sweep metrics of ``samples``, equal
    to ``bootstrap_ci(samples, <metric>, 0.68, n_resamples, seed)``.  The
    metrics share one resample draw; each of its rows and each
    leave-one-out row is summarised once, by ``_row_stats``."""
    s = np.asarray(samples, dtype=float)
    n = s.size
    point = _row_stats(s[None, :], true_value)
    if np.all(s == s[0]):
        return {f"{m}_ci": (float(point[m][0]),) * 2 for m in _METRICS}
    idx = np.random.default_rng(seed).integers(0, n, size=(n_resamples, n))
    boot = _row_stats(s[idx], true_value)
    # row i is s without s[i], in np.delete order
    cols = np.arange(n - 1)
    jack = _row_stats(s[cols + (cols >= np.arange(n)[:, None])], true_value)
    return {f"{m}_ci": _bca(float(point[m][0]), boot[m], jack[m], 0.68)
            for m in _METRICS}


@dataclass
class SweepReport:
    qae_kind: str
    amplitudes: list
    q_list: list
    repeats: int
    seed: int
    cells: dict = field(default_factory=dict)  # (a, q) -> per-metric dict
    fitted_conservative: dict = field(default_factory=dict)  # a -> max RMSE q^(l/2)
    fitted_lsq: dict = field(default_factory=dict)           # a -> log-log fit

    def aggregate(self) -> dict:
        vals = sorted(self.fitted_conservative.values())
        if not vals:
            return {}
        return {
            "max": vals[-1],
            "median": float(np.median(vals)),
            "min": vals[0],
        }

    def to_dict(self) -> dict:
        return {
            "qae_kind": self.qae_kind,
            "amplitudes": self.amplitudes,
            "q_list": self.q_list,
            "repeats": self.repeats,
            "seed": self.seed,
            "cells": {
                f"{a}|{q}": v for (a, q), v in sorted(self.cells.items())
            },
            "fitted_conservative": {str(a): v for a, v in sorted(self.fitted_conservative.items())},
            "fitted_lsq": {str(a): v for a, v in sorted(self.fitted_lsq.items())},
            "aggregate": self.aggregate(),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self) -> str:
        lines = ["amplitude,q,metric,value,ci_lo,ci_hi"]
        for (a, q), cell in sorted(self.cells.items()):
            for m in _METRICS:
                lo, hi = cell[f"{m}_ci"]
                lines.append(f"{a},{q},{m},{cell[m]!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


def amplitude_sweep(
    qae_kind: str,
    amplitude_grid,
    q_list,
    repeats: int = 500,
    seed: int = 0,
    n_resamples: int = 200,
    p_max_fail: float = 0.5,
) -> SweepReport:
    """Run the QAE repeatedly on the two-qubit benchmark circuit across an
    amplitude grid and use budgets; report the four robustness metrics
    with BCa intervals plus fitted convergence constants per amplitude.

    The conservative fit is max over q of RMSE * q^(lambda/2); the
    least-squares fit regresses log RMSE on log q with slope -lambda/2.
    Each (amplitude, q) cell derives its own seed substream, so the report
    is reproducible regardless of evaluation order.
    """
    amplitude_grid = [float(a) for a in amplitude_grid]
    q_list = [int(q) for q in q_list]
    if repeats < 100:
        raise ValueError("need at least 100 repeats")
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    if len(set(amplitude_grid)) < len(amplitude_grid) or len(set(q_list)) < len(q_list):
        raise ValueError("amplitudes and q_list entries must be distinct")
    if any(not 0.0 < a < 1.0 for a in amplitude_grid):
        raise ValueError("amplitudes must lie in (0, 1)")
    records = [qae_mod.schedule(qae_kind, q) for q in q_list]
    report = SweepReport(qae_kind, amplitude_grid, q_list, repeats, seed)
    for ai, a in enumerate(amplitude_grid):
        rmses = []
        for qi, (q, record) in enumerate(zip(q_list, records)):
            sub = int(np.random.SeedSequence((seed, ai, qi)).generate_state(1)[0])
            est = qae_mod.estimate_amplitude(record, a, sub, p_max_fail, repeats=repeats)
            st = estimator_stats(est, a)
            cell = {
                "bias": st.bias,
                "rmse": st.rmse,
                "skewness": st.skewness,
                "excess_kurtosis": st.excess_kurtosis,
                **_sweep_intervals(est, a, n_resamples, seed=sub + 1),
            }
            report.cells[(a, q)] = cell
            rmses.append(st.rmse)
        rmses = np.array(rmses)
        qs = np.array(q_list, dtype=float)
        half_lam = qae_mod.QAE_LAMBDA[qae_kind] / 2.0
        report.fitted_conservative[a] = float(np.max(rmses * qs ** half_lam))
        logc = np.mean(np.log(np.maximum(rmses, 1e-300)) + half_lam * np.log(qs))
        report.fitted_lsq[a] = float(np.exp(logc))
    return report
