"""Command-line surface: distribution inspection, QMCI runs, robustness
sweeps and resource quantification, driven by JSON configs.

Subcommands: ``dist load|metrics|train``, ``estimate``, ``resources``,
``qae-sweep``.  One config file per invocation (single positional
argument), outputs under ``--out-dir`` (default: the config's directory).
All randomness flows from the config seed; outputs are byte-identical
across reruns.  Exit codes: 0 success, 2 config/schema error (an
instrument too large to price included), 3 numeric failure.  Multiple
sweep configurations run in a thread pool capped by the ``QMCI_THREADS``
environment variable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import distributions as dist_mod
from . import fourier as fourier_mod
from . import pbuilder as pb_mod
from . import qae as qae_mod
from . import resources as res_mod
from . import robustness as rob_mod
from .simulator import CircuitTooLarge


class SchemaError(Exception):
    pass


class NumericError(Exception):
    pass


def _check_keys(cfg: dict, allowed: set, required: set, where: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qmci-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    """Strict JSON: infinities become the strings "inf" / "-inf" and NaN
    becomes null; a non-finite value this mapping misses raises."""
    def sanitise(o):
        if isinstance(o, float) and not math.isfinite(o):
            return None if math.isnan(o) else ("inf" if o > 0 else "-inf")
        if isinstance(o, dict):
            return {k: sanitise(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [sanitise(v) for v in o]
        return o

    return json.dumps(sanitise(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


# --------------------------------------------------------------------------
# distribution sources


_PDFS = {"gaussian": dist_mod.gaussian_pdf, "lognormal": dist_mod.lognormal_pdf}


def _read_pmf(where: str, path=None, pdf="gaussian", mu=0.0, sigma=1.0,
              grid=None) -> np.ndarray:
    """The PMF of a distribution or target block: the lines of the CSV file
    at ``path``, or else ``pdf`` discretised on ``grid`` = (n_qubits, x_l,
    delta).  Anything that does not give 2^n finite non-negative entries
    (2^n_qubits with a grid), a sigma that is not positive and a pdf that
    vanishes on the grid, is a config error."""
    if path is not None:
        try:
            with open(path) as f:
                pmf = np.array([float(line) for line in f if line.strip()])
        except (OSError, ValueError) as e:
            raise SchemaError(f"{where}: cannot read a PMF from {path!r}: {e}") from None
    else:
        if pdf not in _PDFS:
            raise SchemaError(f"{where}: unknown pdf {pdf!r}")
        if not (_is_finite(mu) and _is_finite(sigma) and sigma > 0):
            raise SchemaError(f"{where}: mu must be finite and sigma positive, "
                              f"got mu={mu!r}, sigma={sigma!r}")
        try:
            pmf = dist_mod.discretize_pdf(lambda x: _PDFS[pdf](x, mu, sigma), *grid)
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None
    n = len(pmf)
    if n == 0 or n & (n - 1) or (grid is not None and n != 2 ** grid[0]):
        raise SchemaError(f"{where}: a PMF needs 2^n entries, got {n}")
    if not np.all(np.isfinite(pmf) & (pmf >= 0)):
        raise SchemaError(f"{where}: PMF entries must be finite and non-negative")
    return pmf


def _delta(value, where: str) -> float:
    if not _is_positive(value):
        raise SchemaError(f"{where}: delta must be positive and finite, got {value!r}")
    return value


def _x_l(value, where: str) -> float:
    if not _is_finite(value):
        raise SchemaError(f"{where}: x_l must be a finite number, got {value!r}")
    return value


def _load_distribution(cfg: dict) -> dist_mod.DistributionCircuit:
    _check_keys(
        cfg,
        {"source", "kind", "path", "n_qubits", "x_l", "delta", "mu", "sigma"},
        {"source"},
        "distribution",
    )
    src = cfg["source"]
    if src == "standard":
        try:
            return dist_mod.standard_circuit(cfg["kind"])
        except ValueError as e:
            raise SchemaError(f"distribution: {e}") from None
    if src == "pmf_csv":
        pmf = _read_pmf("distribution", path=cfg["path"])
        x_l = _x_l(cfg.get("x_l", 0.0), "distribution")
        delta = _delta(cfg.get("delta", 1.0), "distribution")
    elif src in _PDFS:
        for key in ("n_qubits", "x_l", "delta"):
            if key not in cfg:
                raise SchemaError(f"distribution: {src} needs {key}")
        x_l, delta = _x_l(cfg["x_l"], "distribution"), _delta(cfg["delta"], "distribution")
        pmf = _read_pmf("distribution", pdf=src, mu=cfg.get("mu", 0.0),
                        sigma=cfg.get("sigma", 1.0), grid=(cfg["n_qubits"], x_l, delta))
    else:
        raise SchemaError(f"distribution: unknown source {src!r}")
    return dist_mod.rescale(dist_mod.exact_pmf_loader(pmf), 0, x_l, delta)


def _target_pmf(cfg: dict, n_qubits: int, x_l: float, delta: float) -> np.ndarray:
    _check_keys(cfg, {"pdf", "mu", "sigma", "pmf_csv"}, set(), "target")
    return _read_pmf("target", path=cfg.get("pmf_csv"), pdf=cfg.get("pdf", "gaussian"),
                     mu=cfg.get("mu", 0.0), sigma=cfg.get("sigma", 1.0),
                     grid=(n_qubits, x_l, delta))


# --------------------------------------------------------------------------
# dist subcommands


def cmd_dist(sub: str, cfg: dict, out_dir: str) -> list[str]:
    if sub == "load":
        if "distribution" in cfg:
            _check_keys(cfg, {"distribution"}, set(), "load")
        dc = _load_distribution(cfg.get("distribution", cfg))
        path = os.path.join(out_dir, "distribution_circuit.json")
        _atomic_write(path, _dump_json(dc.to_dict()))
        return [path]
    if sub == "metrics":
        _check_keys(cfg, {"distribution", "target"}, {"distribution", "target"}, "metrics")
        dc = _load_distribution(cfg["distribution"])
        d = dc.dims[0]
        target = _target_pmf(cfg["target"], d.n, d.x_l, d.delta)
        rep = dist_mod.divergence_metrics(dc.dim_pmf(0), target)
        path = os.path.join(out_dir, "divergence_report.json")
        _atomic_write(path, _dump_json(rep.to_dict()))
        return [path]
    if sub == "train":
        _check_keys(
            cfg,
            {"target", "n_qubits", "x_l", "delta", "n_layers", "norm", "seed"},
            {"target", "n_qubits", "n_layers"},
            "train",
        )
        norm, n_layers = cfg.get("norm", "L2"), cfg["n_layers"]
        if norm not in dist_mod.TRAIN_NORMS:
            raise SchemaError(f"train: unknown norm {norm!r}")
        if not isinstance(n_layers, int) or n_layers < 0:
            raise SchemaError(f"train: n_layers must be an integer >= 0, got {n_layers!r}")
        seed = _seed(cfg.get("seed", 0), "train")
        x_l, delta = _x_l(cfg.get("x_l", 0.0), "train"), _delta(cfg.get("delta", 1.0), "train")
        target = _target_pmf(cfg["target"], cfg["n_qubits"], x_l, delta)
        history: list[float] = []
        dc, cost = dist_mod.train_hwe(
            target, n_layers, norm, seed, history=history
        )
        dc = dist_mod.rescale(dc, 0, x_l, delta)
        paths = []
        p1 = os.path.join(out_dir, "trained_circuit.json")
        _atomic_write(p1, _dump_json({"final_cost": cost, **dc.to_dict()}))
        paths.append(p1)
        best = np.minimum.accumulate(history) if history else []
        trace = "sweep,cost,best_so_far\n" + "".join(
            f"{i},{float(c)!r},{float(b)!r}\n"
            for i, (c, b) in enumerate(zip(history, best))
        )
        p2 = os.path.join(out_dir, "cost_trace.csv")
        _atomic_write(p2, trace)
        paths.append(p2)
        return paths
    raise SchemaError(f"unknown dist subcommand {sub!r}")


# --------------------------------------------------------------------------
# estimate


_QAE_KEYS = {"qae", "p_max_fail"}
_QUANTITY_KEYS = {"quantity", "dimension", "condition", "x_star", "target_rmse",
                  "q_total", "support_window"}


def _is_int(value, lo: int) -> bool:
    return type(value) is int and value >= lo


def _is_finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_positive(value) -> bool:
    return type(value) in (int, float) and 0 < value < math.inf


def _seed(value, where: str) -> int:
    if not _is_int(value, 0):
        raise SchemaError(f"{where}: seed must be an integer >= 0, got {value!r}")
    return value


def _p_max_fail(value, where: str) -> float:
    if not (type(value) in (int, float) and 0 < value < 1):
        raise SchemaError(f"{where}: p_max_fail must lie in (0, 1), got {value!r}")
    return value


def _qae_kind(cfg: dict) -> tuple[str, float]:
    qcfg = cfg.get("qae", {})
    _check_keys(qcfg, _QAE_KEYS, set(), "qae")
    kind = qcfg.get("qae", "MLQAE")
    if kind not in qae_mod.C_QAE_REFERENCE:
        raise SchemaError(f"qae: unknown kind {kind!r}")
    return kind, _p_max_fail(qcfg.get("p_max_fail", 0.5), "qae")


def _quantity_block(qcfg: dict) -> pb_mod.PayoffConfig:
    """The ``quantity`` block of an estimate or resources config."""
    _check_keys(qcfg, _QUANTITY_KEYS, {"quantity"}, "quantity")
    window = qcfg.get("support_window")
    x_star = qcfg.get("x_star")
    dimension = qcfg.get("dimension", 0)
    if not isinstance(dimension, int):
        raise SchemaError(f"quantity: dimension must be an integer, got {dimension!r}")
    if window is not None and not (
        isinstance(window, list) and len(window) == 2
        and all(map(_is_finite, window)) and window[0] < window[1]
    ):
        raise SchemaError(f"quantity: support_window must be null or two finite numbers "
                          f"lo < hi, got {window!r}")
    if x_star is not None and not _is_finite(x_star):
        raise SchemaError(f"quantity: x_star must be null or a finite number, got {x_star!r}")
    return pb_mod.PayoffConfig(
        qcfg["quantity"], dimension, qcfg.get("condition"),
        x_star=None if x_star is None else float(x_star),
        support_window=None if window is None else tuple(window),
    )


def _quantity_spec(dc, pc: pb_mod.PayoffConfig) -> tuple[fourier_mod.QuantitySpec, int]:
    try:
        return pc.quantity_spec(dc)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def _budget(q_total, target_rmse, where: str) -> tuple[int | None, float | None]:
    """The (q_total, target_rmse) pair of a config: at least one of them,
    q_total an integer >= 1, target_rmse positive and finite."""
    if q_total is None and target_rmse is None:
        raise SchemaError(f"{where}: give a use budget or target_rmse")
    if q_total is not None and not _is_int(q_total, 1):
        raise SchemaError(f"{where}: the use budget must be an integer >= 1, got {q_total!r}")
    if target_rmse is not None and not _is_positive(target_rmse):
        raise SchemaError(f"{where}: target_rmse must be positive and finite, got {target_rmse!r}")
    return q_total, target_rmse


def _instrument_spec(cfg: dict) -> pb_mod.InstrumentSpec:
    try:
        return pb_mod.InstrumentSpec.from_dict(cfg)
    except ValueError as e:
        raise SchemaError(f"instrument: {e}") from None


def _payoffs(cfg: dict, unit, where: str):
    """(circuit, payoff configs, (q_total, target_rmse)) of the
    ``instrument`` or ``quantity`` block of an estimate or resources config."""
    if "instrument" in cfg:
        spec = _instrument_spec(cfg["instrument"])
        budget = _budget(spec.q_budget, spec.target_rmse, "instrument")
        return (*pb_mod.build_instrument(unit, spec), budget)
    if "quantity" in cfg:
        qcfg = cfg["quantity"]
        pc = _quantity_block(qcfg)
        return unit, [pc], _budget(qcfg.get("q_total"), qcfg.get("target_rmse"), "quantity")
    raise SchemaError(f"{where}: give 'quantity' or 'instrument'")


def cmd_estimate(cfg: dict, out_dir: str) -> list[str]:
    _check_keys(
        cfg,
        {"seed", "distribution", "quantity", "instrument", "qae"},
        {"seed", "distribution"},
        "estimate",
    )
    seed = _seed(cfg["seed"], "estimate")
    qae_kind, p_max_fail = _qae_kind(cfg)
    unit = _load_distribution(cfg["distribution"])
    out: dict = {"qae": qae_kind, "seed": seed}
    dc, pcfgs, budget = _payoffs(cfg, unit, "estimate")
    runs = []
    for i, pc in enumerate(pcfgs):
        qs, dim = _quantity_spec(dc, pc)
        runs.append((pc, fourier_mod.qmci_estimate(
            dc, qs, dim, qae_kind, *budget,
            seed=seed + i, condition=pc.condition, lcu_p_max_fail=p_max_fail,
        )))
    if "instrument" in cfg:
        out["payoff"] = 0.0
        for pc, res in runs:
            out["payoff"] += pc.scale * res.estimate + pc.offset
        out["runs"] = [{"config": pc.to_dict(), **res.to_dict()} for pc, res in runs]
    else:
        out.update(runs[0][1].to_dict())
    path = os.path.join(out_dir, "qmci_result.json")
    _atomic_write(path, _dump_json(out))
    return [path]


# --------------------------------------------------------------------------
# resources


def cmd_resources(cfg: dict, out_dir: str) -> list[str]:
    _check_keys(
        cfg,
        {"seed", "mode", "distribution", "quantity", "instrument", "qae",
         "target_mse"},
        {"mode", "distribution"},
        "resources",
    )
    mode = cfg["mode"]
    if mode not in ("nisq", "ft", "ft_tight"):
        raise SchemaError(f"resources: unknown mode {mode!r}")
    qae_kind, _ = _qae_kind(cfg)
    if qae_kind == "IQAE":
        raise SchemaError("resources: IQAE has a data-dependent schedule; no resource plan")
    target_mse = cfg.get("target_mse")
    if "target_mse" in cfg and not _is_positive(target_mse):
        raise SchemaError(f"resources: target_mse must be positive and finite, "
                          f"got {target_mse!r}")
    unit = _load_distribution(cfg["distribution"])
    dc, pcfgs, budget = _payoffs(cfg, unit, "resources")
    plans = []
    for pc in pcfgs:
        qs, dim = _quantity_spec(dc, pc)
        plans.append(res_mod.build_plan(dc, qs, dim, qae_kind, *budget, condition=pc.condition))

    reports = []
    for plan in plans:
        if mode == "nisq":
            reports.append(res_mod.nisq_report(plan))
        else:
            tight = mode == "ft_tight"
            # by default the squared bound of the planned budget
            mse = plan.error.bound(plan.q_total) ** 2 if target_mse is None else target_mse
            sol = res_mod.ft_optimize(plan, mse, tight=tight)
            rep = res_mod.ft_report(plan, sol)
            rep.mode = mode
            reports.append(rep)
    # combine across plans (additive totals, max largest circuit / qubits)
    combined = {
        "mode": mode,
        "n_qubits": max(r.n_qubits for r in reports),
        "totals": {
            k: sum(r.totals.get(k, 0) for r in reports) for k in reports[0].totals
        },
        "largest": max((r for r in reports), key=lambda r: sum(r.largest.values())).largest,
        "per_plan": [r.to_dict() for r in reports],
    }
    paths = []
    p1 = os.path.join(out_dir, "resource_report.json")
    _atomic_write(p1, _dump_json(combined))
    paths.append(p1)
    rep0 = res_mod.ResourceReport(
        mode, combined["n_qubits"], combined["totals"], combined["largest"]
    )
    p2 = os.path.join(out_dir, "resource_report.csv")
    _atomic_write(p2, rep0.to_csv())
    paths.append(p2)
    return paths


# --------------------------------------------------------------------------
# qae-sweep


def _one_sweep(cfg: dict) -> rob_mod.SweepReport:
    _check_keys(
        cfg,
        {"qae", "amplitudes", "q_list", "repeats", "seed", "p_max_fail",
         "n_resamples"},
        {"qae", "amplitudes", "q_list"},
        "qae-sweep",
    )
    if cfg["qae"] not in qae_mod.C_QAE_REFERENCE:
        raise SchemaError(f"qae-sweep: unknown qae kind {cfg['qae']!r}")
    amplitudes, q_list = cfg["amplitudes"], cfg["q_list"]
    repeats = cfg.get("repeats", 500)
    n_resamples = cfg.get("n_resamples", 200)
    if not (_is_int(repeats, 100) and _is_int(n_resamples, 100)):
        raise SchemaError(f"qae-sweep: repeats ({repeats!r}) and n_resamples "
                          f"({n_resamples!r}) must be integers >= 100")
    if not (isinstance(amplitudes, list) and amplitudes
            and all(type(a) in (int, float) and 0 < a < 1 for a in amplitudes)):
        raise SchemaError(f"qae-sweep: amplitudes must be a non-empty list of numbers "
                          f"in (0, 1), got {amplitudes!r}")
    if not (isinstance(q_list, list) and q_list and all(_is_int(q, 1) for q in q_list)):
        raise SchemaError(f"qae-sweep: q_list must be a non-empty list of integers >= 1, "
                          f"got {q_list!r}")
    if len(set(amplitudes)) < len(amplitudes) or len(set(q_list)) < len(q_list):
        raise SchemaError(f"qae-sweep: amplitudes ({amplitudes!r}) and q_list ({q_list!r}) "
                          f"must not repeat an entry")
    return rob_mod.amplitude_sweep(
        cfg["qae"],
        amplitudes,
        q_list,
        repeats=repeats,
        seed=_seed(cfg.get("seed", 0), "qae-sweep"),
        n_resamples=n_resamples,
        p_max_fail=_p_max_fail(cfg.get("p_max_fail", 0.5), "qae-sweep"),
    )


def cmd_qae_sweep(cfg: dict, out_dir: str) -> list[str]:
    if "sweeps" in cfg:
        _check_keys(cfg, {"sweeps"}, set(), "qae-sweep")
        sweeps = cfg["sweeps"]
        if not isinstance(sweeps, list) or not sweeps:
            raise SchemaError("qae-sweep: 'sweeps' must be a non-empty list")
    else:
        sweeps = [cfg]
    env = os.environ.get("QMCI_THREADS", "1")
    try:
        threads = max(1, int(env))
    except ValueError:
        raise SchemaError(f"QMCI_THREADS must be an integer, got {env!r}") from None
    if threads > 1 and len(sweeps) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(_one_sweep, sweeps))
    else:
        reports = [_one_sweep(s) for s in sweeps]
    paths = []
    for i, rep in enumerate(reports):
        tag = f"_{i}" if len(reports) > 1 else ""
        p1 = os.path.join(out_dir, f"sweep{tag}.json")
        _atomic_write(p1, _dump_json(rep.to_dict()))
        p2 = os.path.join(out_dir, f"sweep{tag}.csv")
        _atomic_write(p2, rep.to_csv())
        paths += [p1, p2]
    return paths


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmci", description="Quantum Monte Carlo integration engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_dist = sub.add_parser("dist", help="distribution loading / metrics / training")
    p_dist.add_argument("subcommand", choices=["load", "metrics", "train"])
    p_dist.add_argument("config")
    p_dist.add_argument("--out-dir", default=None)
    for name in ("estimate", "resources", "qae-sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.config))

    try:
        if args.command == "dist":
            paths = cmd_dist(args.subcommand, cfg, out_dir)
        elif args.command == "estimate":
            paths = cmd_estimate(cfg, out_dir)
        elif args.command == "resources":
            paths = cmd_resources(cfg, out_dir)
        else:
            paths = cmd_qae_sweep(cfg, out_dir)
    except (SchemaError, KeyError, TypeError, CircuitTooLarge) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
