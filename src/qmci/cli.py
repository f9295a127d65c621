"""Command-line surface: distribution inspection, QMCI runs, robustness
sweeps and resource quantification, driven by JSON configs.

Subcommands: ``dist load|metrics|train``, ``estimate``, ``resources``,
``qae-sweep``.  One config file per invocation (single positional
argument), outputs under ``--out-dir`` (default: the config's directory).
All randomness flows from the config seed; outputs are byte-identical
across reruns.  Exit codes: 0 success, 2 config/schema error, 3 numeric
failure.  Multiple sweep configurations run in a thread pool capped by
the ``QMCI_THREADS`` environment variable.
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
    def sanitise(o):
        if isinstance(o, float) and math.isinf(o):
            return "inf"
        if isinstance(o, dict):
            return {k: sanitise(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [sanitise(v) for v in o]
        return o

    return json.dumps(sanitise(obj), sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# distribution sources


def _load_distribution(cfg: dict) -> dist_mod.DistributionCircuit:
    _check_keys(
        cfg,
        {"source", "kind", "path", "n_qubits", "x_l", "delta", "mu", "sigma"},
        {"source"},
        "distribution",
    )
    src = cfg["source"]
    if src == "standard":
        return dist_mod.standard_circuit(cfg["kind"])
    if src == "pmf_csv":
        with open(cfg["path"]) as f:
            pmf = np.array([float(line) for line in f if line.strip()])
        dc = dist_mod.exact_pmf_loader(pmf)
        return dist_mod.rescale(dc, 0, cfg.get("x_l", 0.0), cfg.get("delta", 1.0))
    if src in ("gaussian", "lognormal"):
        for key in ("n_qubits", "x_l", "delta"):
            if key not in cfg:
                raise SchemaError(f"distribution: {src} needs {key}")
        mu, sigma = cfg.get("mu", 0.0), cfg.get("sigma", 1.0)
        pdf = (
            (lambda x: dist_mod.gaussian_pdf(x, mu, sigma))
            if src == "gaussian"
            else (lambda x: dist_mod.lognormal_pdf(x, mu, sigma))
        )
        pmf = dist_mod.discretize_pdf(pdf, cfg["n_qubits"], cfg["x_l"], cfg["delta"])
        dc = dist_mod.exact_pmf_loader(pmf)
        return dist_mod.rescale(dc, 0, cfg["x_l"], cfg["delta"])
    raise SchemaError(f"distribution: unknown source {src!r}")


def _target_pmf(cfg: dict, n_qubits: int, x_l: float, delta: float) -> np.ndarray:
    _check_keys(cfg, {"pdf", "mu", "sigma", "pmf_csv"}, set(), "target")
    if "pmf_csv" in cfg:
        with open(cfg["pmf_csv"]) as f:
            return np.array([float(line) for line in f if line.strip()])
    mu, sigma = cfg.get("mu", 0.0), cfg.get("sigma", 1.0)
    pdf = (
        (lambda x: dist_mod.gaussian_pdf(x, mu, sigma))
        if cfg.get("pdf", "gaussian") == "gaussian"
        else (lambda x: dist_mod.lognormal_pdf(x, mu, sigma))
    )
    return dist_mod.discretize_pdf(pdf, n_qubits, x_l, delta)


# --------------------------------------------------------------------------
# dist subcommands


def cmd_dist(sub: str, cfg: dict, out_dir: str) -> list[str]:
    if sub == "load":
        dc = _load_distribution(cfg.get("distribution", cfg))
        path = os.path.join(out_dir, "distribution_circuit.json")
        _atomic_write(path, _dump_json(dc.to_dict()))
        return [path]
    if sub == "metrics":
        _check_keys(cfg, {"distribution", "target", "seed"}, {"distribution", "target"}, "metrics")
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
        x_l, delta = cfg.get("x_l", 0.0), cfg.get("delta", 1.0)
        target = _target_pmf(cfg["target"], cfg["n_qubits"], x_l, delta)
        history: list[float] = []
        dc, cost = dist_mod.train_hwe(
            target, n_layers, norm, cfg.get("seed", 0), history=history
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


_QAE_KEYS = {"qae", "p_max_fail", "seed"}
_QUANTITY_KEYS = {"quantity", "dimension", "condition", "x_star", "target_rmse",
                  "q_total", "support_window"}


def _qae_kind(cfg: dict) -> tuple[str, float]:
    qcfg = cfg.get("qae", {})
    _check_keys(qcfg, _QAE_KEYS, set(), "qae")
    kind = qcfg.get("qae", "MLQAE")
    if kind not in qae_mod.C_QAE_REFERENCE:
        raise SchemaError(f"qae: unknown kind {kind!r}")
    return kind, float(qcfg.get("p_max_fail", 0.5))


def _quantity_block(qcfg: dict) -> pb_mod.PayoffConfig:
    """The ``quantity`` block of an estimate or resources config."""
    _check_keys(qcfg, _QUANTITY_KEYS, {"quantity"}, "quantity")
    window = qcfg.get("support_window")
    x_star = qcfg.get("x_star")
    dimension = qcfg.get("dimension", 0)
    if not isinstance(dimension, int):
        raise SchemaError(f"quantity: dimension must be an integer, got {dimension!r}")
    return pb_mod.PayoffConfig(
        qcfg["quantity"], dimension, qcfg.get("condition"),
        x_star=None if x_star is None else float(x_star),
        support_window=tuple(window) if window else None,
    )


def _quantity_spec(dc, pc: pb_mod.PayoffConfig) -> tuple[fourier_mod.QuantitySpec, int]:
    """The quantity descriptor of one payoff config, and its dimension."""
    if pc.quantity not in fourier_mod.QUANTITY_KINDS:
        raise SchemaError(f"quantity: unknown kind {pc.quantity!r}")
    if pc.quantity == "BernoulliQubit":
        return fourier_mod.quantity_series("BernoulliQubit", (0.0, 1.0)), 0
    if not 0 <= pc.dimension < len(dc.dims):
        raise SchemaError(
            f"quantity: dimension {pc.dimension} outside the loader's {len(dc.dims)} registers"
        )
    d = dc.dims[pc.dimension]
    qs = fourier_mod.quantity_series(pc.quantity, pc.support_window or (d.x_l, d.x_u))
    if pc.x_star is not None:
        qs.x_star = pc.x_star
    qs.support_window = pc.support_window
    return qs, pc.dimension


def _instrument_spec(cfg: dict) -> pb_mod.InstrumentSpec:
    try:
        return pb_mod.InstrumentSpec.from_dict(cfg)
    except ValueError as e:
        raise SchemaError(f"instrument: {e}") from None


def cmd_estimate(cfg: dict, out_dir: str) -> list[str]:
    _check_keys(
        cfg,
        {"seed", "distribution", "quantity", "instrument", "qae"},
        {"seed", "distribution"},
        "estimate",
    )
    seed = int(cfg["seed"])
    qae_kind, p_max_fail = _qae_kind(cfg)
    unit = _load_distribution(cfg["distribution"])
    out: dict = {"qae": qae_kind, "seed": seed}

    def run(dc, pc, q_total, target_rmse, seed):
        qs, dim = _quantity_spec(dc, pc)
        return fourier_mod.qmci_estimate(
            dc, qs, dim, qae_kind, q_total=q_total, target_rmse=target_rmse,
            seed=seed, condition=pc.condition, lcu_p_max_fail=p_max_fail,
        )

    if "instrument" in cfg:
        spec = _instrument_spec(cfg["instrument"])
        dc, pcfgs = pb_mod.build_instrument(unit, spec)
        total = 0.0
        runs = []
        for i, pc in enumerate(pcfgs):
            res = run(dc, pc, spec.q_budget, spec.target_rmse, seed + i)
            total += pc.scale * res.estimate + pc.offset
            runs.append({"config": pc.to_dict(), **res.to_dict()})
        out["payoff"] = total
        out["runs"] = runs
    elif "quantity" in cfg:
        qcfg = cfg["quantity"]
        res = run(unit, _quantity_block(qcfg), qcfg.get("q_total"),
                  qcfg.get("target_rmse"), seed)
        out.update(res.to_dict())
    else:
        raise SchemaError("estimate: give 'quantity' or 'instrument'")
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
    unit = _load_distribution(cfg["distribution"])

    def plan_for(dc, pc, q_total, target_rmse):
        qs, dim = _quantity_spec(dc, pc)
        return res_mod.build_plan(
            dc, qs, dim, qae_kind, q_total=q_total,
            target_rmse=target_rmse, condition=pc.condition,
        )

    if "instrument" in cfg:
        spec = _instrument_spec(cfg["instrument"])
        dc, pcfgs = pb_mod.build_instrument(unit, spec)
        plans = [
            plan_for(dc, pc, spec.q_budget, spec.target_rmse or 1e-2)
            for pc in pcfgs
        ]
    elif "quantity" in cfg:
        qcfg = cfg["quantity"]
        plans = [plan_for(unit, _quantity_block(qcfg), qcfg.get("q_total"),
                          qcfg.get("target_rmse"))]
    else:
        raise SchemaError("resources: give 'quantity' or 'instrument'")

    reports = []
    for plan in plans:
        if mode == "nisq":
            reports.append(res_mod.nisq_report(plan))
        else:
            tight = mode == "ft_tight"
            target_mse = cfg.get(
                "target_mse",
                (plan.c_f * plan.c_qae * plan.quantity_range / plan.q_total) ** 2,
            )
            sol = res_mod.ft_optimize(plan, target_mse, tight=tight)
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
    return rob_mod.amplitude_sweep(
        cfg["qae"],
        cfg["amplitudes"],
        cfg["q_list"],
        repeats=int(cfg.get("repeats", 500)),
        seed=int(cfg.get("seed", 0)),
        n_resamples=int(cfg.get("n_resamples", 200)),
        p_max_fail=float(cfg.get("p_max_fail", 0.5)),
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
    except (SchemaError, KeyError, TypeError) as e:
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
