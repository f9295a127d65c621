"""Command-line surface: distribution inspection, QMCI runs, robustness
sweeps and resource quantification, driven by JSON configs.

Subcommands: ``dist load|metrics|train``, ``estimate``, ``resources``,
``qae-sweep``.  One config file per invocation (single positional
argument), outputs under ``--out-dir`` (default: the config's directory).
All randomness flows from the config seed; outputs are byte-identical
across reruns.  Exit codes: 0 success, 2 config error (a block against its
table in ``TABLES``, or an instrument too large to price), 3 numeric
failure.  Sweeps run in a thread pool capped by ``QMCI_THREADS``.
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
from .schema import (REQUIRED, SchemaError, integer, list_of, object_, one_of, optional, read,
                     real, string)
from .simulator import CircuitTooLarge


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
# config blocks: key -> (rule, default | REQUIRED), read by schema.read


_PDFS = {"gaussian": dist_mod.gaussian_pdf, "lognormal": dist_mod.lognormal_pdf}
_N_QUBITS = integer(1, dist_mod.MAX_LOADER_QUBITS)
_COORD = real(-dist_mod.MAX_GRID_VALUE, dist_mod.MAX_GRID_VALUE)
_SCALE = real(0, dist_mod.MAX_GRID_VALUE)
_GRID = {"x_l": (_COORD, 0.0), "delta": (_SCALE, 1.0)}
_PDF = {"mu": (_COORD, 0.0), "sigma": (_SCALE, 1.0)}
_QAE = one_of(*qae_mod.C_QAE_REFERENCE)
_RUN = {"distribution": (object_, REQUIRED), "quantity": (object_, None),
        "instrument": (object_, None), "qae": (object_, {})}

TABLES = {
    "distribution": {
        "source": (one_of("standard", "pmf_csv", *_PDFS), REQUIRED),
        "kind": (optional(one_of(*dist_mod.STANDARD_CIRCUITS)), None),
        "path": (optional(string), None),
        "n_qubits": (_N_QUBITS, None),
        **_GRID,
        **_PDF,
    },
    "target": {
        "pdf": (one_of(*_PDFS), "gaussian"),
        **_PDF,
        "pmf_csv": (optional(string), None),
    },
    "quantity": {
        "quantity": (one_of(*fourier_mod.QUANTITY_KINDS), REQUIRED),
        "dimension": (integer(0), 0),
        "condition": (optional(integer(0)), None),
        "x_star": (optional(real()), None),
        "support_window": (optional(list_of(real(), length=2)), None),
        "q_total": (optional(integer(1)), None),
        "target_rmse": (optional(real(0)), None),
    },
    "qae": {"qae": (_QAE, "MLQAE"), "p_max_fail": (real(0, 1), 0.5)},
    "estimate": {"seed": (integer(0), REQUIRED), **_RUN},
    "resources": {
        "seed": (integer(0), 0),
        "mode": (one_of("nisq", "ft", "ft_tight"), REQUIRED),
        "target_mse": (real(0), None),
        **_RUN,
    },
    "qae-sweep": {
        "qae": (_QAE, REQUIRED),
        "amplitudes": (list_of(real(0, 1), distinct=True), REQUIRED),
        "q_list": (list_of(integer(1), distinct=True), REQUIRED),
        "repeats": (integer(100), 500),
        "seed": (integer(0), 0),
        "p_max_fail": (real(0, 1), 0.5),
        "n_resamples": (integer(100), 200),
    },
    "sweeps": {"sweeps": (list_of(object_), REQUIRED)},
    "load": {"distribution": (object_, REQUIRED)},
    "metrics": {"distribution": (object_, REQUIRED), "target": (object_, REQUIRED)},
    "train": {
        "target": (object_, REQUIRED),
        "n_qubits": (_N_QUBITS, REQUIRED),
        **_GRID,
        "n_layers": (integer(0), REQUIRED),
        "norm": (one_of(*dist_mod.TRAIN_NORMS), "L2"),
        "seed": (integer(0), 0),
    },
}
# the distribution keys each source needs: given and not null
SOURCE_NEEDS = {"standard": ("kind",), "pmf_csv": ("path",),
                **{pdf: ("n_qubits", "x_l", "delta") for pdf in _PDFS}}


def _read(cfg, block: str) -> dict:
    return read(cfg, TABLES[block], block)


# --------------------------------------------------------------------------
# distribution sources


def _read_pmf(where: str, path=None, pdf=None, mu=None, sigma=None,
              grid=None) -> np.ndarray:
    """The PMF of a distribution or target block: the lines of the CSV file
    at ``path``, or else ``pdf`` discretised on ``grid`` = (n_qubits, x_l,
    delta).  Anything but 2^n finite non-negative entries, n at most the
    loader cap (n_qubits with a grid), is a config error."""
    if path is not None:
        try:
            with open(path) as f:
                pmf = np.array([float(line) for line in f if line.strip()])
        except (OSError, ValueError) as e:
            raise SchemaError(f"{where}: cannot read a PMF from {path!r}: {e}") from None
    else:
        try:
            pmf = dist_mod.discretize_pdf(lambda x: _PDFS[pdf](x, mu, sigma), *grid)
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None
    n, cap = len(pmf), 2**dist_mod.MAX_LOADER_QUBITS
    if n == 0 or n & (n - 1) or n > cap or (grid is not None and n != 2 ** grid[0]):
        raise SchemaError(f"{where}: a PMF needs 2^n <= {cap} entries, got {n}")
    if not np.all(np.isfinite(pmf) & (pmf >= 0)):
        raise SchemaError(f"{where}: PMF entries must be finite and non-negative")
    return pmf


def _load_distribution(cfg: dict) -> dist_mod.DistributionCircuit:
    d = _read(cfg, "distribution")
    src = d["source"]
    missing = [key for key in SOURCE_NEEDS[src] if cfg.get(key) is None]
    if missing:
        raise SchemaError(f"distribution: a {src} source needs {missing}")
    if src == "standard":
        return dist_mod.standard_circuit(d["kind"])
    if src == "pmf_csv":
        pmf = _read_pmf("distribution", path=d["path"])
    else:
        pmf = _read_pmf("distribution", pdf=src, mu=d["mu"], sigma=d["sigma"],
                        grid=(d["n_qubits"], d["x_l"], d["delta"]))
    try:
        loader = dist_mod.exact_pmf_loader(pmf)
    except ValueError as e:  # a CSV PMF that does not sum to 1
        raise SchemaError(f"distribution: {e}") from None
    return dist_mod.rescale(loader, 0, d["x_l"], d["delta"])


def _target_pmf(cfg: dict, n_qubits: int, x_l: float, delta: float) -> np.ndarray:
    t = _read(cfg, "target")
    return _read_pmf("target", path=t["pmf_csv"], pdf=t["pdf"], mu=t["mu"],
                     sigma=t["sigma"], grid=(n_qubits, x_l, delta))


# --------------------------------------------------------------------------
# dist subcommands


def cmd_dist(sub: str, cfg: dict, out_dir: str) -> list[str]:
    if sub == "load":
        dc = _load_distribution(_read(cfg, "load")["distribution"] if "distribution" in cfg else cfg)
        path = os.path.join(out_dir, "distribution_circuit.json")
        _atomic_write(path, _dump_json(dc.to_dict()))
        return [path]
    if sub == "metrics":
        cfg = _read(cfg, "metrics")
        dc = _load_distribution(cfg["distribution"])
        d = dc.dims[0]
        target = _target_pmf(cfg["target"], d.n, d.x_l, d.delta)
        rep = dist_mod.divergence_metrics(dc.dim_pmf(0), target)
        path = os.path.join(out_dir, "divergence_report.json")
        _atomic_write(path, _dump_json(rep.to_dict()))
        return [path]
    if sub == "train":
        cfg = _read(cfg, "train")
        target = _target_pmf(cfg["target"], cfg["n_qubits"], cfg["x_l"], cfg["delta"])
        history: list[float] = []
        dc, cost = dist_mod.train_hwe(
            target, cfg["n_layers"], cfg["norm"], cfg["seed"], history=history
        )
        dc = dist_mod.rescale(dc, 0, cfg["x_l"], cfg["delta"])
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


def _need_budget(block: str, key: str, q_total, target_rmse) -> tuple:
    if q_total is None and target_rmse is None:
        raise SchemaError(f"{block}: give {key}, target_rmse or both")
    return q_total, target_rmse


def _payoffs(cfg: dict, unit, where: str):
    """(circuit, payoff configs, (q_total, target_rmse)) of the
    ``instrument`` or ``quantity`` block of a read estimate or resources
    config."""
    if cfg["instrument"] is not None:
        spec = pb_mod.InstrumentSpec.from_dict(cfg["instrument"])
        budget = _need_budget("instrument", "q_budget", spec.q_budget, spec.target_rmse)
        return (*pb_mod.build_instrument(unit, spec), budget)
    if cfg["quantity"] is None:
        raise SchemaError(f"{where}: give 'quantity' or 'instrument'")
    q = _read(cfg["quantity"], "quantity")
    window = q["support_window"]
    if window is not None and not window[0] < window[1]:
        raise SchemaError(f"quantity: support_window needs lo < hi, got {window!r}")
    pc = pb_mod.PayoffConfig(
        q["quantity"], q["dimension"], q["condition"],
        x_star=None if q["x_star"] is None else float(q["x_star"]),
        support_window=None if window is None else tuple(window),
    )
    return unit, [pc], _need_budget("quantity", "q_total", q["q_total"], q["target_rmse"])


def cmd_estimate(cfg: dict, out_dir: str) -> list[str]:
    cfg = _read(cfg, "estimate")
    qae = _read(cfg["qae"], "qae")
    unit = _load_distribution(cfg["distribution"])
    out: dict = {"qae": qae["qae"], "seed": cfg["seed"]}
    dc, pcfgs, budget = _payoffs(cfg, unit, "estimate")
    runs = []
    for i, pc in enumerate(pcfgs):
        qs, dim = pc.quantity_spec(dc)
        runs.append((pc, fourier_mod.qmci_estimate(
            dc, qs, dim, qae["qae"], *budget,
            seed=cfg["seed"] + i, condition=pc.condition, lcu_p_max_fail=qae["p_max_fail"],
        )))
    if cfg["instrument"] is not None:
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
    cfg = _read(cfg, "resources")
    qae_kind = _read(cfg["qae"], "qae")["qae"]
    if qae_kind == "IQAE":
        raise SchemaError("resources: IQAE has a data-dependent schedule; no resource plan")
    unit = _load_distribution(cfg["distribution"])
    dc, pcfgs, budget = _payoffs(cfg, unit, "resources")
    reports = []
    for pc in pcfgs:
        qs, dim = pc.quantity_spec(dc)
        plan = res_mod.build_plan(dc, qs, dim, qae_kind, *budget, condition=pc.condition)
        reports.append(res_mod.report(plan, cfg["mode"], cfg["target_mse"]))
    combined = res_mod.combine(reports)
    p1 = os.path.join(out_dir, "resource_report.json")
    _atomic_write(p1, _dump_json({**combined.to_dict(), "per_plan": [r.to_dict() for r in reports]}))
    p2 = os.path.join(out_dir, "resource_report.csv")
    _atomic_write(p2, combined.to_csv())
    return [p1, p2]


# --------------------------------------------------------------------------
# qae-sweep


def _one_sweep(s: dict) -> rob_mod.SweepReport:
    return rob_mod.amplitude_sweep(
        s["qae"], s["amplitudes"], s["q_list"], repeats=s["repeats"], seed=s["seed"],
        n_resamples=s["n_resamples"], p_max_fail=s["p_max_fail"],
    )


def cmd_qae_sweep(cfg: dict, out_dir: str) -> list[str]:
    sweeps = _read(cfg, "sweeps")["sweeps"] if "sweeps" in cfg else [cfg]
    sweeps = [_read(s, "qae-sweep") for s in sweeps]
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
        if not isinstance(cfg, dict):
            raise SchemaError(f"a config must be an object, got {cfg!r}")
        if args.command == "dist":
            paths = cmd_dist(args.subcommand, cfg, out_dir)
        elif args.command == "estimate":
            paths = cmd_estimate(cfg, out_dir)
        elif args.command == "resources":
            paths = cmd_resources(cfg, out_dir)
        else:
            paths = cmd_qae_sweep(cfg, out_dir)
    except (SchemaError, CircuitTooLarge) as e:
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
