"""The four request streams and the checks applied to their outputs.

Each workload yields blocks of requests with a fixed mix; only the order
and the continuous inputs (loader mu and sigma, instrument levels, seeds)
come from the workload seed.  Every request gets its own circuit, so the
engine's module caches never serve one request from another's work, as
separate CLI processes could not share it either.

A check returns a list of problems (empty when the output is right) and a
list of per-estimate statistics that feed the reported metrics.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import reference as ref

# An estimate passes when |error| <= TOL_MULTIPLE x its error bound; the
# multiple is the same for every estimator and quantity.
TOL_MULTIPLE = 10.0


@dataclass
class Request:
    kind: str        # estimate | pricing | resources | sweep | train
    argv: list       # CLI words before the config path
    config: dict
    label: str


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def documented_bound(reported: float, estimator: str, q: int, quantity: str) -> float:
    """The bound as ``fourier.rmse_bound`` documents it: c / q for the
    quadratic-speed-up estimators and c / sqrt(q) for PAM.  The engine
    reports c / q for PAM Fourier quantities as well, so for those the
    documented bound is the reported one times sqrt(q)."""
    if estimator == "PAM" and quantity != "BernoulliQubit":
        return reported * math.sqrt(q)
    return reported


def _grade(est, truth, reported, estimator, q, quantity) -> tuple[list, dict]:
    err = abs(est - truth)
    tol = TOL_MULTIPLE * documented_bound(reported, estimator, q, quantity)
    problems = []
    if not err <= tol:
        problems.append(f"{quantity}: |{est!r} - {truth!r}| > {tol!r}")
    stats = {
        "err_ratio": err / reported,
        "tol_ratio": err / tol,
        # the same test against the bound the engine reports
        "bound_breach": int(not err <= TOL_MULTIPLE * reported),
    }
    return problems, stats


# --------------------------------------------------------------------------
# estimate: QAE inference on fresh single-register loaders

QUANTITIES = ("Mean", "SecondMoment", "Exponential")
BUDGETS = (1_000, 10_000)


def _loader(rng) -> dict:
    n = int(rng.integers(5, 9))
    if rng.random() < 0.5:
        mu, sigma = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.05, 0.3))
        lo, hi = mu - 4.0 * sigma, mu + 4.0 * sigma
        source = "gaussian"
    else:
        mu, sigma = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.1, 0.3))
        lo, hi = math.exp(mu - 3.5 * sigma), math.exp(mu + 3.5 * sigma)
        source = "lognormal"
    return {"source": source, "n_qubits": n, "mu": mu, "sigma": sigma,
            "x_l": lo, "delta": (hi - lo) / (2**n - 1)}


def _estimate_request(rng, quantity: str, est: str, q: int) -> Request:
    cfg = {
        "seed": _seed(rng),
        "distribution": _loader(rng),
        "quantity": {"quantity": quantity, "q_total": q},
        "qae": {"qae": est},
    }
    return Request("estimate", ["estimate"], cfg, f"{est} {quantity} q={q}")


# (estimator, quantity, q_total) of one block, by cost class.  The median
# falls in the middle of the MLQAE Mean q=10^4 class (about 45 ms, sixteen
# times, so that its median is taken over many samples), with thirteen
# requests below it and thirteen above.  Its work does not depend on
# the loader: the Mean and SecondMoment series live on the normalised
# support, while the Exponential's series length depends on the loader.
# Shorter requests (10-30 ms) vary far more from run to run than the
# machine's speed does, so none of them sets the median.  The tail sample
# (ten samples above it) falls among the LCU q=10^3 requests at any run
# length of two or more blocks.  The first block adds one LCU request at
# q=10^4, the run's largest in time and memory (about 1 GB), which sets the
# peak RSS.
_ESTIMATE_JOBS = (
    [("PAM", k, q) for k in QUANTITIES for q in BUDGETS]
    + [("MLQAE", k, BUDGETS[0]) for k in QUANTITIES]
    + [("IQAE", "Mean", BUDGETS[0]), ("IQAE", "SecondMoment", BUDGETS[0]),
       ("MLQAE", "SecondMoment", BUDGETS[1]), ("IQAE", "SecondMoment", BUDGETS[1])]
    + [("MLQAE", "Mean", BUDGETS[1])] * 16
    + [("MLQAE", "Exponential", BUDGETS[1]), ("IQAE", "Mean", BUDGETS[1]),
       ("IQAE", "Exponential", BUDGETS[1])] * 2
    + [("IQAE", "Exponential", BUDGETS[0])]
    + [("LCU", ("Mean", "SecondMoment")[j % 2], BUDGETS[0]) for j in range(6)]
)


def estimate_block(rng, i: int) -> list[Request]:
    out = [_estimate_request(rng, k, e, q) for e, k, q in _ESTIMATE_JOBS]
    if i == 0:
        out.append(_estimate_request(rng, "Mean", "LCU", BUDGETS[1]))
    return [out[j] for j in rng.permutation(len(out))]


def check_estimate(req: Request, docs: dict, files: dict):
    cfg, doc = req.config, docs["qmci_result.json"]
    d, qc, est = cfg["distribution"], cfg["quantity"], cfg["qae"]["qae"]
    xs, p = ref.discrete_pmf(d["source"], d["mu"], d["sigma"], d["n_qubits"],
                             d["x_l"], d["delta"])
    truth = ref.moment(qc["quantity"], xs, p)
    problems, stats = _grade(doc["estimate"], truth, doc["rmse_bound"], est,
                             qc["q_total"], qc["quantity"])
    if doc["uses_total"] != qc["q_total"]:
        problems.append(f"uses_total {doc['uses_total']} != {qc['q_total']}")
    stats["harmonics"] = len(doc["per_harmonic"])
    return problems, [stats]


# --------------------------------------------------------------------------
# instrument: pricing on small units, resource plans on the published loader

# (unit qubits, slices): the largest instruments whose dense simulation
# stays within 20 qubits (16, 20 and 18-19 qubits)
_UNITS = {"Barrier": (2, 2), "Lookback": (1, 3), "Autocallable": (2, 2)}
_RESOURCE_MODES = ("nisq", "ft", "ft_tight")
_PLAN_ESTIMATORS = ("MLQAE", "LCU")


def _instrument_jobs(i: int) -> tuple[list, list]:
    """(pricing jobs, resources jobs) of block ``i``, by cost class:

    - below the median (9): Barrier pricing three times and Barrier
      resources in every mode with both plan estimators;
    - the median class (4): Autocallable ft and ft_tight resources with
      both plan estimators, all within about 10% of each other;
    - above it (9): Autocallable nisq resources and pricing, Lookback
      resources and Lookback pricing three times.

    As many requests sit below the median class as above it, so the median
    falls in the middle of that class and not in a gap between classes.
    Lookback pricing (the slowest request) appears three times per block,
    so at four or more blocks the tail sample falls among it.
    """
    alt = ("MLQAE", "PAM")[i % 2]
    pricing = [("Barrier", "MLQAE"), ("Barrier", "PAM"), ("Barrier", alt),
               ("Autocallable", "MLQAE"), ("Autocallable", "PAM"),
               ("Lookback", "MLQAE"), ("Lookback", "PAM"), ("Lookback", alt)]
    plan = _PLAN_ESTIMATORS[i % 2]
    resources = [("Barrier", m, e) for m in _RESOURCE_MODES for e in _PLAN_ESTIMATORS]
    resources += [("Autocallable", m, e) for m in ("ft", "ft_tight") for e in _PLAN_ESTIMATORS]
    resources += [("Autocallable", "nisq", plan)]
    resources += [("Lookback", m, _PLAN_ESTIMATORS[(i + j) % 2])
                  for j, m in enumerate(_RESOURCE_MODES)]
    return pricing, resources


def _instrument_spec(rng, kind: str, n_slices: int) -> dict:
    spec = {"instrument": kind, "space": "return", "n_slices": n_slices,
            "total_volatility": float(rng.uniform(0.15, 0.3))}
    if kind == "Barrier":
        spec["strike_ratio"] = float(rng.uniform(0.9, 0.97))
        spec["barrier_ratio"] = float(rng.uniform(1.15, 1.4))
    elif kind == "Lookback":
        spec["strike_ratio"] = float(rng.uniform(1.05, 1.25))
    else:
        spec["strike_ratio"] = float(rng.uniform(0.95, 1.05))
        spec["barrier_ratio"] = float(rng.uniform(0.8, 0.92))
        spec["autocall_schedule"] = [[1, float(rng.uniform(1.02, 1.08)), 0.05]]
    return spec


def instrument_block(rng, i: int) -> list[Request]:
    """Pricing of every instrument with MLQAE and PAM on fresh units, and
    resource plans for each instrument's spec of the block."""
    pricing, resources = _instrument_jobs(i)
    out, specs = [], {}
    for kind, est in pricing:
        n_unit, n_slices = _UNITS[kind]
        spec = specs.setdefault(kind, _instrument_spec(rng, kind, n_slices))
        unit = {"source": "gaussian", "n_qubits": n_unit,
                "mu": float(rng.uniform(-0.3, 0.3)), "sigma": float(rng.uniform(0.8, 1.25)),
                "x_l": -(2**n_unit - 1) / 2, "delta": 1.0 if n_unit > 1 else 2.0}
        price = {"seed": _seed(rng), "distribution": unit,
                 "instrument": {**spec, "q_budget": 2000}, "qae": {"qae": est}}
        out.append(Request("pricing", ["estimate"], price, f"{kind} {est} price"))
    for kind, mode, plan_est in resources:
        res = {"mode": mode, "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
               "instrument": {**specs[kind], "target_rmse": float(rng.uniform(0.005, 0.02))},
               "qae": {"qae": plan_est}}
        out.append(Request("resources", ["resources"], res, f"{kind} {plan_est} {mode}"))
    return [out[j] for j in rng.permutation(len(out))]


def _instrument(cfg):
    """(spec, enhanced circuit, payoff configs, loader gate count)."""
    from qmci import cli, pbuilder

    unit = cli._load_distribution(cfg["distribution"])
    spec = pbuilder.InstrumentSpec.from_dict(cfg["instrument"])
    dc, pcfgs = pbuilder.build_instrument(unit, spec)
    return spec, dc, pcfgs, spec.n_slices * len(unit.circuit.gates)


def check_pricing(req: Request, docs: dict, files: dict):
    cfg, doc = req.config, docs["qmci_result.json"]
    spec, dc, pcfgs, prefix = _instrument(cfg)
    d = cfg["distribution"]
    _, unit_pmf = ref.discrete_pmf("gaussian", d["mu"], d["sigma"], d["n_qubits"],
                                   d["x_l"], d["delta"])
    states, prob = ref.permuted_basis(dc.circuit, prefix, unit_pmf, spec.n_slices)
    runs = doc["runs"]
    problems, stats = [], []
    if [r["config"] for r in runs] != [json.loads(json.dumps(c.to_dict())) for c in pcfgs]:
        return ["run configs differ from the instrument build"], []
    payoff = 0.0
    for run in runs:
        c = run["config"]
        truth = ref.payoff_truth(dc, c, states, prob)
        p, s = _grade(run["estimate"], truth, run["rmse_bound"], cfg["qae"]["qae"],
                      spec.q_budget, c["quantity"])
        problems += [f"{c['label']}: {x}" for x in p]
        s["harmonics"] = len(run["per_harmonic"])
        stats.append(s)
        payoff += c["scale"] * run["estimate"] + c["offset"]
    if not math.isclose(payoff, doc["payoff"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"payoff {doc['payoff']!r} != sum of legs {payoff!r}")
    return problems, stats


def _plans(cfg):
    """The plans ``qmci resources`` builds for an instrument config."""
    from qmci import fourier, resources

    spec, dc, pcfgs, _ = _instrument(cfg)
    est = cfg["qae"]["qae"]
    plans = []
    for pc in pcfgs:
        if pc.quantity == "BernoulliQubit":
            qs, dim = fourier.quantity_series("BernoulliQubit", (0.0, 1.0)), 0
        else:
            pay = dc.dims[pc.dimension]
            qs = fourier.quantity_series(pc.quantity, pc.support_window or (pay.x_l, pay.x_u))
            qs.x_star, qs.support_window, dim = pc.x_star, pc.support_window, pc.dimension
        plans.append(resources.build_plan(dc, qs, dim, est, q_total=spec.q_budget,
                                          target_rmse=spec.target_rmse or 1e-2,
                                          condition=pc.condition))
    return plans


def check_resources(req: Request, docs: dict, files: dict):
    from qmci import resources

    cfg, doc = req.config, docs["resource_report.json"]
    problems = []
    per_plan = doc["per_plan"]
    for k, v in doc["totals"].items():
        if not (isinstance(v, int) and v > 0 and v == sum(p["totals"][k] for p in per_plan)):
            problems.append(f"total {k}={v!r} is not the positive sum over plans")
    if cfg["mode"] == "nisq":
        return problems, []
    plans = _plans(cfg)
    if len(plans) != len(per_plan):
        return problems + [f"{len(per_plan)} plans reported, {len(plans)} built"], []
    for plan, rep in zip(plans, per_plan):
        sol = rep["solution"]
        target = (plan.c_f * plan.c_qae * plan.quantity_range / plan.q_total) ** 2
        mse = resources.ft_constraint(plan, sol["q"], sol["epsilon"], target,
                                      tight=cfg["mode"] == "ft_tight")
        if not mse <= target * (1.0 + 1e-9):
            problems.append(f"FT solution q={sol['q']} eps={sol['epsilon']!r}: "
                            f"MSE {mse!r} > target {target!r}")
    return problems, []


# --------------------------------------------------------------------------
# sweep: the batch QAE paths over repeats, plus bootstrap statistics

SWEEP_AMPLITUDES = (0.15, 0.5, 0.85)
SWEEP_BUDGETS = [1_000, 4_000]
SWEEP_REPEATS = 200
SWEEP_RESAMPLES = 100


def sweep_block(rng, i: int) -> list[Request]:
    """PAM, MLQAE and LCU once per amplitude, IQAE once over all three.
    The IQAE request costs about as much as the other nine, so the median
    falls among MLQAE and the tail sample among LCU at any run
    length from three to ten blocks."""
    jobs = [(e, [a]) for e in ("PAM", "MLQAE", "LCU") for a in SWEEP_AMPLITUDES]
    jobs.append(("IQAE", list(SWEEP_AMPLITUDES)))
    out = []
    for j in rng.permutation(len(jobs)):
        est, amps = jobs[j]
        cfg = {"qae": est, "amplitudes": amps, "q_list": SWEEP_BUDGETS,
               "repeats": SWEEP_REPEATS, "n_resamples": SWEEP_RESAMPLES, "seed": _seed(rng)}
        out.append(Request("sweep", ["qae-sweep"], cfg, f"{est} a={'/'.join(map(str, amps))}"))
    return out


def check_sweep(req: Request, docs: dict, files: dict):
    from qmci.qae import C_QAE_REFERENCE

    cfg, doc = req.config, docs["sweep.json"]
    est = cfg["qae"]
    lam = 1 if est == "PAM" else 2
    problems = []
    if (doc["qae_kind"], doc["amplitudes"], doc["q_list"]) != (est, cfg["amplitudes"], cfg["q_list"]):
        problems.append("sweep header differs from the request")
    for a in cfg["amplitudes"]:
        for q in cfg["q_list"]:
            cell = doc["cells"].get(f"{a}|{q}")
            if cell is None:
                problems.append(f"missing cell {a}|{q}")
                continue
            bound = TOL_MULTIPLE * C_QAE_REFERENCE[est] / q ** (lam / 2)
            if not abs(cell["bias"]) <= cell["rmse"] + 1e-15 <= bound:
                problems.append(f"cell {a}|{q}: bias {cell['bias']!r} rmse {cell['rmse']!r}")
            for m in ("bias", "rmse", "skewness", "excess_kurtosis"):
                lo, hi = cell[f"{m}_ci"]
                if not lo <= hi:
                    problems.append(f"cell {a}|{q}: {m} interval [{lo!r}, {hi!r}]")
    rows = list(csv.reader(io.StringIO(files["sweep.csv"].decode())))
    if len(rows) != 1 + 4 * len(cfg["amplitudes"]) * len(cfg["q_list"]):
        problems.append(f"sweep.csv has {len(rows)} rows")
    return problems, []


# --------------------------------------------------------------------------
# train: HWE loaders fitted by many tiny simulations

# (qubits, layers, norm, target sigma), by cost class.  A fit stops early
# when its cost converges, so the cost of most fits depends on the target.
# L2 fits of wide Gaussians never converge within the sweep limit, so their
# work is fixed: they form the class the median falls in (3 qubits, about
# 0.4 s) and the class the tail sample falls in (4 qubits, about 0.7 s).
# Below them sit short fits of narrow Gaussians, above them one slow Linf
# fit.  At three to five blocks the median falls in the middle of the
# 3-qubit class and the tail sample well inside the 4-qubit one.
_TRAIN_JOBS = ([(3, "L2", (0.3, 0.6))] * 5 + [(3, "L2", (1.5, 2.5))] * 4
               + [(4, "L2", (1.5, 2.5))] * 4 + [(3, "Linf", (0.8, 1.25))])


def train_block(rng, i: int) -> list[Request]:
    out = []
    for j in rng.permutation(len(_TRAIN_JOBS)):
        n, norm, (lo, hi) = _TRAIN_JOBS[j]
        cfg = {"target": {"pdf": "gaussian", "mu": float(rng.uniform(-0.25, 0.25)),
                          "sigma": float(rng.uniform(lo, hi))},
               "n_qubits": n, "x_l": -4.0, "delta": 8.0 / (2**n - 1),
               "n_layers": 1, "norm": norm, "seed": _seed(rng)}
        out.append(Request("train", ["dist", "train"], cfg, f"{n}q {norm} sigma {lo}-{hi}"))
    return out


def check_train(req: Request, docs: dict, files: dict):
    cfg, doc = req.config, docs["trained_circuit.json"]
    t = cfg["target"]
    _, target = ref.discrete_pmf("gaussian", t["mu"], t["sigma"], cfg["n_qubits"],
                                 cfg["x_l"], cfg["delta"])
    cost = ref.norm_cost(target, ref.ry_cnot_state(doc["circuit"]), cfg["norm"])
    problems = []
    if not abs(cost - doc["final_cost"]) <= 1e-9:
        problems.append(f"final_cost {doc['final_cost']!r} != simulated {cost!r}")
    rows = list(csv.reader(io.StringIO(files["cost_trace.csv"].decode())))[1:]
    best = [float(r[2]) for r in rows]
    if not best or any(b > a for a, b in zip(best, best[1:])):
        problems.append("cost trace best_so_far is empty or not monotone")
    return problems, []


WORKLOADS = {
    "estimate": (estimate_block, {"estimate": check_estimate}),
    "instrument": (instrument_block, {"pricing": check_pricing,
                                      "resources": check_resources}),
    "sweep": (sweep_block, {"sweep": check_sweep}),
    "train": (train_block, {"train": check_train}),
}
