"""The benchmark harness under perfbench/ times qmci functions by name,
reads two qae internals and rebuilds instruments to check their outputs;
a rename in qmci must not silently break it."""
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_functions_exist():
    traced = _traced()
    assert traced
    for module, name in traced:
        mod = importlib.import_module(f"qmci.{module}")
        assert callable(getattr(mod, name, None)), f"qmci.{module}.{name}"


def _positional(fn) -> list[str]:
    return [n for n, p in inspect.signature(fn).parameters.items()
            if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]


def test_layer_metrics_inputs_exist():
    from qmci import qae, rebase, simulator

    assert callable(qae._lcu_shot_plan)
    assert isinstance(qae.DEFAULT_POSTERIOR_GRID, int)
    # the tracer's per-call facts read these arguments by position, and
    # layers.py calls _lcu_shot_plan(q, p_max_fail)
    assert _positional(qae.lcu_from_amplitude) == ["a", "q", "p_max_fail", "seed"]
    assert _positional(qae._lcu_shot_plan) == ["q", "p_max_fail"]
    assert _positional(qae.opt_ae)[:1] == ["q"]
    assert _positional(simulator.simulate)[:1] == ["circuit"]
    assert _positional(rebase.lower_to_rotations_clifford_t)[:1] == ["circuit"]


@pytest.mark.parametrize("kind", ["PAM", "MLQAE", "IQAE", "LCU"])
def test_dispatch_calls_the_traced_module_attributes(monkeypatch, kind):
    from qmci import qae

    name, calls = f"{kind.lower()}_from_amplitude", []
    run = getattr(qae, name)
    monkeypatch.setattr(qae, name, lambda *a, **kw: calls.append(a) or run(*a, **kw))
    qae.estimate_amplitude(qae.schedule(kind, 500), 0.3, 1)
    assert len(calls) == 1


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _assert_checks_pass(tmp_path, workloads, workload, requests):
    """Run each request through ``cli.main`` and apply the benchmark's
    check for its kind to the files it writes."""
    from qmci.cli import main

    checks = workloads.WORKLOADS[workload][1]
    for i, req in enumerate(requests):
        cfg, out = tmp_path / f"c{i}.json", tmp_path / f"out{i}"
        cfg.write_text(json.dumps(req.config))
        assert main([*req.argv, str(cfg), "--out-dir", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        docs = {n: json.loads(b) for n, b in files.items() if n.endswith(".json")}
        problems, _ = checks[req.kind](req, docs, files)
        assert problems == [], req.label


def test_instrument_checks_pass_on_cli_outputs(tmp_path, workloads):
    # the instrument checks call cli._load_distribution, build_instrument,
    # PayoffConfig.to_dict, quantity_series, build_plan and ft_constraint,
    # and take the loader copies to be the circuit's leading gates
    unit = {"source": "gaussian", "n_qubits": 2, "mu": 0.1, "sigma": 1.0,
            "x_l": -1.5, "delta": 1.0}
    spec = {"instrument": "Barrier", "space": "return", "n_slices": 2,
            "total_volatility": 0.2, "strike_ratio": 0.95, "barrier_ratio": 1.2}
    _assert_checks_pass(tmp_path, workloads, "instrument", [
        workloads.Request("pricing", ["estimate"],
                          {"seed": 3, "distribution": unit, "qae": {"qae": "MLQAE"},
                           "instrument": {**spec, "q_budget": 2000}}, "Barrier price"),
        workloads.Request("resources", ["resources"],
                          {"mode": "ft", "distribution": unit, "qae": {"qae": "MLQAE"},
                           "instrument": {**spec, "target_rmse": 0.01}}, "Barrier ft"),
    ])


def test_estimate_check_passes_on_cli_output(tmp_path, workloads):
    loader = {"source": "gaussian", "n_qubits": 5, "mu": 0.1, "sigma": 0.2,
              "x_l": -0.7, "delta": 1.6 / 31}
    _assert_checks_pass(tmp_path, workloads, "estimate", [workloads.Request(
        "estimate", ["estimate"],
        {"seed": 3, "distribution": loader, "quantity": {"quantity": "Mean", "q_total": 10_000},
         "qae": {"qae": "MLQAE"}}, "MLQAE Mean")])


@pytest.mark.parametrize("estimator", ["PAM", "MLQAE", "IQAE", "LCU", "all at workload shape"])
def test_sweep_check_passes_on_cli_output(tmp_path, workloads, estimator):
    estimators = [estimator]
    shape = {"amplitudes": [0.3], "q_list": [1000], "repeats": 100, "n_resamples": 100}
    if estimator == "all at workload shape":
        from workloads import SWEEP_AMPLITUDES, SWEEP_BUDGETS, SWEEP_REPEATS, SWEEP_RESAMPLES

        estimators = ["PAM", "MLQAE", "IQAE", "LCU"]
        shape = {"amplitudes": list(SWEEP_AMPLITUDES), "q_list": SWEEP_BUDGETS,
                 "repeats": SWEEP_REPEATS, "n_resamples": SWEEP_RESAMPLES}
    _assert_checks_pass(tmp_path, workloads, "sweep", [workloads.Request(
        "sweep", ["qae-sweep"], {"qae": e, **shape, "seed": 5}, e) for e in estimators])


def test_train_check_passes_on_cli_output(tmp_path, workloads):
    _assert_checks_pass(tmp_path, workloads, "train", [workloads.Request(
        "train", ["dist", "train"],
        {"target": {"pdf": "gaussian", "mu": 0.1, "sigma": 0.5}, "n_qubits": 3,
         "x_l": -4.0, "delta": 8.0 / 7, "n_layers": 1, "norm": "L2", "seed": 3},
        "3q L2")])
