"""The benchmark harness under perfbench/ times qmci functions by name,
reads two qae internals and rebuilds instruments to check their outputs;
a rename in qmci must not silently break it."""
import importlib
import importlib.util
import json
from pathlib import Path

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


def test_layer_metrics_inputs_exist():
    from qmci import qae

    assert callable(qae._lcu_shot_plan)
    assert isinstance(qae.DEFAULT_POSTERIOR_GRID, int)


def test_instrument_checks_pass_on_cli_outputs(tmp_path, monkeypatch):
    # the instrument checks call cli._load_distribution, build_instrument,
    # PayoffConfig.to_dict, quantity_series, build_plan and ft_constraint,
    # and take the loader copies to be the circuit's leading gates
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from qmci.cli import main

    unit = {"source": "gaussian", "n_qubits": 2, "mu": 0.1, "sigma": 1.0,
            "x_l": -1.5, "delta": 1.0}
    spec = {"instrument": "Barrier", "space": "return", "n_slices": 2,
            "total_volatility": 0.2, "strike_ratio": 0.95, "barrier_ratio": 1.2}
    requests = [
        workloads.Request("pricing", ["estimate"],
                          {"seed": 3, "distribution": unit, "qae": {"qae": "MLQAE"},
                           "instrument": {**spec, "q_budget": 2000}}, "Barrier price"),
        workloads.Request("resources", ["resources"],
                          {"mode": "ft", "distribution": unit, "qae": {"qae": "MLQAE"},
                           "instrument": {**spec, "target_rmse": 0.01}}, "Barrier ft"),
    ]
    checks = workloads.WORKLOADS["instrument"][1]
    for i, req in enumerate(requests):
        cfg, out = tmp_path / f"c{i}.json", tmp_path / f"out{i}"
        cfg.write_text(json.dumps(req.config))
        assert main([*req.argv, str(cfg), "--out-dir", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        docs = {n: json.loads(b) for n, b in files.items() if n.endswith(".json")}
        problems, _ = checks[req.kind](req, docs, files)
        assert problems == [], req.label
