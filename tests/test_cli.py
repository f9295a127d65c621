import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qmci.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(args):
    return main([str(a) for a in args])


def test_import_loads_no_scipy():
    # numpy is the engine's one runtime dependency: a fresh interpreter
    # importing the CLI, from the tree under test, loads no scipy module
    import qmci

    src = os.path.dirname(os.path.dirname(os.path.abspath(qmci.__file__)))
    code = ("import sys, qmci.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_dist_load_standard(tmp_path):
    cfg = write(tmp_path, "c.json", {"distribution": {"source": "standard", "kind": "gaussian_unit_6q"}})
    assert run(["dist", "load", cfg, "--out-dir", tmp_path / "o"]) == 0
    doc = json.loads((tmp_path / "o" / "distribution_circuit.json").read_text())
    assert doc["dims"][0]["x_l"] == -5.0
    assert doc["dims"][0]["delta"] == pytest.approx(10 / 63)


def test_dist_metrics_identical_target(tmp_path):
    pmf = np.full(8, 1 / 8)
    csv = tmp_path / "p.csv"
    csv.write_text("".join(f"{float(x)!r}\n" for x in pmf))
    cfg = write(tmp_path, "c.json", {
        "distribution": {"source": "pmf_csv", "path": str(csv)},
        "target": {"pmf_csv": str(csv)},
    })
    assert run(["dist", "metrics", cfg, "--out-dir", tmp_path / "o"]) == 0
    rep = json.loads((tmp_path / "o" / "divergence_report.json").read_text())
    assert all(abs(v) < 1e-12 for v in rep.values())


def test_dist_train_outputs_monotone_trace(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "target": {"pdf": "gaussian", "mu": 0.0, "sigma": 1.0},
        "n_qubits": 3, "x_l": -4.0, "delta": 1.0,
        "n_layers": 2, "norm": "L2", "seed": 4,
    })
    assert run(["dist", "train", cfg, "--out-dir", tmp_path / "o"]) == 0
    trace = (tmp_path / "o" / "cost_trace.csv").read_text().strip().splitlines()[1:]
    best = [float(line.split(",")[2]) for line in trace]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))


def test_estimate_point_quantity(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "seed": 7,
        "distribution": {"source": "gaussian", "n_qubits": 4, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 15},
        "quantity": {"quantity": "Mean", "dimension": 0, "q_total": 3000},
        "qae": {"qae": "MLQAE"},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 0
    res = json.loads((tmp_path / "o" / "qmci_result.json").read_text())
    assert abs(res["estimate"]) <= res["rmse_bound"]
    assert res["uses_total"] == 3000


def test_estimate_instrument_end_to_end(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "seed": 3,
        "distribution": {"source": "gaussian", "n_qubits": 2, "mu": 0.0,
                          "sigma": 1.0, "x_l": -5.0, "delta": 10 / 3},
        "instrument": {"instrument": "Barrier", "space": "return", "n_slices": 2,
                        "total_volatility": 0.4, "strike_ratio": 1.02,
                        "barrier_ratio": 1.3, "payoff_kind": "binary",
                        "q_budget": 2000},
        "qae": {"qae": "MLQAE"},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 0
    res = json.loads((tmp_path / "o" / "qmci_result.json").read_text())
    assert "payoff" in res and len(res["runs"]) == 1


def test_estimate_deterministic_bytes(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "seed": 9,
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "SecondMoment", "q_total": 1000},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "a"]) == 0
    assert run(["estimate", cfg, "--out-dir", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "qmci_result.json").read_bytes() == (
        tmp_path / "b" / "qmci_result.json"
    ).read_bytes()


def test_resources_nisq_and_ft_modes(tmp_path):
    base = {
        "distribution": {"source": "gaussian", "n_qubits": 2, "mu": 0.0,
                          "sigma": 1.0, "x_l": -5.0, "delta": 10 / 3},
        "instrument": {"instrument": "Barrier", "space": "return", "n_slices": 2,
                        "total_volatility": 0.1, "strike_ratio": 1.05,
                        "barrier_ratio": 1.1, "payoff_kind": "binary",
                        "target_rmse": 0.01},
    }
    t_counts = {}
    for mode in ("nisq", "ft", "ft_tight"):
        cfg = write(tmp_path, f"{mode}.json", {**base, "mode": mode})
        assert run(["resources", cfg, "--out-dir", tmp_path / mode]) == 0
        rep = json.loads((tmp_path / mode / "resource_report.json").read_text())
        if mode == "nisq":
            assert rep["totals"]["total_gates"] > 0
            assert (tmp_path / mode / "resource_report.csv").exists()
        else:
            t_counts[mode] = rep["totals"]["t_count"]
    assert t_counts["ft_tight"] <= t_counts["ft"]


def test_qae_sweep_pam(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "qae": "PAM", "amplitudes": [0.5], "q_list": [100],
        "repeats": 1000, "seed": 3,
    })
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "o"]) == 0
    rep = json.loads((tmp_path / "o" / "sweep.json").read_text())
    rmse = rep["cells"]["0.5|100"]["rmse"]
    assert abs(rmse - 0.05) < 0.005
    csv = (tmp_path / "o" / "sweep.csv").read_text()
    assert csv.splitlines()[0] == "amplitude,q,metric,value,ci_lo,ci_hi"


def test_sweep_rerun_identical_files(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "qae": "MLQAE", "amplitudes": [0.3], "q_list": [200],
        "repeats": 150, "seed": 2, "n_resamples": 120,
    })
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "a"]) == 0
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "b"]) == 0
    for name in ("sweep.json", "sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_parallel_sweeps_respect_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QMCI_THREADS", "2")
    cfg = write(tmp_path, "c.json", {"sweeps": [
        {"qae": "PAM", "amplitudes": [0.4], "q_list": [100], "repeats": 150, "seed": 1},
        {"qae": "PAM", "amplitudes": [0.6], "q_list": [100], "repeats": 150, "seed": 2},
    ]})
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "sweep_0.json").exists()
    assert (tmp_path / "o" / "sweep_1.csv").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {
        "seed": 1,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_total": 100},
        "bogus": True,
    })
    assert run(["estimate", cfg]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg = write(tmp_path, "load.json", {
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "bogus": 1,
    })
    assert run(["dist", "load", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "bogus" in capsys.readouterr().err
    # nothing reads a seed in a metrics config
    cfg = write(tmp_path, "metrics.json", {
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "target": {"pdf": "gaussian"}, "seed": "junk",
    })
    assert run(["dist", "metrics", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "seed" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path):
    # a well-formed budget too small for the harmonics its target needs
    cfg = write(tmp_path, "c.json", {
        "seed": 1,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_total": 10, "target_rmse": 1e-6},
    })
    assert run(["estimate", cfg]) == 3
    # a well-formed MSE target that no (q, epsilon) meets
    cfg = write(tmp_path, "r.json", {
        "mode": "ft", "target_mse": 1e-300,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_total": 500},
    })
    assert run(["resources", cfg, "--out-dir", tmp_path / "o"]) == 3


def test_unreadable_config_exits_2(tmp_path):
    assert run(["estimate", tmp_path / "missing.json"]) == 2


def test_parallel_sweeps_match_sequential_bytes(tmp_path, monkeypatch):
    cfg = write(tmp_path, "c.json", {"sweeps": [
        {"qae": "PAM", "amplitudes": [0.4], "q_list": [100], "repeats": 150,
         "seed": 1, "n_resamples": 100},
        {"qae": "PAM", "amplitudes": [0.6], "q_list": [100], "repeats": 150,
         "seed": 2, "n_resamples": 100},
    ]})
    monkeypatch.setenv("QMCI_THREADS", "1")
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "seq"]) == 0
    monkeypatch.setenv("QMCI_THREADS", "4")
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "par"]) == 0
    for name in ("sweep_0.json", "sweep_1.json", "sweep_0.csv", "sweep_1.csv"):
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_resources_rejects_unknown_quantity_key(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {
        "mode": "nisq",
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_totl": 1000},
    })
    assert run(["resources", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "q_totl" in capsys.readouterr().err


def test_resources_keeps_x_star(tmp_path, monkeypatch):
    from qmci import resources

    seen = []
    real = resources.build_plan

    def recording_build_plan(dc, spec, *args, **kw):
        seen.append(spec.x_star)
        return real(dc, spec, *args, **kw)

    monkeypatch.setattr(resources, "build_plan", recording_build_plan)
    cfg = write(tmp_path, "c.json", {
        "mode": "nisq",
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "q_total": 1000, "x_star": 0.25},
    })
    assert run(["resources", cfg, "--out-dir", tmp_path / "o"]) == 0
    assert seen == [0.25]


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_unknown_quantity_kind_exits_2(tmp_path, command):
    cfg = {
        "seed": 1,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Meen", "q_total": 100},
    }
    if command == "resources":
        cfg["mode"] = "nisq"
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2


def test_non_integer_thread_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("QMCI_THREADS", "abc")
    cfg = write(tmp_path, "c.json", {
        "qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100,
    })
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "o"]) == 2


@pytest.mark.parametrize("bad", [{"norm": "L3"}, {"n_layers": -1}, {"seed": -1},
                                 {"seed": "x"}, {"seed": 1.5}, {"seed": True},
                                 {"delta": -1.0}, {"x_l": "a"}, {"x_l": True}])
def test_dist_train_bad_config_exits_2(tmp_path, bad):
    cfg = write(tmp_path, "c.json", {
        "target": {"pdf": "gaussian"}, "n_qubits": 2, "n_layers": 1, **bad,
    })
    assert run(["dist", "train", cfg, "--out-dir", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["estimate", "resources"])
@pytest.mark.parametrize("dimension", [4, -1, 0.5, "0"])
def test_bad_quantity_dimension_exits_2(tmp_path, command, dimension):
    cfg = {
        "seed": 1, "mode": "nisq",
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "dimension": dimension, "q_total": 100},
    }
    if command == "estimate":
        del cfg["mode"]
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_unknown_instrument_exits_2(tmp_path, command, capsys):
    cfg = {
        "seed": 1, "mode": "nisq",
        "distribution": {"source": "gaussian", "n_qubits": 2, "mu": 0.0,
                          "sigma": 1.0, "x_l": -5.0, "delta": 10 / 3},
        "instrument": {"instrument": "Barier", "space": "return", "n_slices": 2,
                        "total_volatility": 0.4, "strike_ratio": 1.02,
                        "barrier_ratio": 1.3, "payoff_kind": "binary"},
    }
    if command == "estimate":
        del cfg["mode"]
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "Barier" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_too_many_slices_exits_2_before_building(tmp_path, monkeypatch, command, capsys):
    # n_slices is capped at 64: a 65-slice Lookback is refused before the
    # instrument's circuit is built
    from qmci import pbuilder

    def build(*a):
        raise AssertionError("build_instrument called")

    monkeypatch.setattr(pbuilder, "build_instrument", build)
    cfg = {"seed": 1, "mode": "nisq", "distribution": UNIT_2Q,
           "instrument": {"instrument": "Lookback", "n_slices": 65, "q_budget": 100}}
    if command == "estimate":
        del cfg["mode"]
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "n_slices must be an integer in [1, 64], got 65" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_bad_call_or_put_exits_2(tmp_path, command, capsys):
    cfg = {
        "seed": 1, "mode": "nisq",
        "distribution": {"source": "gaussian", "n_qubits": 2, "mu": 0.0,
                          "sigma": 1.0, "x_l": -5.0, "delta": 10 / 3},
        "instrument": {"instrument": "Barrier", "space": "return", "n_slices": 2,
                        "total_volatility": 0.4, "strike_ratio": 1.02,
                        "barrier_ratio": 1.3, "call_or_put": "cal"},
    }
    if command == "estimate":
        del cfg["mode"]
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "call_or_put" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"qae": "IQAA", "amplitudes": [0.5], "q_list": [100], "repeats": 100},
    {"sweeps": [{"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100}],
     "sweps": 1},
    {"sweeps": []},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 99},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "n_resamples": 99},
    {"qae": "PAM", "amplitudes": [0.5, 1.0], "q_list": [100], "repeats": 100},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [0], "repeats": 100},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [1.5], "repeats": 100},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [], "repeats": 100},
    {"qae": "PAM", "amplitudes": [], "q_list": [100], "repeats": 100},
    {"qae": "PAM", "amplitudes": ["x"], "q_list": [100], "repeats": 100},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": "x"},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "n_resamples": "x"},
    {"qae": "LCU", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "p_max_fail": 1.5},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "seed": "x"},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "seed": -1},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "seed": 2.5},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100, "seed": True},
    {"qae": "PAM", "amplitudes": [0.5, 0.5], "q_list": [100], "repeats": 100},
    {"qae": "PAM", "amplitudes": [0.5], "q_list": [100, 100], "repeats": 100},
])
def test_qae_sweep_bad_config_exits_2(tmp_path, cfg):
    assert run(["qae-sweep", write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert not (tmp_path / "o").exists()


def test_estimate_bad_p_max_fail_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {
        "seed": 1,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_total": 1000},
        "qae": {"qae": "LCU", "p_max_fail": 1.5},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "p_max_fail" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["x", "7", 1.5, True, -1])
def test_estimate_bad_seed_exits_2(tmp_path, seed, capsys):
    cfg = write(tmp_path, "c.json", {
        "seed": seed,
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "q_total": 500},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "resources"])
@pytest.mark.parametrize("bad", [
    {"support_window": [0.5]},
    {"support_window": [0.5, -0.5]},
    {"support_window": [0.5, 0.5]},
    {"support_window": ["a", 0.5]},
    {"support_window": [-0.5, float("inf")]},
    {"support_window": 0.5},
    {"support_window": []},
    {"x_star": "a"},
    {"x_star": float("nan")},
    {"x_star": [0.1]},
    {"x_star": True},
])
def test_bad_quantity_window_or_x_star_exits_2(tmp_path, command, bad, capsys):
    cfg = {
        "seed": 1,
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "q_total": 500, **bad},
    }
    if command == "resources":
        cfg["mode"] = "nisq"
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_resources_iqae_exits_2(tmp_path, capsys):
    # IQAE's schedule depends on its outcomes, so it has no resource plan
    cfg = write(tmp_path, "c.json", {
        "mode": "nisq",
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "q_total": 500},
        "qae": {"qae": "IQAE"},
    })
    assert run(["resources", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BARRIER = {"instrument": "Barrier", "space": "return", "n_slices": 2,
           "total_volatility": 0.1, "strike_ratio": 1.05, "barrier_ratio": 1.1,
           "payoff_kind": "value"}
UNIT_2Q = {"source": "gaussian", "n_qubits": 2, "mu": 0.0, "sigma": 1.0,
           "x_l": -5.0, "delta": 10 / 3}


@pytest.mark.parametrize("command", ["estimate", "resources"])
@pytest.mark.parametrize("block, bad", [
    ("quantity", {}),
    ("instrument", {}),
    ("quantity", {"q_total": 0}),
    ("instrument", {"q_budget": 0}),
    ("quantity", {"target_rmse": 0}),
    ("instrument", {"target_rmse": 0}),
    ("quantity", {"target_rmse": -1}),
    ("instrument", {"target_rmse": -1}),
    *(("ft", {"target_mse": v}) for v in (-1.0, 0, float("inf"), float("nan"), True,
                                           "1e-4", None)),
])
def test_bad_budget_exits_2(tmp_path, command, block, bad, capsys):
    cfg = {"seed": 1, "mode": "nisq"} if command == "resources" else {"seed": 1}
    if block == "quantity":
        cfg.update(distribution={"source": "standard", "kind": "gaussian_unit_6q"},
                   quantity={"quantity": "Mean", **bad})
    elif block == "instrument":
        cfg.update(distribution=UNIT_2Q, instrument={**BARRIER, **bad})
    else:  # a resources MSE target, which estimate does not take
        cfg.update(distribution={"source": "standard", "kind": "gaussian_unit_6q"},
                   quantity={"quantity": "Mean", "q_total": 500}, **bad)
        if command == "resources":
            cfg["mode"] = "ft"
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_price_space_needs_a_loader_of_prices(tmp_path, command, capsys):
    # the geometric path multiplies slice prices: UNIT_2Q's grid starts at -5
    cfg = {"seed": 1, "mode": "nisq", "distribution": UNIT_2Q,
           "instrument": {**BARRIER, "space": "price", "q_budget": 500}}
    if command == "estimate":
        del cfg["mode"]
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "x_l" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "resources"])
@pytest.mark.parametrize("quantity, condition", [
    ("ConditionalExpectation", None), ("BernoulliQubit", None), ("BernoulliQubit", 1),
])
def test_indicator_quantity_needs_a_condition(tmp_path, command, quantity, condition):
    cfg = {
        "seed": 1,
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": quantity, "q_total": 500, "condition": condition},
    }
    if command == "resources":
        cfg["mode"] = "nisq"
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2


def test_instrument_plan_uses_match_estimate(tmp_path, monkeypatch):
    # a q_budget-only instrument plans the harmonics its estimate runs
    from qmci import resources

    plans = []
    real = resources.build_plan

    def recording_build_plan(*args, **kw):
        plans.append(real(*args, **kw))
        return plans[-1]

    monkeypatch.setattr(resources, "build_plan", recording_build_plan)
    for q in (200, 20_000):
        plans.clear()
        base = {"distribution": UNIT_2Q, "instrument": {**BARRIER, "q_budget": q}}
        assert run(["resources", write(tmp_path, "r.json", {**base, "mode": "nisq"}),
                    "--out-dir", tmp_path / "r"]) == 0
        assert run(["estimate", write(tmp_path, "e.json", {**base, "seed": 1}),
                    "--out-dir", tmp_path / "e"]) == 0
        runs = json.loads((tmp_path / "e" / "qmci_result.json").read_text())["runs"]
        planned = [[sum(s * (2 * m + 1) for m, s in sched) for sched in p.schedules]
                   for p in plans]
        assert planned == [[h["q"] for h in r["per_harmonic"]] for r in runs]


def test_json_outputs_are_strict(tmp_path):
    # PAM far below its resolution: every repeat reads 0, so the shape
    # statistics and their intervals are undefined
    cfg = write(tmp_path, "c.json", {
        "qae": "PAM", "amplitudes": [1e-9], "q_list": [100], "repeats": 100,
        "n_resamples": 100, "seed": 1,
    })
    assert run(["qae-sweep", cfg, "--out-dir", tmp_path / "o"]) == 0

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    doc = json.loads((tmp_path / "o" / "sweep.json").read_text(), parse_constant=reject)
    assert doc["cells"]["1e-09|100"]["skewness"] is None


def test_dump_json_maps_non_finite_floats():
    from qmci.cli import _dump_json

    doc = json.loads(_dump_json({"a": [float("inf"), -float("inf"), float("nan"), 1.5]}))
    assert doc == {"a": ["inf", "-inf", None, 1.5]}


# ---------------------------------------------------------------- paper-scale pricing


def _ry_cnot_probs(circuit) -> np.ndarray:
    """Basis probabilities of a Ry/CNOT circuit on |0...0>, by axis moves."""
    n = circuit.n_qubits
    psi = np.zeros([2] * n)
    psi[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.kind == "Ry":
            q, (theta,) = g.qubits[0], g.params
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            a, b = np.take(psi, 0, axis=q), np.take(psi, 1, axis=q)
            psi = np.stack([c * a - s * b, s * a + c * b], axis=q)
        else:
            assert g.kind == "CNOT"
            ctl, tgt = g.qubits
            sel = [slice(None)] * n
            sel[ctl] = 1
            psi[tuple(sel)] = np.flip(psi[tuple(sel)], axis=tgt - (tgt > ctl)).copy()
    return (psi**2).reshape(-1)


def _pushed_rows(circuit, unit_circuit, n_slices):
    """(basis states as integers, probabilities) after an instrument circuit
    whose first gates are ``n_slices`` copies of the unit loader on the
    leading qubits and whose other gates are permutations."""
    n, k = circuit.n_qubits, unit_circuit.n_qubits
    prob = np.ones(1)
    for _ in range(n_slices):
        prob = np.outer(prob, _ry_cnot_probs(unit_circuit)).ravel()
    states = np.arange(prob.size, dtype=np.int64) << (n - k * n_slices)
    for g in circuit.gates[n_slices * len(unit_circuit.gates):]:
        assert g.kind in ("X", "CNOT", "Toffoli", "MultiControlledX")
        t = 1 << (n - 1 - g.qubits[-1])
        c = sum(1 << (n - 1 - q) for q in g.qubits[:-1])
        states ^= np.where(states & c == c, t, 0)
    return states, prob


def _code(states, qubits, n):
    code = np.zeros_like(states)
    for q in qubits:
        code = (code << 1) | ((states >> (n - 1 - q)) & 1)
    return code


@pytest.mark.parametrize("kind,extra,n_qubits", [
    ("Barrier", {"barrier_ratio": 1.3}, 36),
    ("Lookback", {}, 49),
])
def test_paper_scale_instrument_prices_within_bound(tmp_path, kind, extra, n_qubits):
    # two slices of the published 6-qubit loader: past the dense simulator,
    # priced on the 4,096-row support
    from qmci.distributions import standard_circuit
    from qmci.pbuilder import InstrumentSpec, build_instrument

    spec = {"instrument": kind, "space": "return", "n_slices": 2, "total_volatility": 0.3,
            "strike_ratio": 1.05, "q_budget": 2000, **extra}
    cfg = write(tmp_path, "c.json", {
        "seed": 5, "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "instrument": spec, "qae": {"qae": "MLQAE"},
    })
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 0
    runs = json.loads((tmp_path / "o" / "qmci_result.json").read_text())["runs"]

    unit = standard_circuit("gaussian_unit_6q")
    dc, _ = build_instrument(unit, InstrumentSpec.from_dict(spec))
    n = dc.circuit.n_qubits
    assert n == n_qubits
    states, prob = _pushed_rows(dc.circuit, unit.circuit, 2)
    for r in runs:
        c = r["config"]
        on = _code(states, [dc.indicators[c["condition"]]], n) == 1
        assert c["quantity"] == "ConditionalExponential"
        d = dc.dims[c["dimension"]]
        x = d.x_l + d.delta * _code(states, d.qubits, n)
        truth = prob[on] @ np.exp(x[on]) + prob[~on].sum() * math.exp(c["x_star"])
        assert abs(r["estimate"] - truth) <= 10 * r["rmse_bound"]


def test_instrument_over_the_support_cap_exits_2(tmp_path, capsys):
    # five slices of the 6-qubit loader: 2^30 support rows
    import tracemalloc

    from qmci.simulator import MAX_SUPPORT_ROWS

    cfg = write(tmp_path, "c.json", {
        "seed": 1, "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "instrument": {"instrument": "Lookback", "space": "return", "n_slices": 5,
                       "total_volatility": 0.3, "strike_ratio": 1.05, "q_budget": 2000},
    })
    tracemalloc.start()
    try:
        code = run(["estimate", cfg, "--out-dir", tmp_path / "o"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"{2**30} rows" in err and str(MAX_SUPPORT_ROWS) in err
    assert peak < 32 * 2**20  # the refusal comes before any support is allocated


@pytest.mark.parametrize("command", ["estimate", "resources"])
def test_qae_seed_key_exits_2(tmp_path, command, capsys):
    # nothing reads a seed in the qae block; the top-level seed is the one
    cfg = {"seed": 1, "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
           "quantity": {"quantity": "Mean", "q_total": 500},
           "qae": {"qae": "MLQAE", "seed": 123}}
    if command == "resources":
        cfg["mode"] = "nisq"
    assert run([command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_GAUSSIAN_3Q = {"source": "gaussian", "n_qubits": 3, "mu": 0.0, "sigma": 0.1,
                "x_l": -0.5, "delta": 1 / 7}
_CSVS = {"non_numeric": "0.5\nabc\n0.25\n0.25\n", "length_3": "0.5\n0.25\n0.25\n",
         "nan": "nan\n0.5\n0.25\n0.25\n", "negative": "-0.5\n1.0\n0.25\n0.25\n"}


@pytest.mark.parametrize("bad", [
    {"source": "pmf_csv", "path": "missing.csv"},
    *({"source": "pmf_csv", "path": f"{name}.csv"} for name in _CSVS),
    {**_GAUSSIAN_3Q, "sigma": 0},
    {**_GAUSSIAN_3Q, "sigma": -0.1},
    {**_GAUSSIAN_3Q, "sigma": "0.1"},
    {**_GAUSSIAN_3Q, "source": "lognormal", "sigma": 0},
    {**_GAUSSIAN_3Q, "mu": float("inf")},
    {"source": "standard", "kind": "nope"},
    {**_GAUSSIAN_3Q, "mu": 1000.0},  # the pdf vanishes on the grid
    {**_GAUSSIAN_3Q, "delta": -1.0},
    {**_GAUSSIAN_3Q, "source": "lognormal", "delta": 0},
    {"source": "pmf_csv", "path": "ok.csv", "delta": 0},
    {"source": "pmf_csv", "path": "ok.csv", "x_l": "a"},
    {**_GAUSSIAN_3Q, "x_l": True},
    {**_GAUSSIAN_3Q, "x_l": float("nan")},
    {"source": "pmf_csv", "path": "sum_1_1.csv"},
])
def test_bad_distribution_exits_2(tmp_path, bad, capsys):
    for name, text in {**_CSVS, "ok": "0.5\n0.5\n", "sum_1_1": "0.5\n0.6\n"}.items():
        (tmp_path / f"{name}.csv").write_text(text)
    if "path" in bad:
        bad = {**bad, "path": str(tmp_path / bad["path"])}
    cfg = write(tmp_path, "c.json", {"seed": 1, "distribution": bad,
                                     "quantity": {"quantity": "Mean", "q_total": 500}})
    assert run(["estimate", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert "config error: distribution" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, bad", [
    ("metrics", {"pmf_csv": "missing.csv"}),
    *(("metrics", {"pmf_csv": f"{name}.csv"}) for name in _CSVS),
    ("metrics", {"pmf_csv": "length_2.csv"}),
    ("train", {"pmf_csv": "length_2.csv"}),
    ("metrics", {"pdf": "gaussian", "sigma": 0}),
    ("metrics", {"pdf": "cauchy"}),
    ("train", {"pdf": "gaussian", "sigma": 0}),
    ("train", {"pdf": "lognormal", "sigma": -1}),
])
def test_bad_target_exits_2(tmp_path, command, bad, capsys):
    # a length_2 target is a PMF, but not on the 2^n_qubits grid
    for name, text in {**_CSVS, "length_2": "0.5\n0.5\n"}.items():
        (tmp_path / f"{name}.csv").write_text(text)
    if "pmf_csv" in bad:
        bad = {"pmf_csv": str(tmp_path / bad["pmf_csv"])}
    if command == "metrics":
        cfg = {"distribution": _GAUSSIAN_3Q, "target": bad}
    else:
        cfg = {"target": bad, "n_qubits": 2, "n_layers": 1}
    assert run(["dist", command, write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert "config error: target" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
