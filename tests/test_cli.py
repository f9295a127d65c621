import json
import os

import numpy as np
import pytest

from qmci.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(args):
    return main([str(a) for a in args])


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


def test_numeric_failure_exits_3(tmp_path):
    cfg = write(tmp_path, "c.json", {
        "seed": 1,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "quantity": {"quantity": "Mean", "q_total": 0},
    })
    assert run(["estimate", cfg]) == 3


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


@pytest.mark.parametrize("bad", [{"norm": "L3"}, {"n_layers": -1}])
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


@pytest.mark.parametrize("cfg", [
    {"qae": "IQAA", "amplitudes": [0.5], "q_list": [100], "repeats": 100},
    {"sweeps": [{"qae": "PAM", "amplitudes": [0.5], "q_list": [100], "repeats": 100}],
     "sweps": 1},
    {"sweeps": []},
])
def test_qae_sweep_bad_config_exits_2(tmp_path, cfg):
    assert run(["qae-sweep", write(tmp_path, "c.json", cfg), "--out-dir", tmp_path / "o"]) == 2
    assert not (tmp_path / "o").exists()
