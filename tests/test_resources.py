import json
import math

import numpy as np
import pytest

from qmci.circuit import QuantumCircuit, ResourceBox
from qmci.distributions import (
    DistributionCircuit,
    discretize_pdf,
    exact_pmf_loader,
    gaussian_pdf,
    rescale,
)
from qmci import qae
from qmci.fourier import plan_terms, qmci_estimate, quantity_series
from qmci.pbuilder import InstrumentSpec, build_instrument
from qmci.rebase import count_nisq, rebase_tk1_cnot
from qmci.resources import (
    FtSolution,
    QmciPlan,
    build_plan,
    ft_constraint,
    ft_optimize,
    ft_report,
    insert_resource_box,
    nisq_report,
)


def tiny_plan(schedules=None, n_toffoli=2, n_rot=4):
    a = QuantumCircuit(3, "a")
    g = QuantumCircuit(3, "q")
    for i in range(n_rot):
        a.append("Ry", i % 3, 0.1 * (i + 1))
        g.append("Ry", i % 3, 0.2 * (i + 1))
    for _ in range(n_toffoli):
        g.append("Toffoli", (0, 1, 2))
    g.append("CNOT", (0, 1))
    return QmciPlan(
        a_circuit=a,
        grover=g,
        schedules=schedules or [[(0, 10), (1, 5)]],
        q_total=sum(s * (2 * m + 1) for sched in (schedules or [[(0, 10), (1, 5)]]) for m, s in sched),
        c_f=1.68,
        c_qae=8.02,
        quantity_range=1.0,
    )


def test_empty_plan_reports_zero():
    plan = QmciPlan(QuantumCircuit(1), QuantumCircuit(1), [[(0, 1)]], 1,
                    1.0, 1.0, 1.0)
    rep = nisq_report(plan)
    assert all(v == 0 for v in rep.totals.values())


def test_two_copies_double_totals():
    sched = [[(0, 10), (2, 4)]]
    single = nisq_report(tiny_plan(schedules=sched))
    double = nisq_report(tiny_plan(schedules=sched * 2))
    for k in single.totals:
        assert double.totals[k] == 2 * single.totals[k]
    assert double.largest == single.largest


def test_nisq_totals_match_hand_count():
    plan = tiny_plan(schedules=[[(0, 3), (2, 1)]])
    a_counts = count_nisq(rebase_tk1_cnot(plan.a_circuit))
    q_counts = count_nisq(rebase_tk1_cnot(plan.grover))
    rep = nisq_report(plan)
    expect = 3 * a_counts.total_gates + 1 * (a_counts.total_gates + 2 * q_counts.total_gates)
    assert rep.totals["total_gates"] == expect
    assert rep.largest["total_gates"] == a_counts.total_gates + 2 * q_counts.total_gates


def test_ft_optimize_eps_to_zero_limit():
    # with a tiny synthesis budget term the optimal q approaches the pure
    # QAE expression c_f c_qae range / rmse
    plan = tiny_plan(n_rot=1)
    mse = 1e-4
    sol = ft_optimize(plan, mse)
    q_pure = plan.c_f * plan.c_qae * plan.quantity_range / math.sqrt(mse)
    assert sol.q >= q_pure
    assert sol.q <= q_pure * 1.2


def test_ft_optimize_constraint_satisfied():
    plan = tiny_plan()
    mse = 1e-4
    sol = ft_optimize(plan, mse)
    got = ft_constraint(plan, sol.q, sol.epsilon, mse)
    assert got <= mse * (1 + 1e-6)


def test_ft_objective_linear_in_exact_t():
    # doubling the exact-T content adds q/2 * n_T to the objective
    from qmci.rebase import count_ft_content, lower_to_rotations_clifford_t
    from qmci.resources import ft_objective

    p1 = tiny_plan(n_toffoli=2)
    p2 = tiny_plan(n_toffoli=4)
    n_t1 = count_ft_content(lower_to_rotations_clifford_t(p1.grover)).t_count_exact
    n_t2 = count_ft_content(lower_to_rotations_clifford_t(p2.grover)).t_count_exact
    q, eps = 100.0, 1e-6
    assert ft_objective(p2, q, eps) - ft_objective(p1, q, eps) == pytest.approx(
        q / 2.0 * (n_t2 - n_t1)
    )


def test_ft_optimize_matches_grid_search():
    rng = np.random.default_rng(3)
    for _ in range(5):
        plan = tiny_plan(
            n_toffoli=int(rng.integers(1, 5)), n_rot=int(rng.integers(2, 8))
        )
        plan.c_f = float(rng.uniform(1.0, 3.0))
        plan.c_qae = float(rng.uniform(5.0, 15.0))
        plan.quantity_range = float(rng.uniform(0.5, 2.0))
        mse = float(10.0 ** rng.uniform(-6, -3))
        sol = ft_optimize(plan, mse)
        from qmci.resources import ft_objective

        mine = ft_objective(plan, sol.q, sol.epsilon)
        qs = np.logspace(
            math.log10(plan.c_f * plan.c_qae * plan.quantity_range / math.sqrt(mse)),
            math.log10(plan.c_f * plan.c_qae * plan.quantity_range / math.sqrt(mse)) + 4,
            200,
        )
        eps = np.logspace(-16, math.log10(0.5), 200)
        best = None
        for qv in qs:
            for ev in eps:
                if ft_constraint(plan, qv, ev, mse) <= mse:
                    obj = ft_objective(plan, qv, ev)
                    if best is None or obj < best:
                        best = obj
        assert best is not None
        assert mine <= best * 1.01


def test_ft_tight_never_larger():
    plan = tiny_plan()
    mse = 1e-4
    loose = ft_optimize(plan, mse, tight=False)
    tight = ft_optimize(plan, mse, tight=True)
    rep_l = ft_report(plan, loose)
    rep_t = ft_report(plan, tight)
    assert rep_t.totals["t_count"] <= rep_l.totals["t_count"]


def test_ft_monotone_in_target():
    plan = tiny_plan()
    s1 = ft_optimize(plan, 1e-3)
    s2 = ft_optimize(plan, 1e-5)
    from qmci.resources import ft_objective

    assert ft_objective(plan, s2.q, s2.epsilon) >= ft_objective(plan, s1.q, s1.epsilon)


def test_ft_report_zero_rotation_circuit_independent_of_eps():
    a = QuantumCircuit(3)
    g = QuantumCircuit(3).append("Toffoli", (0, 1, 2))
    plan = QmciPlan(a, g, [[(1, 2)]], 6, 1.0, 1.0, 1.0)
    r1 = ft_report(plan, FtSolution(q=6, epsilon=1e-3))
    r2 = ft_report(plan, FtSolution(q=6, epsilon=1e-9))
    assert r1.totals["t_count"] == r2.totals["t_count"] == 2 * 7


def test_ft_report_halving_eps_adds_three_per_rotation():
    a = QuantumCircuit(1).append("Ry", 0, 0.3)
    g = QuantumCircuit(1).append("Ry", 0, 0.6)
    plan = QmciPlan(a, g, [[(1, 1)]], 3, 1.0, 1.0, 1.0)
    eps = 2.0**-20
    t1 = ft_report(plan, FtSolution(q=3, epsilon=eps)).totals["t_count"]
    t2 = ft_report(plan, FtSolution(q=3, epsilon=eps / 2)).totals["t_count"]
    assert t2 - t1 == 3 * 2  # two rotations in the A + Q circuit at m = 1


@pytest.mark.parametrize("mode", ["nisq", "ft", "ft_tight"])
def test_resources_combines_autocallable_legs(tmp_path, monkeypatch, mode):
    # a two-leg Autocallable: the top-level totals are the sums over the
    # legs, n_qubits their maximum and largest the largest circuit of the
    # leg whose largest circuit is biggest; an FT leg's solution totals are
    # its totals, at the default target, the squared bound at its budget
    from qmci import resources
    from qmci.cli import main

    plans, targets = [], []
    build, optimize = resources.build_plan, resources.ft_optimize
    monkeypatch.setattr(resources, "build_plan",
                        lambda *a, **kw: plans.append(build(*a, **kw)) or plans[-1])
    monkeypatch.setattr(resources, "ft_optimize",
                        lambda plan, target, tight: targets.append(target)
                        or optimize(plan, target, tight))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mode": mode,
        "distribution": {"source": "gaussian", "n_qubits": 2, "mu": 0.0, "sigma": 1.0,
                         "x_l": -5.0, "delta": 10 / 3},
        "instrument": {"instrument": "Autocallable", "n_slices": 1, "total_volatility": 0.4,
                       "strike_ratio": 0.95, "barrier_ratio": 0.8,
                       "autocall_schedule": [[1, 1.0, 0.1]], "q_budget": 2000},
    }))
    assert main(["resources", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "resource_report.json").read_text())
    legs = doc["per_plan"]
    assert len(legs) == len(plans) == 2
    assert legs[0]["largest"] != legs[1]["largest"]
    assert doc["mode"] == legs[0]["mode"] == legs[1]["mode"] == mode
    assert doc["totals"] == {k: legs[0]["totals"][k] + legs[1]["totals"][k]
                             for k in legs[0]["totals"]}
    assert doc["n_qubits"] == max(leg["n_qubits"] for leg in legs)
    biggest = max(legs, key=lambda leg: sum(leg["largest"].values()))
    assert doc["largest"] == biggest["largest"]
    csv = (tmp_path / "o" / "resource_report.csv").read_text().splitlines()
    cols = csv[0].split(",")[2:]
    assert csv[1] == ",".join(["total", str(doc["n_qubits"])] + [str(doc["totals"][c]) for c in cols])
    assert "solution" not in doc
    if mode == "nisq":
        assert targets == [] and all("solution" not in leg for leg in legs)
        return
    assert targets == [p.error.bound(p.q_total) ** 2 for p in plans]
    for leg in legs:
        sol = leg["solution"]
        assert (sol["t_count_total"], sol["t_depth_total"]) == (
            leg["totals"]["t_count"], leg["totals"]["t_depth"])


def test_resource_box_empty_no_change():
    qc = QuantumCircuit(2).append("CNOT", (0, 1)).append("TK1", 0, 1, 2, 3)
    boxed = insert_resource_box(qc, ResourceBox())
    assert count_nisq(boxed) == count_nisq(qc)


def test_resource_box_adds_cnots():
    qc = QuantumCircuit(2).append("CNOT", (0, 1))
    boxed = insert_resource_box(qc, ResourceBox(n_qubits=2, gate_counts={"CNOT": 100}))
    assert count_nisq(boxed).cnot_count == 101


def test_resource_box_replaces_explicit_adder():
    from qmci.pbuilder import BinaryOpSpec, apply_binary_op
    from conftest import uniform_dc

    dc = uniform_dc([2, 2], [(0, 1.0), (0, 1.0)])
    out = apply_binary_op(dc, BinaryOpSpec("Sum", 0, 1))
    adder = QuantumCircuit(out.circuit.n_qubits)
    adder.gates = out.circuit.gates[len(dc.circuit.gates):]
    counts = count_nisq(rebase_tk1_cnot(adder))
    box = ResourceBox(
        n_qubits=adder.n_qubits,
        gate_counts={"CNOT": counts.cnot_count, "TK1": counts.tk1_count},
        total_depth=counts.total_depth,
        cnot_depth=counts.cnot_depth,
        tk1_depth=counts.tk1_depth,
    )
    base = rebase_tk1_cnot(dc.circuit.widened(out.circuit.n_qubits))
    boxed = insert_resource_box(base, box)
    full = count_nisq(rebase_tk1_cnot(out.circuit))
    got = count_nisq(boxed)
    assert got.cnot_count == full.cnot_count
    assert got.tk1_count == full.tk1_count
    assert got.total_gates == full.total_gates


def test_boxed_circuit_refuses_simulation():
    from qmci.simulator import simulate

    qc = insert_resource_box(QuantumCircuit(1), ResourceBox(gate_counts={"CNOT": 1}))
    with pytest.raises(ValueError):
        simulate(qc)


def test_plan_from_real_estimate_matches_allocation():
    delta = 1.0 / 31
    target = discretize_pdf(lambda x: gaussian_pdf(x, 0, 0.1), 5, -0.5, delta)
    dc = rescale(exact_pmf_loader(target), 0, -0.5, delta)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    plan = build_plan(dc, spec, 0, "MLQAE", q_total=2000)
    assert plan.q_total == 2000
    uses = sum(s * (2 * m + 1) for sched in plan.schedules for m, s in sched)
    assert uses == 2000
    assert plan.a_circuit.n_qubits == dc.circuit.n_qubits + 1


@pytest.mark.parametrize("kind", [
    "Mean", "SecondMoment", "Exponential", "ConditionalExpectation", "BernoulliQubit",
])
@pytest.mark.parametrize("qae_kind", ["PAM", "MLQAE", "LCU"])
@pytest.mark.parametrize("q_total, target_rmse", [(300, None), (None, 0.05), (600, 0.02)])
def test_plan_counts_the_estimate_it_mirrors(kind, qae_kind, q_total, target_rmse):
    delta = 1.0 / 7
    target = discretize_pdf(lambda x: gaussian_pdf(x, 0.05, 0.2), 3, -0.5, delta)
    dc = rescale(exact_pmf_loader(target), 0, -0.5, delta)
    qc = dc.circuit.widened(4)
    qc.append("CRy", (dc.dims[0].qubits[0], 3), 2.1)  # indicator correlated with x
    dc = DistributionCircuit(qc, dc.dims, indicators=[3])
    spec = quantity_series(kind, (dc.dims[0].x_l, dc.dims[0].x_u))
    plan = build_plan(dc, spec, 0, qae_kind, q_total=q_total, target_rmse=target_rmse,
                      condition=0)
    res = qmci_estimate(dc, spec, 0, qae_kind, q_total=q_total, target_rmse=target_rmse,
                        seed=3, condition=0)
    planned = [sum(s * (2 * m + 1) for m, s in sched) for sched in plan.schedules]
    assert planned == [q for (_, _, q, _) in res.per_harmonic]
    assert plan.q_total == res.uses_total


@pytest.mark.parametrize("qae_kind", ["PAM", "MLQAE", "LCU", "IQAE"])
def test_plan_records_are_the_records_that_ran(monkeypatch, qae_kind):
    gen = np.random.default_rng(13)
    mu, sigma = gen.uniform(-0.1, 0.1), gen.uniform(0.1, 0.2)
    seed = int(gen.integers(2**31 - 1))
    delta = 1.0 / 15
    target = discretize_pdf(lambda x: gaussian_pdf(x, mu, sigma), 4, -0.5, delta)
    dc = rescale(exact_pmf_loader(target), 0, -0.5, delta)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    plan = plan_terms(dc, spec, 0, qae_kind, q_total=3000)
    ran = []
    for kind in qae.QAE_LAMBDA:  # every estimator the engine can reach, by its traced name
        name = f"{kind.lower()}_from_amplitude"
        run = getattr(qae, name)
        monkeypatch.setattr(qae, name, lambda a, q, *args, _kind=kind, _run=run, **kw: (
            ran.append((_kind, q)) or _run(a, q, *args, **kw)))
    res = qmci_estimate(dc, spec, 0, qae_kind, q_total=3000, seed=seed)
    assert [r.q for r in plan.schedules] == [q for (_, _, q, _) in res.per_harmonic]
    # each harmonic runs its record's estimator, once, on its record's uses
    assert ran == [(r.kind, r.q) for r in plan.schedules]
    # the plans hold LCU harmonics below one m = 0 round and IQAE ones below 249 uses
    assert {(r.kind, r.fallback) for r in plan.schedules} == {
        "PAM": {("PAM", False)}, "MLQAE": {("MLQAE", False)},
        "LCU": {("LCU", False), ("MLQAE", True)}, "IQAE": {("IQAE", False), ("PAM", True)},
    }[qae_kind]
    if qae_kind != "IQAE":
        built = build_plan(dc, spec, 0, qae_kind, q_total=3000)
        assert built.schedules == [r.levels for r in plan.schedules]


def test_unknown_qae_kind_is_a_value_error():
    delta = 1.0 / 7
    target = discretize_pdf(lambda x: gaussian_pdf(x, 0, 0.3), 3, -0.5, delta)
    dc = rescale(exact_pmf_loader(target), 0, -0.5, delta)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    for entry in (qmci_estimate, build_plan):
        with pytest.raises(ValueError, match="unknown QAE kind"):
            entry(dc, spec, 0, "mlqae", q_total=1000)


def test_plan_rejects_iqae():
    delta = 1.0 / 7
    target = discretize_pdf(lambda x: gaussian_pdf(x, 0, 0.3), 3, -0.5, delta)
    dc = rescale(exact_pmf_loader(target), 0, -0.5, delta)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    with pytest.raises(ValueError):
        build_plan(dc, spec, 0, "IQAE", q_total=100)


def test_benchmark_shape_monotonicity():
    unit_target = discretize_pdf(gaussian_pdf, 3, -5, 10.0 / 7)
    unit = rescale(exact_pmf_loader(unit_target), 0, -5.0, 10.0 / 7)

    def report(n_slices, payoff):
        spec = InstrumentSpec(
            "Barrier", space="return", n_slices=n_slices, total_volatility=0.1,
            strike_ratio=1.05, barrier_ratio=1.1, payoff_kind=payoff,
        )
        dc, cfgs = build_instrument(unit, spec)
        cfg = cfgs[0]
        qs, dim = cfg.quantity_spec(dc)
        plan = build_plan(dc, qs, dim, "MLQAE", target_rmse=1e-2, condition=cfg.condition)
        return nisq_report(plan)

    r4v = report(4, "value")
    r4b = report(4, "binary")
    r8b = report(8, "binary")
    assert r8b.totals["total_gates"] > r4b.totals["total_gates"]
    assert r8b.n_qubits > r4b.n_qubits
    assert r4v.totals["total_gates"] > r4b.totals["total_gates"]


@pytest.mark.parametrize("mode", ["nisq", "ft", "ft_tight"])
def test_resources_request_counts_each_circuit_once(tmp_path, monkeypatch, mode):
    # a one-plan request: nisq counts A and Q once each as rebased and
    # nothing as lowered; ft and ft_tight count the content and the T depth
    # of A and Q lowered once each and nothing as rebased; neither compiled
    # circuit is built
    from qmci import rebase, resources
    from qmci.cli import main

    def built(c):
        raise AssertionError("a resources request built a compiled circuit")

    for name in ("rebase_tk1_cnot", "lower_to_rotations_clifford_t"):
        monkeypatch.setattr(rebase, name, built)
    calls = {"rebased_counts": [], "lowered_counts": [], "lowered_t_depth": []}
    for name, seen in calls.items():
        fn = getattr(resources, name)
        monkeypatch.setattr(resources, name,
                            lambda c, *a, fn=fn, seen=seen: seen.append(c.key()) or fn(c, *a))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mode": mode,
        "distribution": {"source": "gaussian", "n_qubits": 3, "mu": 0.0,
                          "sigma": 0.1, "x_l": -0.5, "delta": 1 / 7},
        "quantity": {"quantity": "Mean", "q_total": 2000},
    }))
    assert main(["resources", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    rebased, *lowered = calls.values()
    counted, idle = ([rebased], lowered) if mode == "nisq" else (lowered, [rebased])
    for seen in counted:
        assert len(seen) == len(set(seen)) == 2
    assert all(seen == [] for seen in idle)


def test_box_t_count_and_t_depth_follow_one_rule():
    # an unset T count is the box's T and Tdg gates; an unset T depth is
    # that T count plus the T gates of its rotations, run sequentially
    from qmci.rebase import count_ft_content, t_depth

    def ft(box, t_rot=4):
        qc = insert_resource_box(QuantumCircuit(1), box)
        return count_ft_content(qc).t_count_exact, t_depth(qc, t_rot)

    assert ft(ResourceBox(gate_counts={"T": 5})) == (5, 5)
    assert ft(ResourceBox(gate_counts={"T": 2, "Tdg": 3, "Rz": 1})) == (5, 5 + 4)
    assert ft(ResourceBox(gate_counts={"T": 5}, t_count=0)) == (0, 0)
    assert ft(ResourceBox(gate_counts={"T": 5}, t_count=3, t_depth=2)) == (3, 2)


def test_boxed_circuit_counts_survive_json_round_trip():
    from qmci.rebase import count_ft_content, t_depth

    rebased = QuantumCircuit(2).append("CNOT", (0, 1))
    rebased = insert_resource_box(rebased, ResourceBox(
        n_qubits=2, gate_counts={"CNOT": 10, "TK1": 4}, total_depth=3, cnot_depth=2,
        tk1_depth=1))
    lowered = QuantumCircuit(2).append("T", 0).append("Rz", 1, 0.3)
    lowered = insert_resource_box(lowered, ResourceBox(
        n_qubits=2, gate_counts={"T": 6, "Rz": 2, "H": 1}, t_count=4, t_depth=3))
    for qc in (rebased, lowered):
        back = QuantumCircuit.from_json(qc.to_json())
        assert back.to_json() == qc.to_json()
        assert back.boxes == qc.boxes
    back = QuantumCircuit.from_json(rebased.to_json())
    assert count_nisq(back) == count_nisq(rebased)
    assert (count_nisq(back).total_depth, count_nisq(back).cnot_depth) == (4, 3)
    back = QuantumCircuit.from_json(lowered.to_json())
    assert count_ft_content(back) == count_ft_content(lowered)
    assert count_ft_content(back).t_count_exact == 1 + 4
    assert t_depth(back, 10) == t_depth(lowered, 10) == max(1, 10) + 3



@pytest.mark.parametrize("tight", [False, True])
def test_ft_optimize_evaluation_budget(monkeypatch, tight):
    from qmci.fourier import ErrorModel

    calls = []
    mse = ErrorModel.mse
    monkeypatch.setattr(ErrorModel, "mse", lambda self, q: calls.append(q) or mse(self, q))
    for target in (1e-6, 1e-4, 1e-2):
        calls.clear()
        ft_optimize(tiny_plan(), target, tight)
        assert 0 < len(calls) <= 100, (target, len(calls))


def test_ft_optimize_leaves_no_slack():
    # the reported q is the smallest that meets the target at the reported eps,
    # and the reported eps the largest that meets it at the reported q
    rng = np.random.default_rng(11)
    cases = [(int(rng.integers(1, 5)), int(rng.integers(2, 8)), float(rng.uniform(1.0, 3.0)),
              float(rng.uniform(5.0, 15.0)), float(rng.uniform(0.5, 2.0)),
              float(10.0 ** rng.uniform(-6, -3))) for _ in range(50)]
    # here eps*(q) as rounded misses the target at q = 36 (tight), so eps steps down
    cases.append((0, 3, 1.1028290677524397, 12.142393899640538, 0.25660451214569113,
                  0.015436983507139885))
    for n_toffoli, n_rot, c_f, c_qae, quantity_range, mse in cases:
        plan = tiny_plan(n_toffoli=n_toffoli, n_rot=n_rot)
        plan.c_f, plan.c_qae, plan.quantity_range = c_f, c_qae, quantity_range
        for tight in (False, True):
            sol = ft_optimize(plan, mse, tight)
            assert sol.epsilon < 0.5
            assert ft_constraint(plan, sol.q, sol.epsilon, mse, tight) <= mse
            assert ft_constraint(plan, sol.q - 1, sol.epsilon, mse, tight) > mse
            assert ft_constraint(plan, sol.q, math.nextafter(sol.epsilon, 1.0), mse, tight) > mse


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("n_rot", [1, 0])
def test_ft_optimize_extreme_targets(n_rot, tight):
    # a target is met or refused with the one documented error, never an
    # overflow or a floating-point warning; a plan with no rotation has
    # nothing to synthesise, so every target is met
    import warnings

    plan = QmciPlan(QuantumCircuit(2), QuantumCircuit(2), [[(0, 1)]], 1,
                    1.68, 8.02, 1.0)
    for _ in range(n_rot):
        plan.grover.append("Ry", 0, 0.3)
    plan.grover.append("T", 1)
    for target in (1e-300, 1e-40, 1e-12, 1e-6, 1e-2, 10.0, 1e6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if n_rot and target < 1e-12:
                with pytest.raises(ValueError, match=r"^MSE target infeasible for any \(q, epsilon\)$"):
                    ft_optimize(plan, target, tight)
                continue
            try:
                sol = ft_optimize(plan, target, tight)
            except ValueError as e:
                assert n_rot and str(e) == "MSE target infeasible for any (q, epsilon)"
                continue
            assert 1e-18 <= sol.epsilon <= 0.5
            assert ft_constraint(plan, sol.q, sol.epsilon, target, tight) <= target


# totals and largest circuit of each report for a 2-slice Barrier on the
# published six-qubit loader: any drift in the expansion order, ancilla
# placement or chain depths of the compile layer changes them
_BARRIER_REPORTS = {
    ("MLQAE", "nisq"): (
        {"cnot_count": 5004316, "cnot_depth": 3799868, "tk1_count": 6478706,
         "tk1_depth": 3251768, "total_depth": 6796750, "total_gates": 11483022},
        {"cnot_count": 22794, "cnot_depth": 17418, "tk1_count": 30159,
         "tk1_depth": 15122, "total_depth": 31467, "total_gates": 52953}),
    ("MLQAE", "ft"): (
        {"t_count": 219046162, "t_depth": 119242058},
        {"t_count": 927471, "t_depth": 504943}),
    ("MLQAE", "ft_tight"): (
        {"t_count": 163563922, "t_depth": 89001738},
        {"t_count": 693039, "t_depth": 377167}),
    ("LCU", "nisq"): (
        {"cnot_count": 4875232, "cnot_depth": 3701576, "tk1_count": 6309962,
         "tk1_depth": 3167111, "total_depth": 6620155, "total_gates": 11185194},
        {"cnot_count": 21400, "cnot_depth": 16352, "tk1_count": 28310,
         "tk1_depth": 14195, "total_depth": 29539, "total_gates": 49710}),
    ("LCU", "ft"): (
        {"t_count": 213572194, "t_depth": 116262056},
        {"t_count": 871246, "t_depth": 474332}),
    ("LCU", "ft_tight"): (
        {"t_count": 159475234, "t_depth": 86776776},
        {"t_count": 651022, "t_depth": 354300}),
}


def _barrier_report(tmp_path, qae_kind: str, mode: str) -> dict:
    """The CLI resource report of a 2-slice Barrier on the six-qubit loader."""
    from qmci.cli import main

    cfg = tmp_path / "c.json"
    cfg.parent.mkdir(exist_ok=True)
    cfg.write_text(json.dumps({
        "mode": mode,
        "distribution": {"source": "standard", "kind": "gaussian_unit_6q"},
        "instrument": {"instrument": "Barrier", "space": "return", "n_slices": 2,
                       "total_volatility": 0.2, "strike_ratio": 0.95,
                       "barrier_ratio": 1.2, "target_rmse": 0.01},
        "qae": {"qae": qae_kind},
    }))
    assert main(["resources", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    return json.loads((tmp_path / "o" / "resource_report.json").read_text())


@pytest.mark.parametrize("qae_kind, mode", sorted(_BARRIER_REPORTS))
def test_barrier_resource_reports_are_pinned(tmp_path, qae_kind, mode):
    doc = _barrier_report(tmp_path, qae_kind, mode)
    assert (doc["totals"], doc["largest"]) == _BARRIER_REPORTS[qae_kind, mode]
    assert doc["n_qubits"] == 71


# The error model's outputs, captured before it moved into one owner
# (fourier.ErrorModel): per (quantity, estimator), rmse_bound at q_total
# 2,000, then rmse_bound and uses_total from target_rmse 0.02.  Every
# budget and every Fourier bound is charged lambda = 2, PAM's included;
# a BernoulliQubit bound uses its estimator's lambda, so PAM's is
# 0.5 / sqrt(q) (0.1 at the 25 uses that 0.5 / 0.02 asks for).
_ERROR_MODEL = {
    ("Mean", "PAM"): (0.0005162645177433316, 0.019856327605512755, 52),
    ("Mean", "MLQAE"): (0.008280882864603038, 0.019978004498439176, 829),
    ("Mean", "IQAE"): (0.014868418111007949, 0.019997872375262876, 1487),
    ("Mean", "LCU"): (0.008074377057505707, 0.019986081825509174, 808),
    ("ConditionalExpectation", "PAM"): (0.0005162645177433316, 0.019856327605512755, 52),
    ("ConditionalExpectation", "MLQAE"): (0.008280882864603038, 0.019978004498439176, 829),
    ("ConditionalExpectation", "IQAE"): (0.014868418111007949, 0.019997872375262876, 1487),
    ("ConditionalExpectation", "LCU"): (0.008074377057505707, 0.019986081825509174, 808),
    ("SecondMoment", "PAM"): (0.0002343226023277619, 0.019526883527313493, 24),
    ("SecondMoment", "MLQAE"): (0.003758534541337301, 0.019992205007113302, 376),
    ("SecondMoment", "IQAE"): (0.006748490947039543, 0.019995528731969015, 675),
    ("SecondMoment", "LCU"): (0.0036648055004061962, 0.01997169210030625, 367),
    ("Exponential", "PAM"): (0.0008305881618152121, 0.019775908614647907, 84),
    ("Exponential", "MLQAE"): (0.013322634115516003, 0.019988948410376597, 1333),
    ("Exponential", "IQAE"): (0.02392093906027811, 0.01999242712935906, 2393),
    ("Exponential", "LCU"): (0.01299039885078992, 0.01998522900121526, 1300),
    ("ConditionalExponential", "PAM"): (0.0008305881618152121, 0.019775908614647907, 84),
    ("ConditionalExponential", "MLQAE"): (0.013322634115516003, 0.019988948410376597, 1333),
    ("ConditionalExponential", "IQAE"): (0.02392093906027811, 0.01999242712935906, 2393),
    ("ConditionalExponential", "LCU"): (0.01299039885078992, 0.01998522900121526, 1300),
    ("BernoulliQubit", "PAM"): (0.011180339887498949, 0.1, 25),
    ("BernoulliQubit", "MLQAE"): (0.00401, 0.02, 401),
    ("BernoulliQubit", "IQAE"): (0.0072, 0.02, 720),
    ("BernoulliQubit", "LCU"): (0.00391, 0.02, 391),
}


def test_error_model_is_pinned(tmp_path):
    # a 3-qubit Gaussian register on [-0.5, 0.5] and an indicator copying its top bit;
    # the bounds and budgets draw no random numbers, so no generator is needed
    pmf = discretize_pdf(lambda x: gaussian_pdf(x, 0.05, 0.2), 3, -0.5, 1 / 7)
    dc = rescale(exact_pmf_loader(pmf), 0, -0.5, 1 / 7)
    qc = dc.circuit.widened(4)
    qc.append("CNOT", (dc.dims[0].qubits[0], 3))
    dc = DistributionCircuit(qc, dc.dims, indicators=[3])
    for (kind, est), (at_q, at_target, uses) in _ERROR_MODEL.items():
        spec = quantity_series(kind, (0.0, 1.0) if kind == "BernoulliQubit" else (-0.5, 0.5))
        fixed = qmci_estimate(dc, spec, 0, est, q_total=2000, seed=1, condition=0)
        target = qmci_estimate(dc, spec, 0, est, target_rmse=0.02, seed=1, condition=0)
        assert (fixed.rmse_bound, fixed.uses_total) == (at_q, 2000), (kind, est)
        assert (target.rmse_bound, target.uses_total) == (at_target, uses), (kind, est)
    # 50 uses are too few for IQAE, which runs PAM: IQAE's constant at PAM's rate
    spec = quantity_series("BernoulliQubit", (0.0, 1.0))
    res = qmci_estimate(dc, spec, 0, "IQAE", q_total=50, seed=1, condition=0)
    assert res.rmse_bound == 2.0364675298172568  # 14.4 / sqrt(50)
    # the FT optimum of the Barrier's one plan at the default target_mse
    for mode, want in (("ft", (8065, 4.014828119371212e-13)),
                       ("ft_tight", (8155, 7.109363984209985e-10))):
        (plan,) = _barrier_report(tmp_path / mode, "MLQAE", mode)["per_plan"]
        assert (plan["solution"]["q"], plan["solution"]["epsilon"]) == want
