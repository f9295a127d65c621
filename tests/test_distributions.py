import math
from math import comb

import numpy as np
import pytest

from qmci.circuit import QuantumCircuit
from qmci.distributions import (
    DistributionCircuit,
    _l2_sweep,
    _norm_cost,
    _rotated_costs,
    _rotation_pair,
    _RyCnot,
    _scan_sweep,
    discretize_pdf,
    divergence_metrics,
    exact_pmf_loader,
    gaussian_pdf,
    hwe_circuit,
    lognormal_pdf,
    rescale,
    standard_circuit,
    train_hwe,
    walk_binomial_pmf,
)
from qmci.rebase import count_nisq, rebase_tk1_cnot
from qmci.gates import gate
from qmci.simulator import apply_gate, simulate, zero_state


def test_standard_gaussian_metadata_and_first_layer():
    dc = standard_circuit("gaussian_unit_6q")
    assert dc.dims[0].x_l == -5.0
    assert dc.dims[0].delta == pytest.approx(10.0 / 63.0)
    first_layer = [g.params[0] for g in dc.circuit.gates[:6]]
    assert first_layer == [0.31, 1.26, 4.37, 0.00, 1.66, 4.80]


def test_standard_lognormal_metadata():
    assert standard_circuit("lognormal_1_800_6q").dims[0].x_l == 0.83
    assert standard_circuit("lognormal_1_800_6q").dims[0].delta == 0.01
    assert standard_circuit("lognormal_1_400_6q").dims[0].x_l == 0.77


def test_standard_unknown_kind():
    with pytest.raises(ValueError):
        standard_circuit("nope")


def test_standard_circuit_shape():
    dc = standard_circuit("gaussian_unit_6q")
    ry = sum(1 for g in dc.circuit.gates if g.kind == "Ry")
    cx = sum(1 for g in dc.circuit.gates if g.kind == "CNOT")
    assert (ry, cx) == (42, 30)  # 7 layers of 6 plus 6 ladders of 5


def test_gaussian_rebased_counts_match_published_table():
    rb = rebase_tk1_cnot(standard_circuit("gaussian_unit_6q").circuit)
    c = count_nisq(rb)
    assert (c.total_gates, c.cnot_count, c.tk1_count) == (72, 30, 42)
    assert c.total_depth >= 22 and c.cnot_depth >= 15


def test_rescale_benchmark_slices():
    dc = standard_circuit("gaussian_unit_6q")
    out = rescale(dc, 0, -5.0 / 20.0, (10.0 / 63.0) / 20.0)
    assert out.dims[0].x_l == -0.25
    assert out.dims[0].delta == pytest.approx(10.0 / 63.0 / 20.0)
    assert out.circuit.gates == dc.circuit.gates


def test_rescale_identity_and_inverse():
    dc = standard_circuit("gaussian_unit_6q")
    same = rescale(dc, 0, dc.dims[0].x_l, dc.dims[0].delta)
    assert same.dims[0] == dc.dims[0]
    back = rescale(rescale(dc, 0, 1.0, 2.0), 0, dc.dims[0].x_l, dc.dims[0].delta)
    assert back.dims[0] == dc.dims[0]


def test_rescale_never_changes_statevector():
    dc = standard_circuit("gaussian_unit_6q")
    out = rescale(dc, 0, 3.0, 0.5)
    assert np.array_equal(simulate(dc.circuit), simulate(out.circuit))


def test_rescale_validation():
    dc = standard_circuit("gaussian_unit_6q")
    with pytest.raises(ValueError):
        rescale(dc, 5, 0, 1)
    with pytest.raises(ValueError):
        rescale(dc, 0, 0, -1)


def test_exact_loader_point_mass_is_identity_action():
    pmf = np.zeros(8)
    pmf[0] = 1.0
    dc = exact_pmf_loader(pmf)
    assert len(dc.circuit.gates) == 0
    assert np.allclose(dc.dim_pmf(0), pmf)


def test_exact_loader_uniform():
    n = 4
    pmf = np.full(2**n, 2.0**-n)
    dc = exact_pmf_loader(pmf)
    assert all(g.kind == "Ry" for g in dc.circuit.gates)
    assert len(dc.circuit.gates) == n
    assert np.abs(dc.dim_pmf(0) - pmf).max() < 1e-12


def test_exact_loader_random(rng):
    for n in (2, 3, 4):
        pmf = rng.random(2**n)
        pmf /= pmf.sum()
        dc = exact_pmf_loader(pmf)
        assert np.abs(dc.dim_pmf(0) - pmf).max() < 1e-10
        assert len(dc.ancillas) == 0


def test_exact_loader_validation():
    with pytest.raises(ValueError):
        exact_pmf_loader([0.5, 0.6])
    with pytest.raises(ValueError):
        exact_pmf_loader([1.2, -0.2])
    with pytest.raises(ValueError):
        exact_pmf_loader([0.5, 0.25, 0.25])  # not a power of two


def test_train_point_mass_zero_layers():
    pmf = np.zeros(4)
    pmf[0] = 1.0
    dc, cost = train_hwe(pmf, 0, "L2", seed=1)
    assert cost < 1e-8


def test_train_gaussian_l2():
    target = discretize_pdf(gaussian_pdf, 5, -5, 10.0 / 31.0)
    dc, cost = train_hwe(target, 9, "L2", seed=3)
    assert cost < 1e-2


def test_train_deterministic_under_seed():
    target = discretize_pdf(gaussian_pdf, 3, -4, 1.0)
    dc1, c1 = train_hwe(target, 2, "L2", seed=11)
    dc2, c2 = train_hwe(target, 2, "L2", seed=11)
    assert c1 == c2
    assert dc1.circuit.gates == dc2.circuit.gates


@pytest.mark.parametrize("norm", ["L1", "Linf"])
def test_train_other_norms_run(norm):
    target = discretize_pdf(gaussian_pdf, 3, -4, 1.0)
    _, cost = train_hwe(target, 2, norm, seed=5, max_sweeps=12)
    assert cost < 0.12


def test_train_invalid_norm():
    with pytest.raises(ValueError):
        train_hwe([0.5, 0.5], 1, "L3", seed=0)


def _reference_l2_sweep(target, angles):
    """One sweep of the exact angle updates, re-simulating the whole
    circuit for each of the two overlaps every angle needs."""
    angles = angles.copy()

    def overlap(a):
        return float(target @ simulate(hwe_circuit(a)).real)

    for layer in range(angles.shape[0]):
        for q in range(angles.shape[1]):
            saved = angles[layer, q]
            angles[layer, q] = 0.0
            f0 = overlap(angles)
            angles[layer, q] = np.pi
            f1 = overlap(angles)
            angles[layer, q] = 2.0 * np.arctan2(f1, f0) if (f0, f1) != (0.0, 0.0) else saved
    return angles


def _target_amplitudes(n, sigma):
    pmf = discretize_pdf(lambda x: gaussian_pdf(x, 0.2, sigma), n, -4.0, 8.0 / (2**n - 1))
    return pmf, np.sqrt(pmf) / np.linalg.norm(np.sqrt(pmf))


@pytest.mark.parametrize("n, n_layers", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_train_l2_sweep_matches_resimulation(n, n_layers):
    pmf, target = _target_amplitudes(n, 1.3)
    seed = 17
    start = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(n_layers + 1, n))
    dc, _ = train_hwe(pmf, n_layers, "L2", seed=seed, max_sweeps=1, n_restarts=1)
    got = [g.params[0] for g in dc.circuit.gates if g.kind == "Ry"]
    ref = _reference_l2_sweep(target, start)
    assert np.abs(np.array(got) - ref.reshape(-1)).max() < 1e-12


@pytest.mark.parametrize("n, n_layers", [(3, 1), (4, 2)])
def test_rotation_pair_matches_simulation_over_scan(n, n_layers):
    _, target = _target_amplitudes(n, 0.9)
    scan = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    angles = np.random.default_rng(n_layers).uniform(0.0, 2.0 * np.pi, size=(n_layers + 1, n))
    kern = _RyCnot(n, ladder=True)
    gates = hwe_circuit(angles).gates
    ry = [i for i, g in enumerate(gates) if g.kind == "Ry"]
    for k, i in enumerate(ry):
        q = gates[i].qubits[0]
        psi = simulate(QuantumCircuit(n).extend(gates[:i]))
        u, v = _rotation_pair(kern, angles, k // n, q, psi.real)
        trial = angles.copy()
        for theta in scan:
            trial[k // n, q] = theta
            exact = simulate(hwe_circuit(trial)).real
            assert np.abs(np.cos(theta / 2) * u + np.sin(theta / 2) * v - exact).max() < 1e-12
            for norm in ("L1", "Linf"):
                cost = _rotated_costs(target, u, v, [theta], norm)[0]
                assert abs(cost - _norm_cost(target, exact, norm)) < 1e-12


def _apply_gate_l2_sweep(target, angles, n):
    """One L2 sweep as the trainer ran it on ``apply_gate`` and complex
    states: the bit-exact reference for the Ry/CNOT kernel."""
    gates = hwe_circuit(angles).gates
    env = []
    e = target.astype(complex)
    for g in reversed(gates):
        if g.kind == "Ry":
            env.append(e.real.copy())
        for h in g.inverse_gates():
            apply_gate(e, h, n)
    env.reverse()
    psi = zero_state(n)
    k = 0
    for g in gates:
        if g.kind == "Ry":
            q = g.qubits[0]
            flipped = psi.copy()
            apply_gate(flipped, gate("Ry", q, np.pi), n)
            f0 = float(env[k] @ psi.real)
            f1 = float(env[k] @ flipped.real)
            if (f0, f1) != (0.0, 0.0):
                angles.flat[k] = 2.0 * np.arctan2(f1, f0)
            g = gate("Ry", q, angles.flat[k])
            k += 1
        apply_gate(psi, g, n)
    return psi.real


def _apply_gate_pair(psi, q, suffix, n):
    """``_rotation_pair`` as the trainer ran it on ``apply_gate``."""
    u, v = psi.copy(), psi.copy()
    apply_gate(v, gate("Ry", q, np.pi), n)
    for h in suffix:
        apply_gate(u, h, n)
        apply_gate(v, h, n)
    return u.real, v.real


def _apply_gate_scan_sweep(target, angles, n, norm):
    """One L1 or Linf scan sweep as the trainer ran it on ``apply_gate``."""
    scan = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    gates = hwe_circuit(angles).gates
    psi = zero_state(n)
    improved = False
    k = 0
    for i, g in enumerate(gates):
        if g.kind == "Ry":
            q = g.qubits[0]
            u, v = _apply_gate_pair(psi, q, gates[i + 1:], n)
            saved = angles.flat[k]
            best, best_c = saved, float(_rotated_costs(target, u, v, [saved], norm)[0])
            for cand, c in zip(scan, _rotated_costs(target, u, v, scan, norm).tolist()):
                if c < best_c - 1e-15:
                    best, best_c = cand, c
            lo, hi = best - 2 * np.pi / 24, best + 2 * np.pi / 24
            for _ in range(25):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                c1, c2 = _rotated_costs(target, u, v, [m1, m2], norm).tolist()
                if c1 < c2:
                    hi = m2
                    if c1 < best_c:
                        best, best_c = m1, c1
                else:
                    lo = m1
                    if c2 < best_c:
                        best, best_c = m2, c2
            angles.flat[k] = best
            improved |= best != saved
            g = gate("Ry", q, best)
            k += 1
        apply_gate(psi, g, n)
    return psi.real, improved


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_sweeps_match_apply_gate_bit_for_bit(n, n_layers):
    """The kernel's sweeps give the apply_gate reference's angles and
    amplitudes byte for byte."""
    rng = np.random.default_rng([n, n_layers])
    kern = _RyCnot(n, ladder=n_layers > 0)
    for trial in range(4):
        target = rng.random(2**n)
        if trial == 3:
            target[rng.random(2**n) < 0.5] = 0.0  # a pmf with holes
            target[0] = 1.0
        target /= np.linalg.norm(target)
        start = rng.uniform(0.0, 2.0 * np.pi, size=(n_layers + 1, n))
        got, want = start.copy(), start.copy()
        prepared = _l2_sweep(target, got, kern)
        ref = _apply_gate_l2_sweep(target, want, n)
        assert got.tobytes() == want.tobytes()
        assert prepared.tobytes() == np.ascontiguousarray(ref).tobytes()
        gates = hwe_circuit(start).gates
        for k, i in enumerate(i for i, g in enumerate(gates) if g.kind == "Ry"):
            psi = simulate(QuantumCircuit(n).extend(gates[:i]))
            u, v = _rotation_pair(kern, start, k // n, k % n, psi.real.copy())
            u_ref, v_ref = _apply_gate_pair(psi, k % n, gates[i + 1:], n)
            # + 0.0 turns -0.0 into 0.0: the complex reference may give an
            # exact zero the other sign, which no cost can see
            assert (u + 0.0).tobytes() == (u_ref + 0.0).tobytes()
            assert (v + 0.0).tobytes() == (v_ref + 0.0).tobytes()
        for norm in ("L1", "Linf"):
            got, want = start.copy(), start.copy()
            prepared, improved = _scan_sweep(target, got, norm, kern)
            ref, ref_improved = _apply_gate_scan_sweep(target, want, n, norm)
            assert got.tobytes() == want.tobytes()
            assert prepared.tobytes() == np.ascontiguousarray(ref).tobytes()
            assert improved == ref_improved


@pytest.mark.parametrize("n", [3, 4])
def test_train_l2_history_ends_at_returned_cost(n):
    pmf, _ = _target_amplitudes(n, 2.0)
    history = []
    _, cost = train_hwe(pmf, 1, "L2", seed=2, history=history)
    assert abs(history[-1] - cost) < 1e-12


def test_walk_binomial_k2():
    # single-step walk: raw closed form binom(1,k) p^k (1-p)^(1-k)
    for p in (0.0, 0.3, 0.8, 1.0):
        assert np.allclose(walk_binomial_pmf(1, p), [1 - p, p], atol=1e-14)


def test_walk_binomial_symmetric():
    assert np.allclose(walk_binomial_pmf(3, 0.5), [0.125, 0.375, 0.375, 0.125], atol=1e-13)


def test_walk_binomial_matches_closed_form():
    for n in range(1, 41):
        for p10 in range(11):
            p = p10 / 10.0
            ref = np.array([comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])
            got = walk_binomial_pmf(n, p)
            assert abs(got.sum() - 1.0) < 1e-12
            assert np.abs(got - ref).max() < 1e-12


def test_walk_binomial_validation():
    with pytest.raises(ValueError):
        walk_binomial_pmf(3, 1.2)
    with pytest.raises(ValueError):
        walk_binomial_pmf(0, 0.5)


def test_divergence_identical_distributions():
    p = np.array([0.25, 0.5, 0.25])
    rep = divergence_metrics(p, p)
    assert rep.kl_pq == rep.kl_qp == rep.js == rep.tv == 0.0
    assert rep.infidelity == pytest.approx(0.0, abs=1e-15)
    assert rep.l1 == rep.l2 == rep.linf == 0.0


def test_divergence_disjoint_support():
    rep = divergence_metrics([1.0, 0.0], [0.0, 1.0])
    assert rep.tv == 1.0
    assert rep.infidelity == pytest.approx(1.0)
    assert math.isinf(rep.kl_pq) and math.isinf(rep.kl_qp)
    assert math.isfinite(rep.js)


def test_divergence_symmetries(rng):
    p = rng.random(8)
    p /= p.sum()
    q = rng.random(8)
    q /= q.sum()
    a = divergence_metrics(p, q)
    b = divergence_metrics(q, p)
    assert a.js == pytest.approx(b.js)
    assert a.tv == pytest.approx(b.tv)
    assert a.infidelity == pytest.approx(b.infidelity)
    assert (a.l1, a.l2, a.linf) == pytest.approx((b.l1, b.l2, b.linf))
    assert a.kl_pq == pytest.approx(b.kl_qp)


def test_divergence_validation():
    with pytest.raises(ValueError):
        divergence_metrics([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        divergence_metrics([0.7, 0.7], [0.5, 0.5])


def test_gaussian_circuit_close_to_discretised_target():
    dc = standard_circuit("gaussian_unit_6q")
    target = discretize_pdf(gaussian_pdf, 6, -5.0, 10.0 / 63.0)
    rep = divergence_metrics(dc.dim_pmf(0), target)
    assert rep.js <= 1e-3  # printed angles are rounded to 2 decimals
    assert rep.tv <= 0.02


def test_lognormal_pdf_zero_below_support():
    assert lognormal_pdf(np.array([-1.0, 0.0]), 0, 1).tolist() == [0.0, 0.0]


def test_distribution_circuit_json_round_trip():
    dc = standard_circuit("gaussian_unit_6q")
    back = DistributionCircuit.from_json(dc.to_json())
    assert back.dims == dc.dims
    assert back.circuit.gates == dc.circuit.gates


def test_exact_pmf_loader_rejects_nan():
    with pytest.raises(ValueError):
        exact_pmf_loader(np.array([np.nan, 0.5, 0.25, 0.25]))
