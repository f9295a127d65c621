import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmci.circuit import QuantumCircuit
from qmci.simulator import marginal_pmf, simulate, zero_state


def test_hadamard_on_zero():
    state = simulate(QuantumCircuit(1).append("H", 0))
    assert np.allclose(state, [1 / math.sqrt(2)] * 2)


def test_benchmark_circuit_amplitude():
    # Ry(2 theta) then CNOT: P(last qubit = 1) = sin^2(theta)
    theta = math.pi / 6
    qc = QuantumCircuit(2).append("Ry", 0, 2 * theta).append("CNOT", (0, 1))
    p1 = marginal_pmf(simulate(qc), [1])[1]
    assert abs(p1 - 0.25) < 1e-14


def test_rotation_inverse_returns_zero_state():
    qc = QuantumCircuit(1).append("Ry", 0, 2 * 0.7).append("Ry", 0, -2 * 0.7)
    assert np.allclose(simulate(qc), zero_state(1))


def test_dimension_mismatch_raises():
    qc = QuantumCircuit(2).append("H", 0)
    with pytest.raises(ValueError):
        simulate(qc, np.array([1.0, 0.0]))


def test_composition_is_exact():
    rng = np.random.default_rng(5)
    a = QuantumCircuit(3)
    b = QuantumCircuit(3)
    for qc in (a, b):
        for _ in range(10):
            qc.append("Ry", int(rng.integers(3)), rng.uniform(0, 2 * math.pi))
            i, j = rng.choice(3, 2, replace=False)
            qc.append("CNOT", (int(i), int(j)))
    ab = a.copy().extend(b.gates)
    assert np.array_equal(simulate(ab), simulate(b, initial=simulate(a)))


def test_norm_preserved_through_long_circuit():
    rng = np.random.default_rng(6)
    qc = QuantumCircuit(4)
    for _ in range(300):
        qc.append("Ry", int(rng.integers(4)), rng.uniform(0, 7))
    state = simulate(qc)
    assert abs(np.vdot(state, state).real - 1.0) < 1e-12


def test_wide_state_passes_norm_check():
    # 2^21 amplitudes: the norm's rounding error outgrows a fixed 1e-12
    n = 21
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.append("Ry", q, 0.3)
    state = simulate(qc)
    # the marginal sums over 2^19 strided entries per outcome
    assert abs(float(marginal_pmf(state, [0, n - 1]).sum()) - 1.0) < 1e-10


def test_unnormalised_initial_state_raises():
    qc = QuantumCircuit(2).append("H", 0).append("CNOT", (0, 1))
    with pytest.raises(ValueError):
        simulate(qc, initial=2.0 * zero_state(2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_gates_match_whole_block_updates(monkeypatch, seed):
    import qmci.simulator as sim

    rng = np.random.default_rng(seed)
    n = 7
    qc = QuantumCircuit(n)
    for _ in range(60):
        q = [int(x) for x in rng.permutation(n)]
        kind = ["Ry", "Rz", "H", "X", "CNOT", "CRy", "Toffoli"][int(rng.integers(7))]
        if kind in ("Ry", "Rz"):
            qc.append(kind, q[0], float(rng.uniform(0, 7)))
        elif kind in ("H", "X"):
            qc.append(kind, q[0])
        elif kind == "CRy":
            qc.append(kind, (q[0], q[1]), float(rng.uniform(0, 7)))
        else:
            qc.append(kind, tuple(q[:2] if kind == "CNOT" else q[:3]))
    monkeypatch.setattr(sim, "_CHUNK", 2**n)
    whole = simulate(qc)
    monkeypatch.setattr(sim, "_CHUNK", 4)
    assert np.array_equal(simulate(qc), whole)


def test_marginal_bell_state():
    qc = QuantumCircuit(2).append("H", 0).append("CNOT", (0, 1))
    state = simulate(qc)
    assert np.allclose(marginal_pmf(state, [0]), [0.5, 0.5])
    assert np.allclose(marginal_pmf(state, [1]), [0.5, 0.5])


def test_marginal_product_state():
    qc = QuantumCircuit(3)
    qc.append("Ry", 0, 0.9).append("Ry", 1, 1.7).append("Ry", 2, 2.3)
    state = simulate(qc)
    got = marginal_pmf(state, [0, 1])
    single0 = marginal_pmf(state, [0])
    single1 = marginal_pmf(state, [1])
    assert np.allclose(got, np.kron(single0, single1), atol=1e-14)


def test_marginal_two_dim_joint_matches_brute_force():
    # two independent Ry-loaded dimensions: each marginal equals the
    # corresponding single-qubit pmf computed from the 4-entry joint
    qc = QuantumCircuit(2).append("Ry", 0, 0.8).append("Ry", 1, 2.1)
    state = simulate(qc)
    joint = np.abs(state) ** 2
    joint = joint.reshape(2, 2)
    assert np.allclose(marginal_pmf(state, [0]), joint.sum(axis=1), atol=1e-14)
    assert np.allclose(marginal_pmf(state, [1]), joint.sum(axis=0), atol=1e-14)


def test_marginal_msb_order():
    # |q0 q1> = |10> must decode to pattern 2 on qubits [0, 1]
    qc = QuantumCircuit(2).append("X", 0)
    pm = marginal_pmf(simulate(qc), [0, 1])
    assert pm[2] == pytest.approx(1.0)
    pm_rev = marginal_pmf(simulate(qc), [1, 0])
    assert pm_rev[1] == pytest.approx(1.0)


def test_marginal_validation():
    state = zero_state(2)
    with pytest.raises(ValueError):
        marginal_pmf(state, [0, 0])
    with pytest.raises(ValueError):
        marginal_pmf(state, [5])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_random_circuits_keep_unit_norm(seed):
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(3)
    for _ in range(15):
        r = rng.integers(0, 3)
        if r == 0:
            qc.append("H", int(rng.integers(3)))
        elif r == 1:
            qc.append("Rz", int(rng.integers(3)), rng.uniform(0, 7))
        else:
            i, j = rng.choice(3, 2, replace=False)
            qc.append("CRy", (int(i), int(j)), rng.uniform(0, 7))
    state = simulate(qc)
    assert abs(np.vdot(state, state).real - 1.0) < 1e-12


def test_simulate_rejects_nan_state():
    with pytest.raises(ValueError, match="norm"):
        simulate(QuantumCircuit(1).append("Ry", 0, float("nan")))
