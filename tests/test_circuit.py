import numpy as np
import pytest

from qmci.circuit import QuantumCircuit, ResourceBox, controlled_x
from qmci.gates import Gate, gate
from qmci.simulator import simulate

from conftest import states_equal_up_to_phase


def test_gate_param_arity():
    with pytest.raises(ValueError):
        gate("Ry", 0)  # missing angle
    with pytest.raises(ValueError):
        gate("X", 0, 0.5)
    with pytest.raises(ValueError):
        gate("TK1", 0, 0.1, 0.2)  # needs three


def test_gate_duplicate_qubits_rejected():
    with pytest.raises(ValueError):
        gate("CNOT", (1, 1))


def test_mcx_needs_three_controls():
    with pytest.raises(ValueError):
        Gate("MultiControlledX", (), (0, 1, 2))
    assert controlled_x([0, 1], 2).kind == "Toffoli"
    assert controlled_x([0], 2).kind == "CNOT"
    assert controlled_x([], 2).kind == "X"


def test_out_of_range_gate_rejected():
    qc = QuantumCircuit(2)
    with pytest.raises(ValueError):
        qc.append("H", 2)


def test_compose_offsets_qubits():
    a = QuantumCircuit(2).append("H", 0)
    b = QuantumCircuit(2).append("X", 1)
    c = a.compose(b, offset=2)
    assert c.n_qubits == 4
    assert c.gates[1].qubits == (3,)


def test_compose_rejects_negative_offset():
    a = QuantumCircuit(2).append("H", 0)
    for b in (QuantumCircuit(2).append("X", 1), QuantumCircuit(2)):
        with pytest.raises(ValueError, match="negative"):
            a.compose(b, offset=-1)


def test_inverse_undoes_circuit():
    rng = np.random.default_rng(3)
    qc = QuantumCircuit(3)
    for _ in range(20):
        k = rng.choice(["H", "S", "T", "Tdg", "X"])
        qc.append(k, int(rng.integers(3)))
        qc.append("CRz", tuple(rng.choice(3, 2, replace=False).astype(int)), rng.uniform(0, 7))
    full = qc.copy().extend(qc.inverse().gates)
    state = simulate(full)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1
    assert states_equal_up_to_phase(state, zero, 1e-10)


def test_json_round_trip():
    qc = QuantumCircuit(3, "demo")
    qc.append("Ry", 0, 0.25).append("CNOT", (0, 2)).append("TK1", 1, 0.1, 0.2, 0.3)
    back = QuantumCircuit.from_json(qc.to_json())
    assert back.n_qubits == 3
    assert back.gates == qc.gates
    assert back.to_json() == qc.to_json()


def test_boxed_circuit_refuses_simulation():
    qc = QuantumCircuit(1).append("H", 0)
    qc.boxes.append(ResourceBox(n_qubits=1, gate_counts={"CNOT": 3}))
    with pytest.raises(ValueError):
        simulate(qc)
