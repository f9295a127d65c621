import math

import numpy as np
import pytest

from qmci.circuit import QuantumCircuit
from qmci.gates import gate, single_qubit_matrix, tk1_matrix, zxz_angles
from qmci.rebase import (
    count_nisq,
    expand_controlled_rotation,
    lower_to_rotations_clifford_t,
    rebase_tk1_cnot,
)
from qmci.simulator import simulate

from conftest import states_equal_up_to_phase


def pad_state(state, n_small, n_big):
    if n_big == n_small:
        return state
    out = np.zeros(2**n_big, dtype=complex)
    out.reshape(2**n_small, -1)[:, 0] = state
    return out


def random_gfull_circuit(n, m, rng):
    qc = QuantumCircuit(n)
    for _ in range(m):
        r = rng.integers(0, 8)
        if r < 3:
            qc.append(str(rng.choice(["X", "H", "S", "T", "Tdg"])), int(rng.integers(n)))
        elif r < 5:
            qc.append(str(rng.choice(["Ry", "Rx", "Rz"])), int(rng.integers(n)), rng.uniform(0, 2 * math.pi))
        elif r < 6:
            i, j = rng.choice(n, 2, replace=False)
            qc.append("CNOT", (int(i), int(j)))
        elif r < 7:
            i, j = rng.choice(n, 2, replace=False)
            qc.append(str(rng.choice(["CRy", "CRx", "CRz"])), (int(i), int(j)), rng.uniform(0, 2 * math.pi))
        else:
            i, j, k = rng.choice(n, 3, replace=False)
            qc.append("Toffoli", (int(i), int(j), int(k)))
    return qc


def test_zxz_decomposition_random_unitaries():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        a, b, c = zxz_angles(u)
        v = tk1_matrix(a, b, c)
        phase = np.vdot(v.reshape(-1), u.reshape(-1))
        assert np.allclose(u, v * np.exp(1j * np.angle(phase)), atol=1e-10)


def test_single_ry_becomes_one_tk1():
    qc = QuantumCircuit(1).append("Ry", 0, 0.77)
    rb = rebase_tk1_cnot(qc)
    assert len(rb.gates) == 1 and rb.gates[0].kind == "TK1"
    assert np.allclose(
        np.abs(np.vdot(single_qubit_matrix(rb.gates[0]).reshape(-1),
                       single_qubit_matrix(qc.gates[0]).reshape(-1))), 2.0, atol=1e-12
    )


@pytest.mark.parametrize("trial", range(10))
def test_rebase_statevector_equivalence(trial):
    rng = np.random.default_rng(100 + trial)
    qc = random_gfull_circuit(4, 25, rng)
    base = simulate(qc)
    rb = rebase_tk1_cnot(qc)
    assert all(g.kind in ("TK1", "CNOT") for g in rb.gates)
    assert states_equal_up_to_phase(pad_state(base, 4, rb.n_qubits), simulate(rb), 1e-10)


@pytest.mark.parametrize("trial", range(10))
def test_lowering_statevector_equivalence(trial):
    rng = np.random.default_rng(200 + trial)
    qc = random_gfull_circuit(4, 25, rng)
    base = simulate(qc)
    lw = lower_to_rotations_clifford_t(qc)
    allowed = {"CNOT", "H", "S", "T", "Tdg", "Rx", "Ry", "Rz"}
    assert all(g.kind in allowed for g in lw.gates)
    assert states_equal_up_to_phase(pad_state(base, 4, lw.n_qubits), simulate(lw), 1e-10)


def test_rebase_preserves_measurement_probabilities():
    rng = np.random.default_rng(7)
    qc = random_gfull_circuit(4, 30, rng)
    rb = rebase_tk1_cnot(qc)
    p0 = np.abs(simulate(qc)) ** 2
    p1 = np.abs(simulate(rb)) ** 2
    p1 = p1.reshape(2**4, -1).sum(axis=1)  # marginalise clean ancillas
    assert np.abs(p0 - p1).max() < 1e-10


def test_controlled_rotation_lowering_emits_six_rotations():
    for kind in ("CRy", "CRx", "CRz"):
        seq = expand_controlled_rotation(gate(kind, (0, 1), 0.7), keep_zero_rotations=True)
        rotations = [g for g in seq if g.kind in ("Rx", "Ry", "Rz")]
        assert len(rotations) == 6
        assert sum(1 for g in seq if g.kind == "CNOT") == 2


def test_toffoli_exact_clifford_t():
    qc = QuantumCircuit(3).append("Toffoli", (0, 1, 2))
    lw = lower_to_rotations_clifford_t(qc)
    t_like = [g for g in lw.gates if g.kind in ("T", "Tdg")]
    assert len(t_like) == 7
    probe = QuantumCircuit(3).append("X", 0).append("X", 1).extend(lw.gates)
    direct = QuantumCircuit(3).append("X", 0).append("X", 1).append("Toffoli", (0, 1, 2))
    assert states_equal_up_to_phase(simulate(probe), simulate(direct), 1e-10)


def test_single_ry_unchanged_by_lowering():
    qc = QuantumCircuit(1).append("Ry", 0, 1.23)
    lw = lower_to_rotations_clifford_t(qc)
    assert len(lw.gates) == 1 and lw.gates[0].kind == "Ry"


def test_mcx_vchain_uses_one_ancilla_per_extra_control():
    qc = QuantumCircuit(6)
    qc.add(gate("MultiControlledX", tuple(range(6))))
    rb = rebase_tk1_cnot(qc)
    assert rb.n_qubits == 6 + 3  # 5 controls -> 3 ancillas
    for src in range(5):
        probe = QuantumCircuit(rb.n_qubits)
        for q in range(5):
            if q != src:
                probe.append("X", q)
        probe.extend(rb.gates)
        p = np.abs(simulate(probe)) ** 2
        # target must stay 0 when any control is off
        idx = np.argmax(p)
        assert (idx >> (rb.n_qubits - 1 - 5)) & 1 == 0


def test_count_nisq_empty():
    c = count_nisq(QuantumCircuit(3))
    assert c.total_gates == c.cnot_count == c.tk1_count == 0
    assert c.total_depth == c.cnot_depth == c.tk1_depth == 0


def test_count_nisq_rejects_unrebased():
    with pytest.raises(ValueError):
        count_nisq(QuantumCircuit(1).append("H", 0))


def test_parallel_cnots_depth_one():
    qc = QuantumCircuit(4).append("CNOT", (0, 1)).append("CNOT", (2, 3))
    c = count_nisq(qc)
    assert c.cnot_count == 2 and c.cnot_depth == 1 and c.total_depth == 1


def test_depth_invariant_under_disjoint_reordering():
    a = QuantumCircuit(4).append("CNOT", (0, 1)).append("CNOT", (2, 3)).append("TK1", 0, 1, 2, 3)
    b = QuantumCircuit(4).append("CNOT", (2, 3)).append("TK1", 0, 1, 2, 3).append("CNOT", (0, 1))
    ca, cb = count_nisq(a), count_nisq(b)
    assert (ca.total_depth, ca.cnot_depth, ca.tk1_depth) == (cb.total_depth, cb.cnot_depth, cb.tk1_depth)


def test_counts_after_rebase_partition():
    rng = np.random.default_rng(11)
    rb = rebase_tk1_cnot(random_gfull_circuit(3, 20, rng))
    c = count_nisq(rb)
    assert c.total_gates == c.cnot_count + c.tk1_count


def test_ft_counters_reject_unlowered():
    from qmci.rebase import count_ft_content, t_depth

    for count in (count_ft_content, lambda c: t_depth(c, 3)):
        with pytest.raises(ValueError, match="not lowered: found TK1"):
            count(QuantumCircuit(1).append("T", 0).append("TK1", 0, 1, 2, 3))
    with pytest.raises(ValueError, match="not rebased: found H"):
        count_nisq(QuantumCircuit(1).append("TK1", 0, 1, 2, 3).append("H", 0))


def test_x_and_tk1_lower_to_exact_sequences():
    qc = QuantumCircuit(1).append("X", 0).append("TK1", 0, 0.1, 0.2, 0.3)
    lw = lower_to_rotations_clifford_t(qc)
    assert [(g.kind, g.params) for g in lw.gates] == [
        ("H", ()), ("S", ()), ("S", ()), ("H", ()),
        ("Rz", (0.3,)), ("Rx", (0.2,)), ("Rz", (0.1,)),
    ]


# the counters that skip building the compiled circuit, pinned against the
# passes that build it
_EDGE_ANGLES = (0.0, 1e-16, -1e-16, 2e-15, -2e-15, 1.3)


def random_alphabet_circuit(n, m, rng):
    """Every controlled rotation kind at every angle of ``_EDGE_ANGLES``
    (about the zero-angle threshold), a multi-controlled X of each width
    from 3 to 7 controls and ``m`` random gates of every source kind, in
    random order, plus resource boxes."""
    from qmci.circuit import ResourceBox

    def wires(k):
        return tuple(int(q) for q in rng.choice(n, k, replace=False))

    gates = [gate(kind, wires(2), a) for kind in ("CRx", "CRy", "CRz") for a in _EDGE_ANGLES]
    gates += [gate("MultiControlledX", wires(c + 1)) for c in range(3, 8)]
    for _ in range(m):
        r = rng.integers(0, 10)
        if r < 2:
            gates.append(gate(str(rng.choice(["X", "H", "S", "T", "Tdg"])), wires(1)))
        elif r < 3:
            gates.append(gate(str(rng.choice(["Rx", "Ry", "Rz"])), wires(1), rng.uniform(-3, 3)))
        elif r < 4:
            gates.append(gate("TK1", wires(1), *rng.uniform(-3, 3, 3)))
        elif r < 5:
            gates.append(gate("CNOT", wires(2)))
        elif r < 7:
            gates.append(gate(str(rng.choice(["CRx", "CRy", "CRz"])), wires(2),
                              float(rng.choice(_EDGE_ANGLES))))
        elif r < 8:
            gates.append(gate("Toffoli", wires(3)))
        else:
            gates.append(gate("MultiControlledX", wires(int(rng.integers(4, 9)))))
    qc = QuantumCircuit(n).extend(gates[i] for i in rng.permutation(len(gates)))
    for _ in range(int(rng.integers(0, 3))):
        qc.boxes.append(ResourceBox(
            n_qubits=2, placement=int(rng.integers(len(gates))),
            gate_counts={k: int(rng.integers(0, 5)) for k in ("CNOT", "TK1", "T", "Rz", "H")},
            total_depth=int(rng.integers(1, 9)) if rng.random() < 0.5 else None,
            t_depth=int(rng.integers(1, 9)) if rng.random() < 0.5 else None))
    return qc


def assert_counters_match_passes(qc):
    from qmci.rebase import (count_ft_content, lowered_counts, lowered_t_depth,
                             rebased_counts, t_depth)

    assert rebased_counts(qc) == count_nisq(rebase_tk1_cnot(qc))
    lowered = lower_to_rotations_clifford_t(qc)
    assert lowered_counts(qc) == count_ft_content(lowered)
    for t in (1, 4, 57):
        assert lowered_t_depth(qc, t) == t_depth(lowered, t)


@pytest.mark.parametrize("trial", range(20))
def test_counters_match_compiled_circuits(trial):
    rng = np.random.default_rng(300 + trial)
    assert_counters_match_passes(random_alphabet_circuit(9, 60, rng))


@pytest.mark.parametrize("kind, n_slices", [("Barrier", 2), ("Lookback", 3)])
def test_counters_match_compiled_plan_circuits(kind, n_slices):
    from qmci.distributions import standard_circuit
    from qmci.pbuilder import InstrumentSpec, build_instrument
    from qmci.resources import build_plan

    spec = InstrumentSpec(kind, space="return", n_slices=n_slices, total_volatility=0.2,
                          strike_ratio=1.05, barrier_ratio=1.2 if kind == "Barrier" else None)
    dc, cfgs = build_instrument(standard_circuit("gaussian_unit_6q"), spec)
    qs, dim = cfgs[0].quantity_spec(dc)
    plan = build_plan(dc, qs, dim, "MLQAE", target_rmse=1e-2, condition=cfgs[0].condition)
    for qc in (plan.a_circuit, plan.grover):
        assert_counters_match_passes(qc)
