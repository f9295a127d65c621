import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmci.circuit import QuantumCircuit
from qmci.distributions import exact_pmf_loader, hwe_circuit
from qmci.gates import single_qubit_matrix
from qmci.simulator import exact_marginal, marginal_pmf, simulate, zero_state


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


# --------------------------------------------------------------------------
# the float64 path against the complex reference: every gate on a complex
# state, one cache-sized chunk at a time, as the simulator ran all circuits


def _reference_pair(view, controls, target):
    idx = [slice(None)] * view.ndim
    for c in controls:
        idx[c] = slice(1, 2)
    idx[target] = slice(0, 1)
    a = view[tuple(idx)]
    idx[target] = slice(1, 2)
    return a, view[tuple(idx)]


def _reference_chunks(a, b, chunk=2**14):
    k, size = 0, a.size
    while size > chunk:
        size //= a.shape[k]
        k += 1
    if k == 0:
        return ((a, b),)
    return ((a[i], b[i]) for i in np.ndindex(a.shape[:k]))


def _reference_apply_gate(state, g, n):
    q = g.qubits
    pairs = _reference_chunks(*_reference_pair(state.reshape([2] * n), q[:-1], q[-1]))
    if g.kind in ("X", "CNOT", "Toffoli", "MultiControlledX"):
        for a, b in pairs:
            tmp = a.copy()
            a[...] = b
            b[...] = tmp
        return
    m = single_qubit_matrix(g)
    for a, b in pairs:
        if a.size == 1:
            a0, b0 = a.reshape(-1)[0], b.reshape(-1)[0]
        else:
            a0, b0 = a.copy(), b.copy()
        a[...] = m[0, 0] * a0 + m[0, 1] * b0
        b[...] = m[1, 0] * a0 + m[1, 1] * b0


def _reference_simulate(qc):
    state = zero_state(qc.n_qubits)
    for g in qc.gates:
        _reference_apply_gate(state, g, qc.n_qubits)
    return state


def _assert_real_path_matches(qc):
    got, want = simulate(qc), _reference_simulate(qc)
    assert got.dtype == np.float64
    assert (np.abs(got) ** 2).tobytes() == (np.abs(want) ** 2).tobytes()
    assert np.array_equal(got, want.real)  # == ignores only the sign of zero


def _test_pmfs(n, rng):
    """A random PMF, one with zero masses, and a one-hot PMF on 2^n points."""
    dense = rng.random(2**n)
    sparse = dense * (rng.random(2**n) < 0.5)
    sparse[rng.integers(2**n)] += 0.5
    one_hot = np.zeros(2**n)
    one_hot[rng.integers(2**n)] = 1.0
    return [p / p.sum() for p in (dense, sparse, one_hot)]


@pytest.mark.parametrize("n", range(1, 10))
def test_real_path_matches_complex_reference_on_loaders(n):
    for pmf in _test_pmfs(n, np.random.default_rng(100 + n)):
        qc = exact_pmf_loader(pmf).circuit
        _assert_real_path_matches(qc)
        qubits = list(range(n))[::-1]
        want = marginal_pmf(_reference_simulate(qc), qubits)
        assert exact_marginal(qc, qubits).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("n_layers", range(4))
def test_real_path_matches_complex_reference_on_hwe(n, n_layers):
    rng = np.random.default_rng(10 * n + n_layers)
    _assert_real_path_matches(hwe_circuit(rng.uniform(0.0, 2.0 * np.pi, (n_layers + 1, n))))


_MIXED_KINDS = ("Ry", "X", "H", "CRy", "CNOT", "Toffoli", "MultiControlledX")


def _mixed_circuit(n, rng, kinds, n_gates=40):
    qc = QuantumCircuit(n)
    for _ in range(n_gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        width = {"CRy": 2, "CNOT": 2, "Toffoli": 3, "MultiControlledX": min(n, 5)}.get(kind, 1)
        if width > n or (kind == "MultiControlledX" and n < 4):
            continue
        qubits = tuple(int(q) for q in rng.permutation(n)[:width])
        params = [float(rng.uniform(-7.0, 7.0))] if kind in ("Ry", "CRy", "Rz") else []
        qc.append(kind, qubits, *params)
    return qc


@pytest.mark.parametrize("chunk", [2**14, 4])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_real_path_matches_complex_reference_on_mixed_circuits(monkeypatch, n, chunk):
    import qmci.simulator as sim

    monkeypatch.setattr(sim, "_CHUNK", chunk)
    rng = np.random.default_rng(1000 * n + chunk)
    qc = QuantumCircuit(max(n, 3))
    # a control above its target, then Toffoli and MultiControlledX either way round
    qc.append("Ry", 2, 0.4).append("CNOT", (2, 0)).append("Toffoli", (2, 1, 0))
    if qc.n_qubits >= 4:
        qc.append("MultiControlledX", tuple(range(qc.n_qubits - 1, -1, -1)))
    _assert_real_path_matches(qc)
    for _ in range(5):
        _assert_real_path_matches(_mixed_circuit(n, rng, _MIXED_KINDS))


@pytest.mark.parametrize("kind", ["Rz", "T"])
def test_complex_circuits_match_complex_reference(kind):
    rng = np.random.default_rng(7)
    for n in (1, 3, 6):
        qc = _mixed_circuit(n, rng, _MIXED_KINDS + (kind,) * 3)
        qc.append(kind, n - 1, *([0.3] if kind == "Rz" else []))
        got = simulate(qc)
        assert got.dtype == np.complex128
        assert got.tobytes() == _reference_simulate(qc).tobytes()


def test_real_path_keeps_a_real_initial_state_real():
    qc = QuantumCircuit(2).append("Ry", 0, 0.7).append("CNOT", (0, 1))
    start = simulate(QuantumCircuit(2).append("H", 1))
    assert simulate(qc, initial=start).dtype == np.float64
    assert simulate(qc, initial=start.astype(complex)).dtype == np.complex128
