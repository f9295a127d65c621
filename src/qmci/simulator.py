"""Exact dense state-vector simulation.

The basis-state index convention follows the register convention of the
IR: qubit 0 is the most significant bit of the global index, so
``state.reshape([2] * n)`` puts qubit q on axis q directly.

All operations are deterministic; measurement never happens in-simulation.
Sampling is a separate classical draw from an exactly computed marginal.
"""
from __future__ import annotations

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate, single_qubit_matrix

MAX_SIM_QUBITS = 30  # guard against accidental huge allocations
_EPS = float(np.finfo(float).eps)
_CHUNK = 2**14  # amplitudes a gate updates at a time (256 KB: cache-resident)


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _pair(view: np.ndarray, controls, target: int):
    """The two sub-blocks with every control at 1 and ``target`` at 0 and
    at 1.  Slices, not integers, keep them views even of one amplitude."""
    idx = [slice(None)] * view.ndim
    for c in controls:
        idx[c] = slice(1, 2)
    idx[target] = slice(0, 1)
    a = view[tuple(idx)]
    idx[target] = slice(1, 2)
    return a, view[tuple(idx)]


def _chunks(a: np.ndarray, b: np.ndarray):
    """Matching sub-views of two equally shaped views, split along their
    leading axes into chunks of at most ``_CHUNK`` amplitudes."""
    k, size = 0, a.size
    while size > _CHUNK:
        size //= a.shape[k]
        k += 1
    if k == 0:
        return ((a, b),)
    return ((a[i], b[i]) for i in np.ndindex(a.shape[:k]))


def apply_gate(state: np.ndarray, g: Gate, n: int) -> None:
    """Apply ``g`` in place, a cache-sized chunk at a time."""
    q = g.qubits
    pairs = _chunks(*_pair(state.reshape([2] * n), q[:-1], q[-1]))
    if g.kind in ("X", "CNOT", "Toffoli", "MultiControlledX"):
        for a, b in pairs:
            tmp = a.copy()
            a[...] = b
            b[...] = tmp
        return
    m = single_qubit_matrix(g)
    for a, b in pairs:
        if a.size == 1:  # scalars: numpy rounds them apart from its array loops
            a0, b0 = a.reshape(-1)[0], b.reshape(-1)[0]
        else:
            a0, b0 = a.copy(), b.copy()
        a[...] = m[0, 0] * a0 + m[0, 1] * b0
        b[...] = m[1, 0] * a0 + m[1, 1] * b0


def simulate(circuit: QuantumCircuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Exact final amplitudes of ``circuit`` applied to ``initial`` (default all-zero).

    Raises ValueError on dimension mismatch, on circuits containing
    resource boxes, and if the final norm is not 1 within rounding (the
    gates are unitary, so only a non-normalised ``initial`` state or a
    broken kernel gets there).  The tolerance grows with the gate count,
    since every gate may move the norm by a few ulps, and with the qubit
    count, for the rounding of the sum over 2^n amplitudes.
    """
    if circuit.boxes:
        raise ValueError("cannot simulate a circuit containing resource boxes")
    n = circuit.n_qubits
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"{n} qubits exceeds simulator limit {MAX_SIM_QUBITS}")
    if initial is None:
        state = zero_state(n)
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.shape != (2**n,):
            raise ValueError(
                f"initial state has dimension {initial.shape}, circuit needs {2**n}"
            )
        state = initial.copy()
    for g in circuit.gates:
        apply_gate(state, g, n)
    norm2 = float(np.sum(state.real**2 + state.imag**2))  # pairwise summation
    if abs(norm2 - 1.0) > 1e-12 + 8 * _EPS * (len(circuit.gates) + n):
        raise ValueError(f"state norm is not 1: |psi|^2 = {norm2!r}")
    return state


def marginal_pmf(state: np.ndarray, qubits) -> np.ndarray:
    """Probability vector of reading the listed qubits, MSB-first.

    Entry j is the total probability of observing bit pattern j on the
    listed qubits (first listed = most significant), marginalising over
    every other qubit implicitly.
    """
    qubits = list(qubits)
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError("state length is not a power of two")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit index out of range in {qubits}")
    probs = np.abs(state) ** 2
    view = probs.reshape([2] * n)
    keep = set(qubits)
    other = tuple(q for q in range(n) if q not in keep)
    if other:
        view = view.sum(axis=other)
    # remaining axes are the kept qubits in increasing index order;
    # transpose so qubits[0] becomes the most significant output bit
    sorted_pos = {q: i for i, q in enumerate(sorted(qubits))}
    perm = [sorted_pos[q] for q in qubits]
    return view.transpose(perm).reshape(-1)


def sample(state: np.ndarray, qubits, n: int, seed: int) -> np.ndarray:
    """n i.i.d. outcome draws (integers, MSB-first decode) from the marginal."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    pmf = marginal_pmf(state, qubits)
    rng = np.random.default_rng(seed)
    # guard the tiny negative/rounding drift for rng.choice
    p = np.clip(pmf, 0.0, None)
    p = p / p.sum()
    return rng.choice(len(pmf), size=n, p=p)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    if a.shape != b.shape:
        return False
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= tol)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)
