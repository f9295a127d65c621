"""Exact simulation: dense state vectors, and exact marginals that run
a circuit's permutation suffix on its support.

The basis-state index convention follows the register convention of the
IR: qubit 0 is the most significant bit of the global index, so
``state.reshape([2] * n)`` puts qubit q on axis q directly.

``simulate`` and ``marginal_pmf`` are the dense reference.  Every marginal
the engine reads goes through ``exact_marginal``, which simulates densely
only the circuit's prefix (up to its last gate that is not a permutation),
one qubit-disjoint block at a time, and carries the prefix's basis rows
through the rest as bit-sliced columns (Jaques & Haener,
arXiv:2105.01533), so an instrument on a wide register costs what its
support costs.

All operations are deterministic; measurement never happens in-simulation.
"""
from __future__ import annotations

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate, single_qubit_matrix

MAX_SIM_QUBITS = 30  # widest state (or prefix block) simulated densely
MAX_SUPPORT_ROWS = 2**24  # basis rows a permutation suffix carries
_PERMUTATION_GATES = frozenset(("X", "CNOT", "Toffoli", "MultiControlledX"))
_EPS = float(np.finfo(float).eps)
_CHUNK = 2**14  # amplitudes a gate updates at a time (256 KB: cache-resident)


class CircuitTooLarge(ValueError):
    """An exact marginal would exceed a size cap; raised before anything
    of that size is allocated."""


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
    _check_norm(float(np.sum(state.real**2 + state.imag**2)), circuit)  # pairwise sum
    return state


def _check_norm(norm2: float, circuit: QuantumCircuit) -> None:
    if not abs(norm2 - 1.0) <= 1e-12 + 8 * _EPS * (len(circuit.gates) + circuit.n_qubits):
        raise ValueError(f"state norm is not 1: |psi|^2 = {norm2!r}")


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
    _check_qubits(qubits, n)
    return _dense_marginal(np.abs(state) ** 2, n, qubits)


def _check_qubits(qubits: list, n: int) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit index out of range in {qubits}")


def _dense_marginal(probs: np.ndarray, n: int, qubits: list) -> np.ndarray:
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


# --------------------------------------------------------------------------
# exact marginals on the support

_SUPPORT_CACHE: dict = {}  # circuit.key() -> the last circuit's support
_READ_ROWS = 2**20  # support rows decoded at a time
_ALL_ONES = np.uint64(2**64 - 1)
# words of the row-index bits 0..5: bit i of word w belongs to row 64 w + i
_LOW_BIT_WORDS = [np.uint64(sum(1 << i for i in range(64) if i >> b & 1)) for b in range(6)]


def exact_marginal(circuit: QuantumCircuit, qubits) -> np.ndarray:
    """Probability vector of reading the listed qubits, MSB-first: the same
    marginal as ``marginal_pmf(simulate(circuit), qubits)``.

    The prefix is the circuit up to and including its last gate that is
    not a permutation (X, CNOT, Toffoli, MultiControlledX).  When the
    prefix joins every qubit into one block, the whole circuit runs
    densely.  Otherwise each qubit-disjoint block of the prefix runs
    densely on its own, the outer product of their probabilities weights
    the support's basis rows (qubits the prefix never touches stay |0>),
    and the rest of the circuit moves the rows as bit-sliced columns.  The
    last circuit's support is kept, so the legs of one instrument share
    one pass.

    Raises CircuitTooLarge, before anything is simulated, when a dense
    block exceeds MAX_SIM_QUBITS qubits or the support MAX_SUPPORT_ROWS
    rows; ValueError on resource boxes, bad qubits, or a support whose
    total probability is not 1 within rounding.
    """
    qubits = list(qubits)
    _check_qubits(qubits, circuit.n_qubits)
    key = circuit.key()
    support = _SUPPORT_CACHE.get(key)
    if support is None:
        _SUPPORT_CACHE.clear()  # free the last support before building this one
        support = _SUPPORT_CACHE[key] = _support(circuit)
    if isinstance(support, np.ndarray):
        return _dense_marginal(support, circuit.n_qubits, qubits)
    return _rows_marginal(*support, qubits)


def _blocks(gates, n: int):
    """Qubit-disjoint blocks of ``gates`` as (qubits ascending, gates in
    order), ordered by lowest qubit; None when one block holds all ``n``
    qubits.  The scan runs backwards and stops once everything is joined,
    so a pure loader costs a fraction of one pass."""
    root = list(range(n))

    def find(q):
        while root[q] != q:
            root[q] = root[root[q]]
            q = root[q]
        return q

    joins = 0
    touched = [False] * n
    for g in reversed(gates):
        a = find(g.qubits[0])
        for q in g.qubits:
            touched[q] = True
            b = find(q)
            if b != a:
                root[b] = a
                joins += 1
        if joins == n - 1:
            return None
    blocks: dict = {}
    for q in range(n):
        if touched[q]:
            blocks.setdefault(find(q), ([], []))[0].append(q)
    for g in gates:
        blocks[find(g.qubits[0])][1].append(g)
    return list(blocks.values())


def _bit_column(b: int, n_words: int) -> np.ndarray:
    """Bit ``b`` of every row index, packed 64 rows to a word."""
    if b < 6:
        return np.full(n_words, _LOW_BIT_WORDS[b])
    return ((np.arange(n_words) >> (b - 6)) & 1).astype(np.uint64) * _ALL_ONES


def _support(circuit: QuantumCircuit):
    """Dense probabilities of the whole circuit, or (columns, row
    probabilities) of its support: column q holds qubit q's bit on every
    row, packed into uint64 words, or None where that bit is 0 throughout."""
    if circuit.boxes:
        raise ValueError("cannot simulate a circuit containing resource boxes")
    n, gates = circuit.n_qubits, circuit.gates
    split = len(gates)
    while split and gates[split - 1].kind in _PERMUTATION_GATES:
        split -= 1
    blocks = _blocks(gates[:split], n)
    widest = n if blocks is None else max((len(qs) for qs, _ in blocks), default=0)
    if widest > MAX_SIM_QUBITS:
        raise CircuitTooLarge(
            f"a dense block of {widest} qubits exceeds MAX_SIM_QUBITS = {MAX_SIM_QUBITS}"
        )
    if blocks is None:
        return np.abs(simulate(circuit)) ** 2
    width = sum(len(qs) for qs, _ in blocks)
    if 2**width > MAX_SUPPORT_ROWS:
        raise CircuitTooLarge(
            f"the support has 2^{width} = {2**width} rows, over MAX_SUPPORT_ROWS = "
            f"2^{MAX_SUPPORT_ROWS.bit_length() - 1} = {MAX_SUPPORT_ROWS}"
        )
    n_words = -(-(2**width) // 64)
    cols: list = [None] * n
    prob = np.ones(1)
    done: dict = {}  # equal blocks (slices of one loader) simulate once
    shift = width
    for qs, block in blocks:
        k = len(qs)
        pos = {q: i for i, q in enumerate(qs)}
        local = QuantumCircuit(k)
        local.gates = [Gate(g.kind, g.params, tuple(pos[q] for q in g.qubits)) for g in block]
        key = local.key()
        if key not in done:
            done[key] = np.abs(simulate(local)) ** 2
        prob = np.outer(prob, done[key]).ravel()
        shift -= k
        for j, q in enumerate(qs):
            cols[q] = _bit_column(shift + k - 1 - j, n_words)
    _check_norm(float(np.sum(prob)), circuit)

    scratch = np.empty(n_words, dtype=np.uint64)
    for g in gates[split:]:
        *controls, t = g.qubits
        if not controls:
            if cols[t] is None:
                cols[t] = np.full(n_words, _ALL_ONES)
            else:
                np.invert(cols[t], out=cols[t])
            continue
        mask = [cols[c] for c in controls]
        if any(m is None for m in mask):
            continue  # a control reads 0 on every row
        on = mask[0]
        if len(mask) > 1:
            on = np.bitwise_and(mask[0], mask[1], out=scratch)
            for m in mask[2:]:
                np.bitwise_and(on, m, out=on)
        if cols[t] is None:
            cols[t] = on.copy()
        else:
            np.bitwise_xor(cols[t], on, out=cols[t])
    return [c if c is not None and c.any() else None for c in cols], prob


def _rows_marginal(cols: list, prob: np.ndarray, qubits: list) -> np.ndarray:
    """Marginal of the listed qubits over a support: each row's register
    code from the columns, then its probability summed per code."""
    width = len(qubits)
    live = [(cols[q], width - 1 - j) for j, q in enumerate(qubits) if cols[q] is not None]
    out = np.zeros(2**width)
    for r0 in range(0, len(prob), _READ_ROWS):
        r1 = min(r0 + _READ_ROWS, len(prob))
        code = np.zeros(r1 - r0, dtype=np.int64)
        for col, s in live:
            words = col[r0 // 64:-(-r1 // 64)].astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), count=r1 - r0, bitorder="little")
            code |= bits.astype(np.int64) << s
        out += np.bincount(code, weights=prob[r0:r1], minlength=out.size)
    return out
