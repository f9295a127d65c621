"""Compilation passes: rebase to {TK1, CNOT}, lowering to rotations plus
Clifford+T, and gate/depth counting.

Fixed decompositions (documented because counts depend on them):

* Toffoli -> the exact 15-gate Clifford+T identity (7 T/Tdg, 6 CNOT, 2 H).
* MultiControlledX with c controls -> v-chain of 2c-3 Toffolis using c-2
  clean ancillas, appended at the top of the circuit and uncomputed.
* Controlled rotation -> 2 CNOTs plus single-qubit rotations via the
  standard ABC construction.  The Clifford+T lowering emits exactly six
  rotation gates per controlled rotation (zero-angle ones included, since
  the synthesis cost model charges per rotation); the NISQ rebase drops
  the zero-angle ones before fusing into TK1.

Both passes share one expansion and differ only in how they map each CNOT
or single-qubit gate it leaves; every counter is one walk over a compiled
circuit, driven by a table from gate kind to count class.

Depths use unit cost per gate and count the longest chain of gates
sharing qubits; no peephole optimisation is attempted, so raw depths of
hand-published circuits will exceed optimised published figures.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from .circuit import QuantumCircuit
from .gates import Gate, gate, single_qubit_matrix, zxz_angles


@dataclass(frozen=True)
class NisqCounts:
    n_qubits: int
    total_gates: int
    cnot_count: int
    tk1_count: int
    total_depth: int
    cnot_depth: int
    tk1_depth: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")


def _toffoli_clifford_t(a: int, b: int, t: int) -> list[Gate]:
    """Exact Clifford+T Toffoli (7 T/Tdg)."""
    return [
        gate("H", t),
        gate("CNOT", (b, t)),
        gate("Tdg", t),
        gate("CNOT", (a, t)),
        gate("T", t),
        gate("CNOT", (b, t)),
        gate("Tdg", t),
        gate("CNOT", (a, t)),
        gate("T", b),
        gate("T", t),
        gate("H", t),
        gate("CNOT", (a, b)),
        gate("T", a),
        gate("Tdg", b),
        gate("CNOT", (a, b)),
    ]


def expand_mcx(controls, target, ancillas) -> list[Gate]:
    """v-chain decomposition of a multi-controlled X into Toffolis.

    Needs ``len(controls) - 2`` clean ancillas; they are returned clean.
    """
    controls = list(controls)
    c = len(controls)
    if c == 0:
        return [gate("X", target)]
    if c == 1:
        return [gate("CNOT", (controls[0], target))]
    if c == 2:
        return [gate("Toffoli", (controls[0], controls[1], target))]
    need = c - 2
    if len(ancillas) < need:
        raise ValueError(f"mcx with {c} controls needs {need} ancillas")
    anc = list(ancillas[:need])
    chain = [gate("Toffoli", (controls[0], controls[1], anc[0]))]
    for i in range(need - 1):
        chain.append(gate("Toffoli", (controls[2 + i], anc[i], anc[i + 1])))
    mid = gate("Toffoli", (controls[-1], anc[-1], target))
    return chain + [mid] + [g for g in reversed(chain)]


def _zyz_angles_for_rotation(kind: str, phi: float) -> tuple[float, float, float]:
    """(b, g, d) with target unitary = Rz(b) Ry(g) Rz(d), no global phase."""
    if kind == "CRy":
        return (0.0, phi, 0.0)
    if kind == "CRz":
        return (phi / 2.0, 0.0, phi / 2.0)
    if kind == "CRx":
        # Rx(phi) = Rz(-pi/2) Ry(phi) Rz(pi/2)
        from math import pi

        return (-pi / 2.0, phi, pi / 2.0)
    raise ValueError(kind)


def expand_controlled_rotation(g: Gate, keep_zero_rotations: bool) -> list[Gate]:
    """ABC decomposition of CRx/CRy/CRz into CNOTs and six rotations.

    Sequence (time order): C on target, CNOT, B on target, CNOT, A on
    target, plus a (zero-angle here) Rz on the control.  For our rotation
    kinds the controlled-phase contribution is zero, so the control
    rotation is Rz(0); it is emitted only when ``keep_zero_rotations``.
    """
    ctl, tgt = g.qubits
    b, gamma, d = _zyz_angles_for_rotation(g.kind, g.params[0])
    seq: list[Gate] = []

    def rot(kind, q, angle):
        if keep_zero_rotations or abs(angle) > 1e-15:
            seq.append(gate(kind, q, angle))

    # C = Rz((d-b)/2)
    rot("Rz", tgt, (d - b) / 2.0)
    seq.append(gate("CNOT", (ctl, tgt)))
    # B = Ry(-g/2) Rz(-(d+b)/2): circuit order Rz first
    rot("Rz", tgt, -(d + b) / 2.0)
    rot("Ry", tgt, -gamma / 2.0)
    seq.append(gate("CNOT", (ctl, tgt)))
    # A = Rz(b) Ry(g/2): circuit order Ry first
    rot("Ry", tgt, gamma / 2.0)
    rot("Rz", tgt, b)
    # controlled-phase correction (zero for pure rotations)
    rot("Rz", ctl, 0.0)
    return seq


# gate kind -> count class, for the two compiled gate sets; a class or
# chain named after a ResourceBox field takes that field's value when set
_NISQ_CLASSES = {"CNOT": "cnot_count", "TK1": "tk1_count"}
_FT_CLASSES = {
    **dict.fromkeys(("Rx", "Ry", "Rz"), "rotation_count"),
    **dict.fromkeys(("T", "Tdg"), "t_count"),
    **dict.fromkeys(("CNOT", "H", "S"), "clifford_count"),
}


def _expand(circuit: QuantumCircuit, keep_zero_rotations: bool, gate_set,
            leaf) -> QuantumCircuit:
    """The expansion both compile passes share.

    Clean ancillas for the widest multi-controlled X go at the top of the
    register.  Toffoli, multi-controlled X and controlled rotations expand
    into CNOT and single-qubit gates; a gate of the pass's ``gate_set``
    stays as it is, and ``leaf`` maps any other to gates of the set.
    """
    extra = max((len(g.controls) - 2 for g in circuit.gates
                 if g.kind == "MultiControlledX"), default=0)
    n = circuit.n_qubits
    out = QuantumCircuit(n + extra, circuit.name)
    out.boxes = list(circuit.boxes)
    ancillas = list(range(n, n + extra))

    def emit(gates):
        for g in gates:
            k = g.kind
            if k in gate_set:
                out.add(g)
            elif k == "Toffoli":
                emit(_toffoli_clifford_t(*g.qubits))
            elif k == "MultiControlledX":
                emit(expand_mcx(g.controls, g.target, ancillas))
            elif k in ("CRy", "CRx", "CRz"):
                emit(expand_controlled_rotation(g, keep_zero_rotations))
            else:
                emit(leaf(g))

    emit(circuit.gates)
    return out


def _tk1_leaf(g: Gate) -> tuple[Gate, ...]:
    return (gate("TK1", g.qubits[0], *zxz_angles(single_qubit_matrix(g))),)


def _rotation_clifford_t_leaf(g: Gate) -> tuple[Gate, ...]:
    q = g.qubits[0]
    if g.kind == "X":
        # exact Clifford: X = H S S H  (avoids charging rotation synthesis)
        return (gate("H", q), gate("S", q), gate("S", q), gate("H", q))
    a, b, c = g.params  # TK1
    return (gate("Rz", q, c), gate("Rx", q, b), gate("Rz", q, a))


def lower_to_rotations_clifford_t(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to {CNOT, H, S, T, Tdg, Rx, Ry, Rz}.

    Controlled rotations expand to exactly six uncontrolled rotations each;
    Toffoli and multi-controlled X expand to their exact Clifford+T forms.
    Statevector action is preserved up to global phase.
    """
    return _expand(circuit, True, _FT_CLASSES, _rotation_clifford_t_leaf)


def rebase_tk1_cnot(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to the universal NISQ gateset {TK1, CNOT}.

    Each single-qubit gate maps to one TK1; Toffoli and multi-controlled X
    go through their fixed Clifford+T decompositions first.  Action is
    preserved up to global phase (ancillas, if any, start and end in 0).
    """
    return _expand(circuit, False, _NISQ_CLASSES, _tk1_leaf)


# --------------------------------------------------------------------------
# counting

# depth chain -> cost of one gate of each class; a box's gates of a kind
# outside the class table count in class None
_NISQ_CHAINS = {
    "total_depth": {"cnot_count": 1, "tk1_count": 1, None: 1},
    "cnot_depth": {"cnot_count": 1},
    "tk1_depth": {"tk1_count": 1},
}


def _walk(circuit: QuantumCircuit, classes: dict, chains: dict, compiled: str):
    """Count a compiled circuit: its gates per class, and every depth chain
    in one pass over the gates.

    ``classes`` maps every gate kind the circuit may hold to its count
    class; any other kind raises.  ``chains`` maps a depth name to the
    cost of one gate of each class, and a chain's depth is its costliest
    path through gates that share qubits.  Each resource box then adds its
    own counts and depths (``ResourceBox``).
    """
    tally = Counter([g.kind for g in circuit.gates])
    for kind in tally:
        if kind not in classes:
            raise ValueError(f"circuit not {compiled}: found {kind}")
    counts = dict.fromkeys(classes.values(), 0)
    for kind, n in tally.items():
        counts[classes[kind]] += n
    step = {k: tuple(cost.get(c, 0) for cost in chains.values()) for k, c in classes.items()}
    wires = [[0] * circuit.n_qubits for _ in chains]
    if chains:
        for g in circuit.gates:
            qs = g.qubits
            if len(qs) == 1:
                q = qs[0]
                for wire, w in zip(wires, step[g.kind]):
                    wire[q] += w
                continue
            for wire, w in zip(wires, step[g.kind]):
                d = max([wire[q] for q in qs]) + w
                for q in qs:
                    wire[q] = d
    depths = {name: max(wire, default=0) for name, wire in zip(chains, wires)}
    for b in circuit.boxes:
        box = b.counts(classes)
        for c, n in box.items():
            counts[c] = counts.get(c, 0) + n
        for name, cost in chains.items():
            depths[name] += b.depth(name, cost, box)
    return counts, depths


def count_nisq(circuit: QuantumCircuit) -> NisqCounts:
    """Exact counts and longest-chain depths of a {TK1, CNOT} circuit."""
    counts, depths = _walk(circuit, _NISQ_CLASSES, _NISQ_CHAINS, "rebased")
    return NisqCounts(
        n_qubits=circuit.n_qubits,
        total_gates=sum(counts.values()),
        cnot_count=counts["cnot_count"],
        tk1_count=counts["tk1_count"],
        **depths,
    )


@dataclass(frozen=True)
class FtGateCounts:
    """Rotation and exact-T content of a lowered circuit."""

    n_qubits: int
    rotation_count: int
    t_count_exact: int
    clifford_count: int


def count_ft_content(lowered: QuantumCircuit) -> FtGateCounts:
    counts, _ = _walk(lowered, _FT_CLASSES, {}, "lowered")
    return FtGateCounts(
        lowered.n_qubits,
        counts["rotation_count"],
        counts["t_count"],
        counts["clifford_count"],
    )


def t_depth(lowered: QuantumCircuit, t_per_rotation: int) -> int:
    """Longest T-chain, charging ``t_per_rotation`` sequential T gates per
    rotation gate; T gates on distinct qubits may run simultaneously."""
    chain = {"t_count": 1, "rotation_count": t_per_rotation}
    return _walk(lowered, _FT_CLASSES, {"t_depth": chain}, "lowered")[1]["t_depth"]
