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

Depths use unit cost per gate and count the longest chain of gates
sharing qubits; no peephole optimisation is attempted, so raw depths of
hand-published circuits will exceed optimised published figures.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        for f in (
            "n_qubits",
            "total_gates",
            "cnot_count",
            "tk1_count",
            "total_depth",
            "cnot_depth",
            "tk1_depth",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")


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


def _mcx_ancilla_need(circuit: QuantumCircuit) -> int:
    need = 0
    for g in circuit.gates:
        if g.kind == "MultiControlledX":
            need = max(need, len(g.controls) - 2)
    return need


def lower_to_rotations_clifford_t(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to {CNOT, H, S, T, Tdg, Rx, Ry, Rz}.

    Controlled rotations expand to exactly six uncontrolled rotations each;
    Toffoli and multi-controlled X expand to their exact Clifford+T forms.
    Statevector action is preserved up to global phase.
    """
    extra = _mcx_ancilla_need(circuit)
    n = circuit.n_qubits
    out = QuantumCircuit(n + extra, circuit.name)
    out.boxes = list(circuit.boxes)
    ancillas = list(range(n, n + extra))
    for g in circuit.gates:
        k = g.kind
        if k in ("CNOT", "H", "S", "T", "Tdg", "Rx", "Ry", "Rz"):
            out.add(g)
        elif k == "X":
            # exact Clifford: X = H S S H  (avoids charging rotation synthesis)
            q = g.qubits[0]
            out.extend([gate("H", q), gate("S", q), gate("S", q), gate("H", q)])
        elif k == "TK1":
            a, b, c = g.params
            q = g.qubits[0]
            out.extend([gate("Rz", q, c), gate("Rx", q, b), gate("Rz", q, a)])
        elif k in ("CRy", "CRx", "CRz"):
            out.extend(expand_controlled_rotation(g, keep_zero_rotations=True))
        elif k == "Toffoli":
            out.extend(_toffoli_clifford_t(*g.qubits))
        elif k == "MultiControlledX":
            for tof in expand_mcx(g.controls, g.target, ancillas):
                if tof.kind == "Toffoli":
                    out.extend(_toffoli_clifford_t(*tof.qubits))
                else:
                    out.add(tof)
        else:
            raise ValueError(f"unknown gate kind {k}")
    return out


def rebase_tk1_cnot(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to the universal NISQ gateset {TK1, CNOT}.

    Each single-qubit gate maps to one TK1; Toffoli and multi-controlled X
    go through their fixed Clifford+T decompositions first.  Action is
    preserved up to global phase (ancillas, if any, start and end in 0).
    """
    extra = _mcx_ancilla_need(circuit)
    n = circuit.n_qubits
    out = QuantumCircuit(n + extra, circuit.name)
    out.boxes = list(circuit.boxes)
    ancillas = list(range(n, n + extra))

    def emit(g: Gate):
        k = g.kind
        if k == "CNOT":
            out.add(g)
        elif k == "TK1":
            out.add(g)
        elif k in ("X", "H", "S", "T", "Tdg", "Rx", "Ry", "Rz"):
            a, b, c = zxz_angles(single_qubit_matrix(g))
            out.append("TK1", g.qubits[0], a, b, c)
        elif k in ("CRy", "CRx", "CRz"):
            for sub in expand_controlled_rotation(g, keep_zero_rotations=False):
                emit(sub)
        elif k == "Toffoli":
            for sub in _toffoli_clifford_t(*g.qubits):
                emit(sub)
        elif k == "MultiControlledX":
            for sub in expand_mcx(g.controls, g.target, ancillas):
                emit(sub)
        else:
            raise ValueError(f"unknown gate kind {k}")

    for g in circuit.gates:
        emit(g)
    return out


def count_nisq(circuit: QuantumCircuit) -> NisqCounts:
    """Exact counts and longest-chain depths of a {TK1, CNOT} circuit."""
    for g in circuit.gates:
        if g.kind not in ("TK1", "CNOT"):
            raise ValueError(f"circuit not rebased: found {g.kind}")
    cnot = sum(1 for g in circuit.gates if g.kind == "CNOT")
    tk1 = len(circuit.gates) - cnot
    depth = [0] * circuit.n_qubits
    cnot_depth = [0] * circuit.n_qubits
    tk1_depth = [0] * circuit.n_qubits
    for g in circuit.gates:
        qs = g.qubits
        d = max(depth[q] for q in qs) + 1
        dc = max(cnot_depth[q] for q in qs) + (1 if g.kind == "CNOT" else 0)
        dt = max(tk1_depth[q] for q in qs) + (1 if g.kind == "TK1" else 0)
        for q in qs:
            depth[q] = d
            cnot_depth[q] = dc
            tk1_depth[q] = dt
    total_gates = len(circuit.gates)
    total_depth = max(depth, default=0)
    cnot_d = max(cnot_depth, default=0)
    tk1_d = max(tk1_depth, default=0)
    for b in circuit.boxes:
        total_gates += b.total_gates
        cnot += b.gate_counts.get("CNOT", 0)
        tk1 += b.gate_counts.get("TK1", 0)
        total_depth += b.total_depth if b.total_depth is not None else b.total_gates
        cnot_d += (
            b.cnot_depth if b.cnot_depth is not None else b.gate_counts.get("CNOT", 0)
        )
        tk1_d += (
            b.tk1_depth if b.tk1_depth is not None else b.gate_counts.get("TK1", 0)
        )
    return NisqCounts(
        n_qubits=circuit.n_qubits,
        total_gates=total_gates,
        cnot_count=cnot,
        tk1_count=tk1,
        total_depth=total_depth,
        cnot_depth=cnot_d,
        tk1_depth=tk1_d,
    )


@dataclass(frozen=True)
class FtGateCounts:
    """Rotation and exact-T content of a lowered circuit."""

    n_qubits: int
    rotation_count: int
    t_count_exact: int
    clifford_count: int

    @property
    def total_exact_gates(self) -> int:
        return self.rotation_count + self.t_count_exact + self.clifford_count


def count_ft_content(lowered: QuantumCircuit) -> FtGateCounts:
    rot = t = cliff = 0
    for g in lowered.gates:
        if g.kind in ("Rx", "Ry", "Rz"):
            rot += 1
        elif g.kind in ("T", "Tdg"):
            t += 1
        elif g.kind in ("CNOT", "H", "S"):
            cliff += 1
        else:
            raise ValueError(f"circuit not lowered: found {g.kind}")
    for b in lowered.boxes:
        rot += sum(b.gate_counts.get(k, 0) for k in ("Rx", "Ry", "Rz"))
        t += b.t_count if b.t_count is not None else b.gate_counts.get("T", 0)
        cliff += sum(b.gate_counts.get(k, 0) for k in ("CNOT", "H", "S"))
    return FtGateCounts(lowered.n_qubits, rot, t, cliff)


def t_depth(lowered: QuantumCircuit, t_per_rotation: int) -> int:
    """Longest T-chain, charging ``t_per_rotation`` sequential T gates per
    rotation gate; T gates on distinct qubits may run simultaneously."""
    depth = [0] * lowered.n_qubits
    for g in lowered.gates:
        if g.kind in ("T", "Tdg"):
            w = 1
        elif g.kind in ("Rx", "Ry", "Rz"):
            w = t_per_rotation
        else:
            w = 0
        d = max(depth[q] for q in g.qubits) + w
        for q in g.qubits:
            depth[q] = d
    d = max(depth, default=0)
    for b in lowered.boxes:
        if b.t_depth is not None:
            d += b.t_depth
        else:
            d += (b.t_count or 0) + t_per_rotation * sum(
                b.gate_counts.get(k, 0) for k in ("Rx", "Ry", "Rz")
            )
    return d
