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
  the zero-angle ones, and maps each rotation it keeps to one TK1.

Both passes share one expansion and differ only in how they map each CNOT
or single-qubit gate it leaves.  Every counter walks the source circuit's
gates once: each distinct gate signature gets a template, the expansion of
that gate alone on local wires, holding its gates per count class (from a
table from gate kind to count class) and a longest-path matrix per depth
chain.  The counts of a compiled circuit therefore come without building
it; ``rebase_tk1_cnot`` and ``lower_to_rotations_clifford_t`` build it.

Depths use unit cost per gate and count the longest chain of gates
sharing qubits; no peephole optimisation is attempted, so raw depths of
hand-published circuits will exceed optimised published figures.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from math import pi
from typing import Callable

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
        return (-pi / 2.0, phi, pi / 2.0)
    raise ValueError(kind)


_CONTROLLED_ROTATIONS = ("CRy", "CRx", "CRz")


def _abc_sequence(g: Gate) -> tuple:
    """The ABC decomposition of a controlled rotation in time order, as
    (kind, qubits, angle) with angle None for the two CNOTs.

    C on target, CNOT, B on target, CNOT, A on target, plus a (zero-angle
    here) Rz on the control: for our rotation kinds the controlled-phase
    contribution is zero.
    """
    ctl, tgt = g.qubits
    b, gamma, d = _zyz_angles_for_rotation(g.kind, g.params[0])
    return (
        ("Rz", tgt, (d - b) / 2.0),       # C = Rz((d-b)/2)
        ("CNOT", (ctl, tgt), None),
        ("Rz", tgt, -(d + b) / 2.0),      # B = Ry(-g/2) Rz(-(d+b)/2): Rz first
        ("Ry", tgt, -gamma / 2.0),
        ("CNOT", (ctl, tgt), None),
        ("Ry", tgt, gamma / 2.0),         # A = Rz(b) Ry(g/2): Ry first
        ("Rz", tgt, b),
        ("Rz", ctl, 0.0),                 # controlled-phase correction
    )


def _kept(angle, keep_zero_rotations: bool) -> bool:
    """Whether an ABC step is emitted: CNOTs always, rotations when zero
    angles are kept or the angle is not zero."""
    return angle is None or keep_zero_rotations or abs(angle) > 1e-15


def expand_controlled_rotation(g: Gate, keep_zero_rotations: bool) -> list[Gate]:
    """ABC decomposition of CRx/CRy/CRz into CNOTs and six rotations; a
    zero-angle rotation is emitted only when ``keep_zero_rotations``."""
    return [gate(kind, qs) if a is None else gate(kind, qs, a)
            for kind, qs, a in _abc_sequence(g) if _kept(a, keep_zero_rotations)]


# gate kind -> count class, for the two compiled gate sets; a class or
# chain named after a ResourceBox field takes that field's value when set
_NISQ_CLASSES = {"CNOT": "cnot_count", "TK1": "tk1_count"}
_FT_CLASSES = {
    **dict.fromkeys(("Rx", "Ry", "Rz"), "rotation_count"),
    **dict.fromkeys(("T", "Tdg"), "t_count"),
    **dict.fromkeys(("CNOT", "H", "S"), "clifford_count"),
}


def _tk1_leaf(g: Gate) -> tuple[Gate, ...]:
    return (gate("TK1", g.qubits[0], *zxz_angles(single_qubit_matrix(g))),)


def _rotation_clifford_t_leaf(g: Gate) -> tuple[Gate, ...]:
    q = g.qubits[0]
    if g.kind == "X":
        # exact Clifford: X = H S S H  (avoids charging rotation synthesis)
        return (gate("H", q), gate("S", q), gate("S", q), gate("H", q))
    a, b, c = g.params  # TK1
    return (gate("Rz", q, c), gate("Rx", q, b), gate("Rz", q, a))


@dataclass(frozen=True)
class _Pass:
    """One compile pass: its gate set, each kind mapped to its count class
    (``classes``), the map ``leaf`` of any other CNOT or single-qubit gate
    into that set, whether controlled rotations keep zero angles, and what
    it calls a circuit it compiled, for errors."""

    name: str
    classes: dict
    leaf: Callable
    keep_zero_rotations: bool


_NISQ = _Pass("rebased", _NISQ_CLASSES, _tk1_leaf, False)
_FT = _Pass("lowered", _FT_CLASSES, _rotation_clifford_t_leaf, True)


def _mcx_ancillas(circuit: QuantumCircuit) -> list[int]:
    """Clean ancillas for the widest multi-controlled X, at the top of the
    register."""
    extra = max((len(g.controls) - 2 for g in circuit.gates
                 if g.kind == "MultiControlledX"), default=0)
    return list(range(circuit.n_qubits, circuit.n_qubits + extra))


def _expand(circuit: QuantumCircuit, p: _Pass) -> QuantumCircuit:
    """The expansion both compile passes share.

    Toffoli, multi-controlled X and controlled rotations expand into CNOT
    and single-qubit gates; a gate of the pass's gate set stays as it is,
    and its ``leaf`` maps any other to gates of the set.
    """
    ancillas = _mcx_ancillas(circuit)
    out = QuantumCircuit(circuit.n_qubits + len(ancillas), circuit.name)
    out.boxes = list(circuit.boxes)

    def emit(gates):
        for g in gates:
            k = g.kind
            if k in p.classes:
                out.add(g)
            elif k == "Toffoli":
                emit(_toffoli_clifford_t(*g.qubits))
            elif k == "MultiControlledX":
                emit(expand_mcx(g.controls, g.target, ancillas))
            elif k in _CONTROLLED_ROTATIONS:
                emit(expand_controlled_rotation(g, p.keep_zero_rotations))
            else:
                emit(p.leaf(g))

    emit(circuit.gates)
    return out


def lower_to_rotations_clifford_t(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to {CNOT, H, S, T, Tdg, Rx, Ry, Rz}.

    Controlled rotations expand to exactly six uncontrolled rotations each;
    Toffoli and multi-controlled X expand to their exact Clifford+T forms.
    Statevector action is preserved up to global phase.
    """
    return _expand(circuit, _FT)


def rebase_tk1_cnot(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rebase to the universal NISQ gateset {TK1, CNOT}.

    Each single-qubit gate maps to one TK1; Toffoli and multi-controlled X
    go through their fixed Clifford+T decompositions first.  Action is
    preserved up to global phase (ancillas, if any, start and end in 0).
    """
    return _expand(circuit, _NISQ)


# --------------------------------------------------------------------------
# counting

# depth chain -> cost of one gate of each class; a box's gates of a kind
# outside the class table count in class None
_NISQ_CHAINS = {
    "total_depth": {"cnot_count": 1, "tk1_count": 1, None: 1},
    "cnot_depth": {"cnot_count": 1},
    "tk1_depth": {"tk1_count": 1},
}


def _signature(g: Gate, p: _Pass) -> tuple:
    """What a gate's compiled form depends on: its kind, its operand count
    and, for a controlled rotation whose zero angles the pass drops, which
    of its ABC steps are kept."""
    if g.kind in _CONTROLLED_ROTATIONS and not p.keep_zero_rotations:
        return g.kind, tuple(_kept(a, False) for _, _, a in _abc_sequence(g))
    return g.kind, len(g.qubits)


@dataclass(frozen=True, eq=False)
class _Template:
    """One gate compiled alone on local wires 0..k-1.  ``counts`` are its
    gates per count class; ``paths`` holds, per depth chain and per output
    wire j, the pairs (i, w) where w is the costliest path from input wire
    i to output wire j (no pair when no path joins them), so a walk sets
    out_j = max_i(in_i + w).  When every input reaches every output at one
    cost per chain (a one-qubit gate, a CNOT), ``uniform`` holds those
    costs."""

    counts: dict
    paths: tuple
    uniform: tuple


def _template(g: Gate, p: _Pass, chains: dict) -> _Template:
    k = len(g.qubits)
    local = QuantumCircuit(k).add(Gate(g.kind, g.params, tuple(range(k))))
    compiled = _expand(local, p).gates
    counts = Counter(p.classes[x.kind] for x in compiled)
    paths = []
    for cost in chains.values():
        rows = []
        for i in range(k):
            wire = [None] * k  # None: no path from input i yet
            wire[i] = 0
            for x in compiled:
                live = [wire[q] for q in x.qubits if wire[q] is not None]
                if live:
                    d = max(live) + cost.get(p.classes[x.kind], 0)
                    for q in x.qubits:
                        wire[q] = d
            rows.append(wire)
        paths.append(tuple(tuple((i, rows[i][j]) for i in range(k) if rows[i][j] is not None)
                           for j in range(k)))
    weights = [{w for out in chain for _, w in out} for chain in paths]
    uniform = ()
    if all(len(out) == k for chain in paths for out in chain) and all(len(ws) == 1 for ws in weights):
        uniform = tuple(ws.pop() for ws in weights)
    return _Template(dict(counts), tuple(paths), uniform)


# (pass, signature, chains) -> _Template.  Templates depend on no circuit
# data, only on the gate signature and the chain costs; the table is
# emptied when it reaches _TEMPLATE_LIMIT, which bounds it for any mix of
# T-depth costs.
_TEMPLATE_CACHE: dict = {}
_TEMPLATE_LIMIT = 1024


def _walk(circuit: QuantumCircuit, p: _Pass, chains: dict):
    """Count ``circuit`` as pass ``p`` compiles it, without building the
    compiled circuit: its gates per class and every depth chain, in one
    walk over the source gates.  A circuit already in the pass's gate set
    counts as itself.

    Each multi-controlled X goes through ``expand_mcx`` on the expansion's
    ancillas; every other gate adds its template's counts and moves the
    wires it touches along the template's paths.  ``chains`` maps a depth
    name to the cost of one gate of each class, and a chain's depth is its
    costliest path through gates that share qubits.  Each resource box then
    adds its own counts and depths (``ResourceBox``).  Returns (counts,
    depths, compiled qubit count).
    """
    ancillas = _mcx_ancillas(circuit)
    n = circuit.n_qubits + len(ancillas)
    chain_key = tuple((name, tuple(cost.items())) for name, cost in chains.items())
    by_kind: dict = {}  # kind -> template, for kinds whose signature is the kind

    def template(g):
        sig = _signature(g, p)
        key = (p.name, sig, chain_key)
        t = _TEMPLATE_CACHE.get(key)
        if t is None:
            if len(_TEMPLATE_CACHE) >= _TEMPLATE_LIMIT:
                _TEMPLATE_CACHE.clear()
            t = _TEMPLATE_CACHE[key] = _template(g, p, chains)
        if sig == (g.kind, len(g.qubits)):
            by_kind[g.kind] = t
        return t

    used = []
    wires = [[0] * n for _ in chains]
    for source in circuit.gates:
        if source.kind == "MultiControlledX":
            gates = expand_mcx(source.controls, source.target, ancillas)
        else:
            gates = (source,)
        for g in gates:
            t = by_kind.get(g.kind) or template(g)
            used.append(t)
            if not wires:
                continue
            qs = g.qubits
            if not t.uniform:
                for wire, paths in zip(wires, t.paths):
                    ins = [wire[q] for q in qs]
                    for q, path in zip(qs, paths):
                        wire[q] = max([ins[i] + w for i, w in path])
            elif len(qs) == 1:
                q = qs[0]
                for wire, w in zip(wires, t.uniform):
                    wire[q] += w
            else:
                for wire, w in zip(wires, t.uniform):
                    d = max([wire[q] for q in qs]) + w
                    for q in qs:
                        wire[q] = d
    counts = dict.fromkeys(p.classes.values(), 0)
    for t, n_uses in Counter(used).items():
        for c, m in t.counts.items():
            counts[c] += n_uses * m
    depths = {name: max(wire, default=0) for name, wire in zip(chains, wires)}
    for b in circuit.boxes:
        box = b.counts(p.classes)
        for c, m in box.items():
            counts[c] = counts.get(c, 0) + m
        for name, cost in chains.items():
            depths[name] += b.depth(name, cost, box)
    return counts, depths, n


def _require_compiled(circuit: QuantumCircuit, p: _Pass):
    bad = next((g.kind for g in circuit.gates if g.kind not in p.classes), None)
    if bad is not None:
        raise ValueError(f"circuit not {p.name}: found {bad}")


def rebased_counts(circuit: QuantumCircuit) -> NisqCounts:
    """``count_nisq(rebase_tk1_cnot(circuit))``, without building the
    rebased circuit."""
    counts, depths, n = _walk(circuit, _NISQ, _NISQ_CHAINS)
    return NisqCounts(
        n_qubits=n,
        total_gates=sum(counts.values()),
        cnot_count=counts["cnot_count"],
        tk1_count=counts["tk1_count"],
        **depths,
    )


def count_nisq(circuit: QuantumCircuit) -> NisqCounts:
    """Exact counts and longest-chain depths of a {TK1, CNOT} circuit."""
    _require_compiled(circuit, _NISQ)
    return rebased_counts(circuit)


@dataclass(frozen=True)
class FtGateCounts:
    """Rotation and exact-T content of a lowered circuit."""

    n_qubits: int
    rotation_count: int
    t_count_exact: int
    clifford_count: int


def lowered_counts(circuit: QuantumCircuit) -> FtGateCounts:
    """``count_ft_content(lower_to_rotations_clifford_t(circuit))``,
    without building the lowered circuit."""
    counts, _, n = _walk(circuit, _FT, {})
    return FtGateCounts(n, counts["rotation_count"], counts["t_count"], counts["clifford_count"])


def count_ft_content(lowered: QuantumCircuit) -> FtGateCounts:
    _require_compiled(lowered, _FT)
    return lowered_counts(lowered)


def lowered_t_depth(circuit: QuantumCircuit, t_per_rotation: int) -> int:
    """``t_depth(lower_to_rotations_clifford_t(circuit), t_per_rotation)``,
    without building the lowered circuit."""
    chain = {"t_count": 1, "rotation_count": t_per_rotation}
    return _walk(circuit, _FT, {"t_depth": chain})[1]["t_depth"]


def t_depth(lowered: QuantumCircuit, t_per_rotation: int) -> int:
    """Longest T-chain, charging ``t_per_rotation`` sequential T gates per
    rotation gate; T gates on distinct qubits may run simultaneously."""
    _require_compiled(lowered, _FT)
    return lowered_t_depth(lowered, t_per_rotation)
