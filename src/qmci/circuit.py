"""Gate-level circuit IR shared by every module of the engine.

Conventions fixed here and relied on everywhere else:

* Qubits are indexed 0..n-1.  Within any register the *first* listed qubit
  is the most significant bit, so a register's content read in listing
  order is an ordinary binary number.
* A circuit is an ordered gate list; composition is concatenation.
* Circuits are treated as immutable values once built.  ``add`` returns
  ``self`` purely for chaining while a builder constructs the object.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .gates import Gate, gate


@dataclass
class ResourceBox:
    """Opaque stand-in for a sub-circuit: counts only, no gates.

    ``gate_counts`` maps gate kind to count (rebased kinds for NISQ use,
    lowered kinds for fault-tolerant use).  An unset depth or T count is
    the box's gate count of that class run sequentially: ``total_depth``
    is all its gates, ``cnot_depth`` its CNOTs, ``tk1_depth`` its TK1s,
    ``t_count`` its T and Tdg gates, and ``t_depth`` its T count plus the
    T gates of its rotations.
    """

    n_qubits: int = 0
    gate_counts: dict = field(default_factory=dict)
    placement: int = 0  # gate position in the host circuit
    total_depth: int | None = None
    cnot_depth: int | None = None
    tk1_depth: int | None = None
    t_count: int | None = None
    t_depth: int | None = None

    def __post_init__(self):
        if any(v < 0 for v in self.gate_counts.values()):
            raise ValueError("negative count in resource box")

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())

    def counts(self, classes: dict) -> dict:
        """What the box adds to each count class of ``classes`` (gate kind
        -> class; a kind outside it counts in class None).  A set
        ``t_count`` is the box's count of class "t_count"."""
        out = dict.fromkeys(classes.values(), 0)
        for kind, n in self.gate_counts.items():
            c = classes.get(kind)
            out[c] = out.get(c, 0) + n
        if self.t_count is not None and "t_count" in out:
            out["t_count"] = self.t_count
        return out

    def depth(self, chain: str, cost: dict, counts: dict) -> int:
        """What the box adds to depth ``chain``: its field of that name if
        set, else its ``counts`` run sequentially at ``cost`` per gate of
        each class."""
        d = getattr(self, chain)
        return d if d is not None else sum(w * counts.get(c, 0) for c, w in cost.items())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceBox":
        return cls(**d)


class QuantumCircuit:
    """Ordered gate list over ``n_qubits`` named qubits."""

    def __init__(self, n_qubits: int, name: str = ""):
        if n_qubits < 0:
            raise ValueError("n_qubits must be >= 0")
        self.n_qubits = n_qubits
        self.name = name
        self.gates: list[Gate] = []
        self.boxes: list[ResourceBox] = []

    def add(self, g: Gate) -> "QuantumCircuit":
        if any(q >= self.n_qubits or q < 0 for q in g.qubits):
            raise ValueError(
                f"gate {g.kind} on {g.qubits} out of range for {self.n_qubits} qubits"
            )
        self.gates.append(g)
        return self

    def append(self, kind: str, qubits, *params) -> "QuantumCircuit":
        return self.add(gate(kind, qubits, *params))

    def extend(self, gates) -> "QuantumCircuit":
        for g in gates:
            self.add(g)
        return self

    def compose(self, other: "QuantumCircuit", offset: int = 0) -> "QuantumCircuit":
        """New circuit: self then other, other's qubits shifted by ``offset``."""
        if offset < 0:
            raise ValueError(f"compose offset {offset} is negative")
        out = QuantumCircuit(max(self.n_qubits, offset + other.n_qubits), self.name)
        out.gates = self.gates + [Gate(g.kind, g.params, tuple(q + offset for q in g.qubits))
                                  for g in other.gates]
        out.boxes = self.boxes + [replace(b, placement=len(self.gates) + b.placement)
                                  for b in other.boxes]
        return out

    def widened(self, n_qubits: int) -> "QuantumCircuit":
        """Same gates on a wider register."""
        if n_qubits < self.n_qubits:
            raise ValueError("cannot shrink a circuit")
        out = QuantumCircuit(n_qubits, self.name)
        out.gates = list(self.gates)
        out.boxes = list(self.boxes)
        return out

    def copy(self) -> "QuantumCircuit":
        return self.widened(self.n_qubits)

    def inverse(self) -> "QuantumCircuit":
        if self.boxes:
            raise ValueError("cannot invert a circuit containing resource boxes")
        out = QuantumCircuit(self.n_qubits, self.name)
        out.gates = [h for g in reversed(self.gates) for h in g.inverse_gates()]
        return out

    def key(self):
        """Hashable identity used for memoising exact simulations."""
        return (
            self.n_qubits,
            tuple((g.kind, g.params, g.qubits) for g in self.gates),
            len(self.boxes),
        )

    def __repr__(self):
        return f"QuantumCircuit(n_qubits={self.n_qubits}, gates={len(self.gates)}, name={self.name!r})"

    # JSON wire format: {"n_qubits": int, "gates": [{kind, params, qubits}...]}
    def to_dict(self) -> dict:
        d = {
            "n_qubits": self.n_qubits,
            "gates": [
                {"kind": g.kind, "params": list(g.params), "qubits": list(g.qubits)}
                for g in self.gates
            ],
        }
        if self.name:
            d["name"] = self.name
        if self.boxes:
            d["boxes"] = [b.to_dict() for b in self.boxes]
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "QuantumCircuit":
        qc = cls(int(d["n_qubits"]), d.get("name", ""))
        for g in d["gates"]:
            qc.append(g["kind"], g["qubits"], *g.get("params", []))
        qc.boxes = [ResourceBox.from_dict(b) for b in d.get("boxes", [])]
        return qc

    @classmethod
    def from_json(cls, s: str) -> "QuantumCircuit":
        return cls.from_dict(json.loads(s))


def controlled_x(controls, target) -> Gate:
    """X / CNOT / Toffoli / MultiControlledX depending on the control count."""
    controls = tuple(controls)
    if len(controls) == 0:
        return gate("X", target)
    if len(controls) == 1:
        return gate("CNOT", (*controls, target))
    if len(controls) == 2:
        return gate("Toffoli", (*controls, target))
    return gate("MultiControlledX", (*controls, target))
