"""Distribution loading: canned loader circuits, an exact PMF loader, a
hardware-efficient-ansatz trainer, a quantum-walk binomial reference, and
distribution-quality metrics.

A :class:`DistributionCircuit` is the engine's central object: a circuit
plus, per dimension, the register qubits (MSB first), the left endpoint
``x_l`` and the grid spacing ``delta``, so register content ``k`` decodes
to the real value ``x_l + k * delta``; plus a registry of indicator
qubits added by the payoff builder.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .circuit import QuantumCircuit
from .gates import gate
from .simulator import apply_gate, marginal_pmf, simulate, zero_state


@dataclass(frozen=True)
class Dimension:
    qubits: tuple[int, ...]  # MSB first
    x_l: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("duplicate qubit in dimension register")

    @property
    def n(self) -> int:
        return len(self.qubits)

    @property
    def n_points(self) -> int:
        return 2 ** len(self.qubits)

    @property
    def x_u(self) -> float:
        return self.x_l + (self.n_points - 1) * self.delta

    def values(self) -> np.ndarray:
        return self.x_l + self.delta * np.arange(self.n_points)

    def decode(self, code: int) -> float:
        return self.x_l + code * self.delta


@dataclass
class DistributionCircuit:
    circuit: QuantumCircuit
    dims: list[Dimension]
    indicators: list[int] = field(default_factory=list)
    # scratch qubits guaranteed to be |0> before and after the circuit
    ancillas: list[int] = field(default_factory=list)

    def __post_init__(self):
        used: set[int] = set()
        for d in self.dims:
            if used & set(d.qubits):
                raise ValueError("dimension registers overlap")
            used |= set(d.qubits)
        for q in self.indicators:
            if q in used:
                raise ValueError("indicator qubit overlaps a register")
            used.add(q)
        if any(q >= self.circuit.n_qubits or q < 0 for q in used):
            raise ValueError("referenced qubit outside circuit")

    def copy(self) -> "DistributionCircuit":
        return DistributionCircuit(
            self.circuit.copy(), list(self.dims), list(self.indicators), list(self.ancillas)
        )

    def dim_pmf(self, dim: int) -> np.ndarray:
        """Exact marginal PMF of one dimension (simulates the circuit)."""
        state = simulate(self.circuit)
        return marginal_pmf(state, self.dims[dim].qubits)

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit.to_dict(),
            "dims": [
                {"qubits": list(d.qubits), "x_l": d.x_l, "delta": d.delta}
                for d in self.dims
            ],
            "indicators": list(self.indicators),
            "ancillas": list(self.ancillas),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionCircuit":
        return cls(
            QuantumCircuit.from_dict(d["circuit"]),
            [
                Dimension(tuple(x["qubits"]), float(x["x_l"]), float(x["delta"]))
                for x in d["dims"]
            ],
            list(d.get("indicators", [])),
            list(d.get("ancillas", [])),
        )

    @classmethod
    def from_json(cls, s: str) -> "DistributionCircuit":
        return cls.from_dict(json.loads(s))


def rescale(dc: DistributionCircuit, dim: int, new_x_l: float, new_delta: float) -> DistributionCircuit:
    """Location-scale reinterpretation: the circuit is untouched, only the
    metadata of the chosen dimension changes."""
    if new_delta <= 0:
        raise ValueError("delta must be positive")
    if dim < 0 or dim >= len(dc.dims):
        raise ValueError(f"no dimension {dim}")
    out = dc.copy()
    out.dims[dim] = replace(out.dims[dim], x_l=float(new_x_l), delta=float(new_delta))
    return out


# --------------------------------------------------------------------------
# canned six-qubit loader circuits (HWE ansatz, angles as published)

_GAUSSIAN_6Q = [
    # per qubit: seven Ry layer angles (radians)
    (0.31, 2.58, 5.39, 1.51, 0.00, 0.00, 4.71),
    (1.26, 0.56, 0.35, 3.14, 4.85, 1.57, 3.06),
    (4.37, 4.71, 1.57, 3.14, 0.00, 0.00, 0.02),
    (0.00, 1.57, 0.20, 1.61, 0.88, 6.03, 0.00),
    (1.66, 5.93, 6.02, 6.07, 3.54, 5.90, 0.00),
    (4.80, 3.19, 6.25, 4.76, 4.34, 6.03, 0.00),
]

_LOGNORMAL_1_800_6Q = [
    (3.09, 1.47, 3.09, 0.93, 3.21, 5.05, 0.10),
    (3.00, 3.67, 6.19, 0.20, 6.06, 0.18, 0.43),
    (3.65, 3.26, 0.27, 3.97, 0.43, 1.63, 2.14),
    (2.48, 2.41, 6.28, 0.80, 5.60, 5.80, 4.28),
    (3.92, 1.51, 0.10, 4.42, 5.77, 4.98, 5.18),
    (0.74, 5.01, 0.56, 0.30, 5.62, 0.70, 0.26),
]

_LOGNORMAL_1_400_6Q = [
    (3.17, 0.51, 6.21, 6.25, 0.14, 1.16, 6.28),
    (0.51, 0.04, 3.06, 0.23, 1.88, 5.36, 6.20),
    (2.09, 4.12, 6.21, 1.76, 0.94, 0.77, 6.22),
    (3.28, 2.58, 5.92, 4.95, 5.32, 0.35, 0.09),
    (5.92, 1.70, 5.32, 4.98, 0.35, 6.25, 0.07),
    (0.77, 1.30, 0.45, 2.89, 4.72, 0.07, 6.23),
]

_STANDARD = {
    "gaussian_unit_6q": (_GAUSSIAN_6Q, -5.0, 10.0 / 63.0),
    "lognormal_1_800_6q": (_LOGNORMAL_1_800_6Q, 0.83, 0.01),
    "lognormal_1_400_6q": (_LOGNORMAL_1_400_6Q, 0.77, 0.01),
}


def hwe_circuit(angles: np.ndarray, name: str = "hwe") -> QuantumCircuit:
    """HWE ansatz: Ry layers interleaved with a linear CNOT ladder.

    ``angles`` has shape (n_layers + 1, n_qubits); layer k applies
    Ry(angles[k][q]) to every qubit, followed (except after the last
    layer) by CNOTs 0->1, 1->2, ..., n-2 -> n-1.  The trainer relies on
    this order: the k-th Ry of the circuit carries ``angles.flat[k]``.
    """
    angles = np.asarray(angles, dtype=float)
    n_rot_layers, n = angles.shape
    qc = QuantumCircuit(n, name)
    for layer in range(n_rot_layers):
        for q in range(n):
            qc.append("Ry", q, angles[layer][q])
        if layer < n_rot_layers - 1:
            for q in range(n - 1):
                qc.append("CNOT", (q, q + 1))
    return qc


def standard_circuit(kind: str) -> DistributionCircuit:
    """One of the published six-qubit loader circuits with its metadata."""
    if kind not in _STANDARD:
        raise ValueError(f"unknown standard circuit {kind!r}")
    per_qubit, x_l, delta = _STANDARD[kind]
    angles = np.array(per_qubit, dtype=float).T  # (7 layers, 6 qubits)
    qc = hwe_circuit(angles, name=kind)
    return DistributionCircuit(qc, [Dimension(tuple(range(6)), x_l, delta)])


# --------------------------------------------------------------------------
# exact PMF loader (uniformly controlled Ry tree, no ancillas)


def _multiplexed_ry(controls: list[int], target: int, angles: np.ndarray) -> list:
    """Uniformly controlled Ry: rotation angles[v] when the control register
    (MSB first) reads v.  Expands to plain Ry and CNOT gates."""
    out = []
    if np.max(np.abs(angles), initial=0.0) < 1e-15:
        return out
    if not controls:
        out.append(gate("Ry", target, float(angles[0])))
        return out
    half = len(angles) // 2
    s = (angles[:half] + angles[half:]) / 2.0
    d = (angles[:half] - angles[half:]) / 2.0
    rest = controls[1:]
    out += _multiplexed_ry(rest, target, s)
    if np.max(np.abs(d), initial=0.0) >= 1e-15:
        out.append(gate("CNOT", (controls[0], target)))
        out += _multiplexed_ry(rest, target, d)
        out.append(gate("CNOT", (controls[0], target)))
    return out


def exact_pmf_loader(pmf) -> DistributionCircuit:
    """Circuit preparing ``sum_i sqrt(pmf[i]) |i>`` exactly (binary tree of
    conditional-probability rotations; no ancillas)."""
    pmf = np.asarray(pmf, dtype=float)
    n = int(round(math.log2(len(pmf))))
    if 2**n != len(pmf):
        raise ValueError("pmf length must be a power of two")
    if np.any(pmf < 0):
        raise ValueError("pmf entries must be non-negative")
    if abs(float(pmf.sum()) - 1.0) > 1e-9:
        raise ValueError(f"pmf sums to {pmf.sum()}, expected 1")
    qc = QuantumCircuit(n, "exact_pmf")
    # mass[v] = total probability of the length-j prefix v
    mass = pmf.copy()
    masses = [mass]
    for _ in range(n):
        mass = mass.reshape(-1, 2).sum(axis=1)
        masses.append(mass)
    masses.reverse()  # masses[j] has 2^j entries (prefix masses at depth j)
    for j in range(n):
        pref = masses[j + 1].reshape(-1, 2)
        m0, m1 = pref[:, 0], pref[:, 1]
        angles = np.where(
            m0 + m1 > 0, 2.0 * np.arctan2(np.sqrt(m1), np.sqrt(m0)), 0.0
        )
        qc.extend(_multiplexed_ry(list(range(j)), j, angles))
    return DistributionCircuit(qc, [Dimension(tuple(range(n)), 0.0, 1.0)])


# --------------------------------------------------------------------------
# HWE trainer


TRAIN_NORMS = ("L1", "L2", "Linf")


def _prepared_amplitudes(angles: np.ndarray) -> np.ndarray:
    state = simulate(hwe_circuit(angles))
    return state.real  # Ry + CNOT circuits are real orthogonal


def _norm_cost(target: np.ndarray, prepared: np.ndarray, norm: str):
    """Distance between ``target`` and ``prepared``, row by row when
    ``prepared`` holds one amplitude vector per row."""
    d = target - prepared
    if norm == "L1":
        return np.abs(d).sum(axis=-1)
    if norm == "L2":
        return np.sqrt((d * d).sum(axis=-1))
    if norm == "Linf":
        return np.abs(d).max(axis=-1)
    raise ValueError(f"unknown norm {norm!r}")


def _flipped(psi: np.ndarray, q: int, n: int) -> np.ndarray:
    """Ry_q(pi) psi.  Since Ry(theta) = cos(theta/2) I + sin(theta/2) Ry(pi),
    a rotation's effect is fixed by psi and this one other state."""
    out = psi.copy()
    apply_gate(out, gate("Ry", q, np.pi), n)
    return out


def _rotation_pair(psi: np.ndarray, q: int, suffix, n: int):
    """Real (u, v) such that the circuit prepares cos(theta/2) u +
    sin(theta/2) v when the state in front of an Ry on qubit ``q`` is
    ``psi``, the gates after it are ``suffix`` and its angle is theta."""
    u, v = psi.copy(), _flipped(psi, q, n)
    for g in suffix:
        apply_gate(u, g, n)
        apply_gate(v, g, n)
    return u.real, v.real


def _rotated_costs(target, u, v, thetas, norm: str) -> np.ndarray:
    """Cost of the prepared state at each angle in ``thetas``."""
    half = np.asarray(thetas, dtype=float)[:, None] / 2.0
    return _norm_cost(target, np.cos(half) * u + np.sin(half) * v, norm)


def _l2_sweep(target: np.ndarray, angles: np.ndarray, n: int) -> np.ndarray:
    """One sweep of exact sequential angle updates, in place; returns the
    prepared amplitudes after it.

    Given the other angles, the overlap with the target is cos(theta/2) f0
    + sin(theta/2) f1, maximised at theta = 2 atan2(f1, f0).  A backward
    pass of the target through the circuit (Ry(theta)^T = Ry(-theta), CNOT
    is its own inverse) stores the environment in front of each rotation;
    the gates after a rotation are not yet updated when its turn comes.
    One forward pass then carries the state in front of each rotation.
    """
    gates = hwe_circuit(angles).gates
    env = []
    e = target.astype(complex)
    for g in reversed(gates):
        if g.kind == "Ry":
            env.append(e.real.copy())
        for h in g.inverse_gates():
            apply_gate(e, h, n)
    env.reverse()
    psi = zero_state(n)
    k = 0
    for g in gates:
        if g.kind == "Ry":
            q = g.qubits[0]
            f0 = float(env[k] @ psi.real)
            f1 = float(env[k] @ _flipped(psi, q, n).real)
            if (f0, f1) != (0.0, 0.0):
                angles.flat[k] = 2.0 * np.arctan2(f1, f0)
            g = gate("Ry", q, angles.flat[k])
            k += 1
        apply_gate(psi, g, n)
    return psi.real


def _scan_sweep(target: np.ndarray, angles: np.ndarray, n: int, norm: str):
    """One sweep of coordinate scans of ``norm``, in place: per angle, a
    24-point scan, then a ternary refinement around the best point.
    Returns the prepared amplitudes after the sweep and whether any angle
    moved."""
    scan = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    gates = hwe_circuit(angles).gates
    psi = zero_state(n)
    improved = False
    k = 0
    for i, g in enumerate(gates):
        if g.kind == "Ry":
            q = g.qubits[0]
            u, v = _rotation_pair(psi, q, gates[i + 1:], n)
            saved = angles.flat[k]
            best, best_c = saved, float(_rotated_costs(target, u, v, [saved], norm)[0])
            for cand, c in zip(scan, _rotated_costs(target, u, v, scan, norm).tolist()):
                if c < best_c - 1e-15:
                    best, best_c = cand, c
            # local refinement around the best candidate
            lo, hi = best - 2 * np.pi / 24, best + 2 * np.pi / 24
            for _ in range(25):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                c1, c2 = _rotated_costs(target, u, v, [m1, m2], norm).tolist()
                if c1 < c2:
                    hi = m2
                    if c1 < best_c:
                        best, best_c = m1, c1
                else:
                    lo = m1
                    if c2 < best_c:
                        best, best_c = m2, c2
            angles.flat[k] = best
            improved |= best != saved
            g = gate("Ry", q, best)
            k += 1
        apply_gate(psi, g, n)
    return psi.real, improved


def train_hwe(
    target_pmf,
    n_layers: int,
    norm: str = "L2",
    seed: int = 0,
    max_sweeps: int = 60,
    tol: float = 1e-12,
    history: list | None = None,
    n_restarts: int = 3,
) -> tuple[DistributionCircuit, float]:
    """Train an HWE ansatz to prepare sqrt(target_pmf) (real, non-negative
    amplitude convention).

    L2 training uses exact sequential angle updates (each rotation angle has
    a closed-form optimum given the rest); L1 / Linf use the same updates as
    a warm start and then deterministic coordinate scans of the requested
    norm.  Each sweep costs one backward and one forward pass over the
    circuit (L2), or two passes over the gates after each rotation (scans);
    no angle update re-simulates the circuit.  Coordinate descent can stall
    in local optima, so up to ``n_restarts`` seeded initialisations are
    tried and the best kept.  Deterministic under ``seed``.  Returns the
    trained circuit and the final cost in the requested norm, simulated
    from the returned circuit; pass ``history`` to record the cost after
    every sweep.
    """
    if n_restarts > 1:
        best = None
        for r in range(n_restarts):
            sub = int(np.random.SeedSequence((seed, r)).generate_state(1)[0])
            hist: list | None = [] if history is not None else None
            dc, cost = train_hwe(
                target_pmf, n_layers, norm, sub, max_sweeps, tol, hist, n_restarts=1
            )
            if best is None or cost < best[1]:
                best = (dc, cost, hist)
            if cost < 1e-6:
                break
        if history is not None:
            history.extend(best[2])
        return best[0], best[1]

    target_pmf = np.asarray(target_pmf, dtype=float)
    n = int(round(math.log2(len(target_pmf))))
    if 2**n != len(target_pmf):
        raise ValueError("target pmf length must be a power of two")
    if norm not in TRAIN_NORMS:
        raise ValueError(f"invalid norm {norm!r}")
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    target = np.sqrt(np.clip(target_pmf, 0.0, None))
    target = target / np.linalg.norm(target)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_layers + 1, n))

    def record(cost):
        if history is not None:
            history.append(cost)

    # exact coordinate updates on the overlap (equivalently the L2 cost)
    last = np.inf
    for _ in range(max_sweeps):
        prepared = _l2_sweep(target, angles, n)
        cost = float(_norm_cost(target, prepared, "L2"))
        record(cost if norm == "L2" else float(_norm_cost(target, prepared, norm)))
        if abs(last - cost) < tol:
            break
        last = cost

    if norm != "L2":
        last = float(_norm_cost(target, _prepared_amplitudes(angles), norm))
        for _ in range(8):
            prepared, improved = _scan_sweep(target, angles, n, norm)
            cost = float(_norm_cost(target, prepared, norm))
            record(cost)
            if not improved or abs(last - cost) < tol:
                break
            last = cost

    final_cost = float(_norm_cost(target, _prepared_amplitudes(angles), norm))
    dc = DistributionCircuit(
        hwe_circuit(angles, name="hwe_trained"),
        [Dimension(tuple(range(n)), 0.0, 1.0)],
    )
    return dc, final_cost


# --------------------------------------------------------------------------
# quantum-walk binomial reference


def walk_binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial PMF via a continuous quantum walk on the symmetrised
    hypercube quotient (classical reference: matrix exponential, no circuit).

    Builds the (n+1)x(n+1) weighted-path adjacency matrix with
    superdiagonal sqrt((n-i)(i+1)), evolves ``exp(i tau A)`` for
    ``tau = arccos(sqrt(p))`` and squares column 0.  The walk column lists
    classes by descending success count, so it is reversed to return the
    PMF indexed by k with entry binom(n, k) p^k (1-p)^(n-k).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    adj = np.zeros((n + 1, n + 1))
    for i in range(n):
        w = math.sqrt((n - i) * (i + 1))
        adj[i, i + 1] = w
        adj[i + 1, i] = w
    tau = math.acos(math.sqrt(p))
    col = expm(1j * tau * adj)[:, 0]
    pmf = np.abs(col) ** 2
    return pmf[::-1].copy()


# --------------------------------------------------------------------------
# divergence metrics


@dataclass(frozen=True)
class DivergenceReport:
    kl_pq: float
    kl_qp: float
    js: float
    tv: float
    infidelity: float
    l1: float
    l2: float
    linf: float

    def to_dict(self) -> dict:
        return {
            k: getattr(self, k)
            for k in ("kl_pq", "kl_qp", "js", "tv", "infidelity", "l1", "l2", "linf")
        }


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def divergence_metrics(p, q) -> DivergenceReport:
    """All seven closeness metrics between two PMFs (natural log).

    Terms with p_i = 0 contribute nothing to KL; p_i > 0 against q_i = 0
    makes the corresponding KL infinite (flagged, not an error).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    for name, v in (("p", p), ("q", q)):
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {v.sum()}, expected 1")
    m = 0.5 * (p + q)
    js = 0.5 * (_kl(p, m) + _kl(q, m))
    d = p - q
    return DivergenceReport(
        kl_pq=_kl(p, q),
        kl_qp=_kl(q, p),
        js=js,
        tv=0.5 * float(np.abs(d).sum()),
        infidelity=max(0.0, 1.0 - float(np.sum(np.sqrt(p * q))) ** 2),
        l1=float(np.abs(d).sum()),
        l2=float(np.sqrt((d * d).sum())),
        linf=float(np.abs(d).max()),
    )


# --------------------------------------------------------------------------
# discretised continuous targets


def gaussian_pdf(x, mu: float = 0.0, sigma: float = 1.0):
    z = (np.asarray(x) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))


def lognormal_pdf(x, mu: float = 0.0, sigma: float = 1.0):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    z = (np.log(x[pos]) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sigma * math.sqrt(2 * math.pi))
    return out


def discretize_pdf(pdf, n_qubits: int, x_l: float, delta: float) -> np.ndarray:
    """p_i proportional to pdf(x_i) * delta on the 2^n grid, renormalised."""
    xs = x_l + delta * np.arange(2**n_qubits)
    p = np.asarray(pdf(xs), dtype=float) * delta
    s = p.sum()
    if s <= 0:
        raise ValueError("pdf vanishes on the whole grid")
    return p / s
