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

from .circuit import QuantumCircuit
from .gates import Gate
from .simulator import exact_marginal, simulate

MAX_LOADER_QUBITS = 20  # widest loader a config may ask for: 2^20 entries, 8 MB a vector
MAX_GRID_VALUE = 1e12  # bound on a config's |x_l|, delta, |mu|, sigma: grid points stay finite


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
        """Exact marginal PMF of one dimension."""
        return exact_marginal(self.circuit, self.dims[dim].qubits)

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

STANDARD_CIRCUITS = {
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
    if kind not in STANDARD_CIRCUITS:
        raise ValueError(f"unknown standard circuit {kind!r}")
    per_qubit, x_l, delta = STANDARD_CIRCUITS[kind]
    angles = np.array(per_qubit, dtype=float).T  # (7 layers, 6 qubits)
    qc = hwe_circuit(angles, name=kind)
    return DistributionCircuit(qc, [Dimension(tuple(range(6)), x_l, delta)])


# --------------------------------------------------------------------------
# exact PMF loader (uniformly controlled Ry tree, no ancillas)


def _multiplexed_ry(controls: list[int], target: int, angles: np.ndarray) -> list[Gate]:
    """Uniformly controlled Ry: rotation angles[v] when the control register
    (MSB first) reads v.  Expands to plain Ry and CNOT gates.

    The expansion is a binary tree (Moettoenen et al., quant-ph/0407010):
    a node's angle vector splits into the half-sum s and the half-difference
    d of its two halves, and the d child runs between two CNOTs from the
    node's control.  A node whose angles are all below 1e-15 in magnitude
    emits nothing, not even its CNOTs; its children are below it too, since
    |(a +- b) / 2| <= max(|a|, |b|) survives rounding.  Each level's split
    is one array expression; the gate lists are then joined bottom-up, leaf
    Ry gates first."""
    k = len(controls)
    level = angles.reshape(1, -1)
    live = [np.abs(level).max(axis=1) >= 1e-15]
    for _ in range(k):
        rows, half = level.shape[0], level.shape[1] // 2
        a, b = level[:, :half], level[:, half:]
        split = np.empty((rows, 2, half))  # node i's children: 2i = s, 2i + 1 = d
        np.add(a, b, out=split[:, 0])
        np.subtract(a, b, out=split[:, 1])
        split /= 2.0
        level = split.reshape(2 * rows, half)
        live.append(np.abs(level).max(axis=1) >= 1e-15)
    parts = [[Gate("Ry", (a,), (target,))] if on else []
             for a, on in zip(level[:, 0].tolist(), live[k].tolist())]
    for depth in range(k - 1, -1, -1):
        cnot = Gate("CNOT", (), (controls[depth], target))
        d_live = live[depth + 1][1::2].tolist()
        parts = [s + [cnot] + d + [cnot] if on else s
                 for s, d, on in zip(parts[::2], parts[1::2], d_live)]
    return parts[0]


def exact_pmf_loader(pmf) -> DistributionCircuit:
    """Circuit preparing ``sum_i sqrt(pmf[i]) |i>`` exactly (binary tree of
    conditional-probability rotations; no ancillas)."""
    pmf = np.asarray(pmf, dtype=float)
    n = int(round(math.log2(len(pmf))))
    if 2**n != len(pmf):
        raise ValueError("pmf length must be a power of two")
    if np.any(pmf < 0):
        raise ValueError("pmf entries must be non-negative")
    if not abs(float(pmf.sum()) - 1.0) <= 1e-9:
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
        qc.gates += _multiplexed_ry(list(range(j)), j, angles)  # qubits < n: no per-gate check
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


class _RyCnot:
    """Index tables for Ry and CNOT-ladder updates on real n-qubit state
    vectors (the last axis of an array), built once per ``train_hwe`` call.

    Ry(theta) x = c x + s J_q x, with c, s the cos and sin of theta/2 and
    (J_q x)[i] = -+x[partner[i]]: partner[i] is i with qubit q's bit
    flipped (qubit 0 is the most significant bit), and the sign is - where
    that bit is 0.  The CNOT ladder between layers maps basis state x to
    its prefix XOR, so the state after it is x[ladder] with ladder[y] = y ^
    (y >> 1).  The tables hold n index vectors, plus the ladder when the
    circuit has one: never more vectors than the L2 sweep's environments.
    """

    def __init__(self, n: int, ladder: bool):
        i = np.arange(1 << n)
        self.partner = [i ^ (1 << (n - 1 - q)) for q in range(n)]
        self.split = [(1 << q, 2, 1 << (n - 1 - q)) for q in range(n)]
        self.sign = np.array([[-1.0], [1.0]])  # by q's bit, on the split axes
        self.ladder = i ^ (i >> 1) if ladder else None

    def flipped(self, x: np.ndarray, q: int) -> np.ndarray:
        """J_q x as a new array: Ry(pi) x without its cos(pi/2) x term."""
        t = x.take(self.partner[q], axis=-1)
        halves = t.reshape(x.shape[:-1] + self.split[q])
        np.multiply(halves, self.sign, out=halves)
        return t

    def ry(self, x: np.ndarray, q: int, theta: float, out: np.ndarray | None = None) -> None:
        """Ry(theta) on qubit q of ``x``, in place or into ``out``.  Rounds
        as ``apply_gate`` does: each amplitude is one rounded sum of two
        rounded products, with cos and sin of theta/2 taken as
        ``ry_matrix`` takes them.  Only the sign of an exact zero may
        differ, which no cost or overlap sees."""
        t = self.flipped(x, q)
        np.multiply(t, math.sin(theta / 2), out=t)
        out = x if out is None else out
        np.multiply(x, math.cos(theta / 2), out=out)
        out += t

    def cnots(self, x: np.ndarray) -> np.ndarray:
        return x.take(self.ladder, axis=-1)


def _basis_zero(n: int) -> np.ndarray:
    psi = np.zeros(1 << n)
    psi[0] = 1.0
    return psi


def _rotation_pair(kern: _RyCnot, angles: np.ndarray, layer: int, q: int, psi: np.ndarray):
    """Real (u, v) such that the circuit prepares cos(theta/2) u +
    sin(theta/2) v when the state in front of the Ry of ``layer`` on qubit
    ``q`` is ``psi`` and that Ry's angle is theta.  Since Ry(theta) =
    cos(theta/2) I + sin(theta/2) Ry(pi), u and v are psi and Ry(pi) psi
    carried through the rest of the circuit, as the two rows of one
    array."""
    n_rot, n = angles.shape
    uv = np.empty((2, psi.size))
    uv[0] = psi
    kern.ry(psi, q, np.pi, out=uv[1])
    for q_ in range(q + 1, n):
        kern.ry(uv, q_, angles[layer, q_])
    for layer_ in range(layer + 1, n_rot):
        uv = kern.cnots(uv)
        for q_ in range(n):
            kern.ry(uv, q_, angles[layer_, q_])
    return uv[0], uv[1]


def _rotated_costs(target, u, v, thetas, norm: str) -> np.ndarray:
    """Cost of the prepared state at each angle in ``thetas``."""
    half = np.asarray(thetas, dtype=float)[:, None] / 2.0
    return _norm_cost(target, np.cos(half) * u + np.sin(half) * v, norm)


def _l2_sweep(target: np.ndarray, angles: np.ndarray, kern: _RyCnot) -> np.ndarray:
    """One sweep of exact sequential angle updates, in place; returns the
    prepared amplitudes after it.

    Given the other angles, the overlap with the target is cos(theta/2) f0
    + sin(theta/2) f1, maximised at theta = 2 atan2(f1, f0).  A backward
    pass of the target through the circuit (Ry(theta)^T = Ry(-theta), and
    the ladder's inverse permutation) stores the environment in front of
    each rotation; the gates after a rotation are not yet updated when its
    turn comes.  One forward pass then carries the state in front of each
    rotation and its image under Ry(pi).

    The environments are the columns of one array (of at least two
    columns), so each overlap is a dot product with a strided vector.
    BLAS sums those in another order than dot products of contiguous
    vectors, and this order gives the angles, bit for bit, of the
    gate-by-gate simulation on complex states that the tests keep as the
    reference.
    """
    n_rot, n = angles.shape
    env = np.empty((1 << n, max(angles.size, 2)))
    e = target.copy()
    for layer in reversed(range(n_rot)):
        if layer < n_rot - 1:
            e[kern.ladder] = e.copy()  # undo the ladder
        for q in reversed(range(n)):
            env[:, layer * n + q] = e
            kern.ry(e, q, -angles[layer, q])
    psi, flip = _basis_zero(n), np.empty(1 << n)
    cos_pi = math.cos(math.pi / 2)  # Ry(pi) = cos(pi/2) I + J: sin(pi/2) rounds to 1
    for layer in range(n_rot):
        if layer:
            psi = kern.cnots(psi)
        for q in range(n):
            t = kern.flipped(psi, q)
            np.multiply(psi, cos_pi, out=flip)
            flip += t  # Ry(pi) psi
            col = env[:, layer * n + q]
            f0, f1 = col.dot(psi), col.dot(flip)
            if (f0, f1) != (0.0, 0.0):
                angles[layer, q] = 2.0 * np.arctan2(f1, f0)
            theta = angles[layer, q]
            np.multiply(t, math.sin(theta / 2), out=t)
            np.multiply(psi, math.cos(theta / 2), out=psi)
            psi += t
    return psi


def _scan_sweep(target: np.ndarray, angles: np.ndarray, norm: str, kern: _RyCnot):
    """One sweep of coordinate scans of ``norm``, in place: per angle, a
    24-point scan, then a ternary refinement around the best point.
    Returns the prepared amplitudes after the sweep and whether any angle
    moved."""
    scan = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    n_rot, n = angles.shape
    psi = _basis_zero(n)
    improved = False
    for layer in range(n_rot):
        if layer:
            psi = kern.cnots(psi)
        for q in range(n):
            u, v = _rotation_pair(kern, angles, layer, q, psi)
            saved = angles[layer, q]
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
            angles[layer, q] = best
            improved |= best != saved
            kern.ry(psi, q, best)
    return psi, improved


def _fit(target, n, n_layers, norm, seed, max_sweeps, tol, history, kern):
    """One seeded run of ``train_hwe``: (angles, final cost)."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_layers + 1, n))

    def record(cost):
        if history is not None:
            history.append(cost)

    # exact coordinate updates on the overlap (equivalently the L2 cost)
    last = np.inf
    for _ in range(max_sweeps):
        prepared = _l2_sweep(target, angles, kern)
        cost = float(_norm_cost(target, prepared, "L2"))
        record(cost if norm == "L2" else float(_norm_cost(target, prepared, norm)))
        if abs(last - cost) < tol:
            break
        last = cost

    if norm != "L2":
        last = float(_norm_cost(target, _prepared_amplitudes(angles), norm))
        for _ in range(8):
            prepared, improved = _scan_sweep(target, angles, norm, kern)
            cost = float(_norm_cost(target, prepared, norm))
            record(cost)
            if not improved or abs(last - cost) < tol:
                break
            last = cost

    return angles, float(_norm_cost(target, _prepared_amplitudes(angles), norm))


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
    circuit (L2), or per rotation one pass over the gates after it that
    carries two states side by side (scans); no angle update re-simulates
    the circuit.  The passes run on real amplitude vectors through index
    tables built once per call: an Ry is one gather and four elementwise
    operations, the CNOT ladder between layers one permutation, and no
    gate or matrix is built.  They round as ``apply_gate`` does, so every
    angle and cost is the one a gate-by-gate simulation gives, bit for
    bit.  Coordinate descent can stall in local optima, so up to
    ``n_restarts`` seeded initialisations are tried and the best kept.
    Deterministic under ``seed``.  Returns the trained circuit and the
    final cost in the requested norm, simulated from the returned circuit;
    pass ``history`` to record the cost after every sweep.
    """
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
    if n_restarts > 1:
        seeds = [int(np.random.SeedSequence((seed, r)).generate_state(1)[0])
                 for r in range(n_restarts)]
    else:
        seeds = [seed]
    kern = _RyCnot(n, ladder=n_layers > 0)
    best = None
    for sub in seeds:
        hist: list | None = [] if history is not None else None
        angles, cost = _fit(target, n, n_layers, norm, sub, max_sweeps, tol, hist, kern)
        if best is None or cost < best[1]:
            best = (angles, cost, hist)
        if cost < 1e-6:
            break
    if history is not None:
        history.extend(best[2])
    dc = DistributionCircuit(
        hwe_circuit(best[0], name="hwe_trained"),
        [Dimension(tuple(range(n)), 0.0, 1.0)],
    )
    return dc, best[1]


# --------------------------------------------------------------------------
# quantum-walk binomial reference


def walk_binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial PMF via a continuous quantum walk on the symmetrised
    hypercube quotient (classical reference: exact evolution, no circuit).

    Builds the (n+1)x(n+1) weighted-path adjacency matrix A with
    superdiagonal sqrt((n-i)(i+1)), evolves ``exp(i tau A)`` for
    ``tau = arccos(sqrt(p))`` through A's eigendecomposition (A is real
    symmetric) and squares column 0.  The walk column lists classes by
    descending success count, so it is reversed to return the PMF indexed
    by k with entry binom(n, k) p^k (1-p)^(n-k).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = np.sqrt(np.arange(n, 0, -1) * np.arange(1, n + 1.0))
    lam, vec = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
    tau = math.acos(math.sqrt(p))
    col = vec @ (np.exp(1j * tau * lam) * vec[0])
    return np.abs(col[::-1]) ** 2


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
