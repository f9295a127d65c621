"""Exact references the benchmark checks CLI outputs against.

Everything here is written independently of the engine's own numerics:
the discretised PMFs, the permutation simulation of instrument circuits
and the small Ry/CNOT state-vector simulation of trained loaders use only
numpy, so an engine defect cannot cancel out of a check.
"""
from __future__ import annotations

import math

import numpy as np

PERMUTATION_GATES = ("X", "CNOT", "Toffoli", "MultiControlledX")


def density(kind: str, x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Gaussian or lognormal density with parameters (mu, sigma)."""
    x = np.asarray(x, dtype=float)
    if kind == "gaussian":
        return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    out = np.zeros_like(x)
    pos = x > 0
    z = (np.log(x[pos]) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sigma * math.sqrt(2 * math.pi))
    return out


def discrete_pmf(kind: str, mu: float, sigma: float, n_qubits: int,
                 x_l: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(grid values, probabilities) of the density sampled on 2^n points."""
    xs = x_l + delta * np.arange(2**n_qubits)
    p = density(kind, xs, mu, sigma)
    return xs, p / p.sum()


def moment(quantity: str, xs: np.ndarray, p: np.ndarray) -> float:
    """Exact value of a point quantity under a discrete distribution."""
    if quantity == "Mean":
        return float(p @ xs)
    if quantity == "SecondMoment":
        return float(p @ xs**2)
    if quantity == "Exponential":
        return float(p @ np.exp(xs))
    raise ValueError(f"no reference for {quantity!r}")


# --------------------------------------------------------------------------
# instrument circuits: product loader prefix, permutation suffix


def _mask(n: int, qubit: int) -> int:
    return 1 << (n - 1 - qubit)  # qubit 0 is the most significant bit


def permuted_basis(circuit, prefix: int, slice_pmf: np.ndarray, n_slices: int):
    """Basis states and probabilities after an instrument circuit.

    The first ``prefix`` gates must be ``n_slices`` independent loaders of
    ``slice_pmf`` on the leading qubits, and every later gate a
    permutation.  The loaders are replaced by the product distribution of
    the reference PMF, and each non-zero basis state is pushed through the
    permutation as integer bit operations.
    """
    n = circuit.n_qubits
    k = int(round(math.log2(len(slice_pmf))))
    width = k * n_slices
    gates = circuit.gates
    if any(q >= width for g in gates[:prefix] for q in g.qubits):
        raise ValueError("loader prefix touches qubits outside the slices")
    if any(g.kind not in PERMUTATION_GATES for g in gates[prefix:]):
        raise ValueError("instrument suffix is not a permutation")
    prob = np.ones(1)
    for _ in range(n_slices):
        prob = np.outer(prob, slice_pmf).ravel()
    states = np.arange(prob.size, dtype=np.int64) << (n - width)
    for g in gates[prefix:]:
        t = _mask(n, g.target)
        if g.kind == "X":
            states ^= t
            continue
        c = sum(_mask(n, q) for q in g.controls)
        states ^= np.where(states & c == c, t, 0)
    return states, prob


def register_codes(states: np.ndarray, qubits, n: int) -> np.ndarray:
    """Integer value of a register (first listed qubit most significant)."""
    code = np.zeros_like(states)
    for q in qubits:
        code = (code << 1) | ((states >> (n - 1 - q)) & 1)
    return code


def payoff_truth(dc, cfg: dict, states: np.ndarray, prob: np.ndarray) -> float:
    """Exact value of one payoff config of an instrument build.

    Mirrors what criterion 03 treats as truth: the quantity over the
    indicator-on mass plus the x_star value over the indicator-off mass.
    """
    n = dc.circuit.n_qubits
    ind = register_codes(states, [dc.indicators[cfg["condition"]]], n) == 1
    if cfg["quantity"] == "BernoulliQubit":
        return float(prob[ind].sum())
    d = dc.dims[cfg["dimension"]]
    x = d.x_l + d.delta * register_codes(states, d.qubits, n)
    g = np.exp if cfg["quantity"] == "ConditionalExponential" else (lambda v: v)
    return float(prob[ind] @ g(x[ind]) + prob[~ind].sum() * g(cfg["x_star"]))


# --------------------------------------------------------------------------
# trained loaders


def ry_cnot_state(circuit: dict) -> np.ndarray:
    """Real amplitudes of a serialised Ry/CNOT circuit applied to |0...0>."""
    n = circuit["n_qubits"]
    psi = np.zeros([2] * n)
    psi[(0,) * n] = 1.0
    for g in circuit["gates"]:
        qs = g["qubits"]
        if g["kind"] == "Ry":
            c, s = math.cos(g["params"][0] / 2), math.sin(g["params"][0] / 2)
            a, b = np.take(psi, 0, axis=qs[0]), np.take(psi, 1, axis=qs[0])
            psi = np.stack([c * a - s * b, s * a + c * b], axis=qs[0])
        elif g["kind"] == "CNOT":
            ctl, tgt = qs
            sel = [slice(None)] * n
            sel[ctl] = 1
            sub = psi[tuple(sel)]  # view: the control axis is gone
            axis = tgt - (tgt > ctl)
            psi[tuple(sel)] = np.flip(sub, axis=axis).copy()
        else:
            raise ValueError(f"unexpected gate {g['kind']} in a trained loader")
    return psi.reshape(-1)


def norm_cost(target_pmf: np.ndarray, amplitudes: np.ndarray, norm: str) -> float:
    """Distance between sqrt(target) and the prepared amplitudes."""
    t = np.sqrt(np.clip(target_pmf, 0.0, None))
    d = t / np.linalg.norm(t) - amplitudes
    if norm == "L1":
        return float(np.abs(d).sum())
    if norm == "L2":
        return float(np.sqrt(d @ d))
    return float(np.abs(d).max())
