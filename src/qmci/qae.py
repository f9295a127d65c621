"""Quantum amplitude estimation subroutines.

Four estimators share one problem shape: a state-preparation circuit A
whose final measurement of a designated "good" qubit reads 1 with
probability a = sin^2(theta).

* PAM: prepare-and-measure, the classical baseline (lambda = 1).
* MLQAE: exponentially increasing sequence of Grover powers, grid MLE.
* IQAE: iterative interval refinement, wrapped so it accepts a use budget.
* LCU QAE: MLQAE's schedule with non-deterministic initial-state rotation
  via a linear combination of unitaries, MMSE estimate from a grid
  posterior.

Use accounting is uniform: one shot at Grover power m costs 2m+1 uses of A
(one initial A, two per Q).  Every algorithm consumes its stated budget
exactly, except IQAE which may leave a small remainder (>= 90% consumed).

Shots are simulated without re-running circuits per shot: each estimator
takes the exact amplitude of A, read once from a state-vector simulation,
and draws outcomes from the closed-form likelihoods (the test suite
verifies those likelihoods against direct simulation of the composed
circuits).

Each ``*_from_amplitude`` estimator is vectorised over repeats: it
returns an array of the estimates of ``repeats`` independent runs (one by
default), drawn in order from one generator seeded by ``seed``.
``schedule`` alone decides which estimator a kind and budget run, falling
back where the budget is too small; ``estimate_amplitude`` runs its record.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .circuit import QuantumCircuit, controlled_x
from .gates import gate

C_QAE_REFERENCE = {"PAM": 0.5, "MLQAE": 8.02, "IQAE": 14.4, "LCU": 7.82}
QAE_LAMBDA = {"PAM": 1, "MLQAE": 2, "IQAE": 2, "LCU": 2}  # RMSE ~ c_QAE / q^(lambda/2)

SHOTS_M0 = 66  # shots of the m = 0 round of an EIS schedule
SHOTS_OTHER = 44  # shots of every full round at m >= 1
MLQAE_GRID = 20_001  # coarse theta grid of the MLQAE maximum search
MLQAE_REFINE = 801  # local grid spanning the coarse maximum's neighbours
DEFAULT_POSTERIOR_GRID = 10_001  # theta grid of the LCU posterior
IQAE_SHOTS_PER_ROUND = 100
IQAE_MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class QaeProblem:
    a_circuit: QuantumCircuit
    good_qubit: int

    def __post_init__(self):
        if not 0 <= self.good_qubit < self.a_circuit.n_qubits:
            raise ValueError("good_qubit out of range")


# --------------------------------------------------------------------------
# the Grover operator


def grover_operator(problem: QaeProblem) -> QuantumCircuit:
    """Q = -A S0 A^dagger S_chi (global sign dropped).

    S_chi is Z on the good qubit (two S gates); S0 reflects about the
    all-zero state via X-conjugated multi-controlled Z.  Simulating
    Q^m A|0> yields P(good = 1) = sin^2((2m+1) theta).
    """
    a = problem.a_circuit
    n = a.n_qubits
    good = problem.good_qubit
    flips = [gate("X", w) for w in range(n)]
    if n == 1:
        s0 = [gate("S", 0)] * 2
    else:
        s0 = [gate("H", n - 1), controlled_x(range(n - 1), n - 1), gate("H", n - 1)]
    q = QuantumCircuit(n, "grover")
    # the operands are in range by construction and A's gates were checked when A was built
    q.gates = [gate("S", good)] * 2 + a.inverse().gates + flips + s0 + flips + a.gates
    return q


def benchmark_circuit(theta: float) -> QaeProblem:
    """The two-qubit amplitude-benchmark circuit: Ry(2 theta) then CNOT;
    the second qubit reads 1 with probability sin^2(theta)."""
    qc = QuantumCircuit(2, "benchmark")
    qc.append("Ry", 0, 2.0 * theta).append("CNOT", (0, 1))
    return QaeProblem(qc, 1)


# --------------------------------------------------------------------------
# shot scheduling shared by MLQAE / LCU QAE (and resource mode)


def eis_schedule(q: int) -> list[tuple[int, int]]:
    """Spread ``q`` uses over the exponentially increasing sequence of
    Grover powers m in {0, 1, 2, 4, 8, ...}.

    Full rounds run while they fit.  After the last full EIS level m*, the
    greatest m' > m* whose full round still fits is run; any remaining uses
    go one shot at a time to existing levels, largest m first (a shot at
    level m costs 2m+1, so m = 0 absorbs the tail and the budget is
    consumed exactly).  Returns [(m, shots)] sorted by m.
    """
    if q < 1:
        raise ValueError("budget must be >= 1")
    shots: dict[int, int] = {}
    rem = q
    first = min(SHOTS_M0, rem)
    shots[0] = first
    rem -= first
    m_star = 0
    m = 1
    while rem >= SHOTS_OTHER * (2 * m + 1):
        shots[m] = SHOTS_OTHER
        rem -= SHOTS_OTHER * (2 * m + 1)
        m_star = m
        m *= 2
    if rem >= SHOTS_OTHER:
        m_prime = (rem // SHOTS_OTHER - 1) // 2
        if m_prime > m_star:
            shots[m_prime] = SHOTS_OTHER
            rem -= SHOTS_OTHER * (2 * m_prime + 1)
    for level in sorted(shots, reverse=True):
        take = rem // (2 * level + 1)
        if take:
            shots[level] += take
            rem -= take * (2 * level + 1)
    assert rem == 0, "schedule failed to exhaust the budget"
    return sorted(shots.items())


def schedule_uses(schedule: list[tuple[int, int]]) -> int:
    return sum(s * (2 * m + 1) for m, s in schedule)


@dataclass(frozen=True)
class Schedule:
    """What one QAE run executes: estimator ``kind``, after any fallback, on
    ``q`` uses of A; ``fallback`` flags a budget too small for the kind asked."""

    kind: str
    q: int
    fallback: bool = False

    @property
    def levels(self) -> list[tuple[int, int]]:
        """The (m, shots) rounds: one m = 0 round for PAM, the EIS ladder
        for MLQAE and LCU, none for IQAE, which adapts as it runs."""
        if self.kind == "PAM":
            return [(0, self.q)]
        return [] if self.kind == "IQAE" else eis_schedule(self.q)


def schedule(kind: str, q: int) -> Schedule:
    """The record of a ``kind`` run on ``q`` uses, and the one place that
    decides a fallback: IQAE on a budget that ``opt_ae`` finds infeasible
    runs PAM, and LCU below one m = 0 round runs MLQAE."""
    if kind not in QAE_LAMBDA:
        raise ValueError(f"unknown QAE kind {kind!r}")
    if kind == "IQAE" and opt_ae(q) is None:
        return Schedule("PAM", q, True)
    if kind == "LCU" and q < SHOTS_M0:
        return Schedule("MLQAE", q, True)
    return Schedule(kind, q)


# --------------------------------------------------------------------------
# PAM


def pam_from_amplitude(a: float, q: int, seed: int = 0, *, repeats: int = 1) -> np.ndarray:
    """Prepare-and-measure: a_hat is the fraction of ones over q shots."""
    if q < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.binomial(q, a, size=repeats) / q


# --------------------------------------------------------------------------
# MLQAE


_THETA_GRID = np.linspace(0.0, math.pi / 2.0, MLQAE_GRID)


def _log_abs(f, x, out=None) -> np.ndarray:
    """log|f(x)|, floored at -5e5 so that 0 hits times log 0 adds 0."""
    out = f(x, out=out)
    np.abs(out, out=out)
    np.log(out, out=out)
    return np.maximum(out, -5e5, out=out)


# (log|sin|, log|cos|) of (2m+1) theta on _THETA_GRID, kept for the EIS
# levels m = 0, 1, 2, 4, ... only (320 KB each; the 17 of them cover every
# budget below 10^7), while the one off-ladder level of a schedule is
# computed per call.
_MLQAE_TABLE_CACHE: dict[int, np.ndarray] = {}


def _mlqae_table(m: int) -> np.ndarray:
    table = _MLQAE_TABLE_CACHE.get(m)
    if table is None:
        x = (2.0 * m + 1.0) * _THETA_GRID
        with np.errstate(divide="ignore"):
            table = np.stack((_log_abs(np.sin, x), _log_abs(np.cos, x)))
        if m & (m - 1) == 0:  # m = 0 or a power of two
            _MLQAE_TABLE_CACHE[m] = table
    return table


def _mlqae_theta(levels, shots, hits) -> np.ndarray:
    """Maximum-likelihood theta of every row of ``hits``: the best point
    of a coarse grid, refined on a local grid spanning its neighbours.

    Outcome counts at level m are binomial with success probability
    sin^2((2m+1) theta), so the log-likelihood weighs log|sin((2m+1) theta)|
    by twice the hits and log|cos((2m+1) theta)| by twice the misses.
    Terms that no repeat weighs are skipped.  The coarse likelihood is
    summed in blocks of at most 2^15 table entries, which stay
    cache-resident, and only each row's best point so far is kept, never
    the whole (repeats x grid) likelihood matrix.
    """
    weights = np.concatenate((hits, shots - hits), axis=1) * 2.0
    used = weights.any(axis=0)
    n_sin = int(used[:len(levels)].sum())  # sin terms come first
    weights, mult = weights[:, used], np.concatenate((levels, levels))[used, None] * 2.0 + 1.0
    rows = [_mlqae_table(int(m))[k] for k in (0, 1) for m in levels]  # as weights' columns
    table = np.stack([row for row, u in zip(rows, used) if u])
    runs = np.arange(len(hits))
    best_ll = np.full(len(hits), -np.inf)
    best = np.zeros(len(hits), dtype=np.intp)
    block = 2**15 // len(mult)
    with np.errstate(divide="ignore"):
        # a running argmax over the blocks: a later block wins only when
        # strictly greater, so ties keep the first maximum, as np.argmax
        for start in range(0, _THETA_GRID.size, block):
            ll = weights @ table[:, start:start + block]
            arg = np.argmax(ll, axis=1)
            top = ll[runs, arg]
            better = top > best_ll
            best_ll[better] = top[better]
            best[better] = arg[better] + start
        best = _THETA_GRID[best]
        step = _THETA_GRID[1]
        lo = np.maximum(0.0, best - step)
        hi = np.minimum(math.pi / 2.0, best + step)
        # np.linspace(lo, hi, MLQAE_REFINE, axis=1), without its overhead
        local = np.arange(MLQAE_REFINE) * ((hi - lo) / (MLQAE_REFINE - 1))[:, None] + lo[:, None]
        local[:, -1] = hi
        ll = np.zeros_like(local)
        for j, k in enumerate(mult[:, 0]):
            ll += weights[:, j, None] * _log_abs(np.sin if j < n_sin else np.cos, k * local)
    return local[runs, np.argmax(ll, axis=1)]


def mlqae_from_amplitude(a: float, q: int, seed: int = 0, *, repeats: int = 1) -> np.ndarray:
    """Maximum-likelihood QAE over the EIS schedule.

    The likelihood over theta is maximised on a coarse grid and refined
    locally, and a_hat = sin^2(theta_mle).
    """
    theta = math.asin(math.sqrt(a))
    levels, shots = np.array(Schedule("MLQAE", q).levels).T
    rng = np.random.default_rng(seed)
    probs = np.sin((2 * levels + 1) * theta) ** 2
    hits = rng.binomial(shots, probs, size=(repeats, len(levels)))
    return np.array([math.sin(t) ** 2 for t in _mlqae_theta(levels, shots, hits)])


# --------------------------------------------------------------------------
# IQAE


_IQAE_CONST = 32.0 / (1.0 - 2.0 * math.sin(math.pi / 14.0)) ** 2


def iqae_query_bound(epsilon: float, alpha: float) -> float:
    """Worst-case uses of A for the iterative algorithm at (epsilon, alpha)."""
    return (100.0 / epsilon + _IQAE_CONST) * math.log(
        (2.0 / alpha) * math.log2(math.pi / (4.0 * epsilon))
    )


def iqae_risk(alpha: float, epsilon: float) -> float:
    return (1.0 - alpha) * epsilon**2 + alpha * (math.pi / 2.0) ** 2


# The epsilon grid of opt_ae and the parts of its query bound that do not
# depend on the budget.  log2 is math's, as in the scalar scan this
# replaced: np.log2 may differ in the last place.
_OPT_EPS = np.logspace(-8, np.log10(math.pi / 8.0), 4000)
_OPT_C = 100.0 / _OPT_EPS + _IQAE_CONST
_OPT_L = np.array([math.log2(math.pi / (4.0 * eps)) for eps in _OPT_EPS])


def opt_ae(q: int) -> tuple[float, float] | None:
    """(epsilon, alpha) minimising the risk subject to the query bound
    matching q; None when no feasible pair exists (budget too small).

    epsilon is capped at pi/8 (half the angular domain); past that the
    inverted query bound stops being meaningful and the caller falls back
    to prepare-and-measure.  The grid is scanned in one array expression;
    the first minimum's alpha is then recomputed with ``math.exp``, which
    can differ from ``np.exp`` in the last place."""
    alpha = 2.0 * _OPT_L * np.exp(-q / _OPT_C)
    risk = iqae_risk(alpha, _OPT_EPS)
    feasible = (_OPT_L > 0) & (alpha > 0.0) & (alpha < 1.0)
    if not feasible.any():
        return None
    i = int(np.argmin(np.where(feasible, risk, np.inf)))
    return _OPT_EPS[i], 2.0 * float(_OPT_L[i]) * math.exp(-q / _OPT_C[i])


def _find_next_k(k: int, upper_half: bool, frac_interval, min_ratio: float = 2.0):
    """Largest Grover power whose scaled interval fits one half-circle."""
    f_lo, f_hi = frac_interval
    old_scale = 4 * k + 2
    width = f_hi - f_lo
    if width <= 0:
        return k, upper_half
    scale_max = int(1.0 / (2.0 * width))
    scale = scale_max - (scale_max - 2) % 4
    while scale >= min_ratio * old_scale:
        lo = scale * f_lo - math.floor(scale * f_lo)
        hi = scale * f_hi - math.floor(scale * f_lo)
        if hi <= 0.5:
            return (scale - 2) // 4, True
        if lo >= 0.5 and hi <= 1.0:
            return (scale - 2) // 4, False
        scale -= 4
    return k, upper_half


def _iqae_run(theta: float, q: int, eps_theta: float, alpha: float, rng) -> tuple[float, int]:
    """One IQAE run: (a_hat, uses spent)."""
    rounds_budget = max(1, math.ceil(math.log2(math.pi / (8.0 * eps_theta))))
    alpha_i = alpha / rounds_budget
    f_lo, f_hi = 0.0, 0.25
    k, upper_half = 0, True
    rem = q
    n_acc = h_acc = 0  # shots accumulated at the current k
    rounds = 0
    while rem > 0 and rounds < IQAE_MAX_ROUNDS:
        rounds += 1
        cost = 2 * k + 1
        if rem < cost:
            k, upper_half = 0, True
            n_acc = h_acc = 0
            cost = 1
        n_shots = min(IQAE_SHOTS_PER_ROUND, rem // cost)
        if n_shots == 0:
            break
        rem -= n_shots * cost
        p1 = math.sin((2 * k + 1) * theta) ** 2
        h = int(rng.binomial(n_shots, p1))
        n_acc += n_shots
        h_acc += h
        # Chernoff-Hoeffding interval on the one-probability
        eps_a = math.sqrt(math.log(2.0 / alpha_i) / (2.0 * n_acc))
        p_lo = max(0.0, h_acc / n_acc - eps_a)
        p_hi = min(1.0, h_acc / n_acc + eps_a)
        # convert to the scaled-angle interval: p = (1 - cos(2 pi K f)) / 2
        c_lo, c_hi = 1.0 - 2.0 * p_hi, 1.0 - 2.0 * p_lo
        scale = 4 * k + 2
        base = math.floor(scale * f_lo + 1e-12)
        if upper_half:
            r_lo = math.acos(min(1.0, max(-1.0, c_hi))) / (2.0 * math.pi)
            r_hi = math.acos(min(1.0, max(-1.0, c_lo))) / (2.0 * math.pi)
        else:
            r_lo = 1.0 - math.acos(min(1.0, max(-1.0, c_lo))) / (2.0 * math.pi)
            r_hi = 1.0 - math.acos(min(1.0, max(-1.0, c_hi))) / (2.0 * math.pi)
        new_lo = (base + r_lo) / scale
        new_hi = (base + r_hi) / scale
        # intersect with the running interval (robust to CI misses)
        if new_lo <= f_hi and new_hi >= f_lo:
            f_lo, f_hi = max(f_lo, new_lo), min(f_hi, new_hi)
            if f_lo > f_hi:
                f_lo = f_hi = 0.5 * (f_lo + f_hi)
        k_new, upper_new = _find_next_k(k, upper_half, (f_lo, f_hi))
        if k_new != k:
            k, upper_half = k_new, upper_new
            n_acc = h_acc = 0
    a_lo = math.sin(2.0 * math.pi * f_lo) ** 2
    a_hi = math.sin(2.0 * math.pi * f_hi) ** 2
    return min(1.0, max(0.0, 0.5 * (a_lo + a_hi))), q - rem


def iqae_from_amplitude(a: float, q: int, seed: int = 0, *, repeats: int = 1) -> np.ndarray:
    """Iterative QAE wrapped to take a use budget.

    opt_ae picks the (epsilon, alpha) whose worst-case query count matches
    the budget; the interval iterations then continue past the nominal
    stopping point until (almost) all uses are exhausted; the estimate is
    the midpoint of the final amplitude interval.  A budget that admits no
    feasible (epsilon, alpha) is a ``ValueError``: ``schedule`` runs PAM
    on it instead.
    """
    pair = opt_ae(q)
    if pair is None:
        raise ValueError(f"budget {q} admits no feasible IQAE (epsilon, alpha)")
    theta = math.asin(math.sqrt(a))
    rng = np.random.default_rng(seed)
    return np.array([_iqae_run(theta, q, *pair, rng)[0] for _ in range(repeats)])


# --------------------------------------------------------------------------
# LCU QAE


def lcu_fail_probability(beta: float) -> float:
    """Nominal preparation-failure probability sin^2(beta) (the operator
    norm bound used for budgeting; the state-dependent value is lower)."""
    return math.sin(beta) ** 2


def lcu_prepare(problem: QaeProblem, category: int, beta: float):
    """LCU state-preparation circuit for one of the four categories.

    Returns (circuit, flag_qubit); the desired state is obtained when the
    flag qubit is post-selected to 0.  Both branches share the same A, so
    the circuit is Ry(beta) on the flag, A (plus X on the good qubit for
    the tilde categories 3-4), a controlled Z from the flag onto the good
    qubit (anti-controlled for categories 2 and 4), then Ry(-beta).
    """
    if category not in (1, 2, 3, 4):
        raise ValueError("category must be 1..4")
    if not 0.0 <= beta <= math.pi / 2.0:
        raise ValueError("beta out of range")
    a = problem.a_circuit
    n = a.n_qubits
    good = problem.good_qubit
    flag = n
    qc = QuantumCircuit(n + 1, f"lcu{category}")
    qc.append("Ry", flag, beta)
    qc.extend(a.gates)
    if category in (3, 4):
        qc.append("X", good)
    anti = category in (2, 4)
    if anti:
        qc.append("X", flag)
    # controlled Z = H . CNOT . H on the good qubit
    qc.append("H", good).append("CNOT", (flag, good)).append("H", good)
    if anti:
        qc.append("X", flag)
    qc.append("Ry", flag, -beta)
    return qc, flag


def grover_operator_tilde(problem: QaeProblem) -> QuantumCircuit:
    """Grover operator of the complemented problem: built from
    A~ = (I (x) X) A, whose good-outcome angle is pi/2 - theta.

    Categories 3-4 of LCU QAE prepare states in the invariant plane of
    A~; amplitude amplification for those shots uses this operator (the
    plain Q acts on that plane by phases only and would rotate nothing).
    """
    a_tilde = problem.a_circuit.copy()
    a_tilde.append("X", problem.good_qubit)
    return grover_operator(QaeProblem(a_tilde, problem.good_qubit))


def _lcu_plane(m: int, tilde: bool, theta: np.ndarray):
    """cos and sin of the good-outcome angle, and of the rotation by m
    amplification steps, in the plane of A (angle theta) or, for
    ``tilde``, of A~ (angle pi/2 - theta)."""
    if tilde:
        arg = 2 * m * (math.pi / 2.0 - theta)
        return np.sin(theta), np.cos(theta), np.cos(arg), np.sin(arg)
    arg = 2 * m * theta
    return np.cos(theta), np.sin(theta), np.cos(arg), np.sin(arg)


def _lcu_prob(category: int, beta: float, plane):
    c, s, cos_rot, sin_rot = plane
    s = (1.0 if category in (1, 3) else -1.0) * math.cos(beta) * s
    rot_s = s * cos_rot + c * sin_rot
    return rot_s * rot_s / (c * c + s * s)


def lcu_likelihood(category: int, beta: float, m: int, theta):
    """P(good qubit = 1) after m amplification steps on a post-selected
    LCU preparation; array-valued in ``theta``.

    Categories 1-2 live in the invariant plane of A and are amplified with
    Q (rotation by 2 theta per step); categories 3-4 live in the invariant
    plane of A~ and are amplified with the tilde operator (rotation by
    2 theta~ per step, theta~ = pi/2 - theta).  Closed forms are pinned to
    state-vector simulation of the composed circuits (the defining oracle).
    """
    if category not in (1, 2, 3, 4):
        raise ValueError("category must be 1..4")
    if m < 0:
        raise ValueError("m must be >= 0")
    p = _lcu_prob(category, beta, _lcu_plane(m, category > 2, np.asarray(theta, dtype=float)))
    return float(p) if np.ndim(p) == 0 else p


def _lcu_shot_plan(q: int, p_max_fail: float):
    """Deterministic (m, category, beta, count) groups for a budget.

    m = 0 shots are plain A preparations.  For m >= 1 the shots cycle
    through the four categories and, within each category, through eleven
    equally spaced beta values in [0, asin(sqrt(p_max_fail))].
    """
    beta_grid = np.linspace(0.0, math.asin(math.sqrt(p_max_fail)), 11)
    groups: dict[tuple, int] = {}
    for m, shots in Schedule("LCU", q).levels:
        if m == 0:
            groups[(0, 0, 0.0)] = groups.get((0, 0, 0.0), 0) + shots
            continue
        for i in range(shots):
            cat = i % 4 + 1
            beta = float(beta_grid[(i // 4) % 11])
            key = (m, cat, beta)
            groups[key] = groups.get(key, 0) + 1
    return sorted(groups.items())


def _lcu_group_probs(groups, theta: np.ndarray) -> np.ndarray:
    """P(good = 1) of every shot group (rows) at every theta (columns);
    each (m, plane) rotation is evaluated once and shared by its groups."""
    p = np.empty((len(groups), theta.size))
    planes = {}
    for i, ((m, cat, beta), _) in enumerate(groups):
        if cat == 0:
            p[i] = np.sin(theta) ** 2
            continue
        key = (m, cat > 2)
        if key not in planes:
            planes[key] = _lcu_plane(m, key[1], theta)
        p[i] = _lcu_prob(cat, beta, planes[key])
    return np.clip(p, 0.0, 1.0, out=p)


_POSTERIOR_GRID = np.linspace(0.0, math.pi / 2.0, DEFAULT_POSTERIOR_GRID)

# log P(1) and log P(0) of the LCU shot groups on _POSTERIOR_GRID, for one
# p_max_fail at a time, as (array, rows filled).  The rows are those of the
# EIS levels m = 0, 1, 2, 4, ..., _LCU_CACHED_MAX_M in _lcu_shot_plan's
# order (one row for m = 0 and 44 per level, 80 KB per row and table),
# filled level by level on first use: 35 MB for budgets up to 4,000 and
# 42 MB once full, a size reserved up front but resident only as written.
# A schedule of these levels alone reads a prefix view; its off-ladder
# level m' and any level above the cap are computed per call.  Rows are
# written only under the lock and only past the filled count, so views of
# filled rows stay valid while qae-sweep threads extend or replace the
# array.
_LCU_CACHED_MAX_M = 32
_LCU_CACHED_ROWS = 1 + SHOTS_OTHER * _LCU_CACHED_MAX_M.bit_length()
_LCU_TABLE_CACHE: dict[float, tuple[np.ndarray, int]] = {}
_LCU_TABLE_LOCK = threading.Lock()


def _lcu_log_rows(groups, out: np.ndarray) -> None:
    """Write log P(1) and log P(0) of every group across the posterior
    grid into ``out[0]`` and ``out[1]``."""
    p = _lcu_group_probs(groups, _POSTERIOR_GRID)
    eps = 1e-300
    np.log(np.add(p, eps, out=out[0]), out=out[0])
    np.subtract(1.0, p, out=p)
    np.log(np.add(p, eps, out=p), out=out[1])


def _lcu_log_tables(groups, p_max_fail: float) -> np.ndarray:
    """log P(1) and log P(0) of the ``_lcu_shot_plan`` groups across the
    posterior grid, as one (2, groups, grid) array: a view of
    ``_LCU_TABLE_CACHE`` when every group is on its cached levels."""
    n_cached = sum(1 for (m, _, _), _ in groups if m <= _LCU_CACHED_MAX_M and m & (m - 1) == 0)
    with _LCU_TABLE_LOCK:
        table, filled = _LCU_TABLE_CACHE.get(p_max_fail, (None, 0))
        if table is None:
            _LCU_TABLE_CACHE.clear()
            table = np.empty((2, _LCU_CACHED_ROWS, _POSTERIOR_GRID.size))
        while filled < n_cached:  # one EIS level at a time
            end = filled + 1
            while end < n_cached and groups[end][0][0] == groups[filled][0][0]:
                end += 1
            _lcu_log_rows(groups[filled:end], table[:, filled:end])
            filled = end
        _LCU_TABLE_CACHE[p_max_fail] = (table, filled)
    if n_cached == len(groups):
        return table[:, :n_cached]
    out = np.empty((2, len(groups), _POSTERIOR_GRID.size))
    out[:, :n_cached] = table[:, :n_cached]
    _lcu_log_rows(groups[n_cached:], out[:, n_cached:])
    return out


def lcu_from_amplitude(
    a: float, q: int, p_max_fail: float = 0.5, seed: int = 0, *, repeats: int = 1
) -> np.ndarray:
    """LCU QAE: EIS schedule with per-shot category/beta variation, MMSE
    estimate from a grid posterior over theta.

    The budget counts uses inside successfully post-selected circuits.  A
    preparation fails with probability sin^2 beta and costs one more use of
    A (fail-fast); those uses are not drawn, since the estimate does not
    depend on them.  A budget below one m = 0 round is a ``ValueError``:
    ``schedule`` runs MLQAE on it instead.
    """
    if q < SHOTS_M0:
        raise ValueError(f"budget {q} below one m=0 round ({SHOTS_M0} shots)")
    if not 0.0 < p_max_fail < 1.0:
        raise ValueError("p_max_fail must lie in (0, 1)")
    groups = _lcu_shot_plan(q, p_max_fail)
    counts = np.array([n for _, n in groups])
    probs = _lcu_group_probs(groups, np.array([math.asin(math.sqrt(a))]))[:, 0]
    rng = np.random.default_rng(seed)
    hits = rng.binomial(counts, probs, size=(repeats, len(groups)))
    log1, log0 = _lcu_log_tables(groups, p_max_fail)
    sin2 = np.sin(_POSTERIOR_GRID) ** 2
    a_hat = np.empty(repeats)
    chunk = max(1, int(2e8 // (_POSTERIOR_GRID.size * 8)))
    for start in range(0, repeats, chunk):
        h = hits[start:start + chunk]
        w = h.astype(np.float64) @ log1  # the log-likelihood, then the weights
        w += (counts - h).astype(np.float64) @ log0
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        a_hat[start:start + chunk] = (w @ sin2) / w.sum(axis=1)
    return np.clip(a_hat, 0.0, 1.0, out=a_hat)


# --------------------------------------------------------------------------
# dispatch


def estimate_amplitude(
    record: Schedule, a: float, seed: int = 0, p_max_fail: float = 0.5, *, repeats: int = 1
) -> np.ndarray:
    """The estimates of ``repeats`` runs of the estimator that ``record``, a
    ``schedule`` record, names, on true amplitude ``a`` with ``record.q``
    uses; ``p_max_fail`` is LCU's preparation-failure cap."""
    if record.kind == "LCU":
        a_hat = lcu_from_amplitude(a, record.q, p_max_fail, seed, repeats=repeats)
    else:
        a_hat = {"PAM": pam_from_amplitude, "MLQAE": mlqae_from_amplitude,
                 "IQAE": iqae_from_amplitude}[record.kind](a, record.q, seed, repeats=repeats)
    if not ((a_hat >= 0.0) & (a_hat <= 1.0)).all():
        raise ValueError("estimate outside [0, 1]")
    return a_hat
