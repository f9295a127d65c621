"""Fourier-series decomposition of the Monte Carlo integral.

Each estimable quantity g(X) is represented by a smooth periodic
piecewise extension of g over (a normalised version of) the support, so
the integral becomes a weighted sum of trigonometric expectations
E[cos(m w X)] and E[sin(m w X)], each estimable by one QAE run on a
rotation-bank circuit.

The extensions are C1 with piecewise-bounded higher derivatives:

* mean: g(x) = x on [-1, 1], turnaround -2u + u^3 (u = x-2) on [1, 3],
  period 4 (odd, sine-only);
* second moment: x^2 on [-1, 1], 2.5 - 2u^2 + 0.5u^4 on [1, 3], period 4
  (even, cosine-only, C2);
* exponential: exp on [-T/2, T/2] (support shifted to be centred), cubic
  Hermite return piece of the same length, period 2T.

Coefficients are computed from closed-form integrals of polynomial / exp
pieces against complex exponentials, exact to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import QuantumCircuit
from .distributions import DistributionCircuit
from .gates import gate
from .simulator import exact_marginal
from . import qae as qae_mod

QUANTITY_KINDS = (
    "Mean",
    "ConditionalExpectation",
    "SecondMoment",
    "Exponential",
    "ConditionalExponential",
    "BernoulliQubit",
)
# the kinds that read an indicator qubit
INDICATOR_KINDS = ("ConditionalExpectation", "ConditionalExponential", "BernoulliQubit")

_COEFF_TABLE = 4096  # harmonics computed per series (closed form, cheap)


@dataclass(frozen=True)
class FourierSeries:
    omega: float
    a0: float
    a: np.ndarray  # cosine coefficients a_1..a_M
    b: np.ndarray  # sine coefficients b_1..b_M

    @property
    def truncation(self) -> int:
        return len(self.a)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = np.arange(1, self.truncation + 1)
        phase = np.multiply.outer(x, m * self.omega)
        return self.a0 + np.cos(phase) @ self.a + np.sin(phase) @ self.b


@dataclass
class QuantitySpec:
    kind: str
    series: FourierSeries | None
    c_f: float
    x_star: float | None = None
    support_window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in QUANTITY_KINDS:
            raise ValueError(f"unknown quantity kind {self.kind!r}")
        if self.c_f <= 0:
            raise ValueError("c_f must be positive")


@dataclass
class QmciResult:
    estimate: float
    rmse_bound: float
    uses_total: int
    per_harmonic: list = field(default_factory=list)  # (m, trig, q_m, a_hat)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "rmse_bound": self.rmse_bound,
            "uses_total": self.uses_total,
            "per_harmonic": [
                {"m": m, "trig": t, "q": q, "amplitude_estimate": a}
                for (m, t, q, a) in self.per_harmonic
            ],
        }


# --------------------------------------------------------------------------
# closed-form piece integrals


def _poly_exp_integral(coeffs, s: float, u: float, v: float, c: np.ndarray):
    """integral_u^v sum_k coeffs[k] (x-s)^k e^{i c x} dx for an array of
    nonzero frequencies c (by parts recurrence, exact)."""
    t0, t1 = u - s, v - s
    ic = 1j * c
    e0, e1 = np.exp(ic * t0), np.exp(ic * t1)
    out = np.zeros_like(c, dtype=complex)
    j = (e1 - e0) / ic  # J_0
    if len(coeffs) > 0 and coeffs[0]:
        out += coeffs[0] * j
    p0, p1 = 1.0, 1.0
    for k in range(1, len(coeffs)):
        p0 *= t0
        p1 *= t1
        j = (p1 * e1 - p0 * e0) / ic - (k / ic) * j
        if coeffs[k]:
            out += coeffs[k] * j
    return out * np.exp(ic * s)


def _poly_plain_integral(coeffs, s: float, u: float, v: float) -> float:
    t0, t1 = u - s, v - s
    return float(
        sum(ck * (t1 ** (k + 1) - t0 ** (k + 1)) / (k + 1) for k, ck in enumerate(coeffs))
    )


def _exp_exp_integral(u: float, v: float, c: np.ndarray):
    z = 1.0 + 1j * c
    return (np.exp(z * v) - np.exp(z * u)) / z


def _series_from_pieces(pieces, period: float, n_coeff: int) -> FourierSeries:
    """pieces: list of ("poly", s, coeffs, u, v) or ("exp", u, v) covering
    one full period."""
    omega = 2.0 * math.pi / period
    m = np.arange(1, n_coeff + 1)
    c = m * omega
    total = np.zeros(n_coeff, dtype=complex)
    a0 = 0.0
    for p in pieces:
        if p[0] == "poly":
            _, s, coeffs, u, v = p
            total += _poly_exp_integral(coeffs, s, u, v, c)
            a0 += _poly_plain_integral(coeffs, s, u, v)
        else:
            _, u, v = p
            total += _exp_exp_integral(u, v, c)
            a0 += math.exp(v) - math.exp(u)
    # g real: a_m = (2/T) Re I, b_m = (2/T) Im I with I = int g e^{-i m w x}?
    # using e^{+i m w x}: int g cos = Re(I), int g sin = Im(I)
    a = (2.0 / period) * total.real
    b = (2.0 / period) * total.imag
    return FourierSeries(omega, a0 / period, a, b)


@lru_cache(maxsize=64)
def _mean_series() -> FourierSeries:
    pieces = [
        ("poly", 0.0, (0.0, 1.0), -1.0, 1.0),
        ("poly", 2.0, (0.0, -2.0, 0.0, 1.0), 1.0, 3.0),
    ]
    return _series_from_pieces(pieces, 4.0, _COEFF_TABLE)


@lru_cache(maxsize=64)
def _second_moment_series() -> FourierSeries:
    pieces = [
        ("poly", 0.0, (0.0, 0.0, 1.0), -1.0, 1.0),
        ("poly", 2.0, (2.5, 0.0, -2.0, 0.0, 0.5), 1.0, 3.0),
    ]
    return _series_from_pieces(pieces, 4.0, _COEFF_TABLE)


def _hermite_poly(x0: float, p0: float, m0: float, p1: float, m1: float, length: float):
    """Cubic Hermite coefficients in (x - x0) over [x0, x0 + length]."""
    ct = [
        p0,
        length * m0,
        -3.0 * p0 - 2.0 * length * m0 + 3.0 * p1 - length * m1,
        2.0 * p0 + length * m0 - 2.0 * p1 + length * m1,
    ]
    return tuple(ck / length**k for k, ck in enumerate(ct))


@lru_cache(maxsize=64)
def _exponential_series(t_x: float) -> FourierSeries:
    half = t_x / 2.0
    p0 = m0 = math.exp(half)
    p1 = m1 = math.exp(-half)
    pieces = [
        ("exp", -half, half),
        ("poly", half, _hermite_poly(half, p0, m0, p1, m1, t_x), half, 3.0 * half),
    ]
    return _series_from_pieces(pieces, 2.0 * t_x, _COEFF_TABLE)


def quantity_series(kind: str, support: tuple[float, float]) -> QuantitySpec:
    """Quantity descriptor: Fourier extension plus its convergence constant.

    ``support`` is the (x_l, x_u) range the function is applied over (the
    dimension's support, or a user window thereof).  The Mean and second
    moment use a fixed extension over the normalised support [-1, 1]; the
    exponential's extension depends on the support width.  BernoulliQubit
    has no series and c_f = 1.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError("support must satisfy x_l < x_u")
    if kind == "BernoulliQubit":
        return QuantitySpec(kind, None, 1.0)
    if kind in ("Mean", "ConditionalExpectation"):
        series, norm = _mean_series(), (-1.0, 1.0)
    elif kind == "SecondMoment":
        series, norm = _second_moment_series(), (-1.0, 1.0)
    elif kind in ("Exponential", "ConditionalExponential"):
        series, norm = _exponential_series(hi - lo), (-(hi - lo) / 2.0, (hi - lo) / 2.0)
    else:
        raise ValueError(f"unknown quantity kind {kind!r}")
    # c_f = 2 (sum |a_m|^(2/3) + |b_m|^(2/3))^(3/2) / (range on the normalised support)
    s = sum(float(np.sum(np.abs(c) ** (2.0 / 3.0))) for c in (series.a, series.b))
    c_f = 2.0 * s**1.5 / range_of_quantity(kind, norm)
    x_star = (0.0 if lo <= 0.0 <= hi else lo) if kind in INDICATOR_KINDS else None
    return QuantitySpec(kind, series, c_f, x_star=x_star)


def range_of_quantity(kind: str, support: tuple[float, float]) -> float:
    """max g - min g over the (real, unnormalised) support."""
    lo, hi = support
    if kind in ("Mean", "ConditionalExpectation"):
        return hi - lo
    if kind == "SecondMoment":
        return max(hi, -lo) ** 2
    if kind in ("Exponential", "ConditionalExponential"):
        return math.exp(hi) - math.exp(lo)
    return 1.0  # BernoulliQubit


def rmse_bound(spec: QuantitySpec, c_qae: float, q: int, support: tuple[float, float]) -> float:
    """The Fourier path's bound c_f c_QAE R / q, PAM included (``ErrorModel``)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return ErrorModel(spec.c_f, c_qae, range_of_quantity(spec.kind, support)).bound(q)


# --------------------------------------------------------------------------
# the A circuit


def build_A_circuit(
    dc: DistributionCircuit,
    dim: int,
    beta: float,
    m: int,
    omega: float,
    condition: int | None = None,
    x_star_angle: float | None = None,
) -> QuantumCircuit:
    """P followed by a rotation bank targeting a fresh qubit.

    The fresh qubit receives Ry(m w x_l - beta) plus Ry(2^k m w delta)
    controlled on register bit k (least significant bit of the dimension
    register carries weight 2^0), so the total gate parameter for register
    value x is m w x - beta and P(rotation qubit = 1) averages
    sin^2((m w x - beta)/2): 1 - 2 P(1) = E[cos(m w x)] at beta = 0 and
    E[sin(m w x)] at beta = pi/2.

    With ``condition`` (a qubit index holding an indicator) the whole bank
    is additionally controlled on the indicator and an alternate rotation
    by ``x_star_angle`` fires when the indicator reads 0.
    """
    if m < 1:
        raise ValueError("harmonic index m must be >= 1")
    if dim < 0 or dim >= len(dc.dims):
        raise ValueError(f"no dimension {dim}")
    d = dc.dims[dim]
    alpha = m * omega * d.x_l - beta
    theta = m * omega * d.delta
    n = dc.circuit.n_qubits
    rot = n
    qc = dc.circuit.widened(n + 1)
    qc.name = f"A_m{m}"
    bits = list(reversed(d.qubits))  # bits[k] has weight 2^k
    if condition is None:
        qc.append("Ry", rot, alpha)
        for k, qb in enumerate(bits):
            qc.append("CRy", (qb, rot), (2**k) * theta)
        return qc
    if condition not in dc.indicators:
        raise ValueError(f"qubit {condition} is not a registered indicator")
    if x_star_angle is None:
        raise ValueError("conditional bank needs x_star_angle")
    qc.append("X", condition)
    qc.append("CRy", (condition, rot), x_star_angle)
    qc.append("X", condition)
    qc.append("CRy", (condition, rot), alpha)
    for k, qb in enumerate(bits):
        phi = (2**k) * theta
        # doubly controlled Ry via two CNOTs and three half-angle CRys
        qc.append("CRy", (qb, rot), phi / 2.0)
        qc.append("CNOT", (condition, qb))
        qc.append("CRy", (qb, rot), -phi / 2.0)
        qc.append("CNOT", (condition, qb))
        qc.append("CRy", (condition, rot), phi / 2.0)
    return qc


# --------------------------------------------------------------------------
# use allocation


def allocate_uses(coefficients, q_total: int) -> list[int]:
    """Integer spread of q_total uses proportional to |coeff|^(2/3)
    (the continuous minimiser of sum coeff^2 / q^2), largest-remainder
    rounding followed by greedy single-use exchanges until no transfer
    lowers the objective; at least one use per nonzero coefficient."""
    coeffs = np.asarray(coefficients, dtype=float)
    nz = np.abs(coeffs) > 0.0
    n_nz = int(nz.sum())
    if q_total < n_nz:
        raise ValueError(f"budget {q_total} below the {n_nz} nonzero terms")
    alloc = np.zeros(len(coeffs), dtype=int)
    if n_nz == 0:
        return alloc.tolist()
    w = np.zeros(len(coeffs))
    w[nz] = np.abs(coeffs[nz]) ** (2.0 / 3.0)
    ideal = q_total * w / w.sum()
    base = np.maximum(np.floor(ideal).astype(int), nz.astype(int))
    excess = int(base.sum()) - q_total
    if excess > 0:
        # shrink the entries furthest above their ideal share, keep >= 1
        order = np.argsort(-(base - ideal), kind="stable")
        i = 0
        while excess > 0:
            j = order[i % len(order)]
            if base[j] > 1:
                base[j] -= 1
                excess -= 1
            i += 1
    elif excess < 0:
        rema = ideal - base
        order = np.argsort(-rema, kind="stable")
        for i in range(-excess):
            base[order[i % len(order)]] += 1

    # exchange polish: rounding is not always integer-optimal, so move
    # single uses while that strictly lowers sum coeff^2 / q^2
    c2 = coeffs[nz] ** 2
    a = base[nz].astype(float)
    for _ in range(10 * n_nz + 100):
        gain = c2 * (1.0 / a**2 - 1.0 / (a + 1.0) ** 2)  # from receiving one
        down = np.maximum(a - 1.0, 0.5)  # entries at a == 1 are masked out
        loss = np.where(a > 1.0, c2 * (1.0 / down**2 - 1.0 / a**2), np.inf)
        j = int(np.argmax(gain))
        i = int(np.argmin(loss))
        if i == j:
            masked = loss.copy()
            masked[i] = np.inf
            i = int(np.argmin(masked))
        if not np.isfinite(loss[i]) or gain[j] <= loss[i] * (1.0 + 1e-12):
            break
        a[i] -= 1.0
        a[j] += 1.0
    base[nz] = a.astype(int)
    alloc[:] = base
    assert alloc.sum() == q_total
    return alloc.tolist()


# --------------------------------------------------------------------------
# the term plan


@dataclass(frozen=True)
class ErrorModel:
    """The QAE error of one quantity: RMSE <= c / q^(lam/2) after q uses,
    c = c_f c_QAE R, lam from ``qae.QAE_LAMBDA`` (Montanaro, arXiv:1504.06987;
    Herbert, arXiv:2105.09100).  Only a BernoulliQubit bound passes its
    estimator's lam; the Fourier bound, budget, truncation target and FT MSE
    charge lam = 2 to every estimator, PAM included: ROADMAP item 1, Defect A."""

    c_f: float
    c_qae: float
    quantity_range: float

    @property
    def c(self) -> float:
        return self.c_f * self.c_qae * self.quantity_range

    def bound(self, q: float, lam: int = 2) -> float:
        return self.c / (q if lam == 2 else math.sqrt(q))

    def budget(self, target_rmse: float) -> int:
        return max(1, math.ceil(self.c / target_rmse))

    def mse(self, q: float) -> float:  # rounds apart from bound(q) ** 2
        return self.c**2 / q**2

    def q_for_mse(self, target_mse: float) -> float:
        return math.sqrt(self.c**2 / target_mse)


@dataclass(frozen=True)
class TermPlan:
    """Everything a QMCI run fixes before it simulates anything.

    ``error`` is the run's error model.  ``terms`` holds the estimated
    (m, trig, coeff) harmonics and ``schedules`` the ``qae.Schedule`` of
    each; BernoulliQubit has the single term (0, "bernoulli", 1.0).  The
    series sees register value k at x_n = x_l_n + delta_n * k, and the real
    estimate is offset + scale * estimate_n.  Conditional kinds carry the
    normalised x* and the indicator qubit, BernoulliQubit only the qubit.
    """

    q_total: int
    error: ErrorModel
    terms: tuple
    schedules: tuple
    x_l_n: float = 0.0
    delta_n: float = 1.0
    scale: float = 1.0
    offset: float = 0.0
    x_star_n: float | None = None
    cond_qubit: int | None = None


def _affine(kind: str, lo: float, hi: float) -> tuple[float, float, float, float]:
    """(shift, stretch, scale, offset) for the support window [lo, hi]: the
    series is applied to x_n = (x - shift) / stretch, and the estimate of
    the normalised quantity maps back as offset + scale * estimate_n."""
    if kind in ("Mean", "ConditionalExpectation"):
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return centre, half, half, centre
    if kind == "SecondMoment":
        x_b = max(hi, -lo)
        return 0.0, x_b, x_b**2, 0.0
    # exponential kinds: shift only, so exp(x) = exp(shift) exp(x_n)
    shift = 0.5 * (lo + hi)
    return shift, 1.0, math.exp(shift), 0.0


def _truncate(series: FourierSeries, scale: float, target: float) -> int:
    """Smallest M whose dropped (scaled) tail stays below target / 10."""
    mags = np.abs(series.a) + np.abs(series.b)
    tail = np.cumsum(mags[::-1])[::-1]  # tail[m] = sum_{k >= m+1} mags (0-based)
    budget = target / 10.0 / max(scale, 1e-300)
    above = np.nonzero(tail > budget)[0]
    if len(above) == 0:
        return 1
    return min(int(above[-1]) + 1, series.truncation)


def plan_terms(
    dc: DistributionCircuit,
    spec: QuantitySpec,
    dim: int,
    qae_kind: str,
    q_total: int | None = None,
    target_rmse: float | None = None,
    condition: int | None = None,
) -> TermPlan:
    """Budget, truncation, term selection, use allocation and
    normalisation of one QMCI run; simulates nothing.

    Without ``q_total`` the budget is the error model's for
    ``target_rmse``.  The series is truncated where its dropped tail falls
    below a tenth of ``target_rmse``, or of the bound at ``q_total`` when
    no target is given.  ``qmci_estimate`` runs this plan and resource mode
    counts it.
    """
    if qae_kind not in qae_mod.QAE_LAMBDA:
        raise ValueError(f"unknown QAE kind {qae_kind!r}")
    c_qae = qae_mod.C_QAE_REFERENCE[qae_kind]
    if q_total is None and target_rmse is None:
        raise ValueError("give q_total or target_rmse")
    if target_rmse is not None and not target_rmse > 0:
        raise ValueError("target_rmse must be positive")
    bernoulli = spec.kind == "BernoulliQubit"
    cond_qubit = None
    if spec.kind in INDICATOR_KINDS:
        if condition is None:
            raise ValueError(f"{spec.kind} needs a designated indicator")
        cond_qubit = dc.indicators[condition]
    if bernoulli:
        lo, hi = 0.0, 1.0  # no register: the quantity is the indicator itself
    else:
        d = dc.dims[dim]
        lo, hi = (d.x_l, d.x_u) if spec.support_window is None else spec.support_window
    error = ErrorModel(spec.c_f, c_qae, range_of_quantity(spec.kind, (lo, hi)))
    if q_total is None:
        q_total = error.budget(target_rmse)
    if q_total < 1:
        raise ValueError("budget must be >= 1")
    if bernoulli:
        return TermPlan(q_total, error, ((0, "bernoulli", 1.0),),
                        (qae_mod.schedule(qae_kind, q_total),), cond_qubit=cond_qubit)

    shift, stretch, scale, offset = _affine(spec.kind, lo, hi)
    series = spec.series
    target = target_rmse if target_rmse is not None else error.bound(q_total)
    terms = []
    for m in range(1, _truncate(series, scale, target) + 1):
        if abs(series.a[m - 1]) > 1e-13:
            terms.append((m, "cos", series.a[m - 1]))
        if abs(series.b[m - 1]) > 1e-13:
            terms.append((m, "sin", series.b[m - 1]))
    if q_total < len(terms):
        raise ValueError(
            f"budget {q_total} below the {len(terms)} harmonics to estimate"
        )
    uses = allocate_uses([c for (_, _, c) in terms], q_total)
    x_star_n = None if cond_qubit is None else (spec.x_star - shift) / stretch
    return TermPlan(
        q_total, error, tuple(terms), tuple(qae_mod.schedule(qae_kind, q) for q in uses),
        (d.x_l - shift) / stretch, d.delta / stretch, scale, offset, x_star_n, cond_qubit,
    )


# --------------------------------------------------------------------------
# the end-to-end estimate


def _substream_seed(seed: int, m: int, trig: str) -> int:
    ss = np.random.SeedSequence((int(seed) & 0x7FFFFFFF, m, 0 if trig == "cos" else 1))
    return int(ss.generate_state(1)[0])


def qmci_estimate(
    dc: DistributionCircuit,
    spec: QuantitySpec,
    dim: int,
    qae_kind: str = "MLQAE",
    q_total: int | None = None,
    target_rmse: float | None = None,
    seed: int = 0,
    condition: int | None = None,
    lcu_p_max_fail: float = 0.5,
) -> QmciResult:
    """Estimate the quantity over one dimension of a distribution circuit.

    Runs the ``plan_terms`` plan: one QAE per allocated harmonic on the
    corresponding rotation-bank circuit, combined through the Fourier
    coefficients and mapped back through the affine normalisation.
    BernoulliQubit bypasses the series and runs a single QAE on the
    indicator qubit.  Harmonic (m, trig) draws its own seed substream, so
    results do not depend on evaluation order.
    """
    plan = plan_terms(dc, spec, dim, qae_kind, q_total, target_rmse, condition)
    q_total = plan.q_total
    if spec.kind == "BernoulliQubit":
        a_val = float(exact_marginal(dc.circuit, [plan.cond_qubit])[1])
        record, = plan.schedules
        a_hat = float(qae_mod.estimate_amplitude(record, a_val, _substream_seed(seed, 0, "cos"),
                                                 lcu_p_max_fail)[0])
        bound = plan.error.bound(q_total, qae_mod.QAE_LAMBDA[record.kind])
        return QmciResult(a_hat, bound, q_total, [(0, "bernoulli", q_total, a_hat)])

    d = dc.dims[dim]
    conditional = plan.x_star_n is not None
    if conditional:
        joint = exact_marginal(dc.circuit, list(d.qubits) + [plan.cond_qubit])
        p_x = joint[1::2]  # P(x, indicator = 1)
        p_rest = float(joint[0::2].sum())
    else:
        p_x = exact_marginal(dc.circuit, list(d.qubits))

    # per-harmonic amplitudes straight from the exact marginal;
    # identical to simulating the rotation-bank circuit of build_A_circuit
    # (the test suite pins that equivalence to 1e-10)
    series = spec.series
    x_norm = plan.x_l_n + plan.delta_n * np.arange(d.n_points)
    estimate_n = series.a0
    per_harmonic = []
    for (m, trig, coeff), record in zip(plan.terms, plan.schedules):
        beta = 0.0 if trig == "cos" else math.pi / 2.0
        half = 0.5 * (m * series.omega * x_norm - beta)
        a_val = float(np.sum(p_x * np.sin(half) ** 2))
        if conditional:
            a_val += p_rest * math.sin(0.5 * (m * series.omega * plan.x_star_n - beta)) ** 2
        a_val = min(1.0, max(0.0, a_val))
        a_hat = float(qae_mod.estimate_amplitude(record, a_val, _substream_seed(seed, m, trig),
                                                 lcu_p_max_fail)[0])
        estimate_n += coeff * (1.0 - 2.0 * a_hat)
        per_harmonic.append((m, trig, record.q, a_hat))

    estimate = plan.offset + plan.scale * estimate_n
    return QmciResult(estimate, plan.error.bound(q_total), q_total, per_harmonic)
