"""Resource mode: NISQ and fault-tolerant quantification of full QMCI
plans without executing them.

A plan records, per estimated harmonic, the shot schedule the estimator
would run (levels m with shot counts) plus one representative rotation
bank circuit A and its Grover operator Q; gate counts are angle
independent, so a single (A, Q) pair per plan suffices.  A circuit at
level m is counted as A plus m copies of Q; depth totals follow the
sequential-execution model (sums across circuits).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from scipy.optimize import brentq

from .circuit import QuantumCircuit, ResourceBox
from .distributions import DistributionCircuit
from . import fourier as fourier_mod
from . import qae as qae_mod
from .qae import eis_schedule, grover_operator, QaeProblem
from .rebase import (
    count_ft_content,
    count_nisq,
    lower_to_rotations_clifford_t,
    rebase_tk1_cnot,
    t_depth,
)


@dataclass
class QmciPlan:
    a_circuit: QuantumCircuit            # representative rotation-bank circuit
    grover: QuantumCircuit               # its Grover operator
    schedules: list                      # per harmonic: list of (m, shots)
    q_total: int
    quantity: str
    c_f: float
    c_qae: float
    quantity_range: float
    resource_only: bool = True

    def level_multiset(self):
        """All (m, shots) pairs across harmonics."""
        out = []
        for sched in self.schedules:
            out.extend(sched)
        return out

    def max_level(self) -> int:
        return max((m for m, _ in self.level_multiset()), default=0)


@dataclass
class FtSolution:
    q: int
    epsilon: float
    t_count_total: int = 0
    t_depth_total: int = 0
    per_circuit: list = field(default_factory=list)  # (t_count, t_depth, n_qubits)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.q < 1:
            raise ValueError("q must be >= 1")


@dataclass
class ResourceReport:
    mode: str                     # "nisq" | "ft" | "ft_tight"
    n_qubits: int
    totals: dict
    largest: dict
    solution: FtSolution | None = None

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "n_qubits": self.n_qubits,
            "totals": self.totals,
            "largest": self.largest,
        }
        if self.solution is not None:
            d["solution"] = {
                "q": self.solution.q,
                "epsilon": self.solution.epsilon,
                "t_count_total": self.solution.t_count_total,
                "t_depth_total": self.solution.t_depth_total,
            }
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self) -> str:
        """Two-table layout: (A) totals, (B) largest circuit."""
        cols = sorted(set(self.totals) | set(self.largest))
        lines = ["table,qubits," + ",".join(cols)]
        lines.append(
            "total,%d," % self.n_qubits
            + ",".join(str(self.totals.get(c, "")) for c in cols)
        )
        lines.append(
            "largest,%d," % self.n_qubits
            + ",".join(str(self.largest.get(c, "")) for c in cols)
        )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# plan construction


def build_plan(
    dc: DistributionCircuit,
    spec,
    dim: int,
    qae_kind: str = "MLQAE",
    q_total: int | None = None,
    target_rmse: float | None = None,
    condition: int | None = None,
) -> QmciPlan:
    """Mirror of ``qmci_estimate``'s allocation, collecting circuits and
    shot schedules instead of running them (deterministic-schedule QAE
    kinds: PAM, MLQAE, LCU)."""
    if qae_kind == "IQAE":
        raise ValueError("IQAE has a data-dependent schedule; no resource plan")
    c_ref = qae_mod.C_QAE_REFERENCE[qae_kind]

    def schedule_for(q: int):
        if qae_kind == "PAM":
            return [(0, q)]
        return eis_schedule(q)

    if spec.kind == "BernoulliQubit":
        if condition is None:
            raise ValueError("BernoulliQubit needs a designated indicator")
        if q_total is None:
            q_total = max(1, math.ceil(c_ref / target_rmse))
        a = dc.circuit.copy()
        problem = QaeProblem(a, dc.indicators[condition])
        return QmciPlan(
            a_circuit=a,
            grover=grover_operator(problem),
            schedules=[schedule_for(q_total)],
            q_total=q_total,
            quantity=spec.kind,
            c_f=1.0,
            c_qae=c_ref,
            quantity_range=1.0,
        )

    d = dc.dims[dim]
    window = spec.support_window
    (xl_n, delta_n), scale, _, win = fourier_mod._normalised_metadata(
        spec.kind, d, window
    )
    series = spec.series
    support_range = fourier_mod.range_of_quantity(spec.kind, win)
    if q_total is None:
        if target_rmse is None:
            raise ValueError("give q_total or target_rmse")
        q_total = max(1, math.ceil(spec.c_f * c_ref * support_range / target_rmse))
    if q_total < 1:
        raise ValueError("budget must be >= 1")
    target = target_rmse if target_rmse is not None else (
        spec.c_f * c_ref * support_range / q_total
    )
    m_trunc = fourier_mod._truncate(series, scale, target)
    terms = []
    for m in range(1, m_trunc + 1):
        if abs(series.a[m - 1]) > 1e-13:
            terms.append((m, "cos", series.a[m - 1]))
        if abs(series.b[m - 1]) > 1e-13:
            terms.append((m, "sin", series.b[m - 1]))
    if q_total < len(terms):
        raise ValueError(f"budget {q_total} below the {len(terms)} harmonics")
    alloc = fourier_mod.allocate_uses([c for (_, _, c) in terms], q_total)

    conditional = spec.kind in ("ConditionalExpectation", "ConditionalExponential")
    cond_qubit = dc.indicators[condition] if conditional else None
    from .distributions import rescale

    norm_dc = rescale(dc, dim, xl_n, delta_n)
    m0, trig0, _ = terms[0]
    beta0 = 0.0 if trig0 == "cos" else math.pi / 2.0
    x_star_angle = None
    if conditional:
        x_star = spec.x_star
        if x_star is None:
            lo, hi = win
            x_star = 0.0 if lo <= 0.0 <= hi else lo
        x_star_angle = m0 * series.omega * fourier_mod._normalise_value(
            spec.kind, x_star, win
        ) - beta0
    a = fourier_mod.build_A_circuit(
        norm_dc, dim, beta0, m0, series.omega,
        condition=cond_qubit, x_star_angle=x_star_angle,
    )
    problem = QaeProblem(a, a.n_qubits - 1)
    return QmciPlan(
        a_circuit=a,
        grover=grover_operator(problem),
        schedules=[schedule_for(q_m) for q_m in alloc],
        q_total=q_total,
        quantity=spec.kind,
        c_f=spec.c_f,
        c_qae=c_ref,
        quantity_range=support_range,
    )


# --------------------------------------------------------------------------
# NISQ mode


_NISQ_FIELDS = (
    "total_gates",
    "cnot_count",
    "tk1_count",
    "total_depth",
    "cnot_depth",
    "tk1_depth",
)


def nisq_report(plan: QmciPlan) -> ResourceReport:
    """Totals and largest-circuit counts after rebasing to {TK1, CNOT}."""
    a_counts = count_nisq(rebase_tk1_cnot(plan.a_circuit))
    q_counts = count_nisq(rebase_tk1_cnot(plan.grover))
    totals = {f: 0 for f in _NISQ_FIELDS}
    largest = None
    largest_gates = -1
    for m, shots in plan.level_multiset():
        circ = {
            f: getattr(a_counts, f) + m * getattr(q_counts, f) for f in _NISQ_FIELDS
        }
        for f in _NISQ_FIELDS:
            totals[f] += shots * circ[f]
        if circ["total_gates"] > largest_gates:
            largest_gates = circ["total_gates"]
            largest = circ
    if largest is None:
        largest = {f: 0 for f in _NISQ_FIELDS}
    return ResourceReport(
        mode="nisq",
        n_qubits=max(q_counts.n_qubits, a_counts.n_qubits),
        totals=totals,
        largest=largest,
    )


# --------------------------------------------------------------------------
# fault-tolerant mode


def _constraint_fn(q, eps, a_term, n_r_q, rng3, tight):
    if tight:
        rot_total = 0.5 * q * n_r_q
        eps_tot = 2.0 * math.sqrt(rot_total) * eps
    else:
        eps_tot = q * n_r_q * eps
    return a_term / q**2 + eps_tot / 3.0 * rng3


def ft_optimize(
    plan: QmciPlan,
    target_mse: float,
    quantity_range: float | None = None,
    c_f: float | None = None,
    c_qae: float | None = None,
    tight: bool = False,
) -> FtSolution:
    """Optimal (q, epsilon) minimising the T count subject to the MSE
    budget: MSE = (c_f c_QAE R)^2 / q^2 + eps_tot R^3 / 3 with per-rotation
    synthesis cost 3 log2(1/eps) T gates and q/2 Grover instances.

    ``tight`` swaps the coherent worst-case eps_tot = q n_R eps for the
    quasi-orthogonal model 2 sqrt(q n_R / 2) eps.
    """
    if target_mse <= 0:
        raise ValueError("target_mse must be positive")
    rng = plan.quantity_range if quantity_range is None else quantity_range
    cf = plan.c_f if c_f is None else c_f
    cq = plan.c_qae if c_qae is None else c_qae
    lowered = lower_to_rotations_clifford_t(plan.grover)
    content = count_ft_content(lowered)
    n_r_q, n_t_q = content.rotation_count, content.t_count_exact
    a_term = (cf * cq * rng) ** 2
    rng3 = rng**3
    q_min = math.sqrt(a_term / target_mse)

    def q_of_eps(eps):
        f = lambda q: _constraint_fn(q, eps, a_term, n_r_q, rng3, tight) - target_mse
        # f decreases from +inf at q_min then increases; find its minimum
        lo = q_min * (1.0 + 1e-12)
        hi = lo * 2.0
        for _ in range(200):
            if f(hi) > f(hi / 1.0000001):
                break
            hi *= 2.0
        if f(lo) <= 0:
            return lo
        if f(hi) > 0:
            return None  # infeasible at this eps
        return float(brentq(f, lo, hi, xtol=1e-9, rtol=1e-14))

    def objective(eps):
        q = q_of_eps(eps)
        if q is None:
            return None, None
        return q / 2.0 * (3.0 * n_r_q * math.log2(1.0 / eps) + n_t_q), q

    # golden-section on log eps over the feasible range
    lo, hi = math.log(1e-18), math.log(0.5)
    # shrink to the feasible region from the right
    while objective(math.exp(hi))[0] is None and hi > lo:
        hi -= 1.0
    if objective(math.exp(hi))[0] is None:
        raise ValueError("MSE target infeasible for any (q, epsilon)")
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, _ = objective(math.exp(x1))
    f2, _ = objective(math.exp(x2))
    for _ in range(200):
        if f1 is None or (f2 is not None and f2 < f1):
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + phi * (hi - lo)
            f2, _ = objective(math.exp(x2))
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - phi * (hi - lo)
            f1, _ = objective(math.exp(x1))
        if hi - lo < 1e-10:
            break
    eps_opt = math.exp(0.5 * (lo + hi))
    obj, q_opt = objective(eps_opt)
    return FtSolution(q=max(1, math.ceil(q_opt)), epsilon=eps_opt)


def ft_objective(plan: QmciPlan, q: float, eps: float) -> float:
    """The optimizer's T-count objective at a given (q, eps)."""
    content = count_ft_content(lower_to_rotations_clifford_t(plan.grover))
    return q / 2.0 * (3.0 * content.rotation_count * math.log2(1.0 / eps) + content.t_count_exact)


def ft_constraint(plan: QmciPlan, q: float, eps: float, target_mse: float,
                  tight: bool = False) -> float:
    a_term = (plan.c_f * plan.c_qae * plan.quantity_range) ** 2
    return _constraint_fn(q, eps, a_term,
                          count_ft_content(lower_to_rotations_clifford_t(plan.grover)).rotation_count,
                          plan.quantity_range ** 3, tight)


def ft_report(plan: QmciPlan, solution: FtSolution) -> ResourceReport:
    """Per-circuit and total T counts / depths at the solved epsilon.

    Each rotation costs ceil(3 log2(1/epsilon)) sequential T gates on its
    wire; exact Clifford+T content (Toffoli cascades etc.) is counted as
    lowered.  Totals and largest circuit follow the NISQ conventions.
    """
    t_rot = max(1, math.ceil(3.0 * math.log2(1.0 / solution.epsilon)))
    low_a = lower_to_rotations_clifford_t(plan.a_circuit)
    low_q = lower_to_rotations_clifford_t(plan.grover)
    ca, cq = count_ft_content(low_a), count_ft_content(low_q)
    t_a = ca.t_count_exact + t_rot * ca.rotation_count
    t_q = cq.t_count_exact + t_rot * cq.rotation_count
    d_a = t_depth(low_a, t_rot)
    d_q = t_depth(low_q, t_rot)
    n_qubits = max(low_a.n_qubits, low_q.n_qubits)
    totals = {"t_count": 0, "t_depth": 0}
    per_circuit = []
    largest = None
    largest_t = -1
    for m, shots in plan.level_multiset():
        tc = t_a + m * t_q
        td = d_a + m * d_q
        per_circuit.append((tc, td, n_qubits, shots))
        totals["t_count"] += shots * tc
        totals["t_depth"] += shots * td
        if tc > largest_t:
            largest_t = tc
            largest = {"t_count": tc, "t_depth": td}
    if largest is None:
        largest = {"t_count": 0, "t_depth": 0}
    filled = FtSolution(
        q=solution.q,
        epsilon=solution.epsilon,
        t_count_total=totals["t_count"],
        t_depth_total=totals["t_depth"],
        per_circuit=per_circuit,
    )
    return ResourceReport(
        mode="ft",
        n_qubits=n_qubits,
        totals=totals,
        largest=largest,
        solution=filled,
    )


def insert_resource_box(circuit: QuantumCircuit, box: ResourceBox) -> QuantumCircuit:
    """Attach an opaque counted block; boxed circuits refuse simulation."""
    out = circuit.copy()
    b = ResourceBox(**{**box.__dict__})
    b.placement = min(max(0, b.placement), len(out.gates))
    out.boxes.append(b)
    return out
