"""Resource mode: NISQ and fault-tolerant quantification of full QMCI
plans without executing them.

A plan records, per estimated harmonic, the shot schedule the estimator
would run (levels m with shot counts) plus one representative rotation
bank circuit A and its Grover operator Q; gate counts are angle
independent, so a single (A, Q) pair per plan suffices.  A circuit at
level m is counted as A plus m copies of Q; depth totals follow the
sequential-execution model (sums across circuits).

A plan counts each of its two circuits once, on first use, and every
report and the fault-tolerant optimiser read those counts.  The counts are
those of A and Q rebased to {TK1, CNOT} (NISQ) or lowered to rotations
plus Clifford+T (fault-tolerant), taken by ``rebase``'s per-gate templates
without building either compiled circuit; the fault-tolerant report walks
A and Q once more for their T depth at the solved synthesis cost.

``report`` builds a plan's report in any mode, and ``combine`` joins the
reports of an instrument's legs; each count is stored once, in a report's
``totals`` and ``largest``.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

from .circuit import QuantumCircuit, ResourceBox
from .distributions import DistributionCircuit, rescale
from . import fourier as fourier_mod
from .qae import grover_operator, QaeProblem
from .rebase import FtGateCounts, NisqCounts, lowered_counts, lowered_t_depth, rebased_counts


@dataclass
class QmciPlan:
    """The counts of A and Q and the error model are taken on first use and
    kept; the circuits, c_f, c_qae and quantity_range must not change then."""

    a_circuit: QuantumCircuit            # representative rotation-bank circuit
    grover: QuantumCircuit               # its Grover operator
    schedules: list                      # per harmonic: list of (m, shots)
    q_total: int
    c_f: float
    c_qae: float
    quantity_range: float

    @cached_property
    def error(self) -> fourier_mod.ErrorModel:
        return fourier_mod.ErrorModel(self.c_f, self.c_qae, self.quantity_range)

    @cached_property
    def nisq_counts(self) -> tuple[NisqCounts, NisqCounts]:
        """(A, Q) counts after rebasing to {TK1, CNOT}."""
        return tuple(rebased_counts(c) for c in (self.a_circuit, self.grover))

    @cached_property
    def ft_counts(self) -> tuple[FtGateCounts, FtGateCounts]:
        """(A, Q) rotation and exact-T content after lowering to rotations
        plus Clifford+T."""
        return tuple(lowered_counts(c) for c in (self.a_circuit, self.grover))


@dataclass
class FtSolution:
    q: int
    epsilon: float

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
            d["solution"] = {**asdict(self.solution), "t_count_total": self.totals["t_count"],
                             "t_depth_total": self.totals["t_depth"]}
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_csv(self) -> str:
        """Two-table layout: (A) totals, (B) largest circuit."""
        cols = sorted(set(self.totals) | set(self.largest))
        lines = ["table,qubits," + ",".join(cols)] + [
            f"{name},{self.n_qubits}," + ",".join(str(row.get(c, "")) for c in cols)
            for name, row in (("total", self.totals), ("largest", self.largest))]
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
    """The ``fourier.plan_terms`` plan that ``qmci_estimate`` runs, with
    shot schedules and one representative (A, Q) pair in place of QAE runs
    (deterministic-schedule QAE kinds: PAM, MLQAE, LCU).  Simulates
    nothing."""
    if qae_kind == "IQAE":
        raise ValueError("IQAE has a data-dependent schedule; no resource plan")
    run = fourier_mod.plan_terms(dc, spec, dim, qae_kind, q_total, target_rmse, condition)
    if spec.kind == "BernoulliQubit":
        a = dc.circuit.copy()
        problem = QaeProblem(a, run.cond_qubit)
    else:
        m0, trig0, _ = run.terms[0]
        beta0 = 0.0 if trig0 == "cos" else math.pi / 2.0
        omega = spec.series.omega
        x_star_angle = None if run.x_star_n is None else m0 * omega * run.x_star_n - beta0
        a = fourier_mod.build_A_circuit(
            rescale(dc, dim, run.x_l_n, run.delta_n), dim, beta0, m0, omega,
            condition=run.cond_qubit, x_star_angle=x_star_angle,
        )
        problem = QaeProblem(a, a.n_qubits - 1)
    return QmciPlan(
        a_circuit=a,
        grover=grover_operator(problem),
        schedules=[record.levels for record in run.schedules],
        q_total=run.q_total,
        c_f=run.error.c_f,
        c_qae=run.error.c_qae,
        quantity_range=run.error.quantity_range,
    )


# --------------------------------------------------------------------------
# reports


def _tally(plan: QmciPlan, a: dict, q: dict, key: str):
    """Counts of every scheduled circuit, A plus m copies of Q, from the
    per-field counts ``a`` and ``q``: the shot-weighted totals and the
    circuit largest by ``key`` (the first of equals)."""
    totals = dict.fromkeys(a, 0)
    largest = None
    for m, shots in (level for sched in plan.schedules for level in sched):
        circ = {f: a[f] + m * q[f] for f in a}
        for f in a:
            totals[f] += shots * circ[f]
        if largest is None or circ[key] > largest[key]:
            largest = circ
    return totals, largest or dict.fromkeys(a, 0)


def nisq_report(plan: QmciPlan) -> ResourceReport:
    """Totals and largest-circuit counts after rebasing to {TK1, CNOT}."""
    a, q = ({k: v for k, v in asdict(c).items() if k != "n_qubits"} for c in plan.nisq_counts)
    totals, largest = _tally(plan, a, q, "total_gates")
    return ResourceReport(
        mode="nisq",
        n_qubits=max(c.n_qubits for c in plan.nisq_counts),
        totals=totals,
        largest=largest,
    )


def ft_objective(plan: QmciPlan, q: float, eps: float) -> float:
    """The optimizer's T-count objective at a given (q, eps): q/2 Grover
    instances, each with its exact T content and 3 log2(1/eps) T gates per
    rotation."""
    content = plan.ft_counts[1]
    return q / 2.0 * (3.0 * content.rotation_count * math.log2(1.0 / eps) + content.t_count_exact)


def _eps_share(plan: QmciPlan, tight: bool) -> tuple[float, float]:
    """(k, p) with eps_tot = k q^p eps after q oracle uses: the coherent
    worst case q n_R eps, or the quasi-orthogonal 2 sqrt(q n_R / 2) eps
    when ``tight``."""
    n_r_q = plan.ft_counts[1].rotation_count
    return (math.sqrt(2.0 * n_r_q), 0.5) if tight else (float(n_r_q), 1.0)


def ft_constraint(plan: QmciPlan, q: float, eps: float, target_mse: float,
                  tight: bool = False) -> float:
    """The optimizer's MSE model at (q, eps), the error model's MSE plus
    eps_tot R^3 / 3, for the caller to compare against ``target_mse``."""
    k, p = _eps_share(plan, tight)
    return plan.error.mse(q) + k * q**p * eps / 3.0 * plan.quantity_range**3


def ft_optimize(
    plan: QmciPlan,
    target_mse: float,
    tight: bool = False,
) -> FtSolution:
    """Optimal (q, epsilon) minimising the T count (``ft_objective``)
    subject to the MSE budget (``ft_constraint``), with per-rotation synthesis
    cost 3 log2(1/eps) T gates (Ross & Selinger, arXiv:1403.2975) and eps in
    [1e-18, 0.5].  ``tight`` swaps the coherent worst-case eps_tot = q n_R eps
    for the quasi-orthogonal model 2 sqrt(q n_R / 2) eps.

    The constraint binds at the optimum, so with eps_tot = k q^p eps, eps is
    eps*(q) = 3 (target_mse - mse(q)) / (k q^p R^3), clipped to its range, and
    one golden-section search over log q minimises the count at (q, eps*(q)).
    As mse(q) falls as 1/q^2, eps*(q) rises from 0 at q_min, where mse(q_min)
    = target_mse, to a peak where mse(q) = p target_mse / (2 + p), and falls
    after it, where the count only grows: so the two bracket the optimum, and
    the target is infeasible if eps* at the peak is below 1e-18.  A point below that bound ranks by its
    shortfall before its count.  Returns q = ceil(q*) of the continuous
    optimum q* and the largest eps whose constraint at q meets the target.
    """
    if target_mse <= 0:
        raise ValueError("target_mse must be positive")
    eps_lo, eps_hi = 1e-18, 0.5
    k, p = _eps_share(plan, tight)
    r3 = plan.quantity_range**3

    def solve(q):
        """(shortfall, T count, eps*) at q; the shortfall is the eps_tot
        over budget at eps = 1e-18."""
        budget = 3.0 * (target_mse - plan.error.mse(q)) / r3   # eps_tot left
        share = k * q**p
        shortfall = max(0.0, eps_lo * share - budget)
        eps = eps_hi if budget >= eps_hi * share else eps_lo if shortfall else budget / share
        return shortfall, ft_objective(plan, q, eps), eps

    lo = math.log(plan.error.q_for_mse(target_mse))
    hi = math.log(plan.error.q_for_mse(p * target_mse / (2.0 + p)))
    if solve(math.exp(hi))[0] > 0:
        raise ValueError("MSE target infeasible for any (q, epsilon)")
    # golden-section on log q; hi stays feasible throughout
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = solve(math.exp(x1))[:2], solve(math.exp(x2))[:2]
    for _ in range(200):
        if f2 < f1:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = solve(math.exp(x2))[:2]
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = solve(math.exp(x1))[:2]
        if hi - lo < 1e-10:
            break
    q = max(1, math.ceil(math.exp(hi)))
    eps = solve(q)[2]
    # eps*(q) as rounded sits a few ulps off the binding constraint at q
    while eps < eps_hi and ft_constraint(plan, q, math.nextafter(eps, 1.0), target_mse,
                                         tight) <= target_mse:
        eps = math.nextafter(eps, 1.0)
    while eps > eps_lo and ft_constraint(plan, q, eps, target_mse, tight) > target_mse:
        eps = math.nextafter(eps, 0.0)
    return FtSolution(q=q, epsilon=eps)


def ft_report(plan: QmciPlan, solution: FtSolution, mode: str = "ft") -> ResourceReport:
    """Total and largest-circuit T counts / depths at the solved epsilon.

    Each rotation costs ceil(3 log2(1/epsilon)) sequential T gates on its
    wire; exact Clifford+T content (Toffoli cascades etc.) is counted as
    lowered.  Totals and largest circuit follow the NISQ conventions.
    """
    t_rot = max(1, math.ceil(3.0 * math.log2(1.0 / solution.epsilon)))
    a, q = (
        {"t_count": c.t_count_exact + t_rot * c.rotation_count,
         "t_depth": lowered_t_depth(circ, t_rot)}
        for circ, c in zip((plan.a_circuit, plan.grover), plan.ft_counts)
    )
    totals, largest = _tally(plan, a, q, "t_count")
    return ResourceReport(mode, max(c.n_qubits for c in plan.ft_counts), totals, largest,
                          solution)


def report(plan: QmciPlan, mode: str, target_mse: float | None = None) -> ResourceReport:
    """The plan's ``nisq`` report, or its ``ft`` / ``ft_tight`` report at
    ``ft_optimize``'s solution for ``target_mse``, by default the squared
    error bound at the plan's budget."""
    if mode == "nisq":
        return nisq_report(plan)
    if target_mse is None:
        target_mse = plan.error.bound(plan.q_total) ** 2
    return ft_report(plan, ft_optimize(plan, target_mse, tight=mode == "ft_tight"), mode)


def combine(reports: list[ResourceReport]) -> ResourceReport:
    """One report for plans run one after another: summed totals, the
    widest register, and the largest circuit of the first plan whose
    largest circuit has the greatest sum of counts."""
    return ResourceReport(
        mode=reports[0].mode,
        n_qubits=max(r.n_qubits for r in reports),
        totals={k: sum(r.totals[k] for r in reports) for k in reports[0].totals},
        largest=max(reports, key=lambda r: sum(r.largest.values())).largest,
    )


def insert_resource_box(circuit: QuantumCircuit, box: ResourceBox) -> QuantumCircuit:
    """Attach an opaque counted block; boxed circuits refuse simulation."""
    out = circuit.copy()
    out.boxes.append(replace(box, placement=min(max(0, box.placement), len(out.gates))))
    return out
