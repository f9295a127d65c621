"""Quantum Monte Carlo integration engine.

Builds probability-distribution circuits, enhances them with payoff and
indicator logic, estimates statistical quantities via Fourier-decomposed
quantum amplitude estimation on an exact state-vector simulator, and
quantifies NISQ / fault-tolerant resources for full-scale instances.
"""

from .circuit import QuantumCircuit, ResourceBox, controlled_x
from .gates import Gate, gate
from .simulator import exact_marginal, marginal_pmf, simulate, zero_state
from .rebase import (
    NisqCounts,
    count_nisq,
    lower_to_rotations_clifford_t,
    rebase_tk1_cnot,
)
from .distributions import (
    Dimension,
    DistributionCircuit,
    DivergenceReport,
    discretize_pdf,
    divergence_metrics,
    exact_pmf_loader,
    rescale,
    standard_circuit,
    train_hwe,
    walk_binomial_pmf,
)
from .pbuilder import (
    BinaryOpSpec,
    IndicatorSpec,
    InstrumentSpec,
    PayoffConfig,
    add_esop,
    add_indicator,
    apply_binary_op,
    apply_script,
    build_brownian,
    build_instrument,
)
from .fourier import (
    FourierSeries,
    QmciResult,
    QuantitySpec,
    allocate_uses,
    build_A_circuit,
    qmci_estimate,
    quantity_series,
    rmse_bound,
)
from .qae import (
    QaeProblem,
    benchmark_circuit,
    eis_schedule,
    estimate_amplitude,
    grover_operator,
    grover_operator_tilde,
    lcu_likelihood,
    lcu_prepare,
)
from .robustness import (
    EstimatorStats,
    SweepReport,
    amplitude_sweep,
    bootstrap_ci,
    estimator_stats,
)
from .resources import (
    FtSolution,
    QmciPlan,
    ResourceReport,
    build_plan,
    ft_optimize,
    ft_report,
    insert_resource_box,
    nisq_report,
)

__all__ = [
    "Gate", "gate", "QuantumCircuit", "ResourceBox", "controlled_x",
    "simulate", "marginal_pmf", "exact_marginal", "zero_state",
    "rebase_tk1_cnot", "lower_to_rotations_clifford_t", "count_nisq", "NisqCounts",
    "Dimension", "DistributionCircuit", "DivergenceReport", "standard_circuit",
    "rescale", "exact_pmf_loader", "train_hwe", "walk_binomial_pmf",
    "divergence_metrics", "discretize_pdf",
    "BinaryOpSpec", "IndicatorSpec", "InstrumentSpec", "PayoffConfig",
    "apply_binary_op", "add_indicator", "add_esop", "apply_script",
    "build_brownian", "build_instrument",
    "FourierSeries", "QuantitySpec", "QmciResult", "quantity_series",
    "build_A_circuit", "allocate_uses", "rmse_bound", "qmci_estimate",
    "QaeProblem", "benchmark_circuit",
    "grover_operator", "grover_operator_tilde", "eis_schedule",
    "estimate_amplitude", "lcu_prepare", "lcu_likelihood",
    "EstimatorStats", "SweepReport", "estimator_stats", "bootstrap_ci",
    "amplitude_sweep",
    "QmciPlan", "FtSolution", "ResourceReport", "build_plan", "nisq_report",
    "ft_optimize", "ft_report", "insert_resource_box",
]
