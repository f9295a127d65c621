"""Per-layer metrics of a traced run.

Layers are the ``qmci`` modules.  ``<fn>.self_s`` is summed self time
(span duration minus child spans), ``<fn>.calls`` a call count; names
ending in ``_computed`` are derived from array sizes, not measured.
"""
from __future__ import annotations

import statistics

from tracer import TRACED

_SELF = [f"{m}.{f}" for m, f in TRACED]

# (metric, unit) in report order; every workload reports all of them
PER_LAYER = [
    ("cli.main.self_s", "s"), ("cli.main.calls", "count"), ("cli.bytes_out", "B"),
    ("distributions.train_hwe.self_s", "s"), ("distributions.train_hwe.calls", "count"),
    ("distributions.exact_pmf_loader.self_s", "s"),
    ("pbuilder.build_instrument.self_s", "s"), ("pbuilder.add_indicator.self_s", "s"),
    ("pbuilder.qubits_max", "count"), ("pbuilder.gates_mean", "count"),
    ("simulator.simulate.self_s", "s"), ("simulator.simulate.calls", "count"),
    ("simulator.marginal_pmf.self_s", "s"), ("simulator.amp_updates", "count"),
    ("simulator.amp_updates_per_s", "1/s"), ("simulator.bytes_moved_computed", "B"),
    ("simulator.state_bytes_max_computed", "B"), ("simulator.sims_per_circuit", "ratio"),
    ("fourier.qmci_estimate.self_s", "s"), ("fourier.allocate_uses.self_s", "s"),
    ("fourier.quantity_series.self_s", "s"), ("fourier.harmonics_per_estimate", "count"),
    ("fourier.err_ratio_p50", "ratio"),
    ("qae.pam_from_amplitude.self_s", "s"), ("qae.pam_from_amplitude.calls", "count"),
    ("qae.mlqae_from_amplitude.self_s", "s"), ("qae.mlqae_from_amplitude.calls", "count"),
    ("qae.iqae_from_amplitude.self_s", "s"), ("qae.iqae_from_amplitude.calls", "count"),
    ("qae.lcu_from_amplitude.self_s", "s"), ("qae.lcu_from_amplitude.calls", "count"),
    ("qae.opt_ae.self_s", "s"), ("qae.opt_ae.calls", "count"),
    ("qae.opt_ae.repeat_frac", "ratio"), ("qae.lcu_fallback_frac", "ratio"),
    ("qae.lcu_table_bytes_computed", "B"), ("qae.grover_operator.self_s", "s"),
    ("robustness.amplitude_sweep.self_s", "s"), ("robustness.bootstrap_ci.self_s", "s"),
    ("robustness.estimator_stats.self_s", "s"), ("robustness.estimator_stats.calls", "count"),
    ("resources.build_plan.self_s", "s"), ("resources.nisq_report.self_s", "s"),
    ("resources.ft_optimize.self_s", "s"), ("resources.ft_report.self_s", "s"),
    ("rebase.rebase_tk1_cnot.self_s", "s"),
    ("rebase.lower_to_rotations_clifford_t.self_s", "s"),
    ("rebase.lower_to_rotations_clifford_t.calls", "count"),
    ("rebase.count_nisq.self_s", "s"), ("rebase.t_depth.self_s", "s"),
    ("rebase.lowerings_per_circuit", "ratio"),
    ("bench.trace_overhead_s", "s"), ("bench.trace_overhead_frac", "ratio"),
]

AMPLITUDE_BYTES = 16  # complex128


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _facts(tracer, name):
    return [tracer.facts[i] for i, s in enumerate(tracer.spans)
            if s[0] == name and i in tracer.facts]


def per_layer(tracer, records, stats, busy_untraced, busy_traced) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)}."""
    from qmci import qae

    self_s, calls = tracer.totals()
    v: dict[str, float] = {}
    for name in _SELF:
        v[f"{name}.self_s"] = self_s.get(name, 0.0)
        v[f"{name}.calls"] = calls.get(name, 0)
    v["cli.bytes_out"] = sum(r.get("bytes_out", 0) for r in records)

    built = _facts(tracer, "pbuilder.build_instrument")
    v["pbuilder.qubits_max"] = max((n for n, _, _ in built), default=0)
    v["pbuilder.gates_mean"] = _ratio(sum(g for _, g, _ in built), len(built))

    sims = _facts(tracer, "simulator.simulate")
    updates = sum(g * 2**n for n, g, _ in sims)
    v["simulator.amp_updates"] = updates
    v["simulator.amp_updates_per_s"] = _ratio(updates, v["simulator.simulate.self_s"])
    # one read and one write of every amplitude per gate
    v["simulator.bytes_moved_computed"] = 2 * AMPLITUDE_BYTES * updates
    v["simulator.state_bytes_max_computed"] = max(
        (AMPLITUDE_BYTES * 2**n for n, _, _ in sims), default=0)
    v["simulator.sims_per_circuit"] = _ratio(len(sims), len({k for _, _, k in sims}))

    graded = [s for s in stats if "harmonics" in s]
    v["fourier.harmonics_per_estimate"] = _ratio(sum(s["harmonics"] for s in graded), len(graded))
    v["fourier.err_ratio_p50"] = statistics.median(
        [s["err_ratio"] for s in graded]) if graded else 0.0

    qs = _facts(tracer, "qae.opt_ae")
    v["qae.opt_ae.repeat_frac"] = 1.0 - _ratio(len(set(qs)), len(qs)) if qs else 0.0
    lcu_reqs = {i for i, r in enumerate(records) if r["req"].kind in ("estimate", "pricing")
                and r["req"].config["qae"]["qae"] == "LCU"}
    _, lcu_calls = tracer.totals(lcu_reqs)
    harmonics = lcu_calls.get("qae.mlqae_from_amplitude", 0) + lcu_calls.get("qae.lcu_from_amplitude", 0)
    v["qae.lcu_fallback_frac"] = _ratio(lcu_calls.get("qae.mlqae_from_amplitude", 0), harmonics)
    table = 0
    for q, p_max_fail, grid in _facts(tracer, "qae.lcu_from_amplitude"):
        groups = len(qae._lcu_shot_plan(q, p_max_fail))
        table += 2 * groups * (grid or qae.DEFAULT_POSTERIOR_GRID) * 8  # log P(1), log P(0)
    v["qae.lcu_table_bytes_computed"] = table

    lowered = _facts(tracer, "rebase.lower_to_rotations_clifford_t")
    v["rebase.lowerings_per_circuit"] = _ratio(len(lowered), len({k for _, _, k in lowered}))

    v["bench.trace_overhead_s"] = busy_traced - busy_untraced
    v["bench.trace_overhead_frac"] = _ratio(busy_traced - busy_untraced, busy_untraced)
    return {name: (float(v[name]), unit) for name, unit in PER_LAYER}


def profile(tracer, records) -> dict:
    """Per request kind: the three functions with the largest self time
    and their share of that kind's request time."""
    out = {}
    for kind in sorted({r["req"].kind for r in records}):
        ids = {i for i, r in enumerate(records) if r["req"].kind == kind}
        self_s, _ = tracer.totals(ids)
        total = sum(r["latency_s"] for i, r in enumerate(records) if i in ids)
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:3]
        out[kind] = [f"{name} {t:.3f}s ({100 * t / total:.0f}%)" for name, t in top]
    return out
