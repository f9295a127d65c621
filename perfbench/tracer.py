"""Span tracer for the benchmark's traced run.

Wraps public functions of the ``qmci`` modules from outside the program:
every module attribute that refers to a listed function is rebound to a
timing wrapper (modules that did ``from .simulator import simulate`` hold
their own reference), and restored afterwards.  Spans are kept in memory
as (name, start, end, parent, request) and written out once at the end.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs timed in the traced run; each is a layer entry
TRACED = (
    ("cli", "main"),
    ("distributions", "train_hwe"),
    ("distributions", "exact_pmf_loader"),
    ("pbuilder", "build_instrument"),
    ("pbuilder", "add_indicator"),
    ("simulator", "simulate"),
    ("simulator", "marginal_pmf"),
    ("fourier", "qmci_estimate"),
    ("fourier", "allocate_uses"),
    ("fourier", "quantity_series"),
    ("qae", "pam_from_amplitude"),
    ("qae", "mlqae_from_amplitude"),
    ("qae", "iqae_from_amplitude"),
    ("qae", "lcu_from_amplitude"),
    ("qae", "opt_ae"),
    ("qae", "grover_operator"),
    ("robustness", "amplitude_sweep"),
    ("robustness", "bootstrap_ci"),
    ("robustness", "estimator_stats"),
    ("resources", "build_plan"),
    ("resources", "nisq_report"),
    ("resources", "ft_optimize"),
    ("resources", "ft_report"),
    ("rebase", "rebase_tk1_cnot"),
    ("rebase", "lower_to_rotations_clifford_t"),
    ("rebase", "count_nisq"),
    ("rebase", "t_depth"),
)


def _circuit_size(c) -> tuple[int, int, int]:
    return c.n_qubits, len(c.gates), hash(c.key())


# Per-call facts recorded beside the span, for the layer counters.  They
# run after the span closes, so their cost lands in the parent's self time
# and in the reported tracing overhead, not in the traced function.
_FACTS = {
    "simulator.simulate": lambda a, kw, r: _circuit_size(a[0]),
    "rebase.lower_to_rotations_clifford_t": lambda a, kw, r: _circuit_size(a[0]),
    "pbuilder.build_instrument": lambda a, kw, r: _circuit_size(r[0].circuit),
    "qae.opt_ae": lambda a, kw, r: a[0],
    "qae.lcu_from_amplitude": lambda a, kw, r: (
        a[1],
        a[2] if len(a) > 2 else kw.get("p_max_fail", 0.5),
        kw.get("grid_size", a[4] if len(a) > 4 else None),
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, request)
        self.facts: dict[int, object] = {}  # span index -> recorded fact
        self.request = -1
        self._stack: list[tuple[int, str]] = []  # open (span, name)
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        fact = _FACTS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # a recursive call (train_hwe's restarts) stays inside its parent
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request)
            if fact is not None:
                self.facts[idx] = fact(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "qmci" or k.startswith("qmci.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"qmci.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self, requests=None) -> tuple[dict, dict]:
        """Summed self time and call count per function name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, st in zip(self.spans, self.self_times()):
            if requests is None or s[4] in requests:
                self_s[s[0]] += st
                calls[s[0]] += 1
        return self_s, calls

    def write(self, path: str):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                       "request": s[4]}
                if i in self.facts:
                    rec["fact"] = self.facts[i]
                f.write(json.dumps(rec) + "\n")
