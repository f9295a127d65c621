"""``exact_marginal`` against the dense reference ``marginal_pmf(simulate(c))``.

Every circuit here comes from its own seeded generator or fixed inputs,
so the cases do not depend on test order.
"""
import math

import numpy as np
import pytest

import qmci.simulator as sim
from qmci.circuit import QuantumCircuit
from qmci.distributions import (
    discretize_pdf,
    exact_pmf_loader,
    gaussian_pdf,
    hwe_circuit,
    rescale,
)
from qmci.pbuilder import BinaryOpSpec, InstrumentSpec, apply_binary_op, build_instrument
from qmci.simulator import (
    MAX_SIM_QUBITS,
    MAX_SUPPORT_ROWS,
    CircuitTooLarge,
    exact_marginal,
    marginal_pmf,
    simulate,
)

from conftest import uniform_dc

TOL = 1e-12


def unit(n_qubits: int, mu: float = 0.1):
    """A Gaussian exact-PMF loader on a centred integer grid."""
    x_l = -(2**n_qubits - 1) / 2
    delta = 1.0 if n_qubits > 1 else 2.0
    pmf = discretize_pdf(lambda x: gaussian_pdf(x, mu, 1.0), n_qubits, x_l, delta)
    return rescale(exact_pmf_loader(pmf), 0, x_l, delta)


EXTRA = {
    "Barrier": {"barrier_ratio": 1.3},
    "Lookback": {},
    "Autocallable": {"barrier_ratio": 0.85, "autocall_schedule": [[1, 1.05, 0.05]]},
}


def instrument(kind, call_or_put, n_unit, n_slices):
    spec = InstrumentSpec(kind, space="return", n_slices=n_slices, total_volatility=0.3,
                          strike_ratio=1.02, call_or_put=call_or_put, **EXTRA[kind])
    return build_instrument(unit(n_unit), spec)


def reads(dc, cfgs):
    """The marginals to compare: every register and indicator alone, and
    each payoff config's register with its indicator, as the engine reads
    them."""
    out = [list(d.qubits) for d in dc.dims] + [[q] for q in dc.indicators]
    for c in cfgs:
        ind = dc.indicators[c.condition]
        if c.dimension is not None:
            out.append(list(dc.dims[c.dimension].qubits) + [ind])
    return out


def assert_matches_dense(circuit, qubit_lists, dense=None, offset=0):
    """exact_marginal of ``circuit`` on the lists shifted by ``offset``
    equals the dense marginal of ``dense`` (default ``circuit``)."""
    state = simulate(circuit if dense is None else dense)
    for qubits in qubit_lists:
        got = exact_marginal(circuit, [q + offset for q in qubits])
        want = marginal_pmf(state, qubits)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL, qubits


# (kind, unit qubits, slices) of every builder output of at most 20 qubits
# on one- and two-qubit units (a two-slice Lookback on two qubits is 21)
BUILDS = [(k, 1, s) for k in EXTRA for s in (1, 2, 3)] + [
    (k, 2, s) for k in EXTRA for s in (1, 2) if (k, s) != ("Lookback", 2)]


@pytest.mark.parametrize("call_or_put", ["call", "put"])
@pytest.mark.parametrize("kind,n_unit,n_slices", BUILDS)
def test_instrument_marginals_match_dense(kind, n_unit, n_slices, call_or_put):
    dc, cfgs = instrument(kind, call_or_put, n_unit, n_slices)
    assert dc.circuit.n_qubits <= 20
    assert_matches_dense(dc.circuit, reads(dc, cfgs))


# the inputs of the pinned builder gate lists
ARITHMETIC = {
    "Sum": ([2, 3], [(-1.0, 0.5), (0.25, 0.25)]),
    "Product": ([2, 2], [(2.0, 1.0), (1.0, 0.5)]),
    "Max": ([2, 3], [(0, 0.5), (-0.5, 0.25)]),
    "Min": ([2, 3], [(0, 0.5), (-0.5, 0.25)]),
}


@pytest.mark.parametrize("op", sorted(ARITHMETIC))
def test_arithmetic_on_uniform_inputs_matches_dense(op):
    # H on every input qubit: one dense block per qubit, all equal
    dc = apply_binary_op(uniform_dc(*ARITHMETIC[op]), BinaryOpSpec(op, 0, 1))
    assert_matches_dense(dc.circuit, [list(d.qubits) for d in dc.dims]
                         + [list(dc.dims[-1].qubits) + list(dc.dims[0].qubits)])


def test_exact_pmf_loaders_match_dense():
    gen = np.random.default_rng(31)
    for n in range(1, 9):
        pmf = gen.random(2**n)
        pmf /= pmf.sum()
        qc = exact_pmf_loader(pmf).circuit
        assert_matches_dense(qc, [list(range(n)), [n - 1], list(reversed(range(n)))])


def test_loader_beside_an_idle_qubit_matches_dense():
    # qubit 0 gets no gate and stays |0>; the loader block is qubits 1..3
    loader = exact_pmf_loader([0.2, 0.3, 0.1, 0.4, 0.0, 0.0, 0.0, 0.0]).circuit
    qc = QuantumCircuit(4).compose(loader, offset=1)
    assert_matches_dense(qc, [[1, 2, 3], [0], [3, 0], [0, 1, 2, 3]])


def test_hwe_circuits_match_dense():
    gen = np.random.default_rng(32)
    for n, layers in ((2, 1), (3, 2), (4, 3), (6, 6)):
        qc = hwe_circuit(gen.uniform(0, 2 * math.pi, (layers + 1, n)))
        assert_matches_dense(qc, [list(range(n)), [0], [n - 1, 0]])


def test_benchmark_instrument_packed_past_64_qubits():
    # the 20-qubit Lookback of the instrument benchmark (three one-qubit
    # slices) on qubits 75..94 of a 100-qubit register
    dc, cfgs = instrument("Lookback", "call", 1, 3)
    assert dc.circuit.n_qubits == 20
    wide = QuantumCircuit(100).compose(dc.circuit, offset=75)
    assert_matches_dense(wide, reads(dc, cfgs), dense=dc.circuit, offset=75)


def test_support_rows_span_several_words(monkeypatch):
    # seven one-qubit blocks (128 rows, two words) feeding a CNOT/Toffoli
    # suffix, read in 64-row chunks and in one
    gen = np.random.default_rng(33)
    qc = QuantumCircuit(10)
    for q in range(7):
        qc.append("Ry", q, float(gen.uniform(0, 2 * math.pi)))
    qc.append("Toffoli", (0, 3, 7)).append("CNOT", (7, 8)).append("X", 9)
    qc.append("MultiControlledX", (1, 2, 8, 9, 4)).append("CNOT", (5, 0))
    lists = [[7, 8, 9], [4, 0, 8], list(range(10))]
    assert_matches_dense(qc, lists)
    sim._SUPPORT_CACHE.clear()
    monkeypatch.setattr(sim, "_READ_ROWS", 64)
    assert_matches_dense(qc, lists)


def test_pure_loader_simulates_its_own_circuit(monkeypatch):
    qc = unit(5).circuit
    seen = []
    monkeypatch.setattr(sim, "simulate", lambda c: seen.append(c) or simulate(c))
    sim._SUPPORT_CACHE.clear()
    exact_marginal(qc, range(5))
    assert seen == [qc] and seen[0] is qc


def test_support_is_cached_and_equal_blocks_simulate_once(monkeypatch):
    # three slices of one loader: the first two are equal blocks, the last
    # leaves its closing CNOT to the suffix
    dc, cfgs = instrument("Barrier", "call", 2, 3)
    seen = []
    monkeypatch.setattr(sim, "simulate", lambda c: seen.append(c.key()) or simulate(c))
    sim._SUPPORT_CACHE.clear()
    for qubits in reads(dc, cfgs):
        exact_marginal(dc.circuit, qubits)
    assert len(seen) == len(set(seen)) == 2
    assert [key[0] for key in seen] == [2, 2]


def test_caps_raise_before_simulating(monkeypatch):
    def refuse(c):
        raise AssertionError("simulated an over-cap circuit")

    monkeypatch.setattr(sim, "simulate", refuse)
    sim._SUPPORT_CACHE.clear()
    rows = MAX_SUPPORT_ROWS.bit_length()  # one qubit past the row cap
    qc = QuantumCircuit(rows + 1)
    for q in range(rows):
        qc.append("H", q)
    qc.append("CNOT", (0, rows))
    with pytest.raises(CircuitTooLarge, match=f"{2**rows} rows.*{MAX_SUPPORT_ROWS}"):
        exact_marginal(qc, [rows])
    wide = MAX_SIM_QUBITS + 1
    qc = QuantumCircuit(wide + 1)
    for q in range(wide - 1):
        qc.append("CNOT", (q, q + 1))
    qc.append("H", 0)
    with pytest.raises(CircuitTooLarge, match=f"{wide} qubits"):
        exact_marginal(qc, [wide])


def test_support_norm_is_checked(monkeypatch):
    dc, _ = instrument("Barrier", "call", 2, 2)
    monkeypatch.setattr(sim, "simulate", lambda c: simulate(c) * (1 + 1e-9))
    sim._SUPPORT_CACHE.clear()
    with pytest.raises(ValueError, match="norm"):
        exact_marginal(dc.circuit, dc.dims[-1].qubits)
    sim._SUPPORT_CACHE.clear()


def test_exact_marginal_validation():
    qc = QuantumCircuit(3).append("H", 0)
    with pytest.raises(ValueError):
        exact_marginal(qc, [0, 0])
    with pytest.raises(ValueError):
        exact_marginal(qc, [3])
