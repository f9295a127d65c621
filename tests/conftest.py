import numpy as np
import pytest

from qmci.circuit import QuantumCircuit
from qmci.distributions import Dimension, DistributionCircuit
from qmci.simulator import simulate


def uniform_dc(widths, metas):
    """Input dimensions in uniform superposition, for exhaustive decoding."""
    n = sum(widths)
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.append("H", q)
    dims, pos = [], 0
    for w, (xl, dl) in zip(widths, metas):
        dims.append(Dimension(tuple(range(pos, pos + w)), xl, dl))
        pos += w
    return DistributionCircuit(qc, dims)


def decode_value(bits, d):
    code = 0
    for q in d.qubits:
        code = (code << 1) | bits[q]
    return d.x_l + code * d.delta


def decode_all(dc, n_inputs, func, check_indicator=False, tol=1e-9):
    """Check every nonzero-amplitude basis state: the newest dimension (or
    indicator) equals the classical function of the input dims, ancillas
    are clean, and return the number of states checked."""
    st = simulate(dc.circuit)
    n = dc.circuit.n_qubits
    nz = np.nonzero(np.abs(st) ** 2 > 1e-14)[0]
    assert len(nz) > 0
    new = dc.dims[-1] if not check_indicator else None
    ind_q = dc.indicators[-1] if check_indicator else None
    for idx in nz:
        bits = [(int(idx) >> (n - 1 - q)) & 1 for q in range(n)]
        vals = [decode_value(bits, d) for d in dc.dims[:n_inputs]]
        expect = func(*vals)
        if check_indicator:
            assert bits[ind_q] == expect, f"vals={vals}: got {bits[ind_q]}, want {expect}"
        else:
            got = decode_value(bits, new)
            assert abs(got - expect) < tol, f"vals={vals}: got {got}, want {expect}"
        for q in dc.ancillas:
            assert bits[q] == 0, f"dirty ancilla {q}"
    return len(nz)


def states_equal_up_to_phase(a, b, tol=1e-10) -> bool:
    if a.shape != b.shape:
        return False
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= tol)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240)
