import math

import numpy as np
import pytest

from qmci import fourier
from qmci.distributions import (
    Dimension,
    DistributionCircuit,
    discretize_pdf,
    exact_pmf_loader,
    gaussian_pdf,
    rescale,
)
from qmci.fourier import (
    allocate_uses,
    build_A_circuit,
    qmci_estimate,
    quantity_series,
    rmse_bound,
)
from qmci.simulator import marginal_pmf, simulate


# ---------------------------------------------------------------- series


def test_mean_series_reconstructs_identity():
    spec = quantity_series("Mean", (-1.0, 1.0))
    xs = np.linspace(-1, 1, 101)
    assert np.abs(spec.series.evaluate(xs) - xs).max() < 1e-8


def test_mean_series_is_odd():
    s = quantity_series("Mean", (0.0, 2.0)).series
    assert np.abs(s.a).max() < 1e-12
    assert abs(s.a0) < 1e-12


def test_second_moment_series_even_symmetry():
    s = quantity_series("SecondMoment", (-1.0, 1.0)).series
    xs = np.linspace(-1, 1, 51)
    assert np.abs(s.evaluate(xs) - s.evaluate(-xs)).max() < 1e-10
    assert np.abs(s.b).max() < 1e-12
    assert np.abs(s.evaluate(xs) - xs**2).max() < 1e-9


def test_exponential_series_reconstructs():
    spec = quantity_series("Exponential", (-0.5, 0.5))
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.abs(spec.series.evaluate(xs) - np.exp(xs)).max() < 1e-8


def test_series_joins_are_c1():
    # value and first derivative continuous at the piece boundary
    for kind in ("Mean", "SecondMoment"):
        s = quantity_series(kind, (-1.0, 1.0)).series
        eps = 1e-6
        left = s.evaluate([1.0 - eps])[0]
        right = s.evaluate([1.0 + eps])[0]
        assert abs(left - right) < 1e-4
        dl = (s.evaluate([1.0])[0] - s.evaluate([1.0 - eps])[0]) / eps
        dr = (s.evaluate([1.0 + eps])[0] - s.evaluate([1.0])[0]) / eps
        assert abs(dl - dr) < 1e-2


def test_constants_beat_reference_ceilings():
    # the published optimised constants act as 2x reference ceilings
    assert quantity_series("Mean", (-1, 1)).c_f <= 2 * 1.68
    assert quantity_series("SecondMoment", (-1, 1)).c_f <= 2 * 2.82
    assert quantity_series("Exponential", (-0.5, 0.5)).c_f <= 2 * 2.59


def test_quantity_series_validation():
    with pytest.raises(ValueError):
        quantity_series("Mean", (1.0, -1.0))
    with pytest.raises(ValueError):
        quantity_series("Garbage", (0.0, 1.0))


def test_x_star_default():
    assert quantity_series("ConditionalExpectation", (-1, 1)).x_star == 0.0
    assert quantity_series("ConditionalExpectation", (2, 3)).x_star == 2.0


# ---------------------------------------------------------------- A circuit


def random_dc(rng, n):
    pmf = rng.random(2**n)
    pmf /= pmf.sum()
    dc = exact_pmf_loader(pmf)
    return rescale(dc, 0, float(rng.normal()), float(rng.uniform(0.05, 0.4))), pmf


def test_point_mass_cosine_is_one():
    pm = np.zeros(4)
    pm[0] = 1.0
    dc = exact_pmf_loader(pm)
    dc = rescale(dc, 0, 0.0, 1.0)  # point mass at x = 0
    for m in (1, 2, 3):
        a_circ = build_A_circuit(dc, 0, 0.0, m, 2 * math.pi)
        p1 = marginal_pmf(simulate(a_circ), [a_circ.n_qubits - 1])[1]
        assert abs((1 - 2 * p1) - 1.0) < 1e-12  # cos(0) = 1
        a_circ = build_A_circuit(dc, 0, math.pi / 2, m, 2 * math.pi)
        p1 = marginal_pmf(simulate(a_circ), [a_circ.n_qubits - 1])[1]
        assert abs(1 - 2 * p1) < 1e-12  # sin(0) = 0


@pytest.mark.parametrize("trial", range(5))
def test_amplitude_matches_trig_expectation(trial, rng):
    dc, pmf = random_dc(rng, 3)
    xs = dc.dims[0].values()
    omega = float(rng.uniform(0.3, 2.0))
    for m in range(1, 9):
        for beta, trig in ((0.0, np.cos), (math.pi / 2, np.sin)):
            a_circ = build_A_circuit(dc, 0, beta, m, omega)
            p1 = marginal_pmf(simulate(a_circ), [a_circ.n_qubits - 1])[1]
            want = float(np.sum(pmf * trig(m * omega * xs)))
            assert abs((1 - 2 * p1) - want) < 1e-10


def test_conditional_amplitude_matches_oracle(rng):
    pmf = rng.random(4)
    pmf /= pmf.sum()
    base = exact_pmf_loader(pmf)
    qc = base.circuit.widened(3)
    qc.append("CNOT", (0, 2))  # indicator = MSB
    dc = DistributionCircuit(qc, [Dimension((0, 1), -0.3, 0.25)], indicators=[2])
    xs = dc.dims[0].values()
    ind = (np.arange(4) >= 2).astype(float)
    omega, m, x_star = 1.1, 3, 0.1
    for beta, trig in ((0.0, np.cos), (math.pi / 2, np.sin)):
        a_circ = build_A_circuit(
            dc, 0, beta, m, omega, condition=2, x_star_angle=m * omega * x_star - beta
        )
        p1 = marginal_pmf(simulate(a_circ), [a_circ.n_qubits - 1])[1]
        want = float(np.sum(pmf * ind * trig(m * omega * xs)))
        want += float(np.sum(pmf * (1 - ind))) * trig(m * omega * x_star)
        assert abs((1 - 2 * p1) - want) < 1e-10


def test_a_circuit_validation():
    dc = exact_pmf_loader([0.5, 0.5])
    with pytest.raises(ValueError):
        build_A_circuit(dc, 0, 0.0, 0, 1.0)  # m must be >= 1
    with pytest.raises(ValueError):
        build_A_circuit(dc, 1, 0.0, 1, 1.0)  # no such dimension
    with pytest.raises(ValueError):
        build_A_circuit(dc, 0, 0.0, 1, 1.0, condition=0, x_star_angle=0.0)


# ---------------------------------------------------------------- allocation


def test_allocation_single_coefficient_takes_all():
    assert allocate_uses([0.0, 0.5, 0.0], 100) == [0, 100, 0]


def test_allocation_equal_split():
    assert allocate_uses([0.3, 0.3], 100) == [50, 50]


def test_allocation_matches_exhaustive_optimum():
    # independent oracle: scan every integer split of the budget
    coeffs = [0.8, 0.1]
    q = 352
    alloc = allocate_uses(coeffs, q)
    objective = lambda q1: 0.8**2 / q1**2 + 0.1**2 / (q - q1) ** 2
    best = min(range(1, q), key=objective)
    assert alloc == [best, q - best]  # (282, 70): the 4:1 ratio optimum
    assert objective(alloc[0]) <= objective(best) * (1 + 1e-12)


def test_allocation_conserves_budget(rng):
    for _ in range(20):
        coeffs = rng.normal(size=6) * (rng.random(6) > 0.3)
        n_nz = int(np.sum(np.abs(coeffs) > 0))
        if n_nz == 0:
            continue
        q = int(rng.integers(n_nz, 500))
        alloc = allocate_uses(coeffs, q)
        assert sum(alloc) == q
        assert all(a >= 1 for a, c in zip(alloc, coeffs) if abs(c) > 0)
        assert all(a == 0 for a, c in zip(alloc, coeffs) if c == 0)


def test_allocation_budget_too_small():
    with pytest.raises(ValueError):
        allocate_uses([0.5, 0.5, 0.5], 2)


# ---------------------------------------------------------------- bounds


def test_rmse_bound_bernoulli_pam():
    spec = quantity_series("BernoulliQubit", (0.0, 1.0))
    assert rmse_bound(spec, 0.5, 100, (0.0, 1.0)) == pytest.approx(0.005)


def test_rmse_bound_halves_when_budget_doubles():
    spec = quantity_series("Mean", (-1.0, 1.0))
    b1 = rmse_bound(spec, 8.02, 1000, (-1.0, 1.0))
    b2 = rmse_bound(spec, 8.02, 2000, (-1.0, 1.0))
    assert b2 == pytest.approx(b1 / 2)


def test_rmse_bound_mean_arithmetic():
    spec = quantity_series("Mean", (0.0, 1.0))
    got = rmse_bound(spec, 8.02, 10_000, (0.0, 1.0))
    assert got == pytest.approx(spec.c_f * 8.02 / 10_000)
    # the published constant would give 1.68 * 8.02 / 1e4 ~ 1.35e-3
    assert got < 2 * 1.68 * 8.02 / 10_000


def test_rmse_bound_second_moment_range():
    spec = quantity_series("SecondMoment", (-2.0, 1.0))
    got = rmse_bound(spec, 1.0, 100, (-2.0, 1.0))
    assert got == pytest.approx(spec.c_f * 4.0 / 100)  # max(x_u, -x_l)^2 = 4


# ---------------------------------------------------------------- estimates


def gaussian_dc(n=5, sigma=0.1):
    delta = 10 * sigma / (2**n - 1)
    target = discretize_pdf(lambda x: gaussian_pdf(x, 0, sigma), n, -5 * sigma, delta)
    dc = exact_pmf_loader(target)
    return rescale(dc, 0, -5 * sigma, delta), target


def test_point_mass_mean_estimate():
    pm = np.zeros(8)
    pm[3] = 1.0
    dc = exact_pmf_loader(pm)
    dc = rescale(dc, 0, 0.25 - 3 * 0.05, 0.05)  # point mass at 0.25
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    res = qmci_estimate(dc, spec, 0, "MLQAE", q_total=3000, seed=3)
    assert abs(res.estimate - 0.25) <= res.rmse_bound
    assert res.uses_total == 3000


def test_bernoulli_reduces_to_plain_qae():
    a = math.sin(math.pi / 8) ** 2
    pmf = np.array([1 - a, a])
    base = exact_pmf_loader(pmf)
    dc = DistributionCircuit(base.circuit, [], indicators=[0])
    spec = quantity_series("BernoulliQubit", (0.0, 1.0))
    errs = []
    for seed in range(200):
        res = qmci_estimate(dc, spec, 0, "MLQAE", q_total=500, seed=seed, condition=0)
        errs.append(res.estimate - a)
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse <= 8.02 / 500  # c_qae / q


def test_conditional_with_constant_true_indicator_matches_mean():
    dc, target = gaussian_dc()
    qc = dc.circuit.widened(6)
    qc.append("X", 5)  # constant-true indicator
    dcc = DistributionCircuit(qc, dc.dims, indicators=[5])
    sup = (dcc.dims[0].x_l, dcc.dims[0].x_u)
    cond = quantity_series("ConditionalExpectation", sup)
    mean = quantity_series("Mean", sup)
    r1 = qmci_estimate(dcc, cond, 0, "MLQAE", q_total=20_000, seed=4, condition=0)
    r2 = qmci_estimate(dcc, mean, 0, "MLQAE", q_total=20_000, seed=4)
    truth = float(np.sum(target * dcc.dims[0].values()))
    assert abs(r1.estimate - truth) <= r1.rmse_bound
    assert abs(r2.estimate - truth) <= r2.rmse_bound


def test_conditional_with_constant_false_indicator_returns_x_star(monkeypatch):
    dc, _ = gaussian_dc(n=3)
    qc = dc.circuit.widened(4)  # qubit 3 stays |0>: constant-false indicator
    dcc = DistributionCircuit(qc, dc.dims, indicators=[3])
    sup = (dcc.dims[0].x_l, dcc.dims[0].x_u)
    spec = quantity_series("ConditionalExpectation", sup)
    spec.x_star = 0.2
    # infinite-budget limit: QAE returns the exact amplitude
    monkeypatch.setattr(
        fourier.qae_mod, "estimate_amplitude",
        lambda record, a, *args, **kw: np.array([a]),
    )
    res = qmci_estimate(dcc, spec, 0, "MLQAE", q_total=10_000, seed=0, condition=0)
    assert abs(res.estimate - 0.2) < 1e-6  # series truncation only


def test_estimate_target_rmse_drives_budget():
    dc, _ = gaussian_dc(n=3)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    res = qmci_estimate(dc, spec, 0, "MLQAE", target_rmse=1e-3, seed=1)
    assert res.rmse_bound <= 1e-3 * (1 + 1e-9)


def test_estimate_deterministic_and_order_free():
    dc, _ = gaussian_dc(n=4)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    r1 = qmci_estimate(dc, spec, 0, "MLQAE", q_total=2000, seed=9)
    r2 = qmci_estimate(dc, spec, 0, "MLQAE", q_total=2000, seed=9)
    assert r1.estimate == r2.estimate
    assert r1.per_harmonic == r2.per_harmonic


def test_estimate_budget_too_small():
    dc, _ = gaussian_dc(n=3)
    spec = quantity_series("Mean", (dc.dims[0].x_l, dc.dims[0].x_u))
    with pytest.raises(ValueError):
        qmci_estimate(dc, spec, 0, "MLQAE", q_total=0, seed=0)


def test_support_window_tightens_bound():
    dc, _ = gaussian_dc(n=5, sigma=0.1)
    full = quantity_series("Exponential", (dc.dims[0].x_l, dc.dims[0].x_u))
    win = quantity_series("Exponential", (-0.3, 0.3))
    win.support_window = (-0.3, 0.3)
    r_full = qmci_estimate(dc, full, 0, "MLQAE", q_total=5000, seed=2)
    r_win = qmci_estimate(dc, win, 0, "MLQAE", q_total=5000, seed=2)
    assert r_win.rmse_bound < r_full.rmse_bound


def test_truncation_tail_within_budget():
    # the dropped tail of the truncated series stays within a tenth of the
    # target error it was budgeted against
    from qmci.fourier import _truncate

    dc, _ = gaussian_dc(n=4)
    d = dc.dims[0]
    for kind in ("Mean", "SecondMoment"):
        spec = quantity_series(kind, (d.x_l, d.x_u))
        series = spec.series
        for target in (1e-2, 1e-3, 1e-4):
            m_trunc = _truncate(series, 1.0, target)
            xs = np.linspace(-1, 1, 64)
            mgrid = np.arange(1, m_trunc + 1)
            phase = np.multiply.outer(xs, mgrid * series.omega)
            partial = series.a0 + np.cos(phase) @ series.a[:m_trunc] \
                + np.sin(phase) @ series.b[:m_trunc]
            g = xs if kind == "Mean" else xs**2
            assert np.abs(partial - g).max() <= target / 10 * 1.05
