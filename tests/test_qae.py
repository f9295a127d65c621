import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qmci import qae
from qmci.circuit import QuantumCircuit, controlled_x
from qmci.qae import (
    QaeProblem,
    Schedule,
    benchmark_circuit,
    eis_schedule,
    estimate_amplitude,
    grover_operator,
    grover_operator_tilde,
    iqae_from_amplitude,
    iqae_query_bound,
    iqae_risk,
    lcu_fail_probability,
    lcu_likelihood,
    lcu_from_amplitude,
    lcu_prepare,
    mlqae_from_amplitude,
    opt_ae,
    pam_from_amplitude,
    schedule,
    schedule_uses,
)
from qmci.simulator import marginal_pmf, simulate


def exact_amplitude(prob: QaeProblem) -> float:
    return float(marginal_pmf(simulate(prob.a_circuit), [prob.good_qubit])[1])


# ---------------------------------------------------------------- Grover


def test_grover_identity_two_qubit():
    theta = 0.3
    prob = benchmark_circuit(theta)
    q_op = grover_operator(prob)
    for m in (0, 1, 2, 3):
        circ = prob.a_circuit.copy()
        for _ in range(m):
            circ.extend(q_op.gates)
        p1 = marginal_pmf(simulate(circ), [1])[1]
        assert abs(p1 - math.sin((2 * m + 1) * theta) ** 2) < 1e-10


def test_grover_identity_dense_grid():
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 12):
        prob = benchmark_circuit(float(theta))
        q_op = grover_operator(prob)
        circ = prob.a_circuit.copy()
        for _ in range(4):
            circ.extend(q_op.gates)
        p1 = marginal_pmf(simulate(circ), [1])[1]
        assert abs(p1 - math.sin(9 * theta) ** 2) < 1e-10


def test_grover_single_qubit_problem():
    theta = math.pi / 6
    a = QuantumCircuit(1).append("Ry", 0, 2 * theta)
    prob = QaeProblem(a, 0)
    circ = a.copy().extend(grover_operator(prob).gates)
    p1 = marginal_pmf(simulate(circ), [0])[1]
    assert abs(p1 - 1.0) < 1e-12  # sin^2(pi/2)


def test_benchmark_circuit_amplitude():
    prob = benchmark_circuit(0.4)
    assert abs(exact_amplitude(prob) - math.sin(0.4) ** 2) < 1e-12


# ---------------------------------------------------------------- schedule


def test_schedule_single_use():
    assert eis_schedule(1) == [(0, 1)]


def test_schedule_exact_eis_coverage():
    # budget exactly covering m = 0, 1, 2, 4 rounds populates those levels
    q = 66 + 44 * (3 + 5 + 9)
    assert eis_schedule(q) == [(0, 66), (1, 44), (2, 44), (4, 44)]


def test_schedule_m_prime_rule():
    # leftover after the full EIS buys a full round at the greatest m' > m*
    # that still fits: here m* = 4 and m' = 7 (a full m = 8 round does not fit)
    q = 66 + 44 * (3 + 5 + 9) + 700
    sched = dict(eis_schedule(q))
    assert 8 not in sched
    assert sched[7] >= 44  # full round plus greedy top-ups


def test_schedule_exhausts_budget_exactly():
    for q in (1, 37, 66, 67, 200, 814, 1000, 4000, 10_000, 12_345):
        assert schedule_uses(eis_schedule(q)) == q


def test_shot_cost_is_2m_plus_1():
    sched = eis_schedule(5000)
    assert sum(s * (2 * m + 1) for m, s in sched) == 5000


# ---------------------------------------------------------------- PAM


def test_pam_zero_amplitude():
    a = QuantumCircuit(1)  # identity: P(1) = 0
    est = pam_from_amplitude(exact_amplitude(QaeProblem(a, 0)), 50, seed=1)
    assert est.tolist() == [0.0] and qae.QAE_LAMBDA[schedule("PAM", 50).kind] == 1


def test_pam_binomial_spread():
    prob = benchmark_circuit(math.pi / 4)  # a = 0.5
    est = [pam_from_amplitude(exact_amplitude(prob), 100, seed=s)[0] for s in range(300)]
    rmse = float(np.sqrt(np.mean((np.array(est) - 0.5) ** 2)))
    assert abs(rmse - 0.05) < 0.01


def test_pam_rmse_bound():
    a = 0.25
    a_exact = exact_amplitude(benchmark_circuit(math.asin(math.sqrt(a))))
    est = [pam_from_amplitude(a_exact, 10_000, seed=s)[0] for s in range(500)]
    rmse = float(np.sqrt(np.mean((np.array(est) - a) ** 2)))
    assert rmse <= 0.5 / math.sqrt(10_000) * 1.1


# ---------------------------------------------------------------- MLQAE


def test_mlqae_single_use():
    prob = benchmark_circuit(0.6)
    est = mlqae_from_amplitude(exact_amplitude(prob), 1, seed=0)
    assert est.tolist() in ([0.0], [1.0])
    assert schedule_uses(schedule("MLQAE", 1).levels) == 1


def test_mlqae_convergence_and_budget():
    a = 0.3
    prob = benchmark_circuit(math.asin(math.sqrt(a)))
    est = mlqae_from_amplitude(exact_amplitude(prob), 2000, seed=5)
    assert schedule_uses(schedule("MLQAE", 2000).levels) == 2000
    assert abs(est[0] - a) < 0.05
    est = mlqae_from_amplitude(a, 2000, seed=8, repeats=300)
    rmse = float(np.sqrt(np.mean((est - a) ** 2)))
    assert rmse * 2000 < 8.02 * 1.25


def test_mlqae_estimate_in_unit_interval():
    for theta in (0.01, 1.55):
        prob = benchmark_circuit(theta)
        est = mlqae_from_amplitude(exact_amplitude(prob), 300, seed=2)
        assert 0.0 <= est[0] <= 1.0


def test_posterior_contracts_with_budget():
    a = 0.4
    rmse = []
    for q in (250, 1000, 4000):
        est = mlqae_from_amplitude(a, q, seed=11, repeats=500)
        rmse.append(float(np.sqrt(np.mean((est - a) ** 2))))
    assert rmse[0] > rmse[1] > rmse[2]


def _mlqae_theta_inline(levels, shots, hits):
    """_mlqae_theta with the coarse log-likelihood table computed in-line,
    block by block, at every call, into the whole (repeats x grid) matrix
    that one argmax then scans."""
    grid = qae._THETA_GRID
    weights = np.concatenate((hits, shots - hits), axis=1) * 2.0
    used = weights.any(axis=0)
    n_sin = int(used[:len(levels)].sum())
    weights, mult = weights[:, used], np.concatenate((levels, levels))[used, None] * 2.0 + 1.0
    ll = np.empty((len(hits), grid.size))
    block = 2**15 // len(mult)
    with np.errstate(divide="ignore"):
        for start in range(0, grid.size, block):
            x = mult * grid[start:start + block]
            qae._log_abs(np.sin, x[:n_sin], x[:n_sin])
            qae._log_abs(np.cos, x[n_sin:], x[n_sin:])
            ll[:, start:start + block] = weights @ x
        best = grid[np.argmax(ll, axis=1)]
        step = grid[1]
        lo = np.maximum(0.0, best - step)
        hi = np.minimum(math.pi / 2.0, best + step)
        local = np.arange(qae.MLQAE_REFINE) * ((hi - lo) / (qae.MLQAE_REFINE - 1))[:, None] + lo[:, None]
        local[:, -1] = hi
        ll = np.zeros_like(local)
        for j, k in enumerate(mult[:, 0]):
            ll += weights[:, j, None] * qae._log_abs(np.sin if j < n_sin else np.cos, k * local)
    return local[np.arange(len(hits)), np.argmax(ll, axis=1)]


@pytest.mark.parametrize("repeats", [1, 40])
def test_mlqae_theta_equals_inline_table(repeats):
    # budgets with and without an off-ladder level m', and amplitudes 0 and
    # 1, where every repeat leaves the sin or the cos terms unweighed, and
    # next to them
    for a in (0.0, 1e-9, 0.02, 0.3, 0.5, 0.77, 0.999, 1.0):
        for q in (1, 2, 66, 200, 300, 1000, 4321, 10_000, 50_000, 200_000):
            for seed in (0, 5):
                schedule = eis_schedule(q)
                levels = np.array([m for m, _ in schedule])
                shots = np.array([n for _, n in schedule])
                probs = np.sin((2 * levels + 1) * math.asin(math.sqrt(a))) ** 2
                hits = np.random.default_rng(seed).binomial(shots, probs,
                                                            size=(repeats, len(levels)))
                got = qae._mlqae_theta(levels, shots, hits)
                assert np.array_equal(got, _mlqae_theta_inline(levels, shots, hits)), (a, q, seed)


def test_mlqae_tables_kept_for_eis_levels_only(monkeypatch):
    monkeypatch.setattr(qae, "_MLQAE_TABLE_CACHE", {})
    budgets = [*range(1, 20_000, 97), 65_432, 200_000]
    seen = set()
    for q in budgets:
        seen.update(m for m, _ in eis_schedule(q))
        mlqae_from_amplitude(0.3, q, seed=q)
    ladder = {0} | {2**k for k in range(20)}
    assert seen - ladder  # off-ladder levels m' were run ...
    assert set(qae._MLQAE_TABLE_CACHE) == seen & ladder  # ... and not kept


def test_mlqae_never_holds_the_likelihood_matrix():
    mlqae_from_amplitude(0.3, 4000, 1, repeats=2)  # the EIS tables
    tracemalloc.start()
    try:
        mlqae_from_amplitude(0.3, 4000, 1, repeats=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * qae.MLQAE_GRID * 8


# ---------------------------------------------------------------- IQAE


def test_iqae_risk_limit():
    assert iqae_risk(0.0, 0.01) == pytest.approx(0.01**2)


def test_opt_ae_round_trip():
    eps0, alpha0 = 0.01, 0.05
    q0 = int(iqae_query_bound(eps0, alpha0))
    pair = opt_ae(q0)
    assert pair is not None
    eps, alpha = pair
    assert iqae_risk(alpha, eps) <= iqae_risk(alpha0, eps0) * (1 + 1e-9)


# opt_ae's scan written as a scalar loop with math calls: the reference its
# array expression must equal.  The grid and the q-independent parts of the
# query bound are hoisted out of the loop over budgets.
_OPT_AE_GRID = [
    (eps, 100.0 / eps + qae._IQAE_CONST, math.log2(math.pi / (4.0 * eps)))
    for eps in np.logspace(-8, np.log10(math.pi / 8.0), 4000)
]


def _opt_ae_loop(q):
    best = None
    for eps, c, big_l in _OPT_AE_GRID:
        if big_l <= 0:
            continue
        alpha = 2.0 * big_l * math.exp(-q / c)
        if not 0.0 < alpha < 1.0:
            continue
        r = iqae_risk(alpha, eps)
        if best is None or r < best[0]:
            best = (r, eps, alpha)
    if best is None:
        return None
    return best[1], best[2]


def test_opt_ae_equals_scalar_loop():
    budgets = [*range(1, 3001), 3001, 4096, 5999, 10_000, 12_345, 65_536, 100_003,
               400_000, 999_983, 1_000_000]
    results = [(opt_ae(q), _opt_ae_loop(q)) for q in budgets]
    for q, (got, want) in zip(budgets, results):
        assert got == want, q
        assert [type(x) for x in got or ()] == [type(x) for x in want or ()], q
        # the IQAE record falls back to PAM exactly where opt_ae finds no pair
        fallback = Schedule("PAM", q, True) if got is None else Schedule("IQAE", q)
        assert schedule("IQAE", q) == fallback, q
    assert results[0][1] is None and results[-1][1] is not None
    assert results[247][0] is None and results[248][0] is not None  # budgets 248 and 249


def test_iqae_uses_budget_and_converges():
    a = 0.3
    prob = benchmark_circuit(math.asin(math.sqrt(a)))
    a_exact = exact_amplitude(prob)
    a_hat, uses = qae._iqae_run(math.asin(math.sqrt(a_exact)), 3000, *opt_ae(3000),
                                np.random.default_rng(4))
    assert 0.9 * 3000 <= uses <= 3000
    assert iqae_from_amplitude(a_exact, 3000, seed=4).tolist() == [a_hat]
    assert abs(a_hat - a) < 0.05


def test_iqae_infeasible_budget_falls_back():
    a = exact_amplitude(benchmark_circuit(0.5))
    record = schedule("IQAE", 5)
    assert record == Schedule("PAM", 5, True)
    assert estimate_amplitude(record, a, 0).tobytes() == pam_from_amplitude(a, 5, 0).tobytes()
    with pytest.raises(ValueError, match="no feasible"):
        iqae_from_amplitude(a, 5, seed=0)


# ---------------------------------------------------------------- LCU


def test_lcu_fail_probability_formula():
    assert lcu_fail_probability(math.pi / 3) == pytest.approx(0.75)


def test_lcu_prepare_beta_validation():
    prob = benchmark_circuit(0.4)
    with pytest.raises(ValueError):
        lcu_prepare(prob, 1, -0.1)
    with pytest.raises(ValueError):
        lcu_prepare(prob, 5, 0.1)


def test_lcu_prepare_beta_zero_category_one_is_plain_a():
    theta = 0.45
    prob = benchmark_circuit(theta)
    qc, flag = lcu_prepare(prob, 1, 0.0)
    pm = marginal_pmf(simulate(qc), [flag, prob.good_qubit])
    assert pm[2] + pm[3] == pytest.approx(0.0, abs=1e-14)  # never fails
    assert pm[1] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_lcu_prepare_category_two_rotates_negative():
    # at beta = 0 category 2 prepares S_chi A |0>: same outcome stats as A
    theta = 0.45
    prob = benchmark_circuit(theta)
    qc, flag = lcu_prepare(prob, 2, 0.0)
    state = simulate(qc)
    # sign flip on the good branch: <psi| (|11> component) negative
    idx_11 = 0b110  # q0=1, q1=1, flag=0
    assert state[idx_11].real < 0
    pm = marginal_pmf(state, [prob.good_qubit])
    assert pm[1] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_lcu_postselected_angle():
    theta, beta = 0.4, 0.5
    prob = benchmark_circuit(theta)
    qc, flag = lcu_prepare(prob, 1, beta)
    pm = marginal_pmf(simulate(qc), [flag, prob.good_qubit])
    p_good = pm[1] / (pm[0] + pm[1])
    alpha = math.atan(math.cos(beta) * math.tan(theta))
    assert p_good == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)


def test_lcu_likelihood_matches_statevector_oracle():
    theta, beta = 0.4, 0.5
    prob = benchmark_circuit(theta)
    q_op = grover_operator(prob)
    q_tilde = grover_operator_tilde(prob)
    for cat in (1, 2, 3, 4):
        op = q_op if cat in (1, 2) else q_tilde
        for m in (0, 1, 2, 3):
            qc, flag = lcu_prepare(prob, cat, beta)
            full = qc.copy()
            for _ in range(m):
                full.extend(op.gates)
            pm = marginal_pmf(simulate(full), [flag, prob.good_qubit])
            sim = pm[1] / (pm[0] + pm[1])
            assert abs(sim - lcu_likelihood(cat, beta, m, theta)) < 1e-10


def test_lcu_likelihood_edge_cases():
    theta = 0.37
    assert lcu_likelihood(1, 0.0, 0, theta) == pytest.approx(math.sin(theta) ** 2)
    assert lcu_likelihood(3, 0.0, 0, theta) == pytest.approx(math.cos(theta) ** 2)


def test_lcu_budget_precondition():
    prob = benchmark_circuit(0.4)
    with pytest.raises(ValueError):
        lcu_from_amplitude(exact_amplitude(prob), 50, 0.5, seed=0)


def test_lcu_sampled_betas_respect_fail_cap():
    from qmci.qae import _lcu_shot_plan

    p_max = 0.3
    for (m, cat, beta), _ in _lcu_shot_plan(2000, p_max):
        assert math.sin(beta) ** 2 <= p_max + 1e-12


def test_lcu_degenerate_amplitude():
    a = QuantumCircuit(2).append("CNOT", (0, 1))  # a = 0 exactly
    est = lcu_from_amplitude(exact_amplitude(QaeProblem(a, 1)), 200, 0.5, seed=3)
    assert est[0] < 0.01  # prior-limited, near zero


def test_lcu_use_accounting():
    from qmci.qae import _lcu_shot_plan

    # the successful shots spend the budget exactly
    assert sum(n * (2 * m + 1) for (m, _, _), n in _lcu_shot_plan(500, 0.5)) == 500


def test_lcu_convergence():
    a = 0.35
    est = lcu_from_amplitude(a, 2000, seed=13, repeats=300)
    rmse = float(np.sqrt(np.mean((est - a) ** 2)))
    assert rmse * 2000 < 7.82 * 1.3


def test_lcu_likelihood_array_matches_scalar():
    thetas = np.linspace(0.0, math.pi / 2, 41)
    for cat in (1, 2, 3, 4):
        for beta in (0.0, 0.3, 0.7):
            for m in (0, 1, 5):
                vec = lcu_likelihood(cat, beta, m, thetas)
                assert vec.shape == thetas.shape
                for t, v in zip(thetas, vec):
                    assert abs(v - lcu_likelihood(cat, beta, m, float(t))) < 1e-14


def _lcu_posterior_matrices(groups, grid):
    """The LCU log-likelihood tables as they were built at every call."""
    p = qae._lcu_group_probs(groups, grid)
    eps = 1e-300
    return np.log(p + eps), np.log(1.0 - p + eps)


def _lcu_per_call(a, q, p_max_fail, seed, repeats=1):
    """lcu_from_amplitude with per-call tables and its former posterior
    arithmetic: the array of a_hat."""
    groups = qae._lcu_shot_plan(q, p_max_fail)
    counts = np.array([n for _, n in groups])
    probs = qae._lcu_group_probs(groups, np.array([math.asin(math.sqrt(a))]))[:, 0]
    rng = np.random.default_rng(seed)
    hits = rng.binomial(counts, probs, size=(repeats, len(groups)))
    grid = np.linspace(0.0, math.pi / 2.0, qae.DEFAULT_POSTERIOR_GRID)
    log1, log0 = _lcu_posterior_matrices(groups, grid)
    sin2 = np.sin(grid) ** 2
    a_hat = np.empty(repeats)
    chunk = max(1, int(2e8 // (grid.size * 8)))
    for start in range(0, repeats, chunk):
        h = hits[start:start + chunk]
        ll = h.astype(np.float64) @ log1 + (counts - h).astype(np.float64) @ log0
        ll -= ll.max(axis=1, keepdims=True)
        w = np.exp(ll)
        a_hat[start:start + chunk] = (w @ sin2) / w.sum(axis=1)
    return np.clip(a_hat, 0.0, 1.0, out=a_hat)


def _cached_levels(q):
    return [m for m, _ in eis_schedule(q) if m <= qae._LCU_CACHED_MAX_M and m & (m - 1) == 0]


def test_lcu_cached_tables_equal_per_call_tables(monkeypatch):
    monkeypatch.setattr(qae, "_LCU_TABLE_CACHE", {})
    # 300, 10^3, 1,234 and 4,000 run cached levels only; 800 (m' = 3), 1,500
    # (m' = 7) and 10^4 (m' = 46) add an off-ladder level; 11,550 and
    # 33,333 run ladder levels above the cap (m = 64, 128)
    budgets = [300, 800, 1000, 1234, 1500, 4000, 10_000, 11_550, 33_333]
    assert [len(_cached_levels(q)) == len(eis_schedule(q)) for q in budgets] == [
        True, False, True, True, False, True, False, False, False]
    mixed = [4000, 300, 33_333, 1000, 1234, 800, 11_550, 1500, 10_000]
    runs = [(q, 0.5) for q in budgets] + [(q, 0.2) for q in reversed(budgets)]
    runs += [(q, (0.5, 0.2)[i % 3 > 0]) for i, q in enumerate(mixed)]
    for i, (q, p_max_fail) in enumerate(runs):
        a = (0.15, 0.5, 0.85, 0.999)[i % 4]
        got = lcu_from_amplitude(a, q, p_max_fail, seed=i)
        assert got.tobytes() == _lcu_per_call(a, q, p_max_fail, i).tobytes(), (q, p_max_fail)
        got = lcu_from_amplitude(a, q, p_max_fail, seed=i + 100, repeats=40)
        assert got.tobytes() == _lcu_per_call(a, q, p_max_fail, i + 100, 40).tobytes(), (q, p_max_fail)
    # the cache holds one p_max_fail, the last, and only the rows of the
    # cached ladder levels run since it was set: 1,500 filled m <= 4 and
    # 10^4 the rest, up to the cap, but not its m' = 46
    (p_max_fail, (table, filled)), = qae._LCU_TABLE_CACHE.items()
    assert p_max_fail == 0.2 and filled == qae._LCU_CACHED_ROWS == 1 + 44 * 6
    groups = [g for g in qae._lcu_shot_plan(10_000, 0.2) if g[0][0] <= qae._LCU_CACHED_MAX_M]
    ref = np.stack(_lcu_posterior_matrices(groups, qae._POSTERIOR_GRID))
    assert table[:, :filled].tobytes() == ref.tobytes()
    # a dict whose name ends in _CACHE is what perfbench's clear_module_caches empties
    assert isinstance(qae._LCU_TABLE_CACHE, dict)
    assert [k for k, v in vars(qae).items() if v is qae._LCU_TABLE_CACHE] == ["_LCU_TABLE_CACHE"]


def test_lcu_cache_fills_only_the_levels_run(monkeypatch):
    monkeypatch.setattr(qae, "_LCU_TABLE_CACHE", {})
    lcu_from_amplitude(0.3, 1500, 0.5, seed=1)  # levels 0, 1, 2, 4 and m' = 7
    assert qae._LCU_TABLE_CACHE[0.5][1] == 1 + 44 * 3
    lcu_from_amplitude(0.3, 300, 0.5, seed=1)
    assert qae._LCU_TABLE_CACHE[0.5][1] == 1 + 44 * 3
    qae._LCU_TABLE_CACHE.clear()
    assert np.array_equal(lcu_from_amplitude(0.3, 4000, 0.5, seed=1),
                          lcu_from_amplitude(0.3, 4000, 0.5, seed=1))
    assert qae._LCU_TABLE_CACHE[0.5][1] == 1 + 44 * 5


def test_lcu_cache_shared_by_threads(monkeypatch):
    # qae-sweep runs sweeps in threads (QMCI_THREADS): calls that fill,
    # extend and replace the cache at once must still give the per-call
    # results; a refill of rows another thread reads would not
    monkeypatch.setattr(qae, "_LCU_TABLE_CACHE", {})
    jobs = [(q, p_max_fail) for p_max_fail in (0.5, 0.2) for q in (300, 1000, 1500, 4000, 10_000)]
    jobs = [jobs[i] for i in np.random.default_rng(3).permutation(len(jobs) * 3) % len(jobs)]
    want = {job: _lcu_per_call(0.3, *job, 7, 8).tobytes() for job in set(jobs)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda job: lcu_from_amplitude(0.3, *job, 7, repeats=8), jobs))
    finally:
        sys.setswitchinterval(interval)
    assert [g.tobytes() for g in got] == [want[job] for job in jobs]
    assert len(qae._LCU_TABLE_CACHE) == 1


def test_lcu_warm_call_reads_the_cache_in_place():
    lcu_from_amplitude(0.3, 4000, 0.5, seed=1)
    tracemalloc.start()
    try:
        lcu_from_amplitude(0.3, 4000, 0.5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 221 * qae.DEFAULT_POSTERIOR_GRID * 8  # one of its two tables


def test_lcu_angle_variety_span():
    # union of admissible starting angles spans at least
    # pi/2 - 2 atan(sqrt(1 - p_max_fail))
    p_max = 0.2
    kappa = math.sqrt(1 - p_max)
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
        theta_t = math.pi / 2 - theta
        points = []
        for t in (theta, theta_t):
            points += [math.atan(kappa * math.tan(t)), t]
        points += [-p for p in points]
        span = max(points) - min(points)
        assert span >= math.pi / 2 - 2 * math.atan(kappa) - 1e-12


# ---------------------------------------------------------------- misc


def test_estimates_always_in_unit_interval():
    for theta in (0.02, 0.7, 1.55):
        a = exact_amplitude(benchmark_circuit(theta))
        for est in (pam_from_amplitude(a, 64, 1), mlqae_from_amplitude(a, 300, 1),
                    lcu_from_amplitude(a, 200, 0.5, 1)):
            assert 0.0 <= est[0] <= 1.0


@pytest.mark.parametrize("repeats", [1, 4])
def test_estimate_amplitude_rejects_rows_outside_unit_interval(monkeypatch, repeats):
    def off_by_one_row(a, q, seed=0, *, repeats=1):
        est = np.full(repeats, a)
        est[-1] = 1.2
        return est

    monkeypatch.setattr(qae, "mlqae_from_amplitude", off_by_one_row)
    with pytest.raises(ValueError, match="outside"):
        estimate_amplitude(schedule("MLQAE", 100), 0.3, repeats=repeats)


def test_estimate_amplitude_validation():
    with pytest.raises(ValueError):
        estimate_amplitude(schedule("XXX", 1000), 0.3)
    with pytest.raises(ValueError):
        estimate_amplitude(schedule("MLQAE", 0), 0.3)
    with pytest.raises(ValueError):
        estimate_amplitude(schedule("LCU", 1000), 0.3, p_max_fail=1.5)


@pytest.mark.parametrize("kind", ["PAM", "MLQAE", "IQAE", "LCU"])
def test_scalar_call_equals_batch_of_one(kind):
    a, q = 0.37, 700
    call = {
        "PAM": lambda s, **kw: pam_from_amplitude(a, q, s, **kw),
        "MLQAE": lambda s, **kw: mlqae_from_amplitude(a, q, s, **kw),
        "IQAE": lambda s, **kw: iqae_from_amplitude(a, q, s, **kw),
        "LCU": lambda s, **kw: lcu_from_amplitude(a, q, 0.5, s, **kw),
    }[kind]
    for seed in (0, 3, 11):
        batch = call(seed, repeats=1)
        assert batch.shape == (1,)
        assert call(seed).tobytes() == batch.tobytes()  # one repeat by default
        assert estimate_amplitude(schedule(kind, q), a, seed).tobytes() == batch.tobytes()
        # same draws; the first of more repeats may differ in the last bits
        more = estimate_amplitude(schedule(kind, q), a, seed, repeats=4)
        assert more.shape == (4,) and more[0] == pytest.approx(batch[0], abs=1e-12)


def test_dispatch_lcu_sub_round_budget_falls_back_to_mlqae():
    record = schedule("LCU", 50)
    assert record == Schedule("MLQAE", 50, True)
    assert (estimate_amplitude(record, 0.3, seed=2).tobytes()
            == mlqae_from_amplitude(0.3, 50, seed=2).tobytes())
    assert schedule("LCU", 66) == Schedule("LCU", 66)
    assert schedule_uses(record.levels) == 50


def test_dispatch_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown QAE kind"):
        estimate_amplitude(schedule("XXX", 100), 0.3)


def test_estimate_amplitude_dispatch():
    a = exact_amplitude(benchmark_circuit(0.5))
    for kind in ("PAM", "MLQAE", "IQAE", "LCU"):
        est = estimate_amplitude(schedule(kind, 200), a, seed=3)
        assert est.shape == (1,) and 0.0 <= est[0] <= 1.0


def _grover_gate_by_gate(problem):
    """Q as a builder would add it, every gate checked by ``add``."""
    a, good = problem.a_circuit, problem.good_qubit
    n = a.n_qubits
    q = QuantumCircuit(n, "grover").append("S", good).append("S", good)
    for g in reversed(a.gates):
        for h in g.inverse_gates():
            q.add(h)
    for w in range(n):
        q.append("X", w)
    if n == 1:
        q.append("S", 0).append("S", 0)
    else:
        q.append("H", n - 1).add(controlled_x(range(n - 1), n - 1)).append("H", n - 1)
    for w in range(n):
        q.append("X", w)
    for g in a.gates:
        q.add(g)
    return q


def _mcx_problem():
    a = QuantumCircuit(5, "mcx")
    for w in range(4):
        a.append("Ry", w, 0.3 + 0.1 * w)
    a.append("S", 1).append("T", 2).append("Tdg", 3).append("CRz", (0, 4), 0.7)
    a.append("MultiControlledX", (0, 1, 2, 3, 4)).append("TK1", 4, 0.1, 0.2, 0.3)
    return QaeProblem(a, 4)


@pytest.mark.parametrize("problem", [
    QaeProblem(QuantumCircuit(1).append("Ry", 0, 0.3), 0),
    benchmark_circuit(0.4),
    _mcx_problem(),
], ids=["n1", "n2", "mcx"])
def test_grover_operator_equals_gate_by_gate_build(problem):
    q, ref = grover_operator(problem), _grover_gate_by_gate(problem)
    assert (q.n_qubits, q.name, q.boxes) == (ref.n_qubits, ref.name, ref.boxes)
    assert q.gates == ref.gates
