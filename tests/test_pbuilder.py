import hashlib
import json
import math

import numpy as np
import pytest

from qmci.distributions import (
    discretize_pdf,
    exact_pmf_loader,
    gaussian_pdf,
    rescale,
)
from qmci.pbuilder import (
    BinaryOpSpec,
    IndicatorSpec,
    InstrumentSpec,
    add_esop,
    add_indicator,
    apply_binary_op,
    apply_script,
    build_brownian,
    build_instrument,
    snap_to_grid,
)
from qmci.simulator import marginal_pmf, simulate

from conftest import decode_all, decode_value, uniform_dc


# ---------------------------------------------------------------- arithmetic


@pytest.mark.parametrize(
    "widths,metas,op,func",
    [
        ([1, 1], [(0, 1.0), (0, 1.0)], "Sum", lambda a, b: a + b),
        ([2, 2], [(0, 1.0), (0, 1.0)], "Sum", lambda a, b: a + b),
        ([2, 3], [(-1.0, 0.5), (0.25, 0.25)], "Sum", lambda a, b: a + b),
        ([3, 2], [(0.5, 0.125), (-2.0, 1.0)], "Sum", lambda a, b: a + b),
        ([2, 2], [(0, 1.0), (0, 0.5)], "Product", lambda a, b: a * b),
        ([2, 2], [(2.0, 1.0), (1.0, 0.5)], "Product", lambda a, b: a * b),
        ([2, 3], [(0, 0.5), (-0.5, 0.25)], "Max", max),
        ([2, 3], [(0, 0.5), (-0.5, 0.25)], "Min", min),
        ([2, 2], [(1.0, 0.25), (0.5, 0.5)], "Max", max),
        ([2, 2], [(1.0, 0.25), (0.5, 0.5)], "Min", min),
    ],
)
def test_binary_ops_exhaustive(widths, metas, op, func):
    dc = uniform_dc(widths, metas)
    out = apply_binary_op(dc, BinaryOpSpec(op, 0, 1))
    decode_all(out, 2, func)


def test_sum_one_qubit_dims_support():
    dc = uniform_dc([1, 1], [(0, 1.0), (0, 1.0)])
    out = apply_binary_op(dc, BinaryOpSpec("Sum", 0, 1))
    new = out.dims[-1]
    assert new.n == 2  # holds attainable results {0, 1, 2}
    pmf = marginal_pmf(simulate(out.circuit), new.qubits)
    # convolution of two fair coins
    assert np.allclose(pmf, [0.25, 0.5, 0.25, 0.0], atol=1e-12)


def test_sum_pmf_is_convolution_of_marginals(rng):
    pa = rng.random(4)
    pa /= pa.sum()
    pb = rng.random(4)
    pb /= pb.sum()
    da = exact_pmf_loader(pa)
    db = exact_pmf_loader(pb)
    qc = da.circuit.compose(db.circuit, offset=2)
    from qmci.distributions import Dimension, DistributionCircuit

    dc = DistributionCircuit(
        qc, [Dimension((0, 1), 0.0, 1.0), Dimension((2, 3), 0.0, 1.0)]
    )
    out = apply_binary_op(dc, BinaryOpSpec("Sum", 0, 1))
    pmf = marginal_pmf(simulate(out.circuit), out.dims[-1].qubits)
    conv = np.convolve(pa, pb)
    assert np.abs(pmf[: len(conv)] - conv).max() < 1e-10


def test_max_pmf_matches_max_law(rng):
    pa = rng.random(4)
    pa /= pa.sum()
    pb = rng.random(4)
    pb /= pb.sum()
    da = exact_pmf_loader(pa)
    db = exact_pmf_loader(pb)
    qc = da.circuit.compose(db.circuit, offset=2)
    from qmci.distributions import Dimension, DistributionCircuit

    dc = DistributionCircuit(
        qc, [Dimension((0, 1), 0.0, 1.0), Dimension((2, 3), 0.0, 1.0)]
    )
    out = apply_binary_op(dc, BinaryOpSpec("Max", 0, 1))
    pmf = marginal_pmf(simulate(out.circuit), out.dims[-1].qubits)
    law = np.zeros(len(pmf))
    for i, qa in enumerate(pa):
        for j, qb in enumerate(pb):
            law[max(i, j)] += qa * qb
    assert np.abs(pmf - law).max() < 1e-10


def test_sum_constant_shifts_metadata():
    dc = uniform_dc([3], [(0.5, 0.25)])
    out = apply_binary_op(dc, BinaryOpSpec("Sum", 0, constant=1.3))
    assert out.dims[-1].x_l == pytest.approx(1.8)
    assert out.dims[-1].delta == 0.25
    decode_all(out, 1, lambda a: a + 1.3)


def test_max_with_deterministic_input_at_top():
    # one operand pinned at its maximum grid point dominates the max
    pm = np.zeros(4)
    pm[3] = 1.0
    da = exact_pmf_loader(pm)
    from qmci.distributions import Dimension, DistributionCircuit

    qc = da.circuit.widened(4)
    qc.append("H", 2).append("H", 3)
    dc = DistributionCircuit(
        qc, [Dimension((0, 1), 0.0, 1.0), Dimension((2, 3), 0.0, 1.0)]
    )
    out = apply_binary_op(dc, BinaryOpSpec("Max", 0, 1))
    pmf = marginal_pmf(simulate(out.circuit), out.dims[-1].qubits)
    code = round((3.0 - out.dims[-1].x_l) / out.dims[-1].delta)
    assert pmf[code] == pytest.approx(1.0, abs=1e-12)


def test_delta_power_of_two_enforced():
    dc = uniform_dc([2, 2], [(0, 0.3), (0, 0.3)])
    with pytest.raises(ValueError):
        apply_binary_op(dc, BinaryOpSpec("Sum", 0, 1))


def test_product_offset_precondition():
    dc = uniform_dc([2, 2], [(0.3, 1.0), (0, 1.0)])  # x_l not a multiple
    with pytest.raises(ValueError):
        apply_binary_op(dc, BinaryOpSpec("Product", 0, 1))


def test_max_offset_misalignment_rejected():
    dc = uniform_dc([2, 2], [(0.3, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        apply_binary_op(dc, BinaryOpSpec("Max", 0, 1))


def test_binary_op_spec_validation():
    with pytest.raises(ValueError):
        BinaryOpSpec("Sum", 0)  # neither right nor constant
    with pytest.raises(ValueError):
        BinaryOpSpec("Sum", 0, 1, 2.0)  # both
    with pytest.raises(ValueError):
        BinaryOpSpec("Nope", 0, 1)


# ---------------------------------------------------------------- indicators


def test_threshold_lower_at_left_endpoint_always_true():
    dc = uniform_dc([2], [(0.0, 0.5)])
    out = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=0, value=0.0))
    assert marginal_pmf(simulate(out.circuit), [out.indicators[-1]])[1] == pytest.approx(1.0)


def test_threshold_snapping_ties_toward_plus_infinity():
    dc = uniform_dc([2], [(0.0, 0.5)])
    code, snapped = snap_to_grid(dc.dims[0], 0.75)  # exactly between 0.5 and 1.0
    assert (code, snapped) == (2, 1.0)


def test_thresholds_exhaustive():
    dc = uniform_dc([3], [(-1.0, 0.25)])
    out = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=0, value=-0.3))
    decode_all(out, 1, lambda a: int(a >= -0.25), check_indicator=True)
    out = add_indicator(dc, IndicatorSpec("ThresholdUpper", dim=0, value=0.3))
    decode_all(out, 1, lambda a: int(a < 0.25), check_indicator=True)


def test_compare_exhaustive_with_offsets():
    dc = uniform_dc([2, 3], [(0.0, 0.5), (-0.25, 0.25)])
    out = add_indicator(dc, IndicatorSpec("Compare", dim=0, other=1))
    decode_all(out, 2, lambda a, b: int(a >= b), check_indicator=True)


def test_compare_iid_probability():
    # P(x >= y) = (1 + P(x == y)) / 2 for i.i.d. dims
    p = np.array([0.1, 0.2, 0.3, 0.4])
    da = exact_pmf_loader(p)
    db = exact_pmf_loader(p)
    from qmci.distributions import Dimension, DistributionCircuit

    qc = da.circuit.compose(db.circuit, offset=2)
    dc = DistributionCircuit(
        qc, [Dimension((0, 1), 0.0, 1.0), Dimension((2, 3), 0.0, 1.0)]
    )
    out = add_indicator(dc, IndicatorSpec("Compare", dim=0, other=1))
    got = marginal_pmf(simulate(out.circuit), [out.indicators[-1]])[1]
    expect = (1.0 + float(np.sum(p**2))) / 2.0
    assert got == pytest.approx(expect, abs=1e-10)


def test_esop_and_of_independents():
    dc = uniform_dc([1, 1], [(0, 1.0), (0, 1.0)])
    dc = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=0, value=1.0))
    dc = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=1, value=1.0))
    out = add_esop(dc, [[(0, True), (1, True)]])
    got = marginal_pmf(simulate(out.circuit), [out.indicators[-1]])[1]
    assert got == pytest.approx(0.25, abs=1e-12)


def test_esop_tautology():
    dc = uniform_dc([1], [(0, 1.0)])
    dc = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=0, value=1.0))
    out = add_esop(dc, [[(0, True)], [(0, False)]])
    assert marginal_pmf(simulate(out.circuit), [out.indicators[-1]])[1] == pytest.approx(1.0)


def test_esop_validation():
    dc = uniform_dc([1], [(0, 1.0)])
    with pytest.raises(ValueError):
        add_esop(dc, [])
    with pytest.raises(ValueError):
        add_esop(dc, [[]])
    with pytest.raises(ValueError):
        add_esop(dc, [[(3, True)]])


def test_enhancement_preserves_original_marginals():
    dc = uniform_dc([2, 2], [(0, 0.5), (0, 0.5)])
    before = [marginal_pmf(simulate(dc.circuit), d.qubits) for d in dc.dims]
    out = apply_binary_op(dc, BinaryOpSpec("Max", 0, 1))
    out = add_indicator(out, IndicatorSpec("ThresholdLower", dim=2, value=0.5))
    after = [marginal_pmf(simulate(out.circuit), d.qubits) for d in out.dims[:2]]
    for b, a in zip(before, after):
        assert np.abs(b - a).max() < 1e-10


# ---------------------------------------------------------------- scripts


def test_lookback_script_paper_style():
    # Max(1,2), Max(3,4), Max(5,6) on four time slices, then a lower
    # threshold on dimension 7 (1-based printed indices)
    dc = uniform_dc([1, 1, 1, 1], [(0, 1.0)] * 4)
    out = apply_script(
        dc,
        operations=[("Max", 1, 2), ("Max", 3, 4), ("Max", 5, 6)],
        thresholds=[{"dimension": 7, "value": 1, "type": "lower"}],
    )
    assert len(out.dims) == 7
    decode_all(out, 4, lambda a, b, c, d: int(max(a, b, c, d) >= 1), check_indicator=True)


def test_brownian_motion_paper_example():
    dc = uniform_dc([1, 1, 1, 1], [(0, 0.5)] * 4)
    bm = build_brownian(dc)
    assert len(bm.dims) == 8  # dims 4, 5, 6, 7 hold the path
    st = simulate(bm.circuit)
    n = bm.circuit.n_qubits
    for idx in np.nonzero(np.abs(st) ** 2 > 1e-14)[0]:
        bits = [(int(idx) >> (n - 1 - q)) & 1 for q in range(n)]
        inputs = [decode_value(bits, d) for d in bm.dims[:4]]
        path_total = decode_value(bits, bm.dims[7])
        assert abs(path_total - sum(inputs)) < 1e-9


def test_brownian_single_dim_copies():
    dc = uniform_dc([2], [(0, 0.25)])
    bm = build_brownian(dc)
    assert len(bm.dims) == 2
    p0 = marginal_pmf(simulate(bm.circuit), bm.dims[0].qubits)
    p1 = marginal_pmf(simulate(bm.circuit), bm.dims[1].qubits)
    assert np.abs(p0 - p1).max() < 1e-12


def test_brownian_deterministic_inputs():
    pm = np.zeros(2)
    pm[1] = 1.0
    from qmci.distributions import Dimension, DistributionCircuit

    da = exact_pmf_loader(pm)
    db = exact_pmf_loader(pm)
    qc = da.circuit.compose(db.circuit, offset=1)
    dc = DistributionCircuit(
        qc, [Dimension((0,), 0.0, 0.5), Dimension((1,), 0.0, 0.25)]
    )
    bm = build_brownian(dc)
    final = bm.dims[-1]
    pmf = marginal_pmf(simulate(bm.circuit), final.qubits)
    code = int(np.argmax(pmf))
    assert pmf[code] == pytest.approx(1.0)
    assert final.x_l + code * final.delta == pytest.approx(0.75)  # 0.5 + 0.25


def test_geometric_brownian_product():
    dc = uniform_dc([1, 1], [(1.0, 1.0), (1.0, 1.0)])
    gbm = build_brownian(dc, geometric=True)
    decode_all(gbm, 2, lambda a, b: a * b)


# ---------------------------------------------------------------- instruments


def small_unit(n=2):
    target = discretize_pdf(gaussian_pdf, n, -5, 10.0 / (2**n - 1))
    dc = exact_pmf_loader(target)
    return rescale(dc, 0, -5.0, 10.0 / (2**n - 1))


def test_barrier_structure_matches_pseudocode():
    dc, cfgs = build_instrument(
        small_unit(),
        InstrumentSpec("Barrier", space="return", n_slices=4, total_volatility=0.1,
                       strike_ratio=1.05, barrier_ratio=1.1, payoff_kind="value"),
    )
    # 4 knock-out thresholds + 1 strike + the ESOP payoff indicator
    assert len(dc.indicators) == 6
    assert len(cfgs) == 1
    cfg = cfgs[0]
    assert cfg.quantity == "ConditionalExponential"
    assert cfg.dimension == 7  # final path dimension (0-based)
    assert cfg.condition == 5  # the ESOP, created last
    assert cfg.offset == pytest.approx(-math.exp(cfg.x_star))


def test_barrier_binary_is_bernoulli():
    _, cfgs = build_instrument(
        small_unit(),
        InstrumentSpec("Barrier", space="return", n_slices=2, total_volatility=0.1,
                       strike_ratio=1.05, barrier_ratio=1.1, payoff_kind="binary"),
    )
    assert cfgs[0].quantity == "BernoulliQubit"
    assert cfgs[0].dimension is None


def test_lookback_structure():
    dc, cfgs = build_instrument(
        small_unit(),
        InstrumentSpec("Lookback", space="return", n_slices=4, total_volatility=0.1,
                       strike_ratio=1.05, payoff_kind="value"),
    )
    # three Max dimensions appended after the four path dims
    assert len(dc.dims) == 4 + 4 + 3
    assert cfgs[0].dimension == len(dc.dims) - 1


def test_degenerate_barrier_above_support_is_european():
    # knock-out barrier far above the support: the barrier indicators are
    # constant true and the payoff reduces to a European-style conditional
    unit = small_unit()
    dc, cfgs = build_instrument(
        unit,
        InstrumentSpec("Barrier", space="return", n_slices=1, total_volatility=0.1,
                       strike_ratio=1.0, barrier_ratio=math.exp(10.0), payoff_kind="binary"),
    )
    cfg = cfgs[0]
    p_pay = marginal_pmf(simulate(dc.circuit), [dc.indicators[cfg.condition]])[1]
    path = dc.dims[1]
    pmf = marginal_pmf(simulate(dc.circuit), path.qubits)
    code, _ = snap_to_grid(path, 0.0)  # log strike = 0
    assert p_pay == pytest.approx(float(pmf[code:].sum()), abs=1e-10)


def test_autocallable_configs_and_combination():
    dc, cfgs = build_instrument(
        small_unit(),
        InstrumentSpec("Autocallable", space="return", n_slices=2, total_volatility=0.4,
                       strike_ratio=0.95, barrier_ratio=0.8,
                       autocall_schedule=[(1, 1.0, 0.1), (2, 1.1, 0.2)],
                       payoff_kind="value"),
    )
    assert [c.quantity for c in cfgs] == ["BernoulliQubit", "BernoulliQubit", "ConditionalExponential"]
    st = simulate(dc.circuit)
    # the two call events are disjoint by construction
    legs = [marginal_pmf(st, [dc.indicators[c.condition]])[1] for c in cfgs[:2]]
    both = marginal_pmf(st, [dc.indicators[cfgs[0].condition], dc.indicators[cfgs[1].condition]])
    assert both[3] == pytest.approx(0.0, abs=1e-12)
    assert legs[0] > 0 and legs[1] > 0


def test_instrument_spec_validation():
    with pytest.raises(ValueError):
        InstrumentSpec("Barrier", n_slices=0)
    with pytest.raises(ValueError):
        InstrumentSpec("Autocallable", autocall_schedule=[(2, 1, 0.1), (1, 1, 0.1)])
    with pytest.raises(ValueError):
        InstrumentSpec("Barrier", payoff_kind="maybe")
    with pytest.raises(ValueError, match="call_or_put"):
        InstrumentSpec("Barrier", call_or_put="cal")
    nan, inf = float("nan"), float("inf")
    for field, bad in [
        *(("binary_payout", {"binary_payout": v}) for v in (nan, inf, -inf, True)),
        *((k, {k: v}) for k in ("strike_ratio", "barrier_ratio") for v in (0, -1, inf, -inf)),
        ("n_slices", {"n_slices": True}),
        *(("total_volatility", {"total_volatility": v}) for v in (True, 1e308)),
        ("barrier_ratio", {"barrier_ratio": None}),
        ("barrier_kind", {"barrier_kind": "knock_in"}),
        *(("autocall_schedule", {"instrument": "Autocallable", "n_slices": 2,
                                 "autocall_schedule": s})
          for s in ([(1, 1.05, nan)], [(0, 1.05, 0.1)], [(5, 1.05, 0.1)], [(1, 0, 0.1)],
                    [(1, -1, 0.1)], [(1, nan, 0.1)], [], None, [1])),
    ]:
        with pytest.raises(ValueError, match=field):
            InstrumentSpec(**{"instrument": "Barrier", "barrier_ratio": 1.1, **bad})


# A two-slice Barrier (16 qubits) and a one-slice Lookback (8 qubits; a
# two-slice one needs 21) on the 2-qubit unit.  The strike snaps to log
# return 0 and the barrier to 1, so calls, puts and knock-outs all carry
# probability.
INSTRUMENTS = {"Barrier": {"n_slices": 2, "barrier_ratio": 2.0},
               "Lookback": {"n_slices": 1}}


def _call_or_put(kind, call_or_put, payoff_kind="value"):
    spec = InstrumentSpec(kind, space="return", total_volatility=0.4, strike_ratio=0.95,
                          call_or_put=call_or_put, payoff_kind=payoff_kind,
                          **INSTRUMENTS[kind])
    dc, (cfg,) = build_instrument(small_unit(), spec)
    return dc, cfg, simulate(dc.circuit)


def _alive(kind, dc, st):
    """P(final path code, no knock-out).  A Barrier's first indicators are
    its path registers' barrier thresholds; a Lookback has none."""
    n_slices = INSTRUMENTS[kind]["n_slices"]
    barrier = list(dc.indicators[:n_slices]) if kind == "Barrier" else []
    d = dc.dims[-1]
    return marginal_pmf(st, list(d.qubits) + barrier).reshape(d.n_points, -1)[:, -1]


def _on(dc, st, cfg, dim):
    """P(code of ``dim``, the config's condition indicator = 1)."""
    d = dc.dims[dim]
    return marginal_pmf(st, list(d.qubits) + [dc.indicators[cfg.condition]])[1::2]


@pytest.mark.parametrize("kind", sorted(INSTRUMENTS))
def test_put_prices_strike_minus_spot_below_strike(kind):
    dc, cfg, st = _call_or_put(kind, "put")
    assert cfg.dimension == len(dc.dims) - 1
    d = dc.dims[cfg.dimension]
    spot = np.exp(d.x_l + d.delta * np.arange(d.n_points))  # return space
    strike = math.exp(cfg.x_star)
    # exact E[(K - S)+] over the paths the barrier keeps alive
    reference = float(np.sum(_alive(kind, dc, st) * np.maximum(strike - spot, 0.0)))
    assert reference > 0.1
    # the config's quantity: E[S 1_cond] + K P(not cond), mapped by scale and offset
    p_cond = _on(dc, st, cfg, cfg.dimension)
    quantity = float(np.sum(p_cond * spot)) + strike * (1.0 - float(p_cond.sum()))
    assert cfg.scale * quantity + cfg.offset == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(INSTRUMENTS))
@pytest.mark.parametrize("payoff_kind", ["value", "binary"])
def test_call_and_put_conditions_are_complementary(kind, payoff_kind):
    # per final path code: the call holds on S >= K, the put on S < K, and
    # together they cover every path the barrier keeps alive
    legs = [_call_or_put(kind, c, payoff_kind) for c in ("call", "put")]
    p_call, p_put = (_on(dc, st, cfg, len(dc.dims) - 1) for dc, cfg, st in legs)
    dc, cfg, st = legs[0]
    code, _ = snap_to_grid(dc.dims[-1], math.log(0.95))
    assert np.allclose(p_call[:code], 0.0, atol=1e-12)
    assert np.allclose(p_put[code:], 0.0, atol=1e-12)
    assert np.allclose(p_call + p_put, _alive(kind, dc, st), rtol=0.0, atol=1e-12)
    assert p_call.sum() > 0.1 and p_put.sum() > 0.1


def test_instrument_slice_deltas_are_powers_of_two():
    dc, _ = build_instrument(
        small_unit(),
        InstrumentSpec("Barrier", space="return", n_slices=4, total_volatility=0.1,
                       strike_ratio=1.05, barrier_ratio=1.1, payoff_kind="binary"),
    )
    for d in dc.dims:
        m, _ = math.frexp(d.delta)
        assert m == 0.5


def test_price_space_instrument_builds():
    # geometric path: lognormal-style unit in price space; registers grow
    # through products, so this is a structural (count-level) check
    from qmci.distributions import lognormal_pdf

    delta = 2.0**-4
    x_l = round(0.83 / delta) * delta
    target = discretize_pdf(lambda x: lognormal_pdf(x, 0, 0.05), 2, x_l, delta)
    unit = rescale(exact_pmf_loader(target), 0, x_l, delta)
    spec = InstrumentSpec("Barrier", space="price", n_slices=2, total_volatility=0.05,
                          strike_ratio=1.05, barrier_ratio=1.1, payoff_kind="value")
    dc, cfgs = build_instrument(unit, spec)
    cfg = cfgs[0]
    assert cfg.quantity == "ConditionalExpectation"
    # path dims hold products: final delta is the product of slice deltas
    assert dc.dims[cfg.dimension].delta == pytest.approx(delta * delta)
    assert len(dc.indicators) == 4  # 2 barrier + 1 strike + ESOP
    assert cfg.offset == pytest.approx(-cfg.x_star)  # price-space strike


# ---------------------------------------------------------------- gate lists


def price_unit(n=2):
    from qmci.distributions import lognormal_pdf

    delta = 2.0**-4
    x_l = round(0.83 / delta) * delta
    target = discretize_pdf(lambda x: lognormal_pdf(x, 0, 0.05), n, x_l, delta)
    return rescale(exact_pmf_loader(target), 0, x_l, delta)


def _esop_input():
    dc = uniform_dc([2, 2], [(0, 0.5), (0.25, 0.25)])
    dc = add_indicator(dc, IndicatorSpec("ThresholdLower", dim=0, value=0.5))
    dc = add_indicator(dc, IndicatorSpec("ThresholdUpper", dim=1, value=0.5))
    return add_indicator(dc, IndicatorSpec("Compare", dim=0, other=1))


def _instrument(kind, space):
    unit = small_unit() if space == "return" else price_unit()
    extra = {"Barrier": {"barrier_ratio": 1.2},
             "Lookback": {},
             "Autocallable": {"strike_ratio": 0.97, "barrier_ratio": 0.85,
                              "autocall_schedule": [(1, 1.03, 0.05), (3, 1.1, 0.2)]}}[kind]
    spec = {"instrument": kind, "space": space, "n_slices": 3, "total_volatility": 0.2,
            "strike_ratio": 1.05, **extra}
    return build_instrument(unit, InstrumentSpec(**spec))


# Fixed inputs and the SHA-256 of each builder output's circuit, registers,
# indicators, ancillas and payoff configs.  Resource counts and prices read
# these gate lists, so any change to a gate, its order or its qubits shows.
GATE_LIST_CASES = {
    "Sum": lambda: apply_binary_op(uniform_dc([2, 3], [(-1.0, 0.5), (0.25, 0.25)]),
                                   BinaryOpSpec("Sum", 0, 1)),
    "Product": lambda: apply_binary_op(uniform_dc([2, 2], [(2.0, 1.0), (1.0, 0.5)]),
                                       BinaryOpSpec("Product", 0, 1)),
    "Max": lambda: apply_binary_op(uniform_dc([2, 3], [(0, 0.5), (-0.5, 0.25)]),
                                   BinaryOpSpec("Max", 0, 1)),
    "Min": lambda: apply_binary_op(uniform_dc([2, 2], [(1.0, 0.25), (0.5, 0.5)]),
                                   BinaryOpSpec("Min", 1, 0)),
    "Max constant": lambda: apply_binary_op(uniform_dc([3], [(-1.0, 0.25)]),
                                            BinaryOpSpec("Max", 0, constant=-0.3)),
    "Min constant": lambda: apply_binary_op(uniform_dc([3], [(-1.0, 0.25)]),
                                            BinaryOpSpec("Min", 0, constant=0.3)),
    "ThresholdLower": lambda: add_indicator(uniform_dc([3], [(-1.0, 0.25)]),
                                            IndicatorSpec("ThresholdLower", dim=0, value=-0.3)),
    "Compare": lambda: add_indicator(uniform_dc([2, 3], [(0.0, 0.5), (-0.25, 0.25)]),
                                     IndicatorSpec("Compare", dim=0, other=1)),
    "Esop": lambda: add_esop(_esop_input(), [[(0, True), (1, False)], [(1, True), (2, True)]]),
    "Brownian": lambda: build_brownian(uniform_dc([1, 2, 2], [(0, 0.5), (0, 0.25), (0, 0.5)])),
    "Brownian geometric": lambda: build_brownian(
        uniform_dc([1, 1, 1], [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0)]), geometric=True),
    **{f"{kind} {space}": (lambda kind=kind, space=space: _instrument(kind, space))
       for kind in ("Barrier", "Lookback", "Autocallable") for space in ("return", "price")},
}

GATE_LIST_DIGESTS = {
    "Autocallable price": "5bad98be71e1bb5a336d198a0958afe0f62cc7d7753fe607d2305b5784eee34a",
    "Autocallable return": "c71af2c6aa68a937ed544e70cbd93db4f283a0a3dcb23cff9a87ec53d33eac7d",
    "Barrier price": "78efe4b6d39e83a34fd00db5deae055c0ad134a71a07a0badb3fd4794266d9ba",
    "Barrier return": "02d1756a8f14d95a3a5224ac69f482175b97a30992eb720a10f7c7def79076c7",
    "Brownian": "ce5d078e0016db5c4db1e1a51eb998df21a9c30797f0244184515ff89fb35313",
    "Brownian geometric": "1d436244048beb6e79341003e01d3231dd64f96faa08147380a4577a8337998d",
    "Compare": "21d716c4566aedbb44d61c0738d9680280ec3e9f4365c178f26b0dc7673aa2d5",
    "Esop": "308e7ec8d8eff549ac01bee67b6d119e375b64dc0568e659230bc101878c1a38",
    "Lookback price": "03bbe961bf4ba8961982aa61358a82bd07e98e477ebf9c7471b4c3f34fb6d9b8",
    "Lookback return": "9e222f82e17f46b5cdadb761e9e72698b368246a5fde8f921af2b92d0291cb7c",
    "Max": "caffaf2f5c6222943165c75b27f1a29db4c13429a3d95da28028423342294a3b",
    "Max constant": "962dc933406e97dbf4fade4e8cf9d8af77dade40c765afd9d234b698fe2b9e9e",
    "Min": "17985c02702004c274538bc914016b5f27c30ecc29da1b84193b759c111837ae",
    "Min constant": "f5ab232284497fcd4e6441ab1045d5a1e41880b597d29f7919494af5d46e16cf",
    "Product": "ce722bcebe9171c6bdcd7fd8e3b1d668715d8044fe2809f3eeaf42883e20c352",
    "Sum": "f7e0804d5c44597a7e6e64eefb39837cc4cb2dc19bde7145c3b26e41cfade9ad",
    "ThresholdLower": "9323a7d8b1e223103d78ababbced6c615fd895c18d72499cf1cf8ba3fe7b9b92",
}


@pytest.mark.parametrize("case", sorted(GATE_LIST_CASES))
def test_builder_gate_lists_pinned(case):
    out = GATE_LIST_CASES[case]()
    dc, cfgs = out if isinstance(out, tuple) else (out, [])
    text = json.dumps([dc.to_dict(), [c.to_dict() for c in cfgs]], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_LIST_DIGESTS[case]
