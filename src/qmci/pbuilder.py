"""Payoff construction: reversible arithmetic and indicator logic over
distribution circuits, plus Brownian-motion and instrument builders.

All arithmetic works on the integer codes behind each dimension register
(value = x_l + code * delta) and appends new registers out-of-place, so
the original dimensions are untouched.  Grid compatibility rules:

* Sum / Product / Max / Min require every delta to be an integer power of
  two, which guarantees closure (the result grid spacing is again a power
  of two).  Operand grids align by left-shifting to the finer spacing.
* Max / Min additionally need the two offsets to sit on a common grid.
* Compare and thresholds work on decoded real values (offsets included).
* Threshold constants snap to the nearest grid point, ties toward +inf;
  the snapped value is recorded on the returned indicator.

Every operation is assembled from a few shared gate recipes:

* ``_cuccaro_add``: Cuccaro ripple-carry accumulate (arXiv:quant-ph/0410184),
  optionally with every gate controlled on one more qubit (Product);
* ``_with_carries``: a carry chain on fresh scratch, some gates that read
  the carries, then the chain reversed;
* ``_add_const``: bits + constant into a fresh scratch register, recorded
  for undo (Product operands, comparator offsets);
* ``_carry_out``: target ^= top carry of a sum (comparators, thresholds);
* ``_controlled_write``: out ^= a register's code on the result grid under
  a compare bit (the branches of Max / Min).

Scratch carries and comparison registers are drawn from a reusable
ancilla pool, uncomputed inside each operation; the arithmetic blocks use
only X / CNOT / Toffoli / MultiControlledX gates.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

from .circuit import QuantumCircuit, controlled_x
from .distributions import Dimension, DistributionCircuit
from .fourier import INDICATOR_KINDS, QuantitySpec, quantity_series
from .gates import Gate, gate
from .schema import (REQUIRED, Rule, SchemaError, check, integer, list_of, one_of, optional,
                     read, real, tuple_of)

# a "bit" in the generic adder: ("q", index), ("nq", index) for a negated
# qubit, or ("c", 0 | 1) for a constant
Bit = tuple


def _check_pow2_delta(d: Dimension, what: str):
    if not (d.delta > 0 and math.frexp(d.delta)[0] == 0.5):
        raise ValueError(
            f"{what} needs delta = 2^alpha for an integer alpha, got {d.delta}"
        )


def _int_ratio_log2(num: float, den: float) -> int:
    r = num / den
    k = round(math.log2(r))
    if abs(r - 2.0**k) > 1e-9 * r or k < 0:
        raise ValueError(f"delta ratio {r} is not a non-negative power of two")
    return k


@dataclass(frozen=True)
class BinaryOpSpec:
    op: str  # Sum | Product | Max | Min
    left: int
    right: int | None = None
    constant: float | None = None

    def __post_init__(self):
        if self.op not in ("Sum", "Product", "Max", "Min"):
            raise ValueError(f"unsupported op {self.op!r}")
        if (self.right is None) == (self.constant is None):
            raise ValueError("exactly one of right / constant must be given")


@dataclass(frozen=True)
class IndicatorSpec:
    kind: str  # Compare | ThresholdLower | ThresholdUpper | Esop
    dim: int | None = None
    other: int | None = None
    value: float | None = None
    products: tuple = ()  # ESOP: tuple of tuples of (indicator index, polarity)

    def __post_init__(self):
        if self.kind not in ("Compare", "ThresholdLower", "ThresholdUpper", "Esop"):
            raise ValueError(f"unsupported indicator kind {self.kind!r}")


@dataclass
class PayoffConfig:
    """One QMCI run produced by an instrument build: which dimension to
    integrate, the conditioning indicator, the quantity, and the classical
    affine combination (payoff contribution = scale * estimate + offset)."""

    quantity: str
    dimension: int | None
    condition: int | None
    x_star: float | None = None
    support_window: tuple[float, float] | None = None
    scale: float = 1.0
    offset: float = 0.0
    label: str = ""

    def to_dict(self) -> dict:
        window = list(self.support_window) if self.support_window else None
        return {**asdict(self), "support_window": window}

    def quantity_spec(self, dc: DistributionCircuit) -> tuple[QuantitySpec, int]:
        """The quantity descriptor of this run on ``dc``, and the dimension
        it integrates; a config that does not fit ``dc`` raises SchemaError."""
        if self.quantity in INDICATOR_KINDS and self.condition not in range(len(dc.indicators)):
            raise SchemaError(f"quantity: {self.quantity} needs a condition indexing the loader's "
                              f"{len(dc.indicators)} indicators, got {self.condition!r}")
        if self.quantity == "BernoulliQubit":
            return quantity_series("BernoulliQubit", (0.0, 1.0)), 0
        if not 0 <= self.dimension < len(dc.dims):
            raise SchemaError(f"quantity: dimension {self.dimension} outside the loader's "
                              f"{len(dc.dims)} registers")
        d = dc.dims[self.dimension]
        qs = quantity_series(self.quantity, self.support_window or (d.x_l, d.x_u))
        if self.x_star is not None:
            qs.x_star = self.x_star
        qs.support_window = self.support_window
        return qs, self.dimension


MAX_VOLATILITY = 100.0  # the return-space payoff window reaches e^(5 * total_volatility)
MAX_RATIO = 1e6  # strike, barrier and autocall levels, as multiples of the spot
MAX_SLICES = 64  # a 64-slice Lookback on the six-qubit unit: 141,531 gates on 5,491 qubits


def _rule(rule: Rule, default=MISSING):
    return field(default=default, metadata={"rule": rule})


@dataclass
class InstrumentSpec:
    """A Barrier, Lookback or Autocallable on ``n_slices`` slices of a
    one-dimensional loader.  Each field carries its rule; the rules that
    join fields follow them in ``__post_init__``."""

    instrument: str = _rule(one_of("Barrier", "Lookback", "Autocallable"))
    space: str = _rule(one_of("return", "price"), "return")
    n_slices: int = _rule(integer(1, MAX_SLICES), 4)
    total_volatility: float = _rule(real(0, MAX_VOLATILITY), 0.1)
    call_or_put: str = _rule(one_of("call", "put"), "call")
    strike_ratio: float = _rule(real(0, MAX_RATIO), 1.05)
    barrier_ratio: float | None = _rule(optional(real(0, MAX_RATIO)), None)
    barrier_kind: str | None = _rule(optional(one_of("knock_out")), None)
    # (slice, level, payout) rows, slices strictly increasing
    autocall_schedule: list | tuple = _rule(
        list_of(tuple_of(integer(1), real(0, MAX_RATIO), real()), empty=True), ())
    payoff_kind: str = _rule(one_of("value", "binary"), "value")
    binary_payout: float = _rule(real(), 1.0)
    target_rmse: float | None = _rule(optional(real(0)), None)
    q_budget: int | None = _rule(optional(integer(1)), None)

    def __post_init__(self):
        for f in fields(self):
            check("instrument", f.name, getattr(self, f.name), f.metadata["rule"])
        if self.instrument == "Barrier" and self.barrier_ratio is None:
            raise SchemaError("instrument: a Barrier needs barrier_ratio")
        ts = [t for (t, _, _) in self.autocall_schedule]
        if self.instrument == "Autocallable" and not ts:
            raise SchemaError("instrument: an Autocallable needs an autocall_schedule")
        if ts != sorted(set(ts)) or ts and ts[-1] > self.n_slices:
            raise SchemaError(f"instrument: autocall_schedule slices must be strictly "
                              f"increasing and at most n_slices = {self.n_slices}, got {ts}")

    @classmethod
    def from_dict(cls, d: dict) -> "InstrumentSpec":
        return cls(**read(d, INSTRUMENT_TABLE, "instrument"))


# the instrument block of a config: every field with its rule and default
INSTRUMENT_TABLE = {f.name: (f.metadata["rule"], REQUIRED if f.default is MISSING else f.default)
                    for f in fields(InstrumentSpec)}


# --------------------------------------------------------------------------
# builder plumbing


class _Builder:
    """Accumulates gates, dimensions, indicators and a reusable pool of
    scratch qubits.  Scratch is borrowed inside a frame and must be left
    clean; frames may nest."""

    def __init__(self, dc: DistributionCircuit):
        self.circuit = dc.circuit.copy()
        self.dims = list(dc.dims)
        self.indicators = list(dc.indicators)
        self.pool = list(dc.ancillas)  # clean ancillas available for reuse
        self._scratch_sp = 0

    def result(self) -> DistributionCircuit:
        return DistributionCircuit(self.circuit, self.dims, self.indicators, self.pool)

    def new_qubits(self, k: int) -> list[int]:
        start = self.circuit.n_qubits
        self.circuit = self.circuit.widened(start + k)
        return list(range(start, start + k))

    def new_scratch(self, k: int) -> list[int]:
        need = self._scratch_sp + k
        if len(self.pool) < need:
            self.pool += self.new_qubits(need - len(self.pool))
        out = self.pool[self._scratch_sp : need]
        self._scratch_sp = need
        return out

    @contextmanager
    def scratch_frame(self):
        saved = self._scratch_sp
        try:
            yield
        finally:
            self._scratch_sp = saved

    def emit(self, gates):
        self.circuit.extend(gates)


def _lsb_bits(d: Dimension) -> list[int]:
    return list(reversed(d.qubits))


def _aligned_bits(d: Dimension, delta: float) -> list[Bit]:
    """Register bits as an LSB-first list on the common grid ``delta``
    (left shift pads constant zeros)."""
    shift = _int_ratio_log2(d.delta, delta)
    return [("c", 0)] * shift + [("q", q) for q in _lsb_bits(d)]


def _const_bits(value: int, width: int) -> list[Bit]:
    return [("c", (value >> p) & 1) for p in range(width)]


def _pad(bits: list[Bit], width: int) -> list[Bit]:
    return bits + [("c", 0)] * (width - len(bits))


def _negate(bits: list[Bit]) -> list[Bit]:
    return [("c", 1 - v) if k == "c" else ("nq" if k == "q" else "q", v) for k, v in bits]


def _pair_product_gates(u: Bit, v: Bit, target: int) -> list[Gate]:
    """target ^= u * v for generic bits (constants and negations folded)."""
    (ku, iu), (kv, iv) = u, v
    if ku == "c" and kv == "c":
        return [gate("X", target)] if iu and iv else []
    if ku == "c":
        (ku, iu), (kv, iv) = v, u
    if kv == "c":  # target ^= u, or nothing
        if iv == 0:
            return []
        return ([] if ku == "q" else [gate("X", target)]) + [gate("CNOT", (iu, target))]
    # both are (possibly negated) qubits: (1 - u) v = v ^ u v and so on
    if iu == iv:
        raise ValueError("degenerate pair in adder")
    gates = [gate("X", target)] if ku == kv == "nq" else []
    if kv == "nq":
        gates.append(gate("CNOT", (iu, target)))
    if ku == "nq":
        gates.append(gate("CNOT", (iv, target)))
    return gates + [gate("Toffoli", (iu, iv, target))]


def _xor_gates(b: Bit, target: int, control: int | None = None) -> list[Gate]:
    """target ^= b, optionally only when ``control`` is 1."""
    kind, v = b
    if kind == "c":
        if v == 0:
            return []
        if control is None:
            return [gate("X", target)]
        return [gate("CNOT", (control, target))]
    flip = [gate("X", v)] if kind == "nq" else []
    core = gate("CNOT", (v, target)) if control is None else gate("Toffoli", (control, v, target))
    return flip + [core] + flip


def _carry_chain(xs: list[Bit], ys: list[Bit], carry_qubits: list[int], carry_in: int):
    """Gates computing carries of x + y + carry_in into fresh zeroed
    ``carry_qubits`` (carry_qubits[p] receives the carry out of position p).

    carry = maj(x_p, y_p, c_p) = x y ^ x c ^ y c, computed per pair.
    Returns the gate list; running it in reverse uncomputes the carries.
    """
    n = len(xs)
    assert len(ys) == n and len(carry_qubits) == n
    gates: list[Gate] = []
    c: Bit = ("c", carry_in)
    for p in range(n):
        t = carry_qubits[p]
        gates += _pair_product_gates(xs[p], ys[p], t)
        gates += _pair_product_gates(xs[p], c, t)
        gates += _pair_product_gates(ys[p], c, t)
        c = ("q", t)
    return gates


def _sum_write_gates(xs, ys, carry_qubits, carry_in, targets, control=None):
    """targets[p] ^= x_p ^ y_p ^ c_p (optionally controlled)."""
    gates: list[Gate] = []
    c: Bit = ("c", carry_in)
    for p, t in enumerate(targets):
        for b in (xs[p], ys[p], c):
            gates += _xor_gates(b, t, control)
        c = ("q", carry_qubits[p])
    return gates


def _with_carries(b: _Builder, xs, ys, carry_in: int, middle) -> list[Gate]:
    """The carry chain of xs + ys + carry_in on fresh scratch, the gates
    ``middle(carries)`` returns, then the chain reversed (carries back to 0)."""
    with b.scratch_frame():
        carries = b.new_scratch(len(xs))
        chain = _carry_chain(xs, ys, carries, carry_in)
        return chain + middle(carries) + chain[::-1]


def _carry_out(b: _Builder, xs, ys, carry_in: int, target: int) -> None:
    """target ^= the carry out of xs + ys + carry_in."""
    b.emit(_with_carries(b, xs, ys, carry_in,
                         lambda carries: [gate("CNOT", (carries[-1], target))]))


def _add_const(b: _Builder, bits, const: int, width: int, undo: list) -> list[Bit]:
    """``bits`` + ``const`` as a ``width``-bit operand: the bits themselves
    when const is 0, else a fresh scratch register holding the sum, whose
    gates are emitted and appended to ``undo``."""
    xs = _pad(bits, width)
    if const == 0:
        return xs
    ys = _const_bits(const, width)
    reg = b.new_scratch(width)
    gates = _with_carries(b, xs, ys, 0,
                          lambda carries: _sum_write_gates(xs, ys, carries, 0, reg))
    b.emit(gates)
    undo.extend(gates)
    return [("q", q) for q in reg]


# Cuccaro ripple adder pieces (in-place accumulate)


def _maj(c: int, b: int, a: int) -> list[Gate]:
    return [gate("CNOT", (a, b)), gate("CNOT", (a, c)), gate("Toffoli", (c, b, a))]


def _uma(c: int, b: int, a: int) -> list[Gate]:
    return [gate("Toffoli", (c, b, a)), gate("CNOT", (a, c)), gate("CNOT", (c, b))]


def _cuccaro_add(addend: list[int], accum: list[int], carry_out: int, c0: int,
                 control: int | None = None):
    """accum += addend (equal lengths), carry into ``carry_out``; the
    addend, c0 and any padding return to their input state.  With a
    ``control`` every gate gains it as one more control."""
    n = len(addend)
    assert len(accum) == n
    gates: list[Gate] = []
    chain = [c0] + addend
    for p in range(n):
        gates += _maj(chain[p], accum[p], addend[p])
    gates.append(gate("CNOT", (addend[n - 1], carry_out)))
    for p in reversed(range(n)):
        gates += _uma(chain[p], accum[p], addend[p])
    if control is None:
        return gates
    return [controlled_x((control, *g.controls), g.target) for g in gates]


# --------------------------------------------------------------------------
# arithmetic operations


def _copy_register(b: _Builder, src: Dimension, x_l: float, delta: float):
    out = b.new_qubits(src.n)
    b.emit([gate("CNOT", (s, t)) for s, t in zip(src.qubits, out)])
    b.dims.append(Dimension(tuple(out), x_l, delta))


def _apply_sum(b: _Builder, i: int, j: int) -> None:
    di, dj = b.dims[i], b.dims[j]
    _check_pow2_delta(di, "Sum")
    _check_pow2_delta(dj, "Sum")
    delta = min(di.delta, dj.delta)
    ti = _int_ratio_log2(di.delta, delta)
    tj = _int_ratio_log2(dj.delta, delta)
    w = max(di.n + ti, dj.n + tj) + 1
    out = b.new_qubits(w)  # out[p] is bit p (LSB first)
    # copy the i operand at its offset
    b.emit([gate("CNOT", (q, out[ti + p])) for p, q in enumerate(_lsb_bits(di))])
    # Cuccaro-add the j operand into out[tj .. w-2], carry into out[w-1]
    pad = w - 1 - tj - dj.n
    with b.scratch_frame():
        anc = b.new_scratch(1 + max(pad, 0))
        addend = _lsb_bits(dj) + anc[1 : 1 + pad]
        b.emit(_cuccaro_add(addend, out[tj : w - 1], out[w - 1], anc[0]))
    b.dims.append(Dimension(tuple(reversed(out)), di.x_l + dj.x_l, delta))


def _offset_code(d: Dimension) -> int:
    o = d.x_l / d.delta
    oi = round(o)
    if abs(o - oi) > 1e-9 or oi < 0:
        raise ValueError(
            f"Product needs x_l a non-negative integer multiple of delta, got x_l/delta = {o}"
        )
    return oi


def _apply_product(b: _Builder, i: int, j: int) -> None:
    di, dj = b.dims[i], b.dims[j]
    _check_pow2_delta(di, "Product")
    _check_pow2_delta(dj, "Product")
    oi, oj = _offset_code(di), _offset_code(dj)
    wi = max((oi + 2**di.n - 1).bit_length(), 1)
    wj = max((oj + 2**dj.n - 1).bit_length(), 1)
    out = b.new_qubits(wi + wj)

    with b.scratch_frame():
        undo: list[Gate] = []
        # the operand codes with their offsets; width == d.n when o == 0
        u_bits = _add_const(b, [("q", q) for q in _lsb_bits(di)], oi, wi, undo)
        v_bits = _add_const(b, [("q", q) for q in _lsb_bits(dj)], oj, wj, undo)
        v_q = [q for (_, q) in v_bits]
        c0 = b.new_scratch(1)[0]
        # schoolbook: controlled-add (v << p) into out for every bit p of u
        for p, (_, uq) in enumerate(u_bits):
            b.emit(_cuccaro_add(v_q, out[p : p + wj], out[p + wj], c0, control=uq))
        b.emit(undo[::-1])
    b.dims.append(Dimension(tuple(reversed(out)), 0.0, di.delta * dj.delta))


def _comparator_gates(b: _Builder, di: Dimension, dj: Dimension, target: int):
    """target ^= [decoded(di) >= decoded(dj)]; scratch fully uncomputed."""
    delta = min(di.delta, dj.delta)
    ki = _aligned_bits(di, delta)
    kj = _aligned_bits(dj, delta)
    d_real = (dj.x_l - di.x_l) / delta
    d_int = math.ceil(d_real - 1e-9)
    dm, dp = max(-d_int, 0), max(d_int, 0)
    max_u = 2 ** len(ki) - 1 + dm
    max_v = 2 ** len(kj) - 1 + dp
    # constant outcomes
    if dm > max_v:  # u always >= v
        b.emit([gate("X", target)])
        return
    if dp > max_u:  # v always > u
        return
    width = max(max_u.bit_length(), max_v.bit_length())

    with b.scratch_frame():
        undo: list[Gate] = []
        u = _add_const(b, ki, dm, width, undo)
        v = _add_const(b, kj, dp, width, undo)
        _carry_out(b, u, _negate(v), 1, target)  # u - v >= 0
        b.emit(undo[::-1])


def _threshold_gates(b: _Builder, d: Dimension, code_c: int, target: int):
    """target ^= [register code >= code_c]."""
    if code_c <= 0:
        b.emit([gate("X", target)])
        return
    if code_c > 2**d.n - 1:
        return
    bits = [("q", q) for q in _lsb_bits(d)]
    _carry_out(b, bits, _const_bits(2**d.n - code_c, d.n), 0, target)


def snap_to_grid(d: Dimension, value: float) -> tuple[int, float]:
    """Nearest grid code for ``value`` (ties toward +inf) and its value."""
    code = math.floor((value - d.x_l) / d.delta + 0.5)
    return code, d.x_l + code * d.delta


def _controlled_write(b: _Builder, d: Dimension, delta: float, lo: float,
                      out: list[int], ind: int, when_one: bool) -> None:
    """out ^= d's code on the grid (lo, delta) when ``ind`` == when_one.  The
    sum always fits len(out) bits when the branch fires, so only the low
    positions are written (carries run over the full width)."""
    const = round((d.x_l - lo) / delta)
    aligned = _aligned_bits(d, delta)
    full = max(len(aligned), len(out))
    xs = _pad(aligned, full)
    ys = _const_bits(const % (2**full), full)
    flip = [] if when_one else [gate("X", ind)]
    b.emit(flip + _with_carries(
        b, xs, ys, 0, lambda carries: _sum_write_gates(xs, ys, carries, 0, out, control=ind)
    ) + flip)


def _apply_max_min(b: _Builder, spec: BinaryOpSpec) -> None:
    """Max / Min of two registers, or of a register and a constant snapped
    and clamped onto its grid.  A compare bit (a threshold for the constant)
    picks which operand's code is written into the new register."""
    take_max = spec.op == "Max"
    pick = max if take_max else min
    di = b.dims[spec.left]
    _check_pow2_delta(di, "Max/Min")
    if spec.right is None:
        code_c, _ = snap_to_grid(di, spec.constant)
        code_c = min(max(code_c, 0), 2**di.n - 1)
        c_snap = di.x_l + code_c * di.delta
        delta = di.delta
        lo_new, hi_new = pick(di.x_l, c_snap), pick(di.x_u, c_snap)
        compare = partial(_threshold_gates, b, di, code_c)
    else:
        dj = b.dims[spec.right]
        _check_pow2_delta(dj, "Max/Min")
        delta = min(di.delta, dj.delta)
        off = (di.x_l - dj.x_l) / delta
        if abs(off - round(off)) > 1e-9:
            raise ValueError("Max/Min operands must share a grid (offset misaligned)")
        lo_new, hi_new = pick(di.x_l, dj.x_l), pick(di.x_u, dj.x_u)
        compare = partial(_comparator_gates, b, di, dj)
    n_codes = round((hi_new - lo_new) / delta) + 1
    w = max((n_codes - 1).bit_length(), 1)
    out = b.new_qubits(w)

    with b.scratch_frame():
        ind = b.new_scratch(1)[0]
        compare(ind)  # ind = [x_i >= x_j]
        # max: write i when x_i >= x_j, the other operand when x_i < x_j
        _controlled_write(b, di, delta, lo_new, out, ind, take_max)
        if spec.right is None:  # the other operand is the constant's code
            cc = round((c_snap - lo_new) / delta)
            flip = [gate("X", ind)] if take_max else []
            b.emit(flip + [gate("CNOT", (ind, out[p])) for p in range(w) if (cc >> p) & 1]
                   + flip)
        else:
            _controlled_write(b, dj, delta, lo_new, out, ind, not take_max)
        compare(ind)  # uncompute the compare bit
    b.dims.append(Dimension(tuple(reversed(out)), lo_new, delta))


# --------------------------------------------------------------------------
# public operations


def apply_binary_op(dc: DistributionCircuit, spec: BinaryOpSpec) -> DistributionCircuit:
    """Append a new dimension holding the op result; originals unchanged."""
    b = _Builder(dc)
    n_dims = len(b.dims)
    if spec.left < 0 or spec.left >= n_dims:
        raise ValueError(f"no dimension {spec.left}")
    if spec.right is not None and (spec.right < 0 or spec.right >= n_dims):
        raise ValueError(f"no dimension {spec.right}")
    d, c = b.dims[spec.left], spec.constant
    if spec.op in ("Max", "Min"):
        _apply_max_min(b, spec)
    elif spec.right is not None:
        (_apply_sum if spec.op == "Sum" else _apply_product)(b, spec.left, spec.right)
    elif spec.op == "Sum":  # a constant only moves the grid of a copy
        _copy_register(b, d, d.x_l + c, d.delta)
    elif c <= 0:
        raise ValueError("constant product needs a positive constant")
    else:
        _copy_register(b, d, d.x_l * c, d.delta * c)
    return b.result()


def add_indicator(dc: DistributionCircuit, spec: IndicatorSpec) -> DistributionCircuit:
    """Append one indicator qubit encoding the Boolean for every basis state."""
    if spec.kind == "Esop":
        return add_esop(dc, spec.products)
    b = _Builder(dc)
    if spec.dim is None or spec.dim < 0 or spec.dim >= len(b.dims):
        raise ValueError(f"no dimension {spec.dim}")
    target = b.new_qubits(1)[0]
    if spec.kind == "Compare":
        if spec.other is None:
            raise ValueError("Compare needs a second dimension")
        di, dj = b.dims[spec.dim], b.dims[spec.other]
        _int_ratio_log2(max(di.delta, dj.delta), min(di.delta, dj.delta))
        _comparator_gates(b, di, dj, target)
    else:
        if spec.value is None:
            raise ValueError("Threshold needs a constant value")
        d = b.dims[spec.dim]
        code_c, _ = snap_to_grid(d, spec.value)
        _threshold_gates(b, d, code_c, target)
        if spec.kind == "ThresholdUpper":  # IF(x < c)
            b.emit([gate("X", target)])
    b.indicators.append(target)
    return b.result()


def add_esop(dc: DistributionCircuit, products) -> DistributionCircuit:
    """New indicator = XOR over product terms of (possibly negated)
    existing indicators, one multi-controlled X per term."""
    products = [list(term) for term in products]
    if not products:
        raise ValueError("ESOP needs at least one product term")
    b = _Builder(dc)
    target = b.new_qubits(1)[0]
    for term in products:
        if not term:
            raise ValueError("empty ESOP product term")
        literals: dict[int, bool] = {}
        contradictory = False
        for ind_idx, polarity in term:
            if ind_idx < 0 or ind_idx >= len(b.indicators):
                raise ValueError(f"no indicator {ind_idx}")
            if ind_idx in literals and literals[ind_idx] != bool(polarity):
                contradictory = True  # A AND NOT A: term is constant false
            literals[ind_idx] = bool(polarity)
        if contradictory:
            continue
        controls = [b.indicators[i] for i in literals]
        flips = [gate("X", b.indicators[i]) for i, pol in literals.items() if not pol]
        b.emit(flips + [controlled_x(controls, target)] + flips)
    b.indicators.append(target)
    return b.result()


def apply_script(
    dc: DistributionCircuit,
    operations=(),
    thresholds=(),
    esop=None,
) -> DistributionCircuit:
    """Apply a pseudocode-style enhancement script.

    Dimension indices here are 1-based, matching the conventional printed
    form ``operations = [Max(1, 2), Max(3, 4), Max(5, 6)]``; indicator
    indices in the ESOP are 0-based in creation order.  Operations are
    (op, i, j) or (op, i, constant); thresholds are dicts with keys
    ``dimension``, ``value`` and ``type`` ("lower" | "upper").
    """
    out = dc
    for entry in operations:
        op, left, right = entry
        if op in ("Sum", "Product", "Max", "Min") and isinstance(right, int):
            out = apply_binary_op(out, BinaryOpSpec(op, left - 1, right - 1))
        else:
            out = apply_binary_op(out, BinaryOpSpec(op, left - 1, constant=float(right)))
    for th in thresholds:
        kind = "ThresholdLower" if th["type"].lower() == "lower" else "ThresholdUpper"
        out = add_indicator(
            out, IndicatorSpec(kind, dim=th["dimension"] - 1, value=float(th["value"]))
        )
    if esop is not None:
        out = add_esop(out, esop["products"] if isinstance(esop, dict) else esop)
    return out


def build_brownian(dc: DistributionCircuit, geometric: bool = False) -> DistributionCircuit:
    """Append d path dimensions forming the running sum (or product) of the
    d input dimensions; new dimension d+k holds the path after k+1 steps."""
    d = len(dc.dims)
    if d < 1:
        raise ValueError("need at least one input dimension")
    op = "Product" if geometric else "Sum"
    ident = 1.0 if geometric else 0.0
    out = apply_binary_op(dc, BinaryOpSpec(op, d - 1, constant=ident))
    for k in range(1, d):
        out = apply_binary_op(out, BinaryOpSpec(op, d + k - 1, k - 1))
    return out


# --------------------------------------------------------------------------
# instruments


def _snap_pow2(x: float) -> float:
    return 2.0 ** round(math.log2(x))


def _compose_slices(unit: DistributionCircuit, n_slices: int, sigma_slice: float | None):
    """n_slices independent copies of a one-dimensional loader; in return
    space the unit circuit is rescaled so the slice spacing is an exact
    power of two (the realised volatility moves by at most ~2%)."""
    if len(unit.dims) != 1:
        raise ValueError("instrument input must be one-dimensional")
    base_dim = unit.dims[0]
    if sigma_slice is None:
        delta = _snap_pow2(base_dim.delta)
    else:
        delta = _snap_pow2(sigma_slice * base_dim.delta)
        sigma_real = delta / base_dim.delta
    # x_l snaps onto the delta grid so running sums stay mutually aligned
    # (required by Max/Min); this shifts the support by at most delta / 2
    raw_x_l = base_dim.x_l if sigma_slice is None else base_dim.x_l * sigma_real
    x_l = round(raw_x_l / delta) * delta
    n = unit.circuit.n_qubits
    qc = QuantumCircuit(n * n_slices, f"{unit.circuit.name}_x{n_slices}")
    for s in range(n_slices):
        qc = qc.compose(unit.circuit, offset=s * n)
    dims = [Dimension(tuple(q + s * n for q in base_dim.qubits), x_l, delta)
            for s in range(n_slices)]
    return DistributionCircuit(qc, dims)


def build_instrument(
    unit: DistributionCircuit, spec: InstrumentSpec
) -> tuple[DistributionCircuit, list[PayoffConfig]]:
    """Enhance a one-dimensional loader into the instrument's full circuit.

    Returns the enhanced circuit plus one payoff config per required QMCI
    run (a single config for barrier / look-back; one per autocall leg
    plus the knock-out put leg for autocallables).  The caller combines
    the runs classically as sum(scale * estimate + offset).
    """
    ret_space = spec.space == "return"
    sigma_slice = (
        spec.total_volatility / math.sqrt(spec.n_slices) if ret_space else None
    )
    dc = _compose_slices(unit, spec.n_slices, sigma_slice)
    if not ret_space and dc.dims[0].x_l < 0:  # the path products need prices >= 0
        raise SchemaError(f"instrument: price space needs a loader with x_l >= 0, "
                          f"got x_l = {unit.dims[0].x_l}")
    dc = build_brownian(dc, geometric=not ret_space)
    path = list(range(spec.n_slices, 2 * spec.n_slices))
    quantity = "ConditionalExponential" if ret_space else "ConditionalExpectation"
    thresholds: dict[tuple, int] = {}  # (dim, kind, code) -> indicator index
    configs: list[PayoffConfig] = []

    def level(x: float) -> float:
        return math.log(x) if ret_space else x

    def threshold(dim: int, value: float, lower: bool) -> int:
        nonlocal dc
        kind = "ThresholdLower" if lower else "ThresholdUpper"
        code, _ = snap_to_grid(dc.dims[dim], value)
        key = (dim, kind, code)
        if key not in thresholds:
            dc = add_indicator(dc, IndicatorSpec(kind, dim=dim, value=value))
            thresholds[key] = len(dc.indicators) - 1
        return thresholds[key]

    def all_of(inds: list[int]) -> int:
        """The index of a new indicator holding the AND of ``inds``."""
        nonlocal dc
        dc = add_esop(dc, [[(i, True) for i in inds]])
        return len(dc.indicators) - 1

    def leg(inds, pay_dim: int, strike: float, sign: float, payout: float, labels):
        """One run conditioned on the AND of ``inds``: ``payout`` on the
        event (binary), or sign * (S - K) there (value), with the function
        applied only to the +-5 sigma part of the support in return space
        (where the path value is N(0, total_volatility^2))."""
        cond = all_of(inds)
        if spec.payoff_kind == "binary":
            configs.append(PayoffConfig("BernoulliQubit", None, cond, scale=payout,
                                        label=labels[1]))
            return
        d = dc.dims[pay_dim]
        _, strike_snap = snap_to_grid(d, strike)
        window = None
        if ret_space:
            wide = 5.0 * spec.total_volatility
            lo, hi = max(d.x_l, -wide), min(d.x_u, wide)
            window = (lo, hi) if lo < hi else None
        k_price = math.exp(strike_snap) if ret_space else strike_snap
        configs.append(PayoffConfig(quantity, pay_dim, cond, x_star=strike_snap,
                                    support_window=window, scale=sign,
                                    offset=-sign * k_price, label=labels[0]))

    if spec.instrument in ("Barrier", "Lookback"):
        strike = level(spec.strike_ratio)
        if spec.instrument == "Barrier":
            barrier = level(spec.barrier_ratio)
            inds = [threshold(p, barrier, lower=False) for p in path]
            pay_dim = path[-1]
        else:
            cur = path
            while len(cur) > 1:
                nxt = []
                for k in range(0, len(cur) - 1, 2):
                    dc = apply_binary_op(dc, BinaryOpSpec("Max", cur[k], cur[k + 1]))
                    nxt.append(len(dc.dims) - 1)
                cur = nxt + cur[2 * len(nxt):]  # an odd one out moves up a round
            pay_dim = cur[0]
            inds = []
        # a call pays S - K on S >= K, a put K - S on S < K
        call = spec.call_or_put == "call"
        inds.append(threshold(pay_dim, strike, lower=call))
        leg(inds, pay_dim, strike, 1.0 if call else -1.0, spec.binary_payout,
            ("value payoff", "binary payoff"))
        return dc, configs

    # autocallable: binary call legs plus a knock-out put leg
    sched = list(spec.autocall_schedule)
    for idx, (t_i, k_i, b_i) in enumerate(sched):
        inds = [threshold(path[t_j - 1], level(k_j), lower=False) for t_j, k_j, _ in sched[:idx]]
        inds.append(threshold(path[t_i - 1], level(k_i), lower=True))
        configs.append(PayoffConfig("BernoulliQubit", None, all_of(inds), scale=b_i,
                                    label=f"autocall leg {idx + 1} (slice {t_i})"))
    # short knock-out put leg: all calls fail, barrier never breached,
    # final price below the put strike
    put_barrier = spec.barrier_ratio if spec.barrier_ratio is not None else 0.9
    put_strike = level(spec.strike_ratio)
    inds = [threshold(path[t_j - 1], level(k_j), lower=False) for t_j, k_j, _ in sched]
    inds += [threshold(p, level(put_barrier), lower=True) for p in path]
    inds.append(threshold(path[-1], put_strike, lower=False))
    leg(inds, path[-1], put_strike, 1.0, -spec.binary_payout,
        ("knock-out put leg", "knock-out put leg (binary)"))
    return dc, configs
