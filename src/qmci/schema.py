"""Config schema: rules for single values and one reader for config blocks.

A block's table maps each key to ``(rule, default)``, with ``REQUIRED`` for
a key that has no default.  ``read`` rejects a block that is not an object,
unknown keys, missing keys and every given value that its rule refuses,
naming the block, the key and the value; an absent key takes its default.
Rules that join several keys stay with the code that reads the block.
Only the standard library is imported.
"""
from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple


class SchemaError(ValueError):
    """A config that breaks a rule of its schema (the CLI exits 2)."""


REQUIRED = object()


class Rule(NamedTuple):
    accepts: Callable[[Any], bool]
    text: str  # what the rule accepts, as error messages print it

    def __call__(self, value) -> bool:
        return self.accepts(value)


def integer(lo: int, hi: int | None = None) -> Rule:
    """An integer in [lo, hi]; a bool is not one."""
    return Rule(lambda v: isinstance(v, int) and not isinstance(v, bool)
                and lo <= v and (hi is None or v <= hi),
                f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]")


def real(lo: float = -math.inf, hi: float = math.inf) -> Rule:
    """A finite number strictly between lo and hi; a bool is not one."""
    span = ("" if lo == -math.inf and hi == math.inf
            else f" > {lo:g}" if hi == math.inf else f" in ({lo:g}, {hi:g})")
    return Rule(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and lo < v < hi, "a finite number" + span)


def one_of(*values) -> Rule:
    return Rule(lambda v: any(type(v) is type(x) and v == x for x in values),
                "one of " + ", ".join(map(repr, values)))


def optional(rule: Rule) -> Rule:
    return Rule(lambda v: v is None or rule(v), f"null or {rule.text}")


def list_of(rule: Rule, length: int | None = None, distinct: bool = False,
            empty: bool = False) -> Rule:
    """A list of ``length`` entries (else one or more, or any number with
    ``empty``), each accepted by ``rule``, none repeated if ``distinct``."""
    def accepts(v):
        return (isinstance(v, (list, tuple))
                and (len(v) == length if length is not None else empty or len(v) > 0)
                and all(map(rule, v)) and not (distinct and len(set(v)) < len(v)))
    size = f"{length} " if length is not None else "" if empty else "one or more "
    return Rule(accepts, f"a list of {size}{'distinct ' * distinct}entries, each {rule.text}")


def tuple_of(*rules: Rule) -> Rule:
    """A list whose i-th entry ``rules[i]`` accepts."""
    return Rule(lambda v: isinstance(v, (list, tuple)) and len(v) == len(rules)
                and all(r(x) for r, x in zip(rules, v)),
                "[" + ", ".join(r.text for r in rules) + "]")


string = Rule(lambda v: isinstance(v, str), "a string")
object_ = Rule(lambda v: isinstance(v, dict), "an object")


def check(where: str, key: str, value, rule: Rule) -> None:
    if not rule(value):
        raise SchemaError(f"{where}: {key} must be {rule.text}, got {value!r}")


def read(cfg, table: dict, where: str) -> dict:
    """Every key of ``table`` with its value in ``cfg``, or its default."""
    if not isinstance(cfg, dict):
        raise SchemaError(f"{where} must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    missing = [k for k, (_, default) in table.items() if default is REQUIRED and k not in cfg]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    for key, value in cfg.items():
        check(where, key, value, table[key][0])
    return {key: cfg.get(key, default) for key, (_, default) in table.items()}
