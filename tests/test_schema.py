"""One walk over every config table: each key of each block gets each of a
fixed list of values in a known-good config.  A value the block's table
rejects exits 2 naming the key; a value it accepts exits 0.  Every key also
has a row in README's table for its block."""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from qmci import cli
from qmci.pbuilder import INSTRUMENT_TABLE
from qmci.schema import REQUIRED

MISSING = object()
VALUES = [MISSING, True, "x", float("nan"), float("inf"), -float("inf"), 0, -1, 1e308,
          [1, 2], None]

GAUSSIAN_2Q = {"source": "gaussian", "n_qubits": 2, "mu": 0.0, "sigma": 1.0,
               "x_l": -5.0, "delta": 10 / 3}
QUANTITY = {"quantity": "Mean", "q_total": 100}
ESTIMATE = {"seed": 1, "distribution": GAUSSIAN_2Q, "quantity": QUANTITY,
            "qae": {"qae": "PAM"}}
METRICS = {"distribution": GAUSSIAN_2Q, "target": {"pdf": "gaussian", "sigma": 1.0}}
SWEEP = {"qae": "PAM", "amplitudes": [0.5], "q_list": [10], "repeats": 100,
         "n_resamples": 100, "seed": 1}
BARRIER = {"instrument": "Barrier", "n_slices": 2, "total_volatility": 0.1,
           "strike_ratio": 1.05, "barrier_ratio": 1.1, "q_budget": 100}
AUTOCALLABLE = {"instrument": "Autocallable", "n_slices": 2, "total_volatility": 0.1,
                "autocall_schedule": [[1, 1.05, 0.05], [2, 1.1, 0.1]], "q_budget": 100}

# block -> [(command, known-good config, path to the block, keys that a
# rule joining several keys needs given and not null)]
BASES = {
    "distribution": [
        ("estimate", {**ESTIMATE, "distribution": src}, ("distribution",), cli.SOURCE_NEEDS[name])
        for name, src in [("gaussian", GAUSSIAN_2Q),
                          ("standard", {"source": "standard", "kind": "gaussian_unit_6q"}),
                          ("pmf_csv", {"source": "pmf_csv", "path": "x"})]],
    "target": [("dist metrics", METRICS, ("target",), ())],
    "quantity": [("estimate", ESTIMATE, ("quantity",), ("q_total",))],
    "qae": [("estimate", ESTIMATE, ("qae",), ())],
    "estimate": [("estimate", ESTIMATE, (), ("quantity",))],
    "resources": [("resources", {**ESTIMATE, "mode": "ft", "qae": {"qae": "MLQAE"}}, (),
                   ("quantity",))],
    "qae-sweep": [("qae-sweep", SWEEP, (), ())],
    "sweeps": [("qae-sweep", {"sweeps": [SWEEP]}, (), ())],
    "load": [("dist load", {"distribution": GAUSSIAN_2Q}, (), ())],
    "metrics": [("dist metrics", METRICS, (), ())],
    "train": [("dist train", {"target": {"pdf": "gaussian"}, "n_qubits": 2, "x_l": -2.0,
                              "n_layers": 1, "seed": 1}, (), ())],
    "instrument": [
        ("estimate", {**ESTIMATE, "instrument": BARRIER}, ("instrument",),
         ("barrier_ratio", "q_budget")),
        ("estimate", {**ESTIMATE, "distribution": {**GAUSSIAN_2Q, "x_l": 0.0, "delta": 1.0},
                      "instrument": {**BARRIER, "space": "price"}}, ("instrument",),
         ("barrier_ratio", "q_budget")),
        ("estimate", {**ESTIMATE, "instrument": AUTOCALLABLE}, ("instrument",),
         ("autocall_schedule", "q_budget"))],
}
TABLES = {**cli.TABLES, "instrument": INSTRUMENT_TABLE}
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_table_has_a_base():
    assert set(BASES) == set(TABLES)


def _readme_keys(block: str) -> set:
    """The keys of the README table under the ``#### `block` `` heading."""
    section = README.split(f"#### `{block}`\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.M))


def _with(cfg, path, key, value):
    """A copy of ``cfg`` with ``key`` of the block at ``path`` set or dropped."""
    cfg = json.loads(json.dumps(cfg))
    block = cfg
    for p in path:
        block = block[p]
    if value is MISSING:
        block.pop(key, None)
    else:
        block[key] = value
    return cfg


@pytest.mark.parametrize("block, key", [(b, k) for b in BASES for k in TABLES[b]])
def test_every_key_takes_only_what_its_table_accepts(block, key, tmp_path, monkeypatch):
    assert key in _readme_keys(block), f"README has no row for {block}.{key}"
    rule, default = TABLES[block][key]
    # a relative path "x" names a readable 4-entry PMF
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").write_text("0.25\n" * 4)
    wrong = []
    for j, (command, base, path, needs) in enumerate(BASES[block]):
        for i, value in enumerate(VALUES):
            if value is MISSING:
                accepted = default is not REQUIRED
            else:
                accepted = rule(value)
            if key in needs and (value is MISSING or value is None):
                accepted = False
            cfg_path = tmp_path / f"c{j}_{i}.json"
            cfg_path.write_text(json.dumps(_with(base, path, key, value)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command.split(), str(cfg_path),
                                 "--out-dir", str(tmp_path / f"o{j}_{i}")])
            # with no "distribution" or "sweeps" key, the config is itself the block
            named = key in err.getvalue() or value is MISSING and "missing keys" in err.getvalue()
            if not (code == 0 if accepted else code == 2 and named):
                shown = "missing" if value is MISSING else repr(value)
                wrong.append(f"base {j}, {shown}: exit {code}, table "
                             f"{'accepts' if accepted else 'rejects'}, stderr "
                             f"{err.getvalue().strip()!r}")
    assert not wrong, f"{block}.{key}:\n" + "\n".join(wrong)
