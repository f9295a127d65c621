"""The byte contract across commits: a fixed corpus of CLI configs under
``tests/byte_corpus/`` replays through ``qmci.cli.main``, and every output
file must match the SHA-256 and size recorded in the manifest.

A change that moves output bytes on purpose re-captures the manifest in
the same commit and logs which files moved:

    PYTHONPATH=src python tests/test_byte_corpus.py --capture

To see how far the outputs of another source tree are from this one's,
replay the corpus under both (each in its own process) and print, for
every file that moved, the largest numeric |delta| over its JSON leaves or
CSV cells, or "text differs"; the exit status is non-zero if any moved:

    python tests/test_byte_corpus.py --compare <tree>

``tests/replay_cpu_classes.py`` compares replays of this tree under other
CPU classes the same way.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "byte_corpus")
MANIFEST = os.path.join(CORPUS, "manifest.json")
# corpus subdirectory -> CLI words
COMMANDS = {"estimate": ["estimate"], "qae-sweep": ["qae-sweep"],
            "resources": ["resources"], "train": ["dist", "train"]}


def environment() -> dict:
    """The versions and CPU class the output bytes were seen to depend on:
    numpy's CPU dispatch targets found on this machine, and the core and
    thread count of numpy's bundled OpenBLAS (None for another BLAS)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = ctypes.CDLL(umath.__file__)  # its symbols include those of the BLAS it links
    try:
        corename, threads = blas.scipy_openblas_get_corename64_, blas.scipy_openblas_get_num_threads64_
    except AttributeError:
        core = n_threads = None
    else:
        corename.argtypes = threads.argtypes = []
        corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
        core, n_threads = corename().decode(), threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
            "blas_core": core, "blas_threads": n_threads}


def replay(work_dir: str) -> dict:
    """{"<command>/<config>/<output file>": {"sha256", "size"}} of one
    replay of the whole corpus, with outputs written under ``work_dir``."""
    from qmci.cli import main  # imported here so that --compare picks each tree's

    files = {}
    for sub, words in sorted(COMMANDS.items()):
        for name in sorted(os.listdir(os.path.join(CORPUS, sub))):
            stem = os.path.splitext(name)[0]
            out = os.path.join(work_dir, sub, stem)
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI lists its outputs
                rc = main([*words, os.path.join(CORPUS, sub, name), "--out-dir", out])
            assert rc == 0, f"{sub}/{name} exited {rc}"
            for fn in sorted(os.listdir(out)):
                with open(os.path.join(out, fn), "rb") as f:
                    raw = f.read()
                files[f"{sub}/{stem}/{fn}"] = {
                    "sha256": hashlib.sha256(raw).hexdigest(), "size": len(raw)}
    return files


def test_corpus_outputs_match_manifest(tmp_path):
    with open(MANIFEST) as f:
        manifest = json.load(f)
    got = replay(str(tmp_path))
    want = manifest["files"]
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    if moved or missing or extra:
        lines = [f"moved: {k}" for k in moved] + [f"missing: {k}" for k in missing]
        lines += [f"not in manifest: {k}" for k in extra]
        env, rec = environment(), manifest["environment"]
        lines.insert(0, f"this environment: {env}\nthe manifest's:   {rec}" + (
            "" if env == rec else "\nthey differ, and bytes may move for that reason alone"))
        raise AssertionError("\n".join(lines))


def _replay_tree(src: str, out: str, env: dict | None = None) -> None:
    """Replay the corpus with the package under ``src`` in a new process,
    with ``env`` added to its environment variables."""
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(CORPUS)!r}); "
            f"import test_byte_corpus as t; t.replay({out!r})")
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _leaves(raw: bytes, name: str):
    """The file's values in order: JSON leaves or CSV cells, with numbers as
    floats; None if it is neither."""
    text = raw.decode()
    if name.endswith(".json"):
        out = []

        def walk(x):
            if isinstance(x, dict):
                for k in sorted(x):
                    out.append(k)
                    walk(x[k])
            elif isinstance(x, list):
                out.append(len(x))
                for v in x:
                    walk(v)
            else:
                out.append(float(x) if type(x) in (int, float) else x)
        walk(json.loads(text))
        return out
    if name.endswith(".csv"):
        out = []
        for row in csv.reader(io.StringIO(text)):
            out.append(len(row))
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    out.append(cell)
        return out
    return None


def difference(a: bytes, b: bytes, name: str) -> str:
    """The largest numeric |delta| between two versions of an output file,
    or "text differs" when they differ in anything but numbers."""
    x, y = _leaves(a, name), _leaves(b, name)
    if x is None or len(x) != len(y):
        return "text differs"
    worst = 0.0
    for u, v in zip(x, y):
        if isinstance(u, float) and isinstance(v, float):
            if u != v and not (math.isnan(u) and math.isnan(v)):
                d = abs(u - v)  # nan when only one side is nan
                worst = max(worst, math.inf if math.isnan(d) else d)
        elif u != v:
            return "text differs"
    return f"max |delta| = {worst:.3g}"


def compare(tree: str, env: dict | None = None) -> int:
    """Print every output file that differs between this tree and ``tree``,
    replayed with ``env`` added to its environment variables."""
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, "this"), os.path.join(tmp, "that")]
        _replay_tree(here, outs[0])
        _replay_tree(os.path.join(os.path.abspath(tree), "src"), outs[1], env)
        files = [sorted(os.path.relpath(os.path.join(d, f), out)
                        for d, _, fs in os.walk(out) for f in fs) for out in outs]
        moved = 0
        for rel in sorted(set(files[0]) | set(files[1])):
            if rel not in files[0] or rel not in files[1]:
                print(f"{rel}: only under {tree if rel in files[1] else here}")
                moved += 1
                continue
            raw = []
            for out in outs:
                with open(os.path.join(out, rel), "rb") as f:
                    raw.append(f.read())
            if raw[0] != raw[1]:
                print(f"{rel}: {difference(raw[0], raw[1], rel)}")
                moved += 1
        print(f"{moved} of {len(set(files[0]) | set(files[1]))} files moved")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        with tempfile.TemporaryDirectory() as tmp:
            record = {"environment": environment(), "files": replay(tmp)}
        with open(MANIFEST, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{len(record['files'])} files recorded in {MANIFEST}")
    elif len(sys.argv) == 3 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2]))
    else:
        sys.exit(__doc__)
