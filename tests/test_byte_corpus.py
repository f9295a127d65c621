"""The byte contract across commits: a fixed corpus of CLI configs under
``tests/byte_corpus/`` replays through ``qmci.cli.main``, and every output
file must match the SHA-256 and size recorded in the manifest.

A change that moves output bytes on purpose re-captures the manifest in
the same commit and logs which files moved:

    PYTHONPATH=src python tests/test_byte_corpus.py --capture
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from qmci.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "byte_corpus")
MANIFEST = os.path.join(CORPUS, "manifest.json")
COMMANDS = {"train": ["dist", "train"]}  # corpus subdirectory -> CLI words


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def replay(work_dir: str) -> dict:
    """{"<command>/<config>/<output file>": {"sha256", "size"}} of one
    replay of the whole corpus, with outputs written under ``work_dir``."""
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
        if env != rec:
            lines.insert(0, f"this environment {env} differs from the manifest's {rec}; "
                            "bytes may move for that reason alone")
        raise AssertionError("\n".join(lines))


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "files": replay(tmp)}
    with open(MANIFEST, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(record['files'])} files recorded in {MANIFEST}")
