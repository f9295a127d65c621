"""Tier-2 check of the byte contract across CPU classes: replay the byte
corpus in a new process under each setting below, each beside a replay in
the unchanged environment, and print every output file that moved with its
largest numeric |delta| (``test_byte_corpus.difference``).  The settings
emulate other x86-64 machines on this one: OpenBLAS kernels, BLAS thread
counts and numpy without its AVX-512 dispatch targets.  Some of them move
files today, so this is not part of the tier-1 suite.

    python tests/replay_cpu_classes.py

Each setting's line names the environment record the replay ran under.
The exit status is the number of settings that moved any file.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import test_byte_corpus as corpus

NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
SETTINGS = [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Zen"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    *({"OPENBLAS_NUM_THREADS": str(n)} for n in (1, 3, 4, 8)),
    NO_AVX512,
    {"OPENBLAS_CORETYPE": "Zen", "OPENBLAS_NUM_THREADS": "4", **NO_AVX512},
]


def environment_under(env: dict) -> dict:
    """``test_byte_corpus.environment()`` in a new process with ``env``."""
    code = (f"import sys, json; sys.path.insert(0, {os.path.dirname(corpus.CORPUS)!r}); "
            "import test_byte_corpus as t; print(json.dumps(t.environment()))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, **env},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    moved = 0
    for env in SETTINGS:
        print(f"== {env}: {environment_under(env)}", flush=True)
        moved += corpus.compare(root, env)
        sys.stdout.flush()
    sys.exit(moved)
