"""Closed-loop benchmark of the ``qmci`` command line.

One client issues ``qmci.cli.main([...])`` calls in-process, each after
the previous one returned, for at least ``--seconds`` of request time
(whole blocks of the workload's fixed mix).  Outputs are checked against
exact references after the timed pass.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same requests untraced and
then traced, checks that both wrote identical bytes, and prints the
per-layer metrics.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import os

# One closed-loop client on one core: BLAS runs single-threaded as well
# (set before numpy loads its BLAS library).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the BLAS settings must precede numpy)
import contextlib
import ctypes
import glob
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3

sys.path.insert(0, HERE)
import workloads  # noqa: E402


# --------------------------------------------------------------------------
# environment and set-up


def _blas_threads():
    """Thread count of the OpenBLAS that numpy's wheel bundles, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "QMCI_THREADS": os.environ.get("QMCI_THREADS"),
        "workload_seed": seed,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import ``qmci.cli``.  Only the
    first run in a checkout compiles bytecode; the median leaves it out."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qmci.cli"], cwd=ROOT,
                       env=_child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def clear_module_caches():
    """Emulate a fresh process: empty the engine's memo tables."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("qmci."):
            for attr, value in vars(mod).items():
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()
                elif hasattr(value, "cache_clear"):
                    value.cache_clear()


# --------------------------------------------------------------------------
# the closed loop


def call_cli(argv: list) -> tuple[str, str]:
    """Run one request; returns (status, detail).  Nothing escapes."""
    import qmci.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qmci.cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        rc = e.code
    except Exception as e:  # noqa: BLE001 - a request failure, not a crash
        return f"exception:{type(e).__name__}", str(e)[:300]
    if rc == 0:
        return "ok", ""
    return (f"exit{rc}" if rc in (2, 3) else "exit_other"), err.getvalue()[-300:]


def run_pass(requests, seconds, workdir, tracer=None):
    """Issue requests until ``seconds`` of request time have passed, at a
    block boundary.  ``requests`` is an iterator of blocks or a list of
    requests (replayed in full).  Returns the per-request records."""
    records = []
    busy = 0.0
    blocks = requests if not isinstance(requests, list) else [requests]
    for block in blocks:
        for req in block:
            i = len(records)
            d = os.path.join(workdir, f"req{i:04d}")
            os.makedirs(d)
            cfg_path = os.path.join(d, "config.json")
            with open(cfg_path, "w") as f:
                json.dump(req.config, f)
            argv = [*req.argv, cfg_path, "--out-dir", os.path.join(d, "out")]
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            status, detail = call_cli(argv)
            dt = time.perf_counter() - t0
            busy += dt
            records.append({"req": req, "dir": d, "latency_s": dt, "status": status,
                            "detail": detail})
        if seconds is not None and busy >= seconds:
            break
    return records, busy


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _has_inf_string(o) -> bool:
    if isinstance(o, dict):
        return any(_has_inf_string(v) for v in o.values())
    if isinstance(o, list):
        return any(_has_inf_string(v) for v in o)
    return o in ("inf", "-inf")


def read_outputs(rec) -> dict:
    out = os.path.join(rec["dir"], "out")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    files = {}
    for n in names:
        with open(os.path.join(out, n), "rb") as f:
            files[n] = f.read()
    return files


def check(rec, checks) -> list:
    """Grade one request; sets its status and returns the check statistics."""
    if rec["status"] != "ok":
        return []
    files = read_outputs(rec)
    rec["bytes_out"] = sum(len(b) for b in files.values())
    docs = {}
    for name, raw in files.items():
        if name.endswith(".json"):
            try:
                docs[name] = json.loads(raw, parse_constant=_reject_constant)
            except ValueError as e:
                rec["status"], rec["detail"] = "bad_json", f"{name}: {e}"
                return []
            if _has_inf_string(docs[name]):
                rec["status"], rec["detail"] = "inf_string", name
                return []
    req = rec["req"]
    try:
        problems, stats = checks[req.kind](req, docs, files)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        problems, stats = [f"malformed output: {type(e).__name__}: {e}"], []
    if problems:
        rec["status"], rec["detail"] = "check_failed", "; ".join(problems)[:500]
    rec["stats"] = stats
    return stats


def traced_run(seconds, stream, checks, work):
    """Untraced pass for half the time, then the same requests traced.
    Both passes start from empty caches and must write identical bytes."""
    import layers
    from tracer import Tracer

    clear_module_caches()
    plain, busy_plain = run_pass(stream, seconds / 2, os.path.join(work, "plain"))
    clear_module_caches()
    tracer = Tracer()
    with tracer:
        records, busy = run_pass([r["req"] for r in plain], None, os.path.join(work, "traced"),
                                 tracer)
    differ = [i for i, (a, b) in enumerate(zip(plain, records))
              if (a["status"], read_outputs(a)) != (b["status"], read_outputs(b))]
    stats = [s for r in records for s in check(r, checks)]
    for i in differ:
        records[i]["status"] = "nondeterministic"
    metrics = layers.per_layer(tracer, records, stats, busy_plain, busy)
    result = {"busy_untraced_s": busy_plain, "busy_traced_s": busy,
              "trace_overhead_s": busy - busy_plain,
              "determinism": f"{len(records) - len(differ)} of {len(records)} requests "
                             "wrote identical bytes traced and untraced",
              "profile": layers.profile(tracer, records), "tracer": tracer}
    return records, metrics, result


# --------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank: (percentile, value, samples beyond)."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        raise SystemExit(f"only {n} requests: too few for a tail percentile")
    return 100.0 * (n - 10) / n, s[n - 11], 10


def end_to_end(records, busy, setup_times):
    lat = [r["latency_s"] for r in records]
    p, tail, beyond = tail_percentile(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (len(records) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"tail_percentile": p, "tail_samples_beyond": beyond, "latency_samples": len(lat)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmci", "cli.py")):
        print(f"error: no qmci sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QMCI_THREADS", None)  # the closed loop stays single-threaded
    sys.path.insert(0, SRC)
    import qmci.cli  # noqa: F401

    make_block, checks = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    stream = (make_block(rng, i) for i in itertools.count())
    env = environment(args.seed)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            records, metrics, result = traced_run(args.seconds, stream, checks, work)
            result["spans_file"] = os.path.relpath(os.path.join(OUT, tag + ".spans.jsonl"), ROOT)
            result.pop("tracer").write(os.path.join(ROOT, result["spans_file"]))
        else:
            setup_times = measure_setup()
            clear_module_caches()
            records, busy = run_pass(stream, args.seconds, work)
            metrics, tail_info = end_to_end(records, busy, setup_times)
            for r in records:
                check(r, checks)
            result = {"setup_times_s": setup_times, "busy_s": busy, **tail_info}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    graded = [s for r in records for s in r.get("stats", []) if "bound_breach" in s]
    result["graded_estimates"] = len(graded)
    result["bound_breaches"] = sum(s["bound_breach"] for s in graded)

    failed = [r for r in records if r["status"] != "ok"]
    by_status: dict = {}
    for r in failed:
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(records), "failed": len(failed), "failures_by_status": by_status,
        "failures": [{"request": i, "label": r["req"].label, "status": r["status"],
                      "detail": r["detail"], "config": r["req"].config}
                     for i, r in enumerate(records) if r["status"] != "ok"],
        "requests": [{"label": r["req"].label, "kind": r["req"].kind,
                      "latency_s": r["latency_s"], "status": r["status"],
                      "checks": r.get("stats", [])} for r in records],
        **result,
    }
    path = os.path.join(OUT, tag + ".json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} blas_threads {env['blas_threads']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:.6g} {u}")
    print(f"  {'fail_frac':<44} {len(failed) / max(1, len(records)):.6g} ratio "
          f"({len(failed)} of {len(records)}{', ' + str(by_status) if by_status else ''})")
    for k in ("tail_percentile", "tail_samples_beyond", "bound_breaches", "graded_estimates",
              "trace_overhead_s", "determinism", "profile"):
        if k in result:
            print(f"  {k}: {result[k]}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
