"""One workload process: set up, warm up, then run timed passes.

Started by ``run.py`` as a fresh interpreter, so that its set-up time covers
interpreter start, ``import lyapcum``, input generation and warm-up.  It
prints one JSON object on its last line of standard output.

Modes:
  setup    stop right before the first timed op (a set-up sample)
  measure  the untraced passes behind the end-to-end metrics
  trace    untraced passes, then the same number of traced passes
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it exposes one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_passes(wl, passes: int, runner, tracer=None) -> dict:
    """Closed loop over whole passes; gates run outside each op's timing."""
    latencies, failures = [], []
    op = 0
    for pass_idx in range(passes):
        for case in wl.cases:
            if tracer is not None:
                tracer.op = op
            start = time.perf_counter()
            try:
                out = runner(case)
                cause = None
            except Exception as exc:  # an op that raises is a failed op
                cause = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None  # gate calls are not part of the op
            if cause is None:
                try:
                    cause = wl.check(case, out)
                except Exception as exc:  # output too malformed to inspect
                    cause = f"gate: {type(exc).__name__}: {exc}"
            latencies.append(latency)
            if cause is not None:
                failures.append({"pass": pass_idx, "case": case.label, "cause": cause[:300]})
            op += 1
    ok_time = sum(latencies)
    per_case = len(wl.cases)
    return {
        "case_ms": {
            case.label: 1e3 * statistics.median(latencies[i::per_case])
            for i, case in enumerate(wl.cases)
        },
        "latencies": latencies,
        "failures": failures,
        "ops_per_s": (len(latencies) - len(failures)) / ok_time if ok_time else 0.0,
    }


def trace(wl, passes: int, name: str, seed: int) -> dict:
    in_process = getattr(wl, "run_in_process", wl.run)
    untraced = run_passes(wl, passes, in_process)
    if isinstance(wl, workloads.Cli):
        wl.bytes_out = 0  # count the traced passes only
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    try:
        traced = run_passes(wl, passes, in_process, tracer)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer)
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.ops"] = len(traced["latencies"])
    layers["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
    layers["trace.ops_per_s_traced"] = traced["ops_per_s"]
    layers["trace.overhead_frac"] = (
        1.0 - traced["ops_per_s"] / untraced["ops_per_s"] if untraced["ops_per_s"] else 0.0
    )
    if isinstance(wl, workloads.Cli):
        layers["cli.startup_s"] = statistics.median(wl.startup() for _ in range(3))
        layers["cli.bytes_out"] = wl.bytes_out
    spans_path = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    return {
        "layers": layers,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "latencies": untraced["latencies"] + traced["latencies"],
        "failures": untraced["failures"] + traced["failures"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], default="measure")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
        wl.warm()
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if args.mode == "measure":
            result.update(run_passes(wl, args.passes, wl.run))
        elif args.mode == "trace":
            result.update(trace(wl, args.passes, args.workload, args.seed))
        who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["ops_per_pass"] = len(wl.cases)
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
