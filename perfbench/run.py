"""Seeded benchmark of lyapcum: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics; ``--quick`` runs the workload at a small size.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
with the environment, every failed op and its cause, the tail percentile
and its sample count, and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Wall time of one pass at the commit that introduced the benchmark, on a
# 2-core Xeon with one BLAS thread.  A run makes round(seconds / pass time)
# whole passes, so that every commit does the same work per run and the
# latency percentiles are taken over the same mix of ops.
NOMINAL_PASS_S = {"roundtrip": 7.0, "structure": 3.0, "montecarlo": 1.7, "cli": 6.5}
SETUP_SAMPLES = 3
# every worker must have ended this long after the run started
RUN_DEADLINE_S = 175

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result.

    The worker gets its own process group, so that on timeout the CLI
    processes it started are killed with it.
    """
    env = dict(os.environ, **PINNED_ENV)
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, dict]:
    """Latency at the highest percentile with ten samples beyond it.

    With ten samples or fewer there is no such percentile; the maximum is
    reported and the description says so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    pct = 100.0 * (n - beyond) / n
    return ordered[n - 1 - beyond], {"percentile": round(pct, 2), "samples": n, "beyond": beyond}


def declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def select(values: dict, kind: str) -> dict:
    """Every metric BENCHMARK.json declares, with its declared unit.

    A layer the workload never calls has no spans; its per-layer figures
    are 0.  Every end-to-end metric must be measured.
    """
    names = [m["name"] for m in declared(kind)]
    if kind == "end_to_end" and any(name not in values for name in names):
        raise SystemExit(f"metrics not produced: {[n for n in names if n not in values]}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared(kind)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one pass, one set-up sample")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "lyapcum" / "__init__.py").is_file():
        print(f"no lyapcum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = 1 if args.quick else max(1, round(seconds / NOMINAL_PASS_S[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes)]
    if args.quick:
        common.append("--quick")

    report = {"workload": args.workload, "seed": args.seed, "passes": passes}
    if args.trace:
        result = spawn([*common, "--mode", "trace"], deadline)
        layers = result["layers"]
        metrics = select(layers, "per_layer")
        report["tracing_overhead"] = {
            "ops_per_s_untraced": layers["trace.ops_per_s_untraced"],
            "ops_per_s_traced": layers["trace.ops_per_s_traced"],
            "overhead_frac": layers["trace.overhead_frac"],
        }
        report["counts_base"] = f"totals over {passes} traced passes ({layers['trace.ops']} ops)"
        report["computed_not_measured"] = ["engine.solve_unknowns", "engine.solve_dense_bytes"]
        report["spans_file"] = result["spans_file"]
    else:
        samples = [] if args.quick else [
            spawn([*common, "--mode", "setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        result = spawn([*common, "--mode", "measure"], deadline)
        samples.append(result["setup_s"])
        lat = result["latencies"]
        tail_s, report["op_tail"] = tail(lat)
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = select(values, "end_to_end")
        report["setup_samples_s"] = samples
        report["case_median_ms"] = result["case_ms"]
        report["peak_rss_of"] = "largest child process" if args.workload == "cli" else "workload process"

    attempted = len(result["latencies"])
    failed = len(result["failures"])
    report["ops_per_pass"] = result["ops_per_pass"]
    report["failed_frac"] = failed / attempted
    report["failures"] = result["failures"]
    report["env"] = result["env"]
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
