"""Tests of the benchmark itself: quick mode, gates, accounting and tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["roundtrip", "structure", "montecarlo", "cli"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# zero while the module-level equitrek cache is warm, i.e. on every traced pass
ALWAYS_CACHED = {"graphs.equitrek_s"}


def quick_run(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: quick_run(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_end_to_end_metrics(workload):
    result = quick_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in DECLARED["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert len(result["metrics"]) == len(DECLARED["end_to_end"])


def test_quick_per_layer_metrics(traced):
    names = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    # every declared layer metric is produced by some workload
    seen = {k for r in traced.values() for k, v in r["metrics"].items() if v["value"]}
    assert set(names) - seen == ALWAYS_CACHED


def test_counts_repeat_exactly(traced):
    again = quick_run("structure", 1)
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] in ("count", "B")]
    for name in counts:
        assert again["metrics"][name] == traced["structure"]["metrics"][name], name


def test_layer_split(traced):
    """The intended split holds at quick size too."""
    def m(w, name):
        return traced[w]["metrics"][name]["value"]

    selfs = [m("roundtrip", f"{mod}.self_s") for mod in tracing.MODULES]
    assert m("montecarlo", "engine.sim_s") == max(m("montecarlo", f"{mod}.self_s") for mod in tracing.MODULES)
    assert m("roundtrip", "engine.self_s") == max(selfs)
    assert (m("structure", "jacobian.self_s") + m("structure", "constraints.self_s")
            > m("structure", "engine.self_s"))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# gates reject corrupted outputs
# ---------------------------------------------------------------------------


def test_roundtrip_gate(tmp_path):
    wl = workloads.Roundtrip(7, True, tmp_path)
    case = next(c for c in wl.cases if c.g.p == 4)
    stack, report = wl.run(case)
    assert wl.check(case, (stack, report)) is None

    bad_stack = copy.deepcopy(stack)
    key = next(iter(bad_stack.t.values))
    bad_stack.t.values[key] += 1e-3
    assert "residual" in wl.check(case, (bad_stack, report))

    flipped = copy.deepcopy(report)
    flipped.verdict = "degenerate"
    assert "verdict" in wl.check(case, (stack, flipped))

    wrong_a = copy.deepcopy(report)
    wrong_a.a = wrong_a.a + 1e-3 * (wrong_a.a != 0)
    assert "recovered A" in wl.check(case, (stack, wrong_a))


def test_structure_gate(tmp_path):
    wl = workloads.Structure(7, True, tmp_path)
    tree = next(c for c in wl.cases if c.tree_stack is not None)
    out = wl.run(tree)
    assert wl.check(tree, out) is None

    flipped = copy.deepcopy(out)
    flipped.verdict.verdict = workloads.RD
    assert "verdict" in wl.check(tree, flipped)

    bad_binomial = copy.deepcopy(out)
    vec, _, scale = bad_binomial.binomials[0]
    bad_binomial.binomials[0] = (vec, 1e-3 * scale, scale)
    assert "binomial" in wl.check(tree, bad_binomial)

    independent = next(c for c in wl.cases if c.label.startswith("two-cycles-p4"))
    out = wl.run(independent)
    assert out.marginal and wl.check(independent, out) is None
    i, j = out.marginal[0]
    out.stack.s.values[(min(i, j), max(i, j))] = 0.5
    assert "independence" in wl.check(independent, out)


def test_montecarlo_gate(tmp_path):
    wl = workloads.MonteCarlo(7, True, tmp_path)
    case = wl.cases[0]
    est = wl.run(case)
    assert wl.check(case, est) is None
    shifted = copy.deepcopy(est)
    key = next(iter(shifted.estimate.values))
    shifted.estimate.values[key] += 10.0 * case.exact.max_abs()
    assert "estimate" in wl.check(case, shifted)


def test_cli_gate(tmp_path):
    wl = workloads.Cli(7, True, tmp_path)
    cumulants, identify = wl.cases[0], wl.cases[1]
    assert wl.check(cumulants, wl.run_in_process(cumulants)) is None
    good = wl.run_in_process(identify)
    assert wl.check(identify, good) is None

    assert "exit code" in wl.check(identify, workloads.CliOutput(4, good.data))
    assert "parse" in wl.check(identify, workloads.CliOutput(0, b"{not json"))
    doc = json.loads(good.data)
    doc["report"]["verdict"] = "degenerate"
    flipped = json.dumps(doc, indent=2, sort_keys=True).encode()
    assert "verdict" in wl.check(identify, workloads.CliOutput(0, flipped))
    # a well-formed report that differs from the earlier run's bytes
    drifted = good.data.replace(b'"seed"', b'"seed" ', 1)
    assert "bytes differ" in wl.check(identify, workloads.CliOutput(0, drifted))


class _Stub(workloads.Workload):
    """One case passes, one raises, one fails its gate, one breaks its gate."""

    def __init__(self):
        self.cases = [SimpleNamespace(label=label) for label in ("ok", "raises", "wrong", "malformed")]

    def run(self, case):
        if case.label == "raises":
            raise ValueError("boom")
        return case.label

    def check(self, case, out):
        if out == "malformed":
            return {}["report"]
        return None if out == "ok" else "wrong output"


def test_failed_ops_are_counted():
    result = worker.run_passes(_Stub(), 2, _Stub().run)
    assert len(result["latencies"]) == 8
    causes = ["ValueError: boom", "wrong output", "gate: KeyError: 'report'"]
    assert [f["cause"] for f in result["failures"]] == causes * 2
    assert result["ops_per_s"] == pytest.approx(2 / sum(result["latencies"]))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_restores_originals():
    import lyapcum
    import lyapcum.jacobian
    from lyapcum.tensors import SymmetricTensor

    before = (lyapcum.solve_cumulant, lyapcum.jacobian.solve_cumulant,
              SymmetricTensor.__dict__["from_dense"], workloads.model_stack)
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    assert lyapcum.jacobian.solve_cumulant is not before[1]
    assert workloads.model_stack is not before[3]
    tracer.uninstall()
    after = (lyapcum.solve_cumulant, lyapcum.jacobian.solve_cumulant,
             SymmetricTensor.__dict__["from_dense"], workloads.model_stack)
    assert after == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("identify.auto_identify", 0.0, 10.0, -1, 0),
        tracing.Span("engine.solve_cumulant", 1.0, 4.0, 0, 0),
        tracing.Span("tensors.SymmetricTensor.from_dense", 2.0, 3.0, 1, 0),
        tracing.Span("engine.recover_noise", 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
