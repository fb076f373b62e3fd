"""Seeded inputs, timed operations and correctness gates of the four workloads.

Each workload turns a seed into one *pass*: a fixed list of cases whose
structure (classes, sizes, orders) does not depend on the seed, so that the
cost of a pass is the same for every seed while graphs, parameters and
noise draws change with it.  ``run`` is the timed operation on one case;
``check`` is its correctness gate and runs outside the timed interval.  A
gate returns ``None`` for a correct output and a one-line cause otherwise.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lyapcum import (
    DirectedGraph,
    DisconnectedGraph,
    NoiseSpec,
    auto_identify,
    classify_star,
    count_equations_vs_parameters,
    implied_conditional_independence,
    implied_marginal_independence,
    kernel_binomial_values,
    local_identifiability_verdict,
    model_stack,
    random_omegas,
    rank_constraints_scan,
    recursive_residual,
    sample_stable_matrix,
    series_cumulant,
    simulate_and_estimate,
    solve_cumulant,
    toric_matrix,
)
from lyapcum.identify import CumulantStack

# relative tolerance of a recursive residual, against the tensor's max entry
RESIDUAL_RTOL = 1e-9
# absolute tolerance on recovered parameters (entries are O(1))
RECOVERY_ATOL = 1e-6
# a kernel binomial vanishes when |value| <= BINOMIAL_RTOL * its scale
BINOMIAL_RTOL = 1e-8
# an implied marginal independence needs |s_ij| <= ZERO_RTOL * max|S|
ZERO_RTOL = 1e-10
# Monte Carlo: |estimate - exact| <= MC_Z * stderr + MC_FLOOR * max|exact|.
# A run checks about 10^4 entries against 40-batch standard errors, so the
# gate aims at gross errors (wrong order, scale or sign), not calibration;
# seeds 0-59 never came near it.
MC_Z = 8.0
MC_FLOOR = 1e-3

# spectral radii are drawn from this range; see README.md for the upper end
RADIUS_RANGE = (0.2, 0.95)


# ---------------------------------------------------------------------------
# graph generators (seeded, benchmark-owned)
# ---------------------------------------------------------------------------


def relabeled(g: DirectedGraph, rng: np.random.Generator) -> DirectedGraph:
    return g.relabel([int(v) for v in rng.permutation(g.p)])


def loops(p: int) -> list[tuple[int, int]]:
    return [(v, v) for v in range(p)]


def random_dag_all_loops(rng: np.random.Generator, p: int) -> DirectedGraph:
    """Connected DAG with a self-loop at every vertex, about 2p edges."""
    while True:
        edges = [
            (i, j)
            for i, j in itertools.combinations(range(p), 2)
            if rng.uniform() < 2.0 / p
        ]
        g = DirectedGraph(p, edges + loops(p))
        if g.is_skeleton_connected:
            return relabeled(g, rng)


def random_polytree(rng: np.random.Generator, p: int) -> DirectedGraph:
    """Randomly oriented tree, loops at all sources and at some other vertices.

    At least one vertex stays without a loop, so the graph is handled by the
    polytree method rather than the all-loops DAG method.
    """
    tree = [(int(rng.integers(k)), k) for k in range(1, p)]
    edges = [(u, v) if rng.uniform() < 0.5 else (v, u) for u, v in tree]
    bare = DirectedGraph(p, edges)
    looped = set(bare.sources) | {v for v in range(p) if rng.uniform() < 0.4}
    unlooped = [v for v in range(p) if v not in bare.sources]
    if len(looped) == p:
        looped.discard(unlooped[int(rng.integers(len(unlooped)))])
    return relabeled(DirectedGraph(p, edges + [(v, v) for v in looped]), rng)


def two_node_graph(rng: np.random.Generator, both_loops: bool) -> DirectedGraph:
    src = int(rng.integers(2))
    edges = [(src, src), (src, 1 - src)]
    if both_loops:
        edges.append((1 - src, 1 - src))
    return DirectedGraph(2, edges)


def directed_cycle(rng: np.random.Generator, p: int) -> DirectedGraph:
    return relabeled(DirectedGraph(p, [(v, (v + 1) % p) for v in range(p)] + loops(p)), rng)


def two_cycle_components(rng: np.random.Generator, p: int) -> DirectedGraph:
    """p/2 disjoint pairs i <-> j, each with both self-loops."""
    edges = loops(p)
    for i in range(0, p - 1, 2):
        edges += [(i, i + 1), (i + 1, i)]
    return relabeled(DirectedGraph(p, edges), rng)


def diamond(rng: np.random.Generator) -> DirectedGraph:
    """0->1, 0->2, 1->3, 2->3 with a loop at the source only."""
    return relabeled(DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 3)]), rng)


def sink_loop_chain(rng: np.random.Generator, p: int) -> DirectedGraph:
    """Directed path with a self-loop at the sink only."""
    return relabeled(
        DirectedGraph(p, [(v, v + 1) for v in range(p - 1)] + [(p - 1, p - 1)]), rng
    )


def random_sparse_cyclic(rng: np.random.Generator, p: int) -> DirectedGraph:
    """Connected digraph with all loops, 3p/2 other edges and a directed cycle."""
    slots = [(i, j) for i in range(p) for j in range(p) if i != j]
    while True:
        picks = rng.choice(len(slots), size=(3 * p) // 2, replace=False)
        g = DirectedGraph(p, [slots[k] for k in picks] + loops(p))
        if g.is_skeleton_connected and not g.is_dag:
            return g


def source_looped_tree(rng: np.random.Generator, p: int) -> DirectedGraph:
    """Binary arborescence with a single self-loop at its root, relabeled.

    The shape is fixed per p: the rank scan's minor count depends on the
    shape (20 000 to 43 000 at p = 8), and a random shape made that the
    largest seed-to-seed cost difference of the structure workload.
    """
    edges = [((k - 1) // 2, k) for k in range(1, p)]
    return relabeled(DirectedGraph(p, edges + [(0, 0)]), rng)


def tree_series_terms(a, order: int) -> int:
    """Series length whose tail is below 1e-20 of every entry's first term.

    A source-looped tree has one equitrek shape per entry, so each entry is
    a geometric series in the source loop without cancellation; past the
    tree's depth (< p) the terms shrink by rho^order.  The library's default
    length bounds the absolute tail only, which leaves tiny entries, and
    the binomials built from them, with large relative errors.
    """
    rho = a.radius()
    return a.p + (int(np.ceil(-20.0 / (order * np.log10(rho)))) if rho > 0 else 0)


def draw_radius(rng: np.random.Generator) -> float:
    return float(rng.uniform(*RADIUS_RANGE))


def seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# roundtrip: forward model stack at orders 2-4, then auto_identify
# ---------------------------------------------------------------------------


@dataclass
class RoundtripCase:
    label: str
    g: DirectedGraph
    a: object
    omegas: dict


class Workload:
    """A pass of cases, the timed ``run`` and the ``check`` gate."""

    name = ""
    cases: list
    warmup: list

    def warm(self) -> None:
        """Run the warm-up cases once, untimed, gates included."""
        for case in self.warmup:
            self.check(case, self.run(case))


class Roundtrip(Workload):
    name = "roundtrip"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([1, seed])
        # graph classes with a constructive method, at every p from 2 to 8
        max_p = 4 if quick else 8
        graphs = [
            ("two-node-both-loops", two_node_graph(rng, True)),
            ("two-node-source-loop", two_node_graph(rng, False)),
        ]
        for p in range(3, max_p + 1):
            graphs.append((f"dag-all-loops-p{p}", random_dag_all_loops(rng, p)))
            graphs.append((f"polytree-p{p}", random_polytree(rng, p)))
        self.cases = []
        for label, g in graphs:
            radius = draw_radius(rng)
            a = sample_stable_matrix(g, seed=seed_of(rng), target_radius=radius)
            omegas = random_omegas(rng, g.p, (2, 3, 4))
            self.cases.append(RoundtripCase(f"{label} rho={radius:.3f}", g, a, omegas))
        # the p <= 4 cases warm every code path, including the LAPACK solve
        self.warmup = [c for c in self.cases if c.g.p <= 4]

    def run(self, case: RoundtripCase):
        stack = model_stack(case.a, case.omegas)
        return stack, auto_identify(case.g, stack)

    def check(self, case: RoundtripCase, output) -> str | None:
        stack, report = output
        for n, omega in case.omegas.items():
            tensor = stack.tensor(n)
            resid = recursive_residual(tensor, case.a, omega)
            if not resid <= RESIDUAL_RTOL * max(1.0, tensor.max_abs()):
                return f"order-{n} recursive residual {resid:.3g}"
        if report.verdict != "recovered":
            return f"verdict {report.verdict!r} ({report.detail or report.forward_residuals})"
        err = float(np.max(np.abs(np.asarray(report.a) - case.a.entries)))
        if not err <= RECOVERY_ATOL:
            return f"recovered A off by {err:.3g}"
        return None


# ---------------------------------------------------------------------------
# structure: the structural report computed through the library
# ---------------------------------------------------------------------------


@dataclass
class StructureCase:
    label: str
    g: DirectedGraph
    a: object
    omegas: dict
    seed: int
    known_verdict: str | None
    tree_stack: CumulantStack | None = None


@dataclass
class StructureResult:
    star: object
    marginal: list
    conditional: list
    verdict: object
    count: object
    stack: CumulantStack
    scan: list
    binomials: list | None


LI = "locally-identifiable"
RD = "rank-deficient"


class Structure(Workload):
    name = "structure"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([2, seed])
        # (label, graph, known local-identifiability verdict or None).  Known
        # verdicts: connected all-loop graphs and source-looped trees are
        # identifiable; the diamond and the two-node sink-loop chain are the
        # rank-deficient negative controls; two-cycle pairs are identifiable
        # through the fourth-order augmentation rows.
        big = 4 if quick else 8
        mid = 4 if quick else 6
        graphs = [
            ("cycle-p4", directed_cycle(rng, 4), LI),
            (f"cycle-p{big}", directed_cycle(rng, big), LI),
            ("two-cycles-p2", two_cycle_components(rng, 2), LI),
            (f"two-cycles-p{mid}", two_cycle_components(rng, mid), LI),
            ("diamond-p4", diamond(rng), RD),
            ("sink-loop-chain-p2", sink_loop_chain(rng, 2), RD),
            ("sink-loop-chain-p5", sink_loop_chain(rng, 5), None),
            (f"sink-loop-chain-p{big}", sink_loop_chain(rng, big), None),
            ("sparse-cyclic-p5", random_sparse_cyclic(rng, 5), LI),
            (f"sparse-cyclic-p{big}", random_sparse_cyclic(rng, big), LI),
            ("tree-p4", source_looped_tree(rng, 4), LI),
            (f"tree-p{mid}", source_looped_tree(rng, mid), LI),
            (f"tree-p{big}", source_looped_tree(rng, big), LI),
        ]
        self.cases = []
        for label, g, known in graphs:
            radius = draw_radius(rng)
            a = sample_stable_matrix(g, seed=seed_of(rng), target_radius=radius)
            omegas = random_omegas(rng, g.p, (2, 3, 4))
            case = StructureCase(
                f"{label} rho={radius:.3f}",
                g,
                a,
                {n: omegas[n] for n in (2, 3)},
                seed_of(rng) % 10_000,
                known,
            )
            if label.startswith("tree"):
                # the binomials' stack is an input, made by the truncated
                # series so set-up stays free of p^4 dense solves
                case.tree_stack = CumulantStack(
                    *(series_cumulant(a, omegas[n], tree_series_terms(a, n)) for n in (2, 3, 4))
                )
            self.cases.append(case)
        self.warmup = [c for c in self.cases if c.g.p <= 4]

    def run(self, case: StructureCase) -> StructureResult:
        g = case.g
        try:
            star = classify_star(g)
        except DisconnectedGraph:
            star = None
        pairs = list(itertools.combinations(range(g.p), 2))
        marginal = [(i, j) for i, j in pairs if implied_marginal_independence(g, [i], [j])]
        conditional = [
            (i, j, k)
            for i, j in pairs
            for k in range(g.p)
            if k not in (i, j) and implied_conditional_independence(g, [i], [j], [k])
        ]
        verdict = local_identifiability_verdict(g, trials=5, seed=case.seed)
        count = count_equations_vs_parameters(g, 4)
        stack = model_stack(case.a, case.omegas)
        scan = rank_constraints_scan(g, stack, max_subset=2)
        binomials = None
        if case.tree_stack is not None:
            binomials = kernel_binomial_values(toric_matrix(g, 4), case.tree_stack)
        return StructureResult(
            star, marginal, conditional, verdict, count, stack, scan, binomials
        )

    def check(self, case: StructureCase, out: StructureResult) -> str | None:
        if case.known_verdict is not None and out.verdict.verdict != case.known_verdict:
            return f"verdict {out.verdict.verdict!r}, known {case.known_verdict!r}"
        if not out.count.bound_satisfied and out.verdict.verdict == LI:
            return "identifiable verdict although parameters exceed equations"
        s = out.stack.s
        for i, j in out.marginal:
            if not abs(s[(i, j)]) <= ZERO_RTOL * s.max_abs():
                return f"implied independence {i},{j} but s_ij = {s[(i, j)]:.3g}"
        if case.tree_stack is not None:
            if not out.binomials:
                return "tree without kernel binomials"
            for _, value, scale in out.binomials:
                if not abs(value) <= BINOMIAL_RTOL * scale:
                    return f"kernel binomial {value:.3g} at scale {scale:.3g}"
        return None


# ---------------------------------------------------------------------------
# montecarlo: simulate_and_estimate against the exact solve
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloCase:
    label: str
    a: object
    noise: NoiseSpec
    order: int
    seed: int
    exact: object


class MonteCarlo(Workload):
    name = "montecarlo"
    burn_in = 1_000

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([3, seed])
        max_p = 4 if quick else 8
        self.t_max = 3_000 if quick else 30_000
        self.cases = []
        for p in range(2, max_p + 1):
            for order in (2, 3):
                g = random_sparse_cyclic(rng, p) if p >= 3 else directed_cycle(rng, 2)
                radius = float(rng.uniform(0.2, 0.9))
                a = sample_stable_matrix(g, seed=seed_of(rng), target_radius=radius)
                # both kinds at both orders over the pass; Gaussian order 3 is
                # the zero-cumulant control
                kind = "gaussian" if (p + order) % 2 == 0 else "centered_exponential"
                noise = NoiseSpec(kind, rng.uniform(0.5, 1.5, p))
                exact = solve_cumulant(a, noise.cumulant(order))
                self.cases.append(
                    MonteCarloCase(
                        f"p{p} order{order} {kind} rho={radius:.3f}",
                        a, noise, order, seed_of(rng), exact,
                    )
                )
        self.warmup = self.cases[:2]

    def run(self, case: MonteCarloCase):
        return simulate_and_estimate(
            case.a, case.noise, self.t_max, self.burn_in, case.order, case.seed
        )

    def check(self, case: MonteCarloCase, est) -> str | None:
        floor = MC_FLOOR * max(case.exact.max_abs(), 1e-300)
        for key in case.exact.keys():
            dev = abs(est.estimate[key] - case.exact[key])
            if not dev <= MC_Z * est.stderr[key] + floor:
                return (
                    f"entry {key}: estimate {est.estimate[key]:.4g} vs exact "
                    f"{case.exact[key]:.4g} (stderr {est.stderr[key]:.3g})"
                )
        return None


# ---------------------------------------------------------------------------
# cli: one `python -m lyapcum.cli` subprocess per op
# ---------------------------------------------------------------------------


@dataclass
class CliCase:
    label: str
    command: str
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass
class CliOutput:
    code: int
    data: bytes
    stderr: str = ""


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Cli(Workload):
    name = "cli"

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([4, seed])
        self.root = Path(__file__).resolve().parent.parent
        self.env = cli_env(self.root)
        big, cyc = (4, 3) if quick else (8, 6)
        graphs = {
            f"dag{big}": random_dag_all_loops(rng, big),
            f"cycle{cyc}": directed_cycle(rng, cyc),
        }
        cli_seed = seed_of(rng) % 100_000
        self.cases = []
        for name, g in graphs.items():
            gpath = workdir / f"{name}.graph.json"
            gpath.write_text(json.dumps(g.to_json_dict()))
            common = ["--graph", str(gpath), "--seed", str(cli_seed)]
            stack = workdir / f"{name}.stack.json"
            self.cases += [
                CliCase(f"cumulants {name}", "cumulants",
                        ["cumulants", *common, "--orders", "2,3,4", "--out", str(stack)],
                        stack),
                # identify reads the stack the cumulants op of the pass wrote
                CliCase(f"identify {name}", "identify",
                        ["identify", *common, "--stack", str(stack), "--out",
                         str(workdir / f"{name}.identify.json")],
                        workdir / f"{name}.identify.json",
                        {"method": "dag-all-loops" if g.is_dag else "jacobian",
                         "stack": stack}),
                CliCase(f"analyze {name}", "analyze",
                        ["analyze", *common, "--trials", "5", "--out",
                         str(workdir / f"{name}.analyze.json")],
                        workdir / f"{name}.analyze.json"),
            ]
        ppoly = workdir / "ppoly.csv"
        self.cases.append(
            CliCase("ppoly", "ppoly", ["ppoly", "--xmax", "6", "--ymax", "6", "--out", str(ppoly)],
                    ppoly)
        )
        self.previous: dict[str, bytes] = {}
        self.bytes_out = 0

    def warm(self) -> None:
        """Start one CLI process so the first timed op finds warm caches."""
        self.startup()

    def startup(self) -> float:
        """Wall time of a CLI process that only starts, imports and exits."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "lyapcum.cli", "--version"],
            env=self.env, cwd=self.root, check=True, capture_output=True,
        )
        return time.perf_counter() - t0

    def run(self, case: CliCase) -> CliOutput:
        case.out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "lyapcum.cli", *case.argv],
            env=self.env, cwd=self.root, capture_output=True, text=True,
        )
        data = case.out.read_bytes() if case.out.exists() else b""
        return CliOutput(proc.returncode, data, proc.stderr[-300:])

    def run_in_process(self, case: CliCase) -> CliOutput:
        from lyapcum.cli import main

        case.out.unlink(missing_ok=True)
        code = main(list(case.argv))
        data = case.out.read_bytes() if case.out.exists() else b""
        self.bytes_out += len(data)
        return CliOutput(code, data)

    def check(self, case: CliCase, out: CliOutput) -> str | None:
        if out.code != 0:
            return f"exit code {out.code}: {out.stderr.strip()[-200:]}"
        cause = self._check_content(case, out.data)
        if cause is None:
            previous = self.previous.setdefault(case.label, out.data)
            if out.data != previous:
                cause = "report bytes differ from the previous run with the same seed"
        return cause

    def _check_content(self, case: CliCase, data: bytes) -> str | None:
        if case.command == "ppoly":
            rows = list(csv.reader(io.StringIO(data.decode())))
            if len(rows) != 8 or any(len(r) != 8 for r in rows):
                return f"ppoly table has shape {len(rows)} rows"
            return None
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return f"output does not parse: {exc}"
        if case.command == "cumulants":
            worst = max(doc["recursive_residuals"].values())
            scale = max(abs(v) for t in doc["tensors"].values() for v in t["entries"].values())
            if not worst <= RESIDUAL_RTOL * max(1.0, scale):
                return f"recursive residual {worst:.3g}"
        elif case.command == "identify":
            report = doc["report"]
            if report["method"] != case.expect["method"]:
                return f"method {report['method']!r}"
            if report["method"] == "jacobian":
                if report["verdict"] != LI:
                    return f"verdict {report['verdict']!r}"
            else:
                if report["verdict"] != "recovered":
                    return f"verdict {report['verdict']!r}"
                truth = np.asarray(json.loads(case.expect["stack"].read_bytes())["a"])
                err = float(np.max(np.abs(np.asarray(report["a"]) - truth)))
                if not err <= RECOVERY_ATOL:
                    return f"recovered A off by {err:.3g}"
        elif case.command == "analyze":
            verdict = doc["local_identifiability"]["verdict"]
            if verdict != LI:
                return f"verdict {verdict!r}"
        return None


WORKLOADS = {w.name: w for w in (Roundtrip, Structure, MonteCarlo, Cli)}
