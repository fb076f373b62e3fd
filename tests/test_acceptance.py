"""Acceptance suite: one pass/fail line per criterion, each at its stated
tolerance and runtime budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines."""

import itertools
import time

import numpy as np
import pytest

from lyapcum import (
    DiagonalCumulant,
    DirectedGraph,
    HypothesisViolated,
    NoiseSpec,
    ParameterMatrix,
    SingularBlock,
    build_modified_jacobian,
    base_trek_cumulant,
    count_equations_vs_parameters,
    effective_matrix,
    identify_dag_all_loops,
    identify_polytree,
    level_polynomial_checks,
    local_identifiability_verdict,
    model_stack,
    offdiag_rank,
    placement_polynomial,
    random_omegas,
    rank_constraints_scan,
    sample_stable_matrix,
    simulate_and_estimate,
    solve_cumulant,
    series_cumulant,
    top_trek_polynomial_check,
    toric_matrix,
    tree_equivalence,
)
from lyapcum.identify import NoMethodApplies, auto_identify
from lyapcum.jacobian import augmentation_rows, numeric_rank
from lyapcum.tensors import multiset_indices
from oracles import check_placement_recursions, jacobian_entry_order2, jacobian_entry_order3
from conftest import (
    bare_two_cycle,
    diamond,
    end_loop_path,
    five_node_tree,
    fork_three,
    four_node_tree,
    sink_loop_chain,
    two_cycle_with_loops,
    two_node_chain,
    unit_noise,
    unit_parameters,
)


class Criterion:
    def __init__(self, name: str, budget_s: float | None = None):
        self.name = name
        self.budget = budget_s
        self.start = time.monotonic()
        self.failures: list[str] = []

    def check(self, ok: bool, label: str):
        if not ok:
            self.failures.append(label)

    def finish(self):
        elapsed = time.monotonic() - self.start
        status = "PASS" if not self.failures else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        print(f"\n[{status}] {self.name}: {elapsed:.1f}s{budget}")
        for failure in self.failures:
            print(f"    failed: {failure}")
        assert not self.failures, self.failures
        if self.budget is not None:
            assert elapsed < self.budget, f"runtime {elapsed:.1f}s over budget"


def fig1_pm() -> ParameterMatrix:
    return ParameterMatrix(two_node_chain(), np.array([[0.5, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# criterion 1: worked-example exactness
# ---------------------------------------------------------------------------

# shortest-equitrek exponent table of the four-node tree at order 3: rows are
# v2(0..3), v3(0..3), then the edges (0,0), (0,1), (1,2), (1,3); columns are
# the 10 + 20 canonical multisets
TREE_EXPONENT_TABLE = np.array([
    [1,1,1,1,0,1,1,0,0,0] + [0]*20,
    [0,0,0,0,1,0,0,0,1,0] + [0]*20,
    [0,0,0,0,0,0,0,1,0,0] + [0]*20,
    [0,0,0,0,0,0,0,0,0,1] + [0]*20,
    [0]*10 + [1,1,1,1,1,1,1,1,1,1,0,1,1,1,1,1,0,0,0,0],
    [0]*10 + [0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,1,1,0],
    [0]*10 + [0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0],
    [0]*10 + [0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1],
    [0,1,2,2,0,1,1,0,0,0] + [0,2,4,4,1,3,3,2,2,2,0,2,2,1,1,1,0,0,0,0],
    [0,1,1,1,0,2,2,0,0,0] + [0,1,1,1,2,2,2,2,2,2,0,3,3,3,3,3,0,0,0,0],
    [0,0,1,0,0,1,0,0,1,0] + [0,0,1,0,0,1,0,2,1,0,0,1,0,2,1,0,0,2,1,0],
    [0,0,0,1,0,0,1,0,1,0] + [0,0,0,1,0,0,1,0,1,2,0,0,1,0,1,2,0,1,2,0],
])

# placement polynomials for leg distances 0..3, as coefficient lists in t^2
PLACEMENT_TABLE = {
    (0, 0): [1], (0, 1): [1], (0, 2): [1], (0, 3): [1],
    (1, 1): [1, 1], (1, 2): [2, 1], (1, 3): [3, 1],
    (2, 2): [1, 4, 1], (2, 3): [3, 6, 1],
    (3, 3): [1, 9, 9, 1],
}


def test_criterion_1_worked_example_exactness():
    crit = Criterion("worked-example exactness", budget_s=5.0)

    # (a) two-node chain closed forms at a00=1/2, a10=1, unit noise
    pm = fig1_pm()
    s = solve_cumulant(pm, DiagonalCumulant(2, [1.0, 1.0]))
    t = solve_cumulant(pm, DiagonalCumulant(3, [1.0, 1.0]))
    closed = {
        (0, 0): 4 / 3, (0, 1): 2 / 3, (1, 1): 7 / 3,
        (0, 0, 0): 8 / 7, (0, 0, 1): 2 / 7, (0, 1, 1): 4 / 7, (1, 1, 1): 15 / 7,
    }
    for key, expected in closed.items():
        got = s[key] if len(key) == 2 else t[key]
        crit.check(
            abs(got - expected) <= 1e-12 * abs(expected),
            f"closed form {key}: {got} vs {expected}",
        )

    # (b) determinant of the {1,0} x {3,0} covariance block
    g4 = DirectedGraph(4, [(0, 1), (0, 3), (2, 3)] + [(i, i) for i in range(4)])
    s4 = solve_cumulant(
        unit_parameters(g4, diag=0.5, off=1.0), DiagonalCumulant(2, np.ones(4))
    ).to_dense()
    det = float(np.linalg.det(s4[np.ix_([1, 0], [3, 0])]))
    crit.check(abs(det - 256 / 81) <= 1e-12 * (256 / 81), f"det = {det}")

    # (c) the cubic binomial vanishes on 100 random two-node-chain points
    g = two_node_chain()
    for seed in range(100):
        a = sample_stable_matrix(g, seed=seed, target_radius=0.6)
        omegas = random_omegas(np.random.default_rng(seed + 10_000), 2, (2, 3))
        stack = model_stack(a, omegas)
        lhs = stack.s[(0, 1)] ** 3 * stack.t[(0, 0, 0)] ** 2
        rhs = stack.s[(0, 0)] ** 3 * stack.t[(0, 0, 1)] * stack.t[(0, 1, 1)]
        scale = max(abs(lhs), abs(rhs), 1e-300)
        crit.check(
            abs(lhs - rhs) <= 1e-10 * scale, f"binomial at seed {seed}: {lhs - rhs}"
        )

    # (d) the 12 x 30 exponent table of the four-node tree, entry for entry
    tm = toric_matrix(four_node_tree(), 3)
    crit.check(tm.matrix.shape == (12, 30), f"toric shape {tm.matrix.shape}")
    crit.check(
        bool(np.array_equal(tm.matrix, TREE_EXPONENT_TABLE)),
        "toric exponent table mismatch",
    )

    # (e) all 16 placement polynomials of the four-vertex path
    for x in range(4):
        for y in range(4):
            expected = PLACEMENT_TABLE[(min(x, y), max(x, y))]
            crit.check(
                placement_polynomial(x, y) == expected,
                f"placement polynomial ({x},{y})",
            )
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 2: solver oracle equivalence
# ---------------------------------------------------------------------------


def all_edge_patterns(p: int, limit: int, seed: int):
    """Every edge subset when feasible, otherwise a seeded sample."""
    slots = [(i, j) for i in range(p) for j in range(p)]
    total = 2 ** len(slots)
    if total <= limit:
        picks = range(total)
    else:
        picks = np.random.default_rng(seed).choice(total, size=limit, replace=False)
    for mask in picks:
        yield [slots[k] for k in range(len(slots)) if (int(mask) >> k) & 1]


def test_criterion_2_solver_oracle_equivalence():
    crit = Criterion("solver oracle equivalence", budget_s=60.0)
    rng = np.random.default_rng(2)
    for p in (1, 2, 3, 4):
        for pattern in all_edge_patterns(p, limit=20, seed=p):
            g = DirectedGraph(p, pattern)
            a = (
                sample_stable_matrix(g, seed=int(rng.integers(1e6)), target_radius=0.6)
                if pattern
                else ParameterMatrix(g, np.zeros((p, p)))
            )
            for order in (2, 3, 4):
                omega = DiagonalCumulant(order, rng.uniform(0.5, 2, p))
                exact = solve_cumulant(a, omega)
                series = series_cumulant(a, omega, 200)
                scale = max(exact.max_abs(), 1e-300)
                dev = max(abs(exact[k] - series[k]) for k in exact.keys()) / scale
                crit.check(dev <= 1e-10, f"p={p} order={order}: dev {dev:.2e}")
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 3: identification round trips
# ---------------------------------------------------------------------------


def dag_all_loops_family():
    loops = lambda p: [(i, i) for i in range(p)]
    return [
        DirectedGraph(3, loops(3) + [(0, 1), (1, 2)]),
        DirectedGraph(4, loops(4) + [(0, 1), (0, 2), (1, 3), (2, 3)]),
        DirectedGraph(5, loops(5) + [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]),
        DirectedGraph(6, loops(6) + [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 5)]),
        DirectedGraph(6, loops(6) + [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5)]),
    ]


def polytree_family():
    return [
        DirectedGraph(3, [(0, 0), (2, 2), (0, 1), (1, 2)]),
        four_node_tree(),
        five_node_tree(),
        DirectedGraph(4, [(0, 0), (1, 1), (0, 2), (1, 2), (2, 3)]),
        DirectedGraph(
            6, [(0, 0), (1, 1), (4, 4), (0, 2), (2, 3), (2, 4), (1, 4), (4, 5)]
        ),
    ]


def run_round_trips(crit, graphs, identifier, label, seeds_per_graph=20):
    for g_idx, g in enumerate(graphs):
        for seed in range(seeds_per_graph):
            a = sample_stable_matrix(g, seed=seed * 31 + g_idx, target_radius=0.6)
            omegas = random_omegas(
                np.random.default_rng(seed * 977 + g_idx), g.p, (2, 3, 4)
            )
            stack = model_stack(a, omegas)
            report = identifier(g, stack)
            err_a = float(np.max(np.abs(report.a - a.entries)))
            err_noise = max(
                float(np.max(np.abs(report.noise[n] - omegas[n].w))) for n in (2, 3, 4)
            )
            residual = max(report.forward_residuals.values())
            tag = f"{label} graph {g_idx} seed {seed}"
            crit.check(err_a <= 1e-6, f"{tag}: |A error| {err_a:.2e}")
            crit.check(err_noise <= 1e-6, f"{tag}: noise error {err_noise:.2e}")
            crit.check(residual <= 1e-8, f"{tag}: residual {residual:.2e}")


def test_criterion_3_identification_round_trips():
    crit = Criterion("identification round trips", budget_s=120.0)
    run_round_trips(crit, dag_all_loops_family(), identify_dag_all_loops, "dag")
    run_round_trips(crit, polytree_family(), identify_polytree, "polytree")
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 4: negative controls
# ---------------------------------------------------------------------------


def test_criterion_4_negative_controls():
    crit = Criterion("negative controls")

    # sink-loop chain: hypothesis rejection plus the 2(n-1) vs 2(n-1)+2 count
    g2a = sink_loop_chain()
    a2a = sample_stable_matrix(g2a, seed=1, target_radius=0.5)
    stack2a = model_stack(a2a, random_omegas(np.random.default_rng(1), 2))
    try:
        identify_polytree(g2a, stack2a)
        crit.check(False, "sink-loop chain was not rejected")
    except HypothesisViolated:
        pass
    count2a = count_equations_vs_parameters(g2a, 3)
    crit.check(count2a.equations == 2 * (3 - 1), "sink-loop equations")
    crit.check(count2a.params == 2 * (3 - 1) + 2, "sink-loop params")
    crit.check(not count2a.bound_satisfied, "sink-loop bound flag")

    # bare two-cycle: same count shape at every order, no method applies
    g2b = bare_two_cycle()
    a2b = ParameterMatrix(g2b, np.array([[0.0, 0.6], [0.7, 0.0]]))
    stack2b = model_stack(a2b, random_omegas(np.random.default_rng(2), 2))
    for n in (2, 3, 4):
        count2b = count_equations_vs_parameters(g2b, n)
        crit.check(
            count2b.equations == 2 * (n - 1) and count2b.params == 2 * (n - 1) + 2,
            f"two-cycle count at n={n}",
        )
        crit.check(not count2b.bound_satisfied, f"two-cycle bound flag n={n}")
    try:
        auto_identify(g2b, stack2b)
        crit.check(False, "two-cycle matched a constructive method")
    except NoMethodApplies:
        pass

    # diamond: singular block at the collider vertex, deficiency exactly 1
    gd = diamond()
    ad = sample_stable_matrix(gd, seed=3, target_radius=0.6)
    stackd = model_stack(ad, random_omegas(np.random.default_rng(3), 4))
    try:
        identify_dag_all_loops(gd, stackd)
        crit.check(False, "diamond did not hit a singular block")
    except SingularBlock as err:
        crit.check(err.vertex == 3, f"singular block at vertex {err.vertex}")
        crit.check(err.cond > 1e10, f"block condition {err.cond:.2e}")
    verdict = local_identifiability_verdict(gd, trials=4, seed=0)
    crit.check(verdict.verdict == "rank-deficient", f"diamond verdict {verdict.verdict}")
    crit.check(verdict.deficiency == 1, f"diamond deficiency {verdict.deficiency}")
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 5: jacobian suite
# ---------------------------------------------------------------------------


def premultiplied_fd(g, pm, omega, order, edge, step=1e-6):
    alpha, beta = edge
    base = pm.entries

    def solve_at(eps):
        entries = base.copy()
        entries[beta, alpha] += eps
        return solve_cumulant(ParameterMatrix(g, entries), omega).to_dense().reshape(-1)

    derivative = (solve_at(step) - solve_at(-step)) / (2 * step)
    kron = base
    for _ in range(order - 1):
        kron = np.kron(kron, base)
    return ((np.eye(g.p**order) - kron) @ derivative).reshape((g.p,) * order)


def unlabeled_tree_shapes():
    return {
        3: [[(0, 1), (1, 2)]],
        4: [[(0, 1), (1, 2), (2, 3)], [(1, 0), (1, 2), (1, 3)]],
        5: [
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            [(0, 1), (1, 2), (2, 3), (2, 4)],
            [(1, 0), (1, 2), (1, 3), (1, 4)],
        ],
    }


def random_connected_all_loops(rng, p):
    while True:
        edges = {(i, i) for i in range(p)}
        edges |= {
            (i, j)
            for i in range(p)
            for j in range(p)
            if i != j and rng.uniform() < 0.4
        }
        g = DirectedGraph(p, edges)
        if g.is_skeleton_connected:
            return g


def test_criterion_5_jacobian_suite():
    crit = Criterion("jacobian suite", budget_s=180.0)
    rng = np.random.default_rng(5)

    # entry formulas against premultiplied central differences
    for p in (2, 3, 4):
        g = random_connected_all_loops(rng, p)
        pm = sample_stable_matrix(g, seed=p, target_radius=0.5)
        for order, entry_fn in ((2, jacobian_entry_order2), (3, jacobian_entry_order3)):
            omega = DiagonalCumulant(order, rng.uniform(0.5, 2, p))
            tensor = solve_cumulant(pm, omega)
            for edge in list(g.sorted_edges)[:5]:
                numeric = premultiplied_fd(g, pm, omega, order, edge)
                for row in multiset_indices(p, order):
                    formula = entry_fn(pm.entries, tensor, row, edge)
                    ok = abs(formula - numeric[row]) <= 1e-5 * max(
                        1.0, abs(numeric[row])
                    )
                    crit.check(ok, f"entry p={p} order={order} row={row} edge={edge}")

    # the spanning-polytree computation: every orientation of the unlabeled
    # trees on 3..5 nodes certifies the complete graph's off-diagonal block
    # at full column rank p^2, which covers every connected all-loop graph
    # by column selection
    for p, shapes in unlabeled_tree_shapes().items():
        complete = DirectedGraph(p, [(i, j) for i in range(p) for j in range(p)])
        for shape in shapes:
            for signs in itertools.product([0, 1], repeat=len(shape)):
                entries = np.eye(p) * 0.5
                for (u, v), flip in zip(shape, signs):
                    a, b = (v, u) if flip else (u, v)
                    entries[b, a] = 1.0
                pm = ParameterMatrix(complete, entries)
                mj = build_modified_jacobian(complete, pm, model_stack(pm, unit_noise(p, (2, 3))))
                rank, _ = offdiag_rank(mj)
                crit.check(
                    rank == p * p,
                    f"polytree witness p={p} shape={shape} signs={signs}: rank {rank}",
                )

    # direct seeded spot checks on sampled connected all-loop graphs
    for p, n_graphs in ((3, 6), (4, 5), (5, 4)):
        for _ in range(n_graphs):
            g = random_connected_all_loops(rng, p)
            for seed in range(20):
                pm = sample_stable_matrix(g, seed=seed, target_radius=0.5)
                omegas = random_omegas(np.random.default_rng(seed + 77), p, (2, 3))
                rank, _ = offdiag_rank(build_modified_jacobian(g, pm, model_stack(pm, omegas)))
                crit.check(
                    rank == len(g.edges), f"sampled p={p} seed={seed}: rank {rank}"
                )

    # the half-diagonal pair fixture: every 3x3 submatrix has rank 3
    gc = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    pmc = ParameterMatrix(gc, np.array([[0.5, 0.0], [1.0, 0.5]]))
    mjc = build_modified_jacobian(gc, pmc, model_stack(pmc, unit_noise(2, (2, 3))))
    block = mjc.offdiag_a_block()
    for cols in itertools.combinations(range(4), 3):
        rank, _ = numeric_rank(block[:, cols])
        crit.check(rank == 3, f"3x3 submatrix {cols}: rank {rank}")

    # two-cycle deficiency at {2,3} repaired by the fourth-order rows
    gt = two_cycle_with_loops()
    pmt = sample_stable_matrix(gt, seed=9, target_radius=0.5)
    omegas23 = random_omegas(np.random.default_rng(11), 2, (2, 3))
    rank23, _ = offdiag_rank(build_modified_jacobian(gt, pmt, model_stack(pmt, omegas23)))
    crit.check(rank23 == 3, f"two-cycle rank at orders 2,3: {rank23}")
    omegas234 = random_omegas(np.random.default_rng(11), 2, (2, 3, 4))
    rank4, _ = offdiag_rank(
        build_modified_jacobian(
            gt, pmt, model_stack(pmt, omegas234), order4_rows=augmentation_rows(gt)
        )
    )
    crit.check(rank4 == 4, f"augmented two-cycle rank: {rank4}")
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 6: combinatorial identities
# ---------------------------------------------------------------------------


def test_criterion_6_combinatorial_identities():
    crit = Criterion("combinatorial identities")

    report = check_placement_recursions(10, 10)
    crit.check(report.ok, f"recursion failures: {report.failures[:3]}")

    rng = np.random.default_rng(6)
    for trial in range(10):
        p = int(rng.integers(3, 6))
        edges = [
            (i, j) for i in range(p) for j in range(i + 1, p) if rng.uniform() < 0.5
        ]
        if not edges:
            edges = [(0, 1)]
        g = DirectedGraph(p, edges)
        weights = {
            e: float(rng.uniform(0.3, 1.0) * rng.choice([-1, 1])) for e in g.edges
        }
        t_loop = float(rng.uniform(-0.6, 0.6))
        omega = DiagonalCumulant(2, rng.uniform(0.5, 2, p))
        direct = base_trek_cumulant(g, t_loop, weights, omega)
        exact = solve_cumulant(effective_matrix(g, t_loop, weights), omega)
        scale = max(exact.max_abs(), 1e-300)
        dev = max(abs(direct[k] - exact[k]) for k in exact.keys()) / scale
        crit.check(dev <= 1e-10, f"base-trek covariance trial {trial}: dev {dev:.2e}")

    for p, order in itertools.product((2, 3, 4), (3, 4)):
        path = DirectedGraph(p, [(k, k + 1) for k in range(p - 1)])
        weights = {(k, k + 1): 1.0 for k in range(p - 1)}
        omega = DiagonalCumulant(order, np.ones(p))
        direct = base_trek_cumulant(path, 0.5, weights, omega)
        exact = solve_cumulant(effective_matrix(path, 0.5, weights), omega)
        dev = max(abs(direct[k] - exact[k]) for k in exact.keys()) / exact.max_abs()
        print(
            f"    base-trek cumulant (path p={p}, order {order}): "
            f"max rel deviation {dev:.2e} "
            f"over {len(multiset_indices(p, order))} entries"
        )
        crit.check(
            dev <= 1e-12,
            f"order-{order} base-trek deviation on path p={p}",
        )
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 7: constraint suite
# ---------------------------------------------------------------------------


def test_criterion_7_constraint_suite():
    crit = Criterion("constraint suite")

    # rank bounds on 50 model points per fixture, tight at least once
    for g in (fork_three(), end_loop_path(), four_node_tree(), five_node_tree()):
        tight = False
        for seed in range(50):
            a = sample_stable_matrix(g, seed=seed, target_radius=0.6)
            stack = model_stack(
                a, random_omegas(np.random.default_rng(seed + 50), g.p)
            )
            results = rank_constraints_scan(g, stack, max_subset=2)
            tight = tight or any(
                r.rank == r.bound and r.bound < min(r.shape) for r in results
            )
        crit.check(tight, f"no tight bound on {sorted(g.edges)}")

    # level / top-trek polynomial families, both directions
    for g in (four_node_tree(), five_node_tree()):
        for seed in range(10):
            a = sample_stable_matrix(g, seed=seed, target_radius=0.6)
            stack = model_stack(
                a, random_omegas(np.random.default_rng(seed + 777), g.p)
            )
            for check in level_polynomial_checks(g, stack):
                crit.check(
                    check.ok,
                    f"level family {check.family} {check.indices} seed {seed}: "
                    f"{check.value:.2e} expected-zero={check.expected_zero}",
                )
            for i in range(g.p):
                for j in range(i, g.p):
                    for top in range(g.p):
                        check = top_trek_polynomial_check(g, stack, i, j, top)
                        crit.check(
                            check.ok,
                            f"top-trek ({i},{j},{top}) seed {seed}: "
                            f"{check.value:.2e} expected-zero={check.expected_zero}",
                        )

    # model equivalence decisions with the exact row-space cross-check
    g_swap = DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (2, 3)])
    h_swap = DirectedGraph(4, [(0, 0), (0, 2), (0, 1), (1, 3)])
    result = tree_equivalence(g_swap, h_swap)
    crit.check(result.equal and result.row_equivalence_checked, "swap fixture")
    crit.check(tree_equivalence(g_swap, g_swap).equal, "reflexivity")
    path3 = DirectedGraph(3, [(0, 0), (0, 1), (1, 2)])
    star3 = DirectedGraph(3, [(0, 0), (0, 1), (0, 2)])
    crit.check(not tree_equivalence(path3, star3).equal, "star vs path")
    g_tops = DirectedGraph(5, [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])
    h_tops = DirectedGraph(5, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 4)])
    crit.check(not tree_equivalence(g_tops, h_tops).equal, "different tops")
    crit.finish()


# ---------------------------------------------------------------------------
# criterion 8: monte carlo sanity
# ---------------------------------------------------------------------------


def test_criterion_8_monte_carlo_sanity():
    crit = Criterion("monte carlo sanity", budget_s=60.0)
    pm = fig1_pm()
    noise = NoiseSpec("centered_exponential", [1.0, 1.0])
    for order in (2, 3):
        exact = solve_cumulant(pm, noise.cumulant(order))
        est = simulate_and_estimate(
            pm, noise, t_max=2_000_000, burn_in=2000, order=order, seed=8
        )
        for key in exact.keys():
            z = abs(est.estimate[key] - exact[key]) / est.stderr[key]
            crit.check(
                z <= 3.0,
                f"order {order} entry {key}: z={z:.2f} "
                f"(est {est.estimate[key]:.4f} vs {exact[key]:.4f})",
            )
    crit.finish()
