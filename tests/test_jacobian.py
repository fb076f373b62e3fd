import hashlib
import itertools
import re
import sys

import numpy as np
import pytest

from lyapcum import (
    CumulantStack,
    DiagonalCumulant,
    DirectedGraph,
    HypothesisViolated,
    ParameterMatrix,
    build_modified_jacobian,
    local_identifiability_verdict,
    model_stack,
    random_omegas,
    sample_stable_matrix,
    solve_cumulant,
)
from lyapcum.jacobian import augmentation_rows, numeric_rank, two_cycle_components
from lyapcum.tensors import multiset_indices
from oracles import (
    jacobian_entry_order2,
    jacobian_entry_order3,
    premultiplied_finite_difference,
)
from conftest import (
    banded_dag,
    collider_square,
    diamond,
    edge_sets,
    random_graph,
    reachable,
    seeded_model,
    two_cycle_with_loops,
    two_node_chain,
    unit_noise,
)


class TestEntryFormulas:
    def test_order2_matches_finite_difference(self, rng):
        for seed in range(3):
            g = random_graph(rng, 3, 0.4, all_loops=True)
            pm = sample_stable_matrix(g, seed=seed, target_radius=0.5)
            omega = DiagonalCumulant(2, rng.uniform(0.5, 2, 3))
            s = solve_cumulant(pm, omega)
            for edge in g.sorted_edges:
                numeric = premultiplied_finite_difference(g, pm, omega, 2, edge)
                for row in multiset_indices(3, 2):
                    formula = jacobian_entry_order2(pm.entries, s, row, edge)
                    assert formula == pytest.approx(
                        numeric[row], rel=1e-6, abs=1e-8
                    )

    def test_order3_matches_finite_difference(self, rng):
        g = random_graph(rng, 3, 0.4, all_loops=True)
        pm = sample_stable_matrix(g, seed=5, target_radius=0.5)
        omega = DiagonalCumulant(3, rng.uniform(0.5, 2, 3))
        t = solve_cumulant(pm, omega)
        for edge in list(g.sorted_edges)[:4]:
            numeric = premultiplied_finite_difference(g, pm, omega, 3, edge)
            for row in multiset_indices(3, 3):
                formula = jacobian_entry_order3(pm.entries, t, row, edge)
                assert formula == pytest.approx(numeric[row], rel=1e-6, abs=1e-8)

    def test_diagonal_matrix_pattern_order2(self):
        # diagonal A: nonzero only when beta is in the row and the other
        # index matches alpha
        g = DirectedGraph(3, [(i, i) for i in range(3)])
        pm = ParameterMatrix(g, np.diag([0.3, 0.5, 0.7]))
        s = solve_cumulant(pm, DiagonalCumulant(2, [1.0, 1.0, 1.0]))
        for row in multiset_indices(3, 2):
            for alpha in range(3):
                for beta in range(3):
                    value = jacobian_entry_order2(pm.entries, s, row, (alpha, beta))
                    i, j = row
                    expected = 0.0
                    if beta == j:
                        expected += pm.entries[i, i] * s[(i, alpha)]
                    if beta == i:
                        expected += pm.entries[j, j] * s[(j, alpha)]
                    assert value == pytest.approx(expected, rel=1e-12)

    def test_diagonal_matrix_pattern_order3(self):
        # row (l, l, m) against column l -> m picks out a_ll^2 t_lll
        g = DirectedGraph(3, [(i, i) for i in range(3)])
        pm = ParameterMatrix(g, np.diag([0.3, 0.5, 0.7]))
        t = solve_cumulant(pm, DiagonalCumulant(3, [1.0, 1.0, 1.0]))
        for l in range(3):
            for m in range(3):
                if l == m:
                    continue
                row = tuple(sorted((l, l, m)))
                value = jacobian_entry_order3(pm.entries, t, row, (l, m))
                assert value == pytest.approx(
                    pm.entries[l, l] ** 2 * t[(l, l, l)], rel=1e-12
                )

    def test_zero_when_target_not_in_row(self):
        g = random_graph(np.random.default_rng(0), 3, 0.4, all_loops=True)
        pm = sample_stable_matrix(g, seed=1, target_radius=0.5)
        t = solve_cumulant(pm, DiagonalCumulant(3, [1.0, 1.0, 1.0]))
        assert jacobian_entry_order3(pm.entries, t, (0, 0, 1), (0, 2)) == 0.0

    def test_order2_trek_form(self):
        # oracle: treks whose leg to the row vertex is one edge longer,
        # summed by matrix powers
        g = two_node_chain()
        pm = ParameterMatrix(g, np.array([[0.5, 0.0], [1.0, 0.0]]))
        omega = DiagonalCumulant(2, [1.0, 1.0])
        s = solve_cumulant(pm, omega)
        length = 300

        def lopsided_trek_sum(i, alpha):
            total = 0.0
            power = np.eye(2)
            for _ in range(length):
                longer = pm.entries @ power
                total += float(np.sum(omega.w * longer[i, :] * power[alpha, :]))
                power = longer
            return total

        for row in multiset_indices(2, 2):
            for edge in g.sorted_edges:
                alpha, beta = edge
                i, j = row
                expected = 0.0
                if j == beta:
                    expected += lopsided_trek_sum(i, alpha)
                if i == beta:
                    expected += lopsided_trek_sum(j, alpha)
                got = jacobian_entry_order2(pm.entries, s, row, edge)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestBuild:
    def test_column_count(self):
        g = two_cycle_with_loops()
        pm = sample_stable_matrix(g, seed=0, target_radius=0.5)
        mj = build_modified_jacobian(g, pm, model_stack(pm, unit_noise(2, (2, 3))))
        assert mj.matrix.shape == (3, 4)
        assert mj.rows == [(2, (0, 1)), (3, (0, 0, 1)), (3, (0, 1, 1))]

    def test_matches_entry_formulas(self, rng):
        g = random_graph(rng, 3, 0.4, all_loops=True)
        pm = sample_stable_matrix(g, seed=7, target_radius=0.5)
        omegas = {
            2: DiagonalCumulant(2, rng.uniform(0.5, 2, 3)),
            3: DiagonalCumulant(3, rng.uniform(0.5, 2, 3)),
        }
        mj = build_modified_jacobian(g, pm, model_stack(pm, omegas))
        s = solve_cumulant(pm, omegas[2])
        t = solve_cumulant(pm, omegas[3])
        for r_idx, (order, key) in enumerate(mj.rows):
            for c_idx, edge in enumerate(g.sorted_edges):
                if order == 2:
                    expected = jacobian_entry_order2(pm.entries, s, key, edge)
                else:
                    expected = jacobian_entry_order3(pm.entries, t, key, edge)
                assert mj.matrix[r_idx, c_idx] == pytest.approx(
                    expected, rel=1e-9, abs=1e-11
                )

    @pytest.mark.parametrize("augmented", [False, True])
    def test_order4_edge_columns_match_finite_difference(self, rng, augmented):
        if augmented:  # a two-cycle component {0, 1} beside a looped vertex 2
            g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        else:
            g = random_graph(rng, 3, 0.6, all_loops=True)
        pm = sample_stable_matrix(g, seed=9, target_radius=0.5)
        omegas = random_omegas(rng, 3, (2, 3, 4))
        rows = augmentation_rows(g) if augmented else None
        mj = build_modified_jacobian(g, pm, model_stack(pm, omegas), order4_rows=rows)
        order4 = [(r, key) for r, (n, key) in enumerate(mj.rows) if n == 4]
        assert len(order4) == (1 if augmented else 12)
        for c_idx, edge in enumerate(g.sorted_edges):
            numeric = premultiplied_finite_difference(g, pm, omegas[4], 4, edge)
            for r_idx, key in order4:
                assert mj.matrix[r_idx, c_idx] == pytest.approx(
                    numeric[key], rel=1e-6, abs=1e-8
                )

    def test_reads_the_stack_and_solves_nothing(self, monkeypatch):
        g = two_cycle_with_loops()
        pm = sample_stable_matrix(g, seed=0, target_radius=0.5)
        stack = model_stack(pm, unit_noise(2, (2, 3, 4)))
        expected = build_modified_jacobian(g, pm, stack)

        def refuse(*args):
            raise AssertionError("the Jacobian must read its tensors, not solve them")

        for name, module in list(sys.modules.items()):
            if name.startswith("lyapcum") and hasattr(module, "solve_cumulant"):
                monkeypatch.setattr(module, "solve_cumulant", refuse)
        mj = build_modified_jacobian(g, pm, stack)
        assert [n for n, _ in mj.rows] == [2, 3, 3, 4, 4, 4]
        assert np.array_equal(mj.matrix, expected.matrix)

    def test_order4_rows_need_order_4(self):
        g = two_cycle_with_loops()
        pm = sample_stable_matrix(g, seed=0, target_radius=0.5)
        stack = model_stack(pm, unit_noise(2, (2, 3)))
        with pytest.raises(ValueError, match="order4_rows needs an order-4 tensor"):
            build_modified_jacobian(g, pm, stack, order4_rows=[(0, 0, 0, 1)])

    # order4_rows that are not four vertex ids in range(3), each named by the refusal
    BAD_ORDER4_ROWS = {
        "three-ids": [(0, 1, 1)] * 4,
        "negative-id": [(0, 1, -1, 1)],
        "id-above-p": [(0, 1, 9, 1)],
        "five-ids": [(0, 0, 0, 0, 1)],
        "float-id": [(0, 1, 1.0, 1)],
        "bool-id": [(0, 1, True, 1)],
        "bad-after-good": [(0, 0, 0, 1), (0, 1, 2, 3)],
    }

    @pytest.mark.parametrize("case", list(BAD_ORDER4_ROWS))
    def test_refuses_malformed_order4_rows(self, case):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
        pm = sample_stable_matrix(g, seed=0, target_radius=0.5)
        stack = model_stack(pm, unit_noise(3, (2, 3, 4)))
        rows = self.BAD_ORDER4_ROWS[case]
        message = f"order4_rows row {rows[-1]!r} is not four vertex ids in range(3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_modified_jacobian(g, pm, stack, order4_rows=rows)

    # (p of g, p of A's graph, p of the stack, refusal): numpy's reshape error before
    MISMATCHED = {
        "stack-of-3-on-2": (2, 2, 3, "stack dimension does not match the graph"),
        "a-of-2-on-3": (3, 2, 3, "parameter matrix is on another graph"),
        "a-of-3-on-2": (2, 3, 2, "parameter matrix is on another graph"),
    }

    @pytest.mark.parametrize("case", list(MISMATCHED))
    def test_refuses_mismatched_stack_or_matrix(self, case):
        g_p, a_p, stack_p, message = self.MISMATCHED[case]
        pm = sample_stable_matrix(banded_dag(a_p), seed=0, target_radius=0.5)
        stack_pm = sample_stable_matrix(banded_dag(stack_p), seed=1, target_radius=0.5)
        stack = model_stack(stack_pm, unit_noise(stack_p, (2, 3)))
        with pytest.raises(HypothesisViolated, match=f"^{message}$"):
            build_modified_jacobian(banded_dag(g_p), pm, stack)

    def test_diagonal_disconnected_block_zero(self):
        g = DirectedGraph(3, [(i, i) for i in range(3)])
        pm = ParameterMatrix(g, np.diag([0.3, 0.4, 0.5]))
        mj = build_modified_jacobian(g, pm, model_stack(pm, unit_noise(3, (2, 3))))
        assert np.count_nonzero(mj.matrix) == 0


class TestExampleFixtureRanks:
    def test_half_diagonal_pair_submatrices(self):
        # A = [[1/2, 0], [1, 1/2]]: every 3x3 minor of the off-diagonal
        # block of the complete two-vertex graph has rank 3
        g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        pm = ParameterMatrix(g, np.array([[0.5, 0.0], [1.0, 0.5]]))
        mj = build_modified_jacobian(g, pm, model_stack(pm, unit_noise(2, (2, 3))))
        assert mj.matrix.shape == (3, 4)
        for cols in itertools.combinations(range(4), 3):
            rank, _ = numeric_rank(mj.matrix[:, cols])
            assert rank == 3

    def test_two_cycle_deficiency_and_repair(self):
        g = two_cycle_with_loops()
        pm = sample_stable_matrix(g, seed=2, target_radius=0.5)
        rng = np.random.default_rng(3)
        mj = build_modified_jacobian(g, pm, model_stack(pm, random_omegas(rng, 2, (2, 3))))
        rank, _ = numeric_rank(mj.matrix)
        assert rank == 3 < len(g.edges)
        rows = augmentation_rows(g)
        assert rows == [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 1)]
        mj4 = build_modified_jacobian(
            g, pm, model_stack(pm, random_omegas(rng, 2, (2, 3, 4))), order4_rows=rows
        )
        rank4, _ = numeric_rank(mj4.matrix)
        assert rank4 == 4

    def test_connected_all_loops_sample(self, rng):
        for p in (3, 4, 5):
            for _ in range(3):
                g = random_graph(rng, p, 0.4, all_loops=True)
                if not g.is_skeleton_connected:
                    continue
                pm = sample_stable_matrix(g, seed=int(rng.integers(1e6)), target_radius=0.5)
                mj = build_modified_jacobian(
                    g, pm, model_stack(pm, random_omegas(rng, p, (2, 3)))
                )
                rank, _ = numeric_rank(mj.matrix)
                assert rank == len(g.edges)


class TestRankIdentity:
    def test_rank_monotone_in_rows(self, rng):
        g = two_cycle_with_loops()
        pm = sample_stable_matrix(g, seed=11, target_radius=0.5)
        stack = model_stack(pm, random_omegas(rng, 2, (2, 3, 4)))
        small = build_modified_jacobian(g, pm, CumulantStack(stack.s, stack.t))
        grown = build_modified_jacobian(g, pm, stack)
        assert numeric_rank(grown.matrix)[0] >= numeric_rank(small.matrix)[0]


class TestVerdict:
    def test_collider_square_identifiable(self):
        report = local_identifiability_verdict(collider_square(), trials=3, seed=0)
        assert report.verdict == "locally-identifiable"
        assert report.generic_rank == 7
        assert not report.augmented

    def test_zero_trials_refused(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            local_identifiability_verdict(collider_square(), trials=0)

    def test_single_loop_vertex_structural(self):
        report = local_identifiability_verdict(
            DirectedGraph(1, [(0, 0)]), trials=2, seed=0
        )
        assert report.verdict == "not-identifiable"

    def test_two_cycle_needs_augmentation(self):
        g = two_cycle_with_loops()
        assert two_cycle_components(g) == [(0, 1)]
        report = local_identifiability_verdict(g, trials=3, seed=0)
        assert report.verdict == "locally-identifiable"
        assert report.augmented

    @staticmethod
    def skeleton_components(g):
        """The skeleton's components as sorted tuples, in order of least vertex."""
        comps = []
        for v in range(g.p):
            if not any(v in comp for comp in comps):
                comps.append(tuple(sorted(reachable(g.skeleton_neighbors, v))))
        return comps

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_pairs_and_connectivity_match_components(self, p):
        # the two-cycle pairs are the size-2 components joined both ways, and the
        # skeleton is connected iff it has one component
        for edges in edge_sets(p):
            g = DirectedGraph(p, edges)
            comps = self.skeleton_components(g)
            assert two_cycle_components(g) == [
                (i, j) for i, j in (c for c in comps if len(c) == 2)
                if (i, j) in g.edges and (j, i) in g.edges
            ], g
            assert g.is_skeleton_connected == (len(comps) == 1), g

    def test_two_cycle_with_one_loop_needs_no_augmentation(self):
        # a two-cycle component is not always deficient at orders 2-3: with
        # one loop its three edges are full rank, so no trial augments
        g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0)])
        assert augmentation_rows(g)
        report = local_identifiability_verdict(g, trials=5, seed=0)
        assert report.verdict == "locally-identifiable"
        assert report.generic_rank == 3
        assert not report.augmented
        assert not any(t.augmented for t in report.trials)

    @pytest.mark.parametrize(
        "edges, solved",
        [
            ([(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (2, 3)], [2, 3, 4]),
            ([(0, 0), (0, 1), (1, 0)], [2, 3]),
        ],
        ids=["two-cycle-beside-loop", "one-loop-two-cycle"],
    )
    def test_orders_solved_per_trial(self, edges, solved, monkeypatch):
        # a two-cycle with both loops is deficient at orders 2-3 on every
        # draw, so its trials solve orders 2-4 once, for the augmented build
        from lyapcum import identify

        orders = []
        solve = identify.solve_cumulant
        monkeypatch.setattr(
            identify, "solve_cumulant", lambda a, w: orders.append(w.order) or solve(a, w)
        )
        g = DirectedGraph(max(max(e) for e in edges) + 1, edges)
        local_identifiability_verdict(g, trials=4, seed=2)
        assert orders == solved * 4

    def test_diamond_deficiency_exactly_one(self):
        g = diamond()
        pm = sample_stable_matrix(g, seed=4, target_radius=0.5)
        rng = np.random.default_rng(5)
        for orders in ((2, 3), (2, 3, 4)):
            mj = build_modified_jacobian(g, pm, model_stack(pm, random_omegas(rng, 4, orders)))
            rank, _ = numeric_rank(mj.matrix)
            assert rank == len(g.edges) - 1
        report = local_identifiability_verdict(g, trials=4, seed=0)
        assert report.verdict == "rank-deficient"
        assert report.deficiency == 1

    def test_identifiable_outside_constructive_classes(self):
        # a DAG with one self-loop that is neither all-looped nor a
        # polytree; no constructive method applies, yet the rank verdict
        # certifies local identifiability
        from lyapcum.identify import NoMethodApplies, auto_identify

        g = DirectedGraph(
            5, [(0, 0), (0, 1), (0, 2), (1, 4), (1, 3), (2, 3), (3, 4)]
        )
        _, _, stack = seeded_model(g, 2, 1)
        with pytest.raises(NoMethodApplies):
            auto_identify(g, stack)
        report = local_identifiability_verdict(g, trials=4, seed=0)
        assert report.verdict == "locally-identifiable"
        assert report.generic_rank == len(g.edges)


class TestSinkLoopChains:
    @pytest.mark.parametrize("p", [5, 8])
    def test_relabeled_chains_rank_zero(self, p):
        # path 0 -> 1 -> ... -> p-1 with a self-loop on the sink only: no
        # edge is locally identifiable, under any labelling of the vertices
        chain = DirectedGraph(p, [(v, v + 1) for v in range(p - 1)] + [(p - 1, p - 1)])
        rng = np.random.default_rng(p)
        for _ in range(10):
            g = chain.relabel([int(v) for v in rng.permutation(p)])
            report = local_identifiability_verdict(g, seed=int(rng.integers(1000)))
            assert (report.verdict, report.generic_rank) == ("rank-deficient", 0)


class TestComponentZeroPattern:
    def test_cross_component_blocks_vanish(self):
        # two disconnected all-loop triangles; the induction's block
        # structure predicts exact zeros between blocks
        edges = [(i, i) for i in range(6)]
        edges += [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = DirectedGraph(6, edges)
        pm = sample_stable_matrix(g, seed=6, target_radius=0.5)
        omegas = unit_noise(6, (2, 3))
        s = solve_cumulant(pm, omegas[2])
        t = solve_cumulant(pm, omegas[3])
        comp1, comp2 = (0, 1, 2), (3, 4, 5)
        # within-component rows are zero on the other component's edges
        for i, j in itertools.combinations(comp1, 2):
            for alpha, beta in [(3, 4), (4, 5), (3, 3)]:
                assert jacobian_entry_order2(pm.entries, s, (i, j), (alpha, beta)) == 0.0
        for j in comp2:
            for k in comp1:
                row = tuple(sorted((k, k, j)))
                # cross rows for target j are zero on cross columns whose
                # sink is a different target i != j
                for i in comp2:
                    if i == j:
                        continue
                    for kp in comp1:
                        assert (
                            jacobian_entry_order3(pm.entries, t, row, (kp, i)) == 0.0
                        )
                # ... and zero on both components' internal edges
                for alpha, beta in [(3, 4), (4, 5), (0, 1), (1, 2)]:
                    assert jacobian_entry_order3(pm.entries, t, row, (alpha, beta)) == 0.0
                # ... and zero on the reversed cross columns comp2 -> comp1
                for alpha in comp2:
                    for beta in comp1:
                        assert (
                            jacobian_entry_order3(pm.entries, t, row, (alpha, beta))
                            == 0.0
                        )

    def test_diagonal_point_makes_m_blocks_diagonal(self):
        # at a diagonal parameter point, each cross block reduces to
        # a_kk^2 t_kkk on its diagonal, which certifies its generic rank
        edges = [(i, i) for i in range(6)]
        edges += [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = DirectedGraph(6, edges)
        diag = np.diag([0.3, 0.4, 0.5, 0.35, 0.45, 0.55])
        pm = ParameterMatrix(g, diag)
        t = solve_cumulant(pm, DiagonalCumulant(3, np.ones(6)))
        for j in (3, 4, 5):
            for k in (0, 1, 2):
                row = tuple(sorted((k, k, j)))
                for kp in (0, 1, 2):
                    value = jacobian_entry_order3(pm.entries, t, row, (kp, j))
                    if kp == k:
                        assert value == pytest.approx(
                            diag[k, k] ** 2 * t[(k, k, k)], rel=1e-12
                        )
                    else:
                        assert value == 0.0


class TestGoldenBytes:
    GRAPHS = {
        "dag": (collider_square(), 0),
        "cycle": (
            DirectedGraph(4, [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]), 1
        ),
        "two-cycle-beside-loop": (
            DirectedGraph(4, [(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (2, 3)]), 2
        ),
        "diamond": (diamond(), 3),
        "two-cycle-one-loop": (DirectedGraph(2, [(0, 0), (0, 1), (1, 0)]), 4),
    }

    def test_verdict_golden_bytes(self):
        """The sha256 of every trial's singular values, per graph, at a fixed seed.

        Recorded before the Jacobian read its tensors from a cumulant stack
        in place of solving them itself; the two-cycle-one-loop row, before
        the contraction ran on ``tensors._tucker``.
        """
        digests, verdicts = {}, {}
        for name, (g, seed) in self.GRAPHS.items():
            report = local_identifiability_verdict(g, trials=4, seed=seed)
            digest = hashlib.sha256()
            for trial in report.trials:
                digest.update(bytes([trial.augmented, trial.rank]))
                digest.update(np.array(trial.singular_values, dtype=np.float64).tobytes())
            digests[name] = digest.hexdigest()
            verdicts[name] = (report.verdict, report.augmented)
        assert verdicts == {
            "dag": ("locally-identifiable", False),
            "cycle": ("locally-identifiable", False),
            "two-cycle-beside-loop": ("locally-identifiable", True),
            "diamond": ("rank-deficient", False),
            "two-cycle-one-loop": ("locally-identifiable", False),
        }
        assert digests == {
            "dag": "baaa1b19fa2676cdc9ec7a722bd67b033022f6acda0c77592059c7e707c5ed38",
            "cycle": "5857372e03ff367b5b078b07f8775962cbe91621dbbe4f62be3b90145251b35a",
            "two-cycle-beside-loop": "5f5fec82fbeb1352faf1c84bfd9441a5825a55f813f1279b6ed6fcffe929e44f",
            "diamond": "6f13912abde8785ec4550be5c640cf851a6684d1fafb31a986c44e4a4742df5a",
            "two-cycle-one-loop": "3d3624028847233d342054a199304f6bbcfa7ba0d505c5459487764db968895c",
        }
