import hashlib
import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcum import (
    DiagonalCumulant,
    DirectedGraph,
    HypothesisViolated,
    ModelInconsistency,
    ParameterMatrix,
    integer_kernel,
    kernel_binomial_values,
    level_partition,
    level_polynomial_checks,
    model_stack,
    random_omegas,
    rank_constraints_scan,
    sample_stable_matrix,
    shortest_equitrek_top,
    solve_cumulant,
    top_trek_polynomial_check,
    toric_matrix,
    tree_equivalence,
)
from lyapcum import constraints
from lyapcum.constraints import _minor_norm
from lyapcum.identify import CumulantStack
from conftest import (
    end_loop_path,
    five_node_tree,
    fork_three,
    four_node_tree,
    two_node_chain,
    unit_noise,
)


def tree_stack(g, seed):
    pm = sample_stable_matrix(g, seed=seed, target_radius=0.6)
    omegas = random_omegas(np.random.default_rng(seed + 999), g.p)
    return pm, omegas, model_stack(pm, omegas)


def positive_tree_point(g, rng):
    """Strictly positive edge weights, as the monomial reproduction needs."""
    entries = np.zeros((g.p, g.p))
    for i, j in g.sorted_edges:
        entries[j, i] = rng.uniform(0.2, 0.9) if i != j else rng.uniform(0.2, 0.7)
    return ParameterMatrix(g, entries)


class TestTreeStructure:
    def test_level_partition_five_node(self):
        assert level_partition(five_node_tree()) == [[0], [1, 2], [3, 4]]

    def test_level_partition_single_vertex(self):
        assert level_partition(DirectedGraph(1, [(0, 0)])) == [[0]]

    def test_level_partition_path(self):
        g = DirectedGraph(4, [(0, 0), (0, 1), (1, 2), (2, 3)])
        assert level_partition(g) == [[0], [1], [2], [3]]

    def test_rejects_extra_loops(self):
        g = DirectedGraph(2, [(0, 0), (1, 1), (0, 1)])
        with pytest.raises(HypothesisViolated):
            level_partition(g)

    def test_shortest_top(self):
        g = five_node_tree()
        assert shortest_equitrek_top(g, (3, 4)) == 2
        assert shortest_equitrek_top(g, (1, 2)) == 0
        assert shortest_equitrek_top(g, (1, 3)) == 0  # levels differ
        assert shortest_equitrek_top(g, (3, 3)) == 3

    def test_each_call_walks_each_tree_once(self, monkeypatch):
        walks = []
        real = constraints._tree_structure
        monkeypatch.setattr(
            constraints, "_tree_structure", lambda g: walks.append(g) or real(g)
        )
        g, h = five_node_tree(), five_node_tree().relabel([0, 2, 1, 4, 3])
        stack = tree_stack(g, seed=1)[2]
        for call, trees in (
            (lambda: toric_matrix(g, 4), [g]),
            (lambda: tree_equivalence(g, g), [g, g]),
            (lambda: tree_equivalence(g, h), [g, h]),
            (lambda: level_polynomial_checks(g, stack), [g]),
            (lambda: top_trek_polynomial_check(g, stack, 3, 4, 2), [g]),
        ):
            walks.clear()
            call()
            assert walks == trees


class TestToricMatrix:
    def test_two_node_chain_order2(self):
        tm = toric_matrix(two_node_chain(), 2)
        assert tm.col_labels == [(2, (0, 0)), (2, (0, 1)), (2, (1, 1))]
        assert tm.row_labels == [
            ("v", 2, 0), ("v", 2, 1), ("a", 0, 0), ("a", 0, 1),
        ]
        expected = np.array(
            [[1, 1, 0], [0, 0, 1], [0, 1, 0], [0, 1, 0]]
        )
        np.testing.assert_array_equal(tm.matrix, expected)

    def test_pure_diagonal_columns(self):
        tm = toric_matrix(four_node_tree(), 3)
        for col, (order, key) in enumerate(tm.col_labels):
            if len(set(key)) == 1:
                vertex = key[0]
                column = tm.matrix[:, col]
                assert column.sum() == 1
                assert column[tm.row_labels.index(("v", order, vertex))] == 1

    def test_monomial_reproduction(self, rng):
        # exponentiating the columns at a positive parameter point matches
        # the exact solver once v_i is read off as the diagonal entry; the
        # leading-term formula w0 (a^path)^n / (1 - a00^n) is exact when
        # only the source carries noise
        for g in (four_node_tree(), five_node_tree(), two_node_chain()):
            pm = positive_tree_point(g, rng)
            source = g.sources[0]
            a00 = pm.entries[source, source]
            omegas = {
                n: DiagonalCumulant(n, rng.uniform(0.5, 2.0, g.p)) for n in (2, 3)
            }
            tm = toric_matrix(g, 3)
            solved = {n: solve_cumulant(pm, omegas[n]) for n in (2, 3)}
            params = {}
            for n in (2, 3):
                for i in range(g.p):
                    params[("v", n, i)] = solved[n][(i,) * n]
            for i, j in g.sorted_edges:
                params[("a", i, j)] = pm.entries[j, i]
            for col, (order, key) in enumerate(tm.col_labels):
                value = 1.0
                for row_idx, label in enumerate(tm.row_labels):
                    e = tm.matrix[row_idx, col]
                    if e:
                        value *= params[label] ** e
                exact = solved[order][key]
                assert value == pytest.approx(exact, rel=1e-9)

    def test_source_only_noise_gives_leading_term_v(self, rng):
        # with noise only at the source, v_i collapses to the closed form
        from lyapcum.constraints import _tree_structure

        g = four_node_tree()
        pm = positive_tree_point(g, rng)
        a00 = pm.entries[0, 0]
        _, _, paths = _tree_structure(g)
        for n in (2, 3):
            w = np.zeros(g.p)
            w[0] = 1.3
            solved = solve_cumulant(pm, DiagonalCumulant(n, w))
            for i in range(g.p):
                monomial = 1.0
                for aa, bb in zip(paths[i], paths[i][1:]):
                    monomial *= pm.entries[bb, aa]
                closed = 1.3 * monomial**n / (1 - a00**n)
                assert solved[(i,) * n] == pytest.approx(closed, rel=1e-10)

    def test_kernel_binomials_vanish(self, rng):
        for g in (four_node_tree(), five_node_tree()):
            tm = toric_matrix(g, 3)
            basis = integer_kernel(tm.matrix)
            assert basis
            for vec in basis:
                assert all(x == 0 for x in (tm.matrix.astype(object) @ vec))
            for seed in range(50):
                _, _, stack = tree_stack(g, seed=seed)
                for _, value, scale in kernel_binomial_values(tm, stack):
                    assert abs(value) / scale <= 1e-9

    def test_two_node_ideal_generator_in_kernel(self):
        tm = toric_matrix(two_node_chain(), 3)
        generator = {
            (2, (0, 1)): 3,
            (3, (0, 0, 0)): 2,
            (2, (0, 0)): -3,
            (3, (0, 0, 1)): -1,
            (3, (0, 1, 1)): -1,
        }
        vec = np.array(
            [generator.get(lab, 0) for lab in tm.col_labels], dtype=object
        )
        assert all(x == 0 for x in (tm.matrix.astype(object) @ vec))

    def test_csv_labels(self):
        text = toric_matrix(two_node_chain(), 2).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "row,2|0|0,2|0|1,2|1|1"
        assert lines[1] == "v-2-0,1,1,0"


class TestLevelPolynomials:
    @pytest.mark.parametrize("g", [four_node_tree(), five_node_tree()])
    def test_iff_both_ways(self, g):
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            for check in level_polynomial_checks(g, stack):
                assert check.ok, (check.family, check.indices, check.value)

    def test_two_node_generator_vanishes(self):
        g = two_node_chain()
        _, _, stack = tree_stack(g, seed=0)
        s, t = stack.s, stack.t
        value = s[(0, 1)] ** 3 * t[(0, 0, 0)] ** 2 - s[(0, 0)] ** 3 * t[
            (0, 0, 1)
        ] * t[(0, 1, 1)]
        assert abs(value) <= 1e-12 * max(
            abs(s[(0, 1)] ** 3 * t[(0, 0, 0)] ** 2), 1.0
        )


class TestTopTrekPolynomial:
    def test_five_node_displayed_identity(self):
        g = five_node_tree()
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            s, t = stack.s, stack.t
            value = (
                s[(0, 2)] * s[(3, 4)] * t[(2, 2, 4)]
                - s[(0, 3)] * s[(2, 2)] * t[(2, 4, 4)]
            )
            check = top_trek_polynomial_check(g, stack, 3, 4, 2)
            assert check.expected_zero and check.ok
            assert check.value == pytest.approx(value, rel=1e-12)

    def test_trivial_source_case(self):
        g = five_node_tree()
        _, _, stack = tree_stack(g, seed=1)
        check = top_trek_polynomial_check(g, stack, 0, 0, 0)
        assert check.expected_zero
        assert check.value == 0.0

    def test_wrong_top_nonzero(self):
        g = five_node_tree()
        _, _, stack = tree_stack(g, seed=2)
        check = top_trek_polynomial_check(g, stack, 3, 4, 1)
        assert not check.expected_zero
        assert check.ok  # generically nonzero as predicted


def test_polynomial_checks_golden_bytes():
    """The sha256 of every level and top-trek check on the tree fixtures, seeds 0-4.

    Each check contributes its family, indices and expected_zero, and the
    bytes of its value and scale; the single vertex has no j for its
    source-balance check, so it reads the all-zero baseline.
    """
    digest = hashlib.sha256()
    single = DirectedGraph(1, [(0, 0)])
    for g in (single, two_node_chain(), four_node_tree(), five_node_tree()):
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            checks = level_polynomial_checks(g, stack) + [
                top_trek_polynomial_check(g, stack, i, j, top)
                for i, j in itertools.combinations_with_replacement(range(g.p), 2)
                for top in range(g.p)
            ]
            for check in checks:
                digest.update(repr((check.family, check.indices, check.expected_zero)).encode())
                digest.update(np.float64(check.value).tobytes())
                digest.update(np.float64(check.scale).tobytes())
    assert digest.hexdigest() == (
        "8b270e3b7ad0625fa5354b05d801cd23b561777aaed4fa2fae5d5e868a1cc084"
    )


def swap_fixture():
    """G with two same-level swappable vertices and H = swap result."""
    g = DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (2, 3)])
    h = DirectedGraph(4, [(0, 0), (0, 2), (0, 1), (1, 3)])
    return g, h


class TestTreeEquivalence:
    def test_swap_gives_equal_ideal(self):
        g, h = swap_fixture()
        result = tree_equivalence(g, h)
        assert result.equal
        assert result.row_equivalence_checked

    def test_reflexive_symmetric_transitive(self):
        g, h = swap_fixture()
        k = DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (1, 3)])
        # h and k differ only in which same-level child is the parent of 3
        assert tree_equivalence(g, g).equal
        assert tree_equivalence(h, g).equal == tree_equivalence(g, h).equal
        if tree_equivalence(g, h).equal and tree_equivalence(h, k).equal:
            assert tree_equivalence(g, k).equal

    def test_different_levels_rejected(self):
        path = DirectedGraph(3, [(0, 0), (0, 1), (1, 2)])
        star = DirectedGraph(3, [(0, 0), (0, 1), (0, 2)])
        result = tree_equivalence(path, star)
        assert not result.equal
        assert "level" in result.witness

    def test_different_tops_rejected(self):
        g = DirectedGraph(5, [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])
        h = DirectedGraph(5, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 4)])
        result = tree_equivalence(g, h)
        assert not result.equal
        assert "tops" in result.witness


class TestRankConstraints:
    def test_fork_q_minors_vanish(self):
        g = fork_three()
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            results = rank_constraints_scan(g, stack, max_subset=2)
            q = next(
                r for r in results if r.kind == "parents-stacked-Q" and r.u == (1, 2)
            )
            assert q.bound == 1
            assert q.rank <= 1
            assert q.minor_norm <= 1e-9

    @pytest.mark.parametrize("size", [2, 3])
    def test_minor_norm_is_cauchy_binet(self, rng, size):
        # oracle: the root sum of squares of every size x size minor
        for _ in range(5):
            m = rng.standard_normal((6, 4))
            brute = np.sqrt(sum(
                np.linalg.det(m[np.ix_(r, c)]) ** 2
                for r in itertools.combinations(range(6), size)
                for c in itertools.combinations(range(4), size)
            ))
            sing = np.linalg.svd(m, compute_uv=False)
            assert _minor_norm(sing, size) == pytest.approx(brute, rel=1e-12)

    def test_large_star_values_every_matrix(self):
        # the p=8 star with a looped source has 66 x 3 Q matrices with 6435
        # 2x2 minors; each still gets its minor norm
        g = DirectedGraph(8, [(0, 0)] + [(0, j) for j in range(1, 8)])
        _, _, stack = tree_stack(g, seed=2)
        results = rank_constraints_scan(g, stack, max_subset=3)
        assert max(r.minors_checked for r in results) > 5000
        for r in results:
            k = r.bound + 1
            assert r.minors_checked == comb(r.shape[0], k) * comb(r.shape[1], k)
            assert isinstance(r.minor_norm, float) and np.isfinite(r.minor_norm)
            if r.rank <= r.bound:
                scale = max(1.0, stack.s.max_abs(), stack.t.max_abs())
                assert r.minor_norm <= 1e-9 * scale**k

    def test_end_loop_path_grandparent_slice(self):
        g = end_loop_path()
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            td = stack.t.to_dense()
            slice_matrix = td[3][:, [1, 2]]
            assert np.linalg.matrix_rank(slice_matrix, tol=1e-9) <= 1
            # the scan checks parent bounds only: pa(U) = {0, 1} for U = (1, 2)
            results = rank_constraints_scan(g, stack, max_subset=2)
            assert {r.kind for r in results} == {"parents-S", "parents-stacked-Q"}
            q = next(r for r in results if r.kind == "parents-stacked-Q" and r.u == (1, 2))
            assert q.bound == 2 and q.rank <= 2

    def test_parent_without_loop_meets_q_bound(self):
        # 0 -> 2 <- 1 -> 0 without loops: pa({0}) = {1} has no parents, yet
        # S_20 holds the trek 0 <- 1 -> 2, which the Q bound |pa(U)| = 1 counts
        g = DirectedGraph(3, [(0, 2), (1, 0), (1, 2)])
        _, _, stack = tree_stack(g, seed=0)
        results = rank_constraints_scan(g, stack, max_subset=2)
        q = next(r for r in results if r.kind == "parents-stacked-Q" and r.u == (0,))
        assert q.bound == 1 and q.rank == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_model_stacks_meet_every_bound(self, data):
        # exact model stacks of any digraph, looped or not, satisfy every bound
        p = data.draw(st.integers(2, 5))
        pairs = [(i, j) for i in range(p) for j in range(p)]
        g = DirectedGraph(p, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        _, _, stack = tree_stack(g, seed=data.draw(st.integers(0, 10_000)))
        for r in rank_constraints_scan(g, stack, max_subset=2):
            assert r.rank <= r.bound

    def test_full_subset_is_vacuous(self):
        g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        _, _, stack = tree_stack(g, seed=3)
        results = rank_constraints_scan(g, stack, max_subset=2)
        full = [r for r in results if r.u == (0, 1)]
        assert all(r.rank <= r.bound for r in full)

    def test_some_bound_is_tight(self):
        g = fork_three()
        _, _, stack = tree_stack(g, seed=7)
        results = rank_constraints_scan(g, stack, max_subset=2)
        assert any(r.rank == r.bound for r in results)

    def test_corrupted_stack_raises(self):
        g = fork_three()
        _, _, stack = tree_stack(g, seed=11)
        broken = CumulantStack(*(stack.tensor(n) for n in stack.orders))
        broken.s.values[(1, 2)] += 0.5  # breaks the parent bound
        with pytest.raises(ModelInconsistency):
            rank_constraints_scan(g, broken, max_subset=2)
