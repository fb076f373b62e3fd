import hashlib
import itertools
import warnings
from functools import partial
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
    SymmetricTensor,
    integer_kernel,
    kernel_binomial_values,
    level_partition,
    level_polynomial_checks,
    rank_constraints_scan,
    shortest_equitrek_top,
    solve_cumulant,
    top_trek_polynomial_check,
    toric_matrix,
    tree_equivalence,
)
from lyapcum import constraints
from lyapcum.constraints import _minor_norm
from lyapcum.identify import CumulantStack
from lyapcum.tensors import multiset_indices
from oracles import every_check, scaled_stack
from conftest import (
    diamond,
    edge_sets,
    end_loop_path,
    five_node_tree,
    fork_three,
    four_node_tree,
    random_graph,
    reachable,
    seeded_model,
    single_looped_vertex,
    two_node_chain,
)


tree_stack = partial(seeded_model, noise_offset=999)


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

    # one row per refusal of the directed-tree entry points: (call, error, message)
    REFUSALS = {
        "two-sources": (
            lambda: level_partition(DirectedGraph(3, [(0, 0), (0, 2), (1, 2)])),
            HypothesisViolated, r"need exactly one source, found \(0, 1\)",
        ),
        "second-loop": (
            lambda: level_partition(DirectedGraph(3, [(0, 0), (2, 2), (0, 1), (1, 2)])),
            HypothesisViolated, r"need the source self-loop only, found loops at \[0, 2\]",
        ),
        "skeleton-not-a-tree": (
            lambda: level_partition(diamond()), HypothesisViolated, "skeleton must be a tree",
        ),
        "toric-order-1": (
            lambda: toric_matrix(four_node_tree(), 1), ValueError, "order must be at least 2",
        ),
        "trees-of-two-sizes": (
            lambda: tree_equivalence(
                DirectedGraph(2, [(0, 0), (0, 1)]), DirectedGraph(3, [(0, 0), (0, 1), (1, 2)])
            ),
            HypothesisViolated, "trees must share the vertex count",
        ),
        # a vertex id is an integer in range(p), never a bool: -1 no longer reads
        # vertex p - 1, nor True vertex 1
        "top-negative-id": (
            lambda: shortest_equitrek_top(five_node_tree(), (-1, 4)),
            ValueError, r"vertex ids \[-1, 4\] must be one or more integers in range\(5\)",
        ),
        "top-id-past-p": (
            lambda: shortest_equitrek_top(five_node_tree(), (3, 5)),
            ValueError, r"vertex ids \[3, 5\] must be one or more integers in range\(5\)",
        ),
        "top-float-id": (
            lambda: shortest_equitrek_top(five_node_tree(), (3.0, 4)),
            ValueError, r"vertex ids \[3.0, 4\] must be one or more integers in range\(5\)",
        ),
        "top-no-ids": (
            lambda: shortest_equitrek_top(five_node_tree(), []),
            ValueError, r"vertex ids \[\] must be one or more integers in range\(5\)",
        ),
        "top-trek-bool-id": (
            lambda: top_trek_polynomial_check(
                five_node_tree(), tree_stack(five_node_tree(), seed=1)[2], True, 4, 2
            ),
            ValueError, r"vertex ids \[True, 4, 2\] must be one or more integers in range\(5\)",
        ),
        "top-trek-negative-id": (
            lambda: top_trek_polynomial_check(
                five_node_tree(), tree_stack(five_node_tree(), seed=1)[2], -1, 4, 2
            ),
            ValueError, r"vertex ids \[-1, 4, 2\] must be one or more integers in range\(5\)",
        ),
        "top-trek-top-past-p": (
            lambda: top_trek_polynomial_check(
                five_node_tree(), tree_stack(five_node_tree(), seed=1)[2], 3, 4, 5
            ),
            ValueError, r"vertex ids \[3, 4, 5\] must be one or more integers in range\(5\)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals(self, case):
        call, error, message = self.REFUSALS[case]
        with pytest.raises(error, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_every_admitted_graph_is_an_arborescence(self, p):
        # over every edge set on p vertices, what passes _tree_structure's
        # three checks has one non-loop parent per non-source vertex and a path
        # from the source to each vertex: p**(p - 1) rooted labeled trees (Cayley)
        admitted = 0
        for edges in edge_sets(p):
            g = DirectedGraph(p, edges)
            try:
                source, _, paths = constraints._tree_structure(g)
            except HypothesisViolated:
                continue
            admitted += 1
            assert all(len(set(g.parents[v]) - {v}) == 1 for v in range(p) if v != source)
            assert reachable(g.children, source) == set(range(p))
            assert all(path[0] == source and path[-1] == v for v, path in enumerate(paths))
        assert admitted == p ** (p - 1)

    def test_polytree_needs_a_connected_dag(self):
        # both have p - 1 skeleton edges, yet neither is a polytree
        assert not DirectedGraph(4, [(0, 1), (0, 2), (1, 2)]).is_polytree  # disconnected DAG
        assert not DirectedGraph(2, [(0, 1), (1, 0)]).is_polytree  # a directed cycle

    def test_shortest_top(self):
        g = five_node_tree()
        assert shortest_equitrek_top(g, (3, 4)) == 2
        assert shortest_equitrek_top(g, (1, 2)) == 0
        assert shortest_equitrek_top(g, (1, 3)) == 0  # levels differ
        assert shortest_equitrek_top(g, (3, 3)) == 3
        assert shortest_equitrek_top(g, np.array([3, 4])) == 2  # numpy ids are ids

    def test_each_call_walks_each_tree_once(self):
        # a walk is a miss of the _tree_structure cache; every other read hits it
        g, h = five_node_tree(), five_node_tree().relabel([0, 2, 1, 4, 3])
        stack = tree_stack(g, seed=1)[2]
        for call, walks in (
            (lambda: toric_matrix(g, 4), 1),
            (lambda: tree_equivalence(g, g), 1),
            (lambda: tree_equivalence(g, h), 2),
            (lambda: level_polynomial_checks(g, stack), 1),
            (lambda: top_trek_polynomial_check(g, stack, 3, 4, 2), 1),
        ):
            constraints._tree_structure.cache_clear()
            call()
            info = constraints._tree_structure.cache_info()
            assert (info.misses, info.currsize) == (walks, walks)


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

    @pytest.mark.parametrize(
        "matrix_tree, stack_tree, orders",
        [
            (four_node_tree, four_node_tree, (2, 3)),
            (four_node_tree, five_node_tree, (2, 3, 4)),
            (five_node_tree, four_node_tree, (2, 3, 4)),
        ],
        ids=["no-order-4", "p5-stack-p4-matrix", "p4-stack-p5-matrix"],
    )
    def test_kernel_refuses_a_stack_that_does_not_fit(self, matrix_tree, stack_tree, orders):
        # a bare KeyError, or 49 binomials read off the wrong entries, before the refusal
        tm = toric_matrix(matrix_tree(), 4)
        stack = seeded_model(stack_tree(), seed=0, noise_offset=1, orders=orders)[2]
        with pytest.raises(HypothesisViolated, match=r"^the toric matrix reads p=\d at orders"):
            kernel_binomial_values(tm, stack)

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
        tm = toric_matrix(two_node_chain(), 2)
        assert tm.col_labels == [(2, (0, 0)), (2, (0, 1)), (2, (1, 1))]
        assert tm.row_labels[0] == ("v", 2, 0)
        assert tm.matrix[0].tolist() == [1, 1, 0]


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
        # i = j = top puts s_0i s_ii t_iii on both sides, so no stack can fail it
        g = five_node_tree()
        _, _, stack = tree_stack(g, seed=1)
        for i in range(g.p):
            with pytest.raises(ValueError, match=rf"^the top-trek check \({i}, {i}, {i}\) vanishes"):
                top_trek_polynomial_check(g, stack, i, i, i)

    def test_wrong_top_nonzero(self):
        g = five_node_tree()
        _, _, stack = tree_stack(g, seed=2)
        check = top_trek_polynomial_check(g, stack, 3, 4, 1)
        assert not check.expected_zero
        assert check.ok  # generically nonzero as predicted

    def test_deeper_i_at_the_source_top_vanishes(self):
        # both sides equal v2^2 v3 w_i w_j^2 a^(L_i + L_j): the padding cancels
        g = four_node_tree()
        check = top_trek_polynomial_check(g, tree_stack(g, seed=0)[2], 2, 1, 0)
        assert check.expected_zero and check.ok
        assert check.value == 0.0

    @pytest.mark.parametrize("tree", [two_node_chain, four_node_tree, five_node_tree])
    def test_trees_numbered_against_depth(self, tree):
        # numbered by reversal, every pair i < j on two levels has i deeper
        g = tree().relabel(list(range(tree().p))[::-1])
        for seed in range(3):
            assert all(check.ok for check in every_check(g, tree_stack(g, seed=seed)[2]))


def test_polynomial_checks_golden_bytes():
    """The sha256 of every level and top-trek check on the tree fixtures, seeds 0-4.

    Each check contributes its family, indices and expected_zero, and the
    bytes of its value and scale; the single vertex lists no check.
    """
    digest = hashlib.sha256()
    for g in (single_looped_vertex(), two_node_chain(), four_node_tree(), five_node_tree()):
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            for check in every_check(g, stack):
                digest.update(repr((check.family, check.indices, check.expected_zero)).encode())
                digest.update(np.float64(check.value).tobytes())
                digest.update(np.float64(check.scale).tobytes())
    assert digest.hexdigest() == (
        "59c4d91a21c1258c24ce9e1e4a6c9651af72c839c4706d08b20efd3744b68879"
    )


def test_kernel_ratios_golden_bytes():
    """The sha256 of every kernel vector and ratio |value| / scale, tree fixtures, seeds 0-4.

    Recorded before the binomials moved to the stack's power-of-two units,
    which report value and scale in those units and keep each ratio's bits.
    """
    digest = hashlib.sha256()
    single = DirectedGraph(1, [(0, 0)])
    for g in (single, two_node_chain(), four_node_tree(), five_node_tree()):
        for seed in range(5):
            _, _, stack = tree_stack(g, seed=seed)
            for order in (3, 4):
                for vec, value, scale in kernel_binomial_values(toric_matrix(g, order), stack):
                    digest.update(repr(vec.tolist()).encode())
                    digest.update(np.float64(abs(value) / scale).tobytes())
    assert digest.hexdigest() == (
        "e1fa13214134d1a73a69f4496aa6feabd5b2cf3a2be4c5f82d489d7eb2ec454b"
    )


class TestUnits:
    """Every reader of a stack reads each order in its power-of-two units.

    Each check and kernel binomial is homogeneous in each order, so an exact
    model point with its orders scaled gets the same verdicts.
    """

    @pytest.mark.parametrize("c", [1e-150, 1e-80, 1e-40, 1.0, 1e40, 1e80, 1e150])
    def test_looped_source_tree_at_any_scale(self, c):
        # the kernel overflowed from 1e40, the level checks failed at 1e+-80,
        # the top-trek checks at 1e+-150, and the minor norm warned at 1e80
        g = four_node_tree()
        base = seeded_model(g, seed=0, noise_offset=1)[2]
        stack = scaled_stack(base, {n: c for n in base.orders})
        for order in (3, 4):
            for _, value, scale in kernel_binomial_values(toric_matrix(g, order), stack):
                assert 1e-300 < scale < np.inf and abs(value) <= 1e-9 * scale
        assert all(check.ok for check in every_check(g, stack))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = rank_constraints_scan(g, stack, max_subset=2)
        assert [r.rank for r in scan] == [r.rank for r in rank_constraints_scan(g, base, 2)]

    def test_polynomial_checks_read_only_s_and_t(self):
        # both checks, and the order-3 kernel binomials, read S and T alone, so a
        # non-finite order-4 entry is not theirs to refuse
        g = four_node_tree()
        base, broken = (seeded_model(g, seed=0, noise_offset=1)[2] for _ in range(2))
        broken.tensor(4).values[(0, 0, 0, 0)] = np.nan

        def binomials(stack):
            values = kernel_binomial_values(toric_matrix(g, 3), stack)
            return [(vec.tolist(), value, scale) for vec, value, scale in values]

        assert binomials(base)
        for read in (partial(every_check, g), binomials):
            assert read(broken) == read(base)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_verdicts_ignore_each_order_scale(self, data):
        # a random looped-source tree: vertex v > 0 hangs below a vertex before it
        p = data.draw(st.integers(2, 6))
        parents = [data.draw(st.integers(0, v - 1)) for v in range(1, p)]
        g = DirectedGraph(p, [(0, 0)] + [(u, v) for v, u in enumerate(parents, start=1)])
        base = tree_stack(g, seed=data.draw(st.integers(0, 10_000)))[2]
        exponents = {n: data.draw(st.floats(-100, 100)) for n in base.orders}
        stack = scaled_stack(base, {n: 10.0**u for n, u in exponents.items()})
        assert [c.ok for c in every_check(g, stack)] == [c.ok for c in every_check(g, base)]
        for order in (3, 4):
            for _, value, scale in kernel_binomial_values(toric_matrix(g, order), stack):
                assert abs(value) <= 1e-9 * scale


def swap_fixture():
    """G with two same-level swappable vertices and H = swap result."""
    g = DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (2, 3)])
    h = DirectedGraph(4, [(0, 0), (0, 2), (0, 1), (1, 3)])
    return g, h


class TestTreeEquivalence:
    def test_swap_gives_equal_ideal(self):
        g, h = swap_fixture()
        assert tree_equivalence(g, h).equal

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
            q = next(r for r in results if r.u == (1, 2))
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

    @pytest.mark.parametrize("sing, size, norm", [
        ([1e100, 1e-100], 2, 1.0),  # the square of each is in range, and their product
        ([1e200, 1e-200], 2, 1.0),  # 1e200 squared is not
        ([1e200, 1e200], 2, np.inf),  # the norm itself is past the float range
        ([1e-200, 1e-200], 2, 0.0),  # and here below it
        ([3.0, 0.0, 2.0], 2, 6.0),
        ([], 0, 1.0),
        ([], 1, 0.0),
    ])
    def test_minor_norm_at_any_spread(self, sing, size, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _minor_norm(np.array(sing), size) == pytest.approx(norm, rel=1e-15)

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
            # fills both columns, so it is skipped; of all U with |U| <= 2 only
            # U = (0, 1), with pa(U) = {0}, has a bound below its column count
            results = rank_constraints_scan(g, stack, max_subset=2)
            assert [(r.u, r.bound) for r in results] == [((0, 1), 1)]
            assert results[0].rank == 1

    def test_parent_without_loop_meets_q_bound(self):
        # 0 -> 2 <- 1 -> 0 without loops: pa({0, 1}) = {1} has no parents, yet
        # S_20 holds the trek 0 <- 1 -> 2, which the Q bound |pa(U)| = 1 counts;
        # U = (0,) alone, with bound 1 against 1 column, is not checked
        g = DirectedGraph(3, [(0, 2), (1, 0), (1, 2)])
        _, _, stack = tree_stack(g, seed=0)
        results = rank_constraints_scan(g, stack, max_subset=2)
        assert (0,) not in {r.u for r in results}
        q = next(r for r in results if r.u == (0, 1))
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
        # pa(U) contains U when every vertex of U is looped, so no bound is
        # below U's column count: the full subset, like every U, is not listed
        g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        _, _, stack = tree_stack(g, seed=3)
        assert rank_constraints_scan(g, stack, max_subset=2) == []

    def test_some_bound_is_tight(self):
        g = fork_three()
        _, _, stack = tree_stack(g, seed=7)
        results = rank_constraints_scan(g, stack, max_subset=2)
        assert any(r.rank == r.bound for r in results)

    def test_scan_stops_at_p(self, monkeypatch):
        # no U has more than p vertices, so no larger size is enumerated
        g = fork_three()
        _, _, stack = tree_stack(g, seed=7)
        expected = rank_constraints_scan(g, stack, max_subset=g.p)
        sizes, combinations = [], itertools.combinations

        def recording(items, size):
            sizes.append(size)
            return combinations(items, size)

        monkeypatch.setattr(constraints.itertools, "combinations", recording)
        assert rank_constraints_scan(g, stack, max_subset=g.p + 50) == expected
        assert sizes == list(range(1, g.p + 1))

    def test_stack_of_another_p_is_refused(self):
        # every reader of a stack refuses one of another p, as identify_dag does
        g2, stack3 = two_node_chain(), tree_stack(fork_three(), seed=1)[2]
        for call in (
            lambda: level_polynomial_checks(g2, stack3),
            lambda: top_trek_polynomial_check(g2, stack3, 0, 1, 0),
            lambda: rank_constraints_scan(g2, stack3, max_subset=1),
        ):
            with pytest.raises(HypothesisViolated, match="^stack dimension does not match the graph$"):
                call()

    def test_corrupted_stack_raises(self):
        g = fork_three()
        _, _, stack = tree_stack(g, seed=11)
        broken = CumulantStack(*(stack.tensor(n) for n in stack.orders))
        broken.s.values[(1, 2)] += 0.5  # breaks the parent bound
        with pytest.raises(ModelInconsistency):
            rank_constraints_scan(g, broken, max_subset=2)


def random_stack(rng, p):
    """Independent normal entries for S and T: generically no model point of any graph."""
    return CumulantStack(*(
        SymmetricTensor(n, p, {key: rng.standard_normal() for key in multiset_indices(p, n)})
        for n in (2, 3)
    ))


class TestEveryCheckCanFail:
    """A check that holds on every stack tests nothing: each one reported fails off the model."""

    @pytest.mark.parametrize(
        "tree", [single_looped_vertex, two_node_chain, four_node_tree, five_node_tree]
    )
    def test_vanishing_polynomials_fail_on_a_random_stack(self, tree, rng):
        g = tree()
        for _ in range(5):
            checks = [c for c in every_check(g, random_stack(rng, g.p)) if c.expected_zero]
            # the single vertex has no j, so no source balance to check
            assert bool(checks) == (g.p > 1), checks
            for c in checks:
                assert not c.ok, (c.family, c.indices, c.value, c.scale)

    def test_every_rank_check_fails_on_a_random_stack(self, rng):
        # the model stack lists the checks; on a random stack each of them is violated
        for seed in range(60):
            g = random_graph(rng, int(rng.integers(2, 8)), 0.3)
            results = rank_constraints_scan(g, tree_stack(g, seed, orders=(2, 3))[2], 3)
            for r in results:
                assert r.bound < min(r.shape) and r.minors_checked > 0, r
            noise = random_stack(rng, g.p)
            if not results:
                assert rank_constraints_scan(g, noise, 3) == []
                continue
            with pytest.raises(ModelInconsistency, match=f"^{len(results)} rank bounds violated"):
                rank_constraints_scan(g, noise, 3)
