import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcum import (
    CyclicGraph,
    DiagonalCumulant,
    DirectedGraph,
    DisconnectedGraph,
    ParameterMatrix,
    classify_star,
    equitrek_graph,
    equitrek_multisets,
    implied_conditional_independence,
    implied_marginal_independence,
    sample_stable_matrix,
    series_cumulant,
    solve_cumulant,
    spectral_radius,
)
from oracles import enumerate_equitreks
from conftest import (
    bare_two_cycle,
    collider_square,
    diamond,
    sink_loop_chain,
    two_node_chain,
)


def random_graph(rng, p, edge_prob=0.4, all_loops=False):
    edges = set()
    for i in range(p):
        for j in range(p):
            if all_loops and i == j:
                edges.add((i, j))
            elif rng.uniform() < edge_prob:
                edges.add((i, j))
    return DirectedGraph(p, edges)


class TestConstruction:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 1), (0, 1)])

    def test_json_round_trip(self):
        g = collider_square()
        assert DirectedGraph.from_json_dict(g.to_json_dict()) == g

    def test_relabel_rejects_non_permutations(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        assert g.relabel([2, 0, 1]) == DirectedGraph(3, [(2, 0), (0, 1)])
        # [0, 0, 1] would merge vertices 0 and 1 into a graph with a loop
        for perm in ([0, 0, 1], [1, 0], [0, 1, 3]):
            with pytest.raises(ValueError, match="not a permutation"):
                g.relabel(perm)

    def test_predicates(self):
        g = collider_square()
        assert g.is_dag
        assert g.has_all_self_loops
        assert g.sources == (0, 2)
        assert g.isolated_vertices == ()
        assert not bare_two_cycle().is_dag


class TestTopologicalOrder:
    def test_two_node_chain(self):
        assert two_node_chain().topological_order() == [0, 1]

    def test_diamond_tie_break(self):
        assert diamond().topological_order() == [0, 1, 2, 3]

    def test_cycle_raises(self):
        with pytest.raises(CyclicGraph):
            bare_two_cycle().topological_order()


class TestEnumerateEquitreks:
    def test_two_node_chain_legs(self):
        treks = enumerate_equitreks(two_node_chain(), (0, 1), 3)
        assert len(treks) == 3
        for t, trek in enumerate(treks, start=1):
            assert trek.top == 0
            assert trek.legs[0] == (0,) * (t + 1)
            assert trek.legs[1] == (0,) * t + (1,)
            assert trek.is_equitrek

    def test_zero_length_single_leaf(self):
        treks = enumerate_equitreks(collider_square(), (2,), 0)
        assert len(treks) == 1
        assert treks[0].legs == ((2,),)

    def test_sink_loop_chain_has_none(self):
        assert enumerate_equitreks(sink_loop_chain(), (0, 1), 10) == []

    def test_leaf_swap_symmetry(self, rng):
        for _ in range(10):
            g = random_graph(rng, 4)
            i, j = rng.integers(0, 4, 2)
            fwd = enumerate_equitreks(g, (i, j), 4)
            rev = enumerate_equitreks(g, (j, i), 4)
            assert len(fwd) == len(rev)
            assert {(t.top, frozenset(t.legs)) for t in fwd} == {
                (t.top, frozenset(t.legs)) for t in rev
            }


class TestEquitrekExists:
    def test_collider_square(self):
        g = collider_square()
        assert not g.equitrek_graph.has_biedge(0, 2)
        assert g.equitrek_graph.has_biedge(1, 3)

    def test_reflexive(self):
        # the empty trek joins a vertex to itself
        assert bare_two_cycle().equitrek_graph.has_biedge(0, 0)

    def test_bare_two_cycle(self):
        assert not bare_two_cycle().equitrek_graph.has_biedge(0, 1)

    def test_matches_enumeration_small(self, rng):
        # nonemptiness of the literal bounded enumeration at the
        # product-graph diameter bound L = p*p
        for _ in range(10):
            p = int(rng.integers(2, 4))
            g = random_graph(rng, p, edge_prob=0.3)
            for i in range(p):
                for j in range(i, p):
                    enumerated = bool(enumerate_equitreks(g, (i, j), p * p))
                    assert g.equitrek_graph.has_biedge(i, j) == enumerated

    def test_matches_boolean_powers(self, rng):
        # independent oracle at p in {4,5}: a shared top at distance l exists
        # iff some row of the boolean l-step reachability hits both leaves
        for _ in range(10):
            p = int(rng.integers(4, 6))
            g = random_graph(rng, p, edge_prob=0.3)
            adj = np.zeros((p, p), dtype=bool)
            for a, b in g.edges:
                adj[a, b] = True
            reach = np.eye(p, dtype=bool)
            joined = {(i, i) for i in range(p)}
            for _ in range(p * p):
                reach = (reach.astype(int) @ adj.astype(int)) > 0
                for r in range(p):
                    hit = np.flatnonzero(reach[r])
                    joined.update(
                        (int(x), int(y)) for x in hit for y in hit if x <= y
                    )
            for i in range(p):
                for j in range(i, p):
                    assert g.equitrek_graph.has_biedge(i, j) == ((i, j) in joined)


class TestEquitrekGraph:
    def test_collider_square_biedges(self):
        eg = equitrek_graph(collider_square())
        off = {b for b in eg.biedges if b[0] != b[1]}
        assert off == {(0, 1), (0, 3), (1, 3), (2, 3)}
        assert all((v, v) in eg.biedges for v in range(4))

    def test_diagonal_pattern_loops_only(self):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2)])
        assert equitrek_graph(g).biedges == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_all_loops_matches_common_ancestor(self, rng):
        # with every self-loop present, biedges coincide with shared ancestry
        for _ in range(20):
            p = int(rng.integers(2, 5))
            g = random_graph(rng, p, edge_prob=0.35, all_loops=True)
            eg = equitrek_graph(g)
            ancestors = []
            for v in range(p):
                anc = {v}
                changed = True
                while changed:
                    changed = False
                    for a, b in g.edges:
                        if b in anc and a not in anc:
                            anc.add(a)
                            changed = True
                ancestors.append(anc)
            for i in range(p):
                for j in range(p):
                    assert eg.has_biedge(i, j) == bool(ancestors[i] & ancestors[j])


@st.composite
def positive_models(draw):
    """Random digraph (p <= 5) with positive weights scaled to radius 0.5."""
    p = draw(st.integers(1, 5))
    slots = [(i, j) for i in range(p) for j in range(p)]
    g = DirectedGraph(p, draw(st.sets(st.sampled_from(slots))))
    entries = np.zeros((p, p))
    for i, j in g.sorted_edges:
        entries[j, i] = draw(st.floats(0.1, 1.0))
    rho = spectral_radius(entries)
    if rho > 0.0:
        entries *= 0.5 / rho
    w = draw(st.lists(st.floats(0.5, 2.0), min_size=p, max_size=p))
    return ParameterMatrix(g, entries), np.array(w)


class TestEquitrekMultisets:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(positive_models(), st.integers(2, 3))
    def test_matches_positive_series_support(self, model, order):
        # with positive weights and noise no walk sum cancels, so an entry of
        # the truncated series is positive iff an equitrek of length below
        # the number of multisets (the synchronized BFS depth bound) joins it
        a, w = model
        terms = comb(a.p + order - 1, order) + 2
        series = series_cumulant(a, DiagonalCumulant(order, w), terms=terms)
        support = {key for key, value in series.values.items() if value > 0.0}
        assert equitrek_multisets(a.g, order) == support
        if order == 2:
            eg = equitrek_graph(a.g)
            assert eg.biedges == support
            for v in range(a.p):
                scan = {b if a_ == v else a_ for a_, b in eg.biedges if v in (a_, b)}
                assert eg.neighbors(v) == tuple(sorted(scan))


class TestIndependence:
    def test_collider_square_marginal(self):
        assert implied_marginal_independence(collider_square(), [0, 1], [2])

    def test_edge_forces_dependence(self):
        assert not implied_marginal_independence(two_node_chain(), [0], [1])

    def test_marginal_matches_covariance(self, rng):
        for trial in range(8):
            g = random_graph(rng, 5, edge_prob=0.25, all_loops=(trial % 2 == 0))
            a = sample_stable_matrix(g, seed=trial, target_radius=0.5)
            s = solve_cumulant(a, DiagonalCumulant(2, np.ones(5))).to_dense()
            for i in range(5):
                for j in range(i + 1, 5):
                    implied = implied_marginal_independence(g, [i], [j])
                    if implied:
                        assert abs(s[i, j]) <= 1e-12

    def test_conditional_examples(self):
        g = collider_square()
        assert implied_conditional_independence(g, [1], [2], [0])
        assert not implied_conditional_independence(g, [1], [3], [0])

    def test_empty_k_reduces_to_marginal(self, rng):
        for _ in range(10):
            g = random_graph(rng, 4, edge_prob=0.3)
            i, j = 0, 3
            assert implied_conditional_independence(
                g, [i], [j], []
            ) == implied_marginal_independence(g, [i], [j])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            implied_marginal_independence(collider_square(), [0], [0])


def brute_force_two_star(g):
    """Every pair of 3-vertex paths shares a vertex, and one vertex is shared
    by all paths."""
    paths = []
    for mid in range(g.p):
        for a, b in itertools.combinations(g.skeleton_neighbors[mid], 2):
            paths.append({a, mid, b})
    if not paths:
        return True, None
    for x, y in itertools.combinations(paths, 2):
        if not (x & y):
            return False, None
    common = set.intersection(*paths)
    return bool(common), (min(common) if common else None)


class TestClassifyStar:
    def test_star(self):
        g = DirectedGraph(6, [(0, k) for k in range(1, 6)])
        res = classify_star(g)
        assert res.kind == "star" and res.center == 0

    def test_generalized_two_star(self):
        g = DirectedGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)])
        res = classify_star(g)
        assert res.kind == "generalized-two-star" and res.center == 0

    def test_path_is_neither(self):
        g = DirectedGraph(6, [(k, k + 1) for k in range(5)])
        assert classify_star(g).kind == "neither"

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            classify_star(DirectedGraph(3, [(0, 1)]))

    def test_matches_brute_force(self, rng):
        # exhaustive 3-path enumeration as the oracle on random skeletons
        found = 0
        while found < 25:
            p = int(rng.integers(6, 9))
            g = random_graph(rng, p, edge_prob=0.25)
            if not g.is_skeleton_connected:
                continue
            found += 1
            expected, _ = brute_force_two_star(g)
            res = classify_star(g)
            assert (res.kind in ("star", "generalized-two-star")) == expected
