import itertools
import re
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
    count_equations_vs_parameters,
    equitrek_graph,
    implied_conditional_independence,
    implied_marginal_independence,
    sample_stable_matrix,
    series_cumulant,
    solve_cumulant,
    spectral_radius,
)
from lyapcum.graphs import StarClassification, equitrek_multisets
from oracles import enumerate_equitreks
from conftest import (
    bare_two_cycle,
    collider_square,
    diamond,
    edge_sets,
    random_graph,
    reachable,
    sink_loop_chain,
    source_above_cycles,
    two_node_chain,
)


def has_biedge(g, i, j) -> bool:
    return bool(equitrek_graph(g)[i] >> j & 1)


def biedges(g) -> set[tuple[int, int]]:
    """The pairs i <= j that the equitrek graph's neighbor masks join."""
    return {(i, j) for i in range(g.p) for j in range(i, g.p) if has_biedge(g, i, j)}


def masks(pairs, p) -> tuple[int, ...]:
    """Neighbor masks of the bidirected graph on range(p) with the given pairs."""
    rows = [0] * p
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


class TestConstruction:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 1), (0, 1)])

    # (p, edges, whole message) that the constructor refuses
    REFUSALS = {
        "float-id": (2, [(0.5, 1)], "edge (0.5,1) needs integer vertex ids"),
        "float-id-above-one": (2, [(1.9, 0)], "edge (1.9,0) needs integer vertex ids"),
        "integral-float-id": (2, [(0, 1.0)], "edge (0,1.0) needs integer vertex ids"),
        "string-id": (2, [("1", 0)], "edge ('1',0) needs integer vertex ids"),
        "bool-id": (2, [(True, 1)], "edge (True,1) needs integer vertex ids"),
        "float-p": (2.5, [(0, 1)], "vertex count must be a positive integer, got 2.5"),
        "bool-p": (True, [], "vertex count must be a positive integer, got True"),
        "string-p": ("2", [], "vertex count must be a positive integer, got '2'"),
        "zero-p": (0, [], "vertex count must be a positive integer, got 0"),
        "negative-id": (2, [(-1, 0)], "edge (-1,0) out of range for p=2"),
    }

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refusals(self, case):
        p, edges, message = self.REFUSALS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectedGraph(p, edges)

    def test_numpy_integers_become_ints(self):
        g = DirectedGraph(np.int64(3), [(np.int32(0), np.int64(1)), (np.int8(2), 2)])
        assert g == DirectedGraph(3, [(0, 1), (2, 2)])
        assert type(g.p) is int and all(type(v) is int for e in g.edges for v in e)

    def test_json_round_trip(self):
        g = collider_square()
        assert DirectedGraph.from_json_dict(g.to_json_dict()) == g

    def test_relabel_rejects_non_permutations(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        assert g.relabel([2, 0, 1]) == DirectedGraph(3, [(2, 0), (0, 1)])
        assert g.relabel(np.array([2, 0, 1])) == g.relabel([2, 0, 1])
        # [0, 0, 1] would merge vertices 0 and 1 into a graph with a loop
        for perm in ([0, 0, 1], [1, 0], [0, 1, 3], [2.0, 0, 1], [2, False, True], ["a", 0, 1]):
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
            g = random_graph(rng, 4, 0.4)
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
        assert not has_biedge(g, 0, 2)
        assert has_biedge(g, 1, 3)

    def test_reflexive(self):
        # the empty trek joins a vertex to itself
        assert has_biedge(bare_two_cycle(), 0, 0)

    def test_bare_two_cycle(self):
        assert not has_biedge(bare_two_cycle(), 0, 1)

    def test_matches_enumeration_small(self, rng):
        # nonemptiness of the literal bounded enumeration at the
        # product-graph diameter bound L = p*p
        for _ in range(10):
            p = int(rng.integers(2, 4))
            g = random_graph(rng, p, edge_prob=0.3)
            for i in range(p):
                for j in range(i, p):
                    enumerated = bool(enumerate_equitreks(g, (i, j), p * p))
                    assert has_biedge(g, i, j) == enumerated

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
                    assert has_biedge(g, i, j) == ((i, j) in joined)


class TestEquitrekGraph:
    def test_collider_square_biedges(self):
        pairs = biedges(collider_square())
        off = {b for b in pairs if b[0] != b[1]}
        assert off == {(0, 1), (0, 3), (1, 3), (2, 3)}
        assert all((v, v) in pairs for v in range(4))

    def test_diagonal_pattern_loops_only(self):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2)])
        assert equitrek_graph(g) == (0b001, 0b010, 0b100)

    def test_all_loops_matches_common_ancestor(self, rng):
        # with every self-loop present, biedges coincide with shared ancestry
        for _ in range(20):
            p = int(rng.integers(2, 5))
            g = random_graph(rng, p, edge_prob=0.35, all_loops=True)
            ancestors = [reachable(g.parents, v) for v in range(p)]
            for i in range(p):
                for j in range(p):
                    assert has_biedge(g, i, j) == bool(ancestors[i] & ancestors[j])


@st.composite
def small_graphs(draw):
    """Random digraph on 3 to 6 vertices, self-loops allowed."""
    p = draw(st.integers(3, 6))
    slots = [(i, j) for i in range(p) for j in range(p)]
    return DirectedGraph(p, draw(st.sets(st.sampled_from(slots))))


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


def support_size(g: DirectedGraph, order: int) -> int:
    """Multisets of ``order`` joined by an equitrek, from the equation count."""
    zero = count_equations_vs_parameters(g, order).zero_entries[order]
    return comb(g.p + order - 1, order) - zero


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
        assert support_size(a.g, order) == len(support)
        if order == 2:
            assert equitrek_graph(a.g) == masks(support, a.p)


class TestEquitrekSupport:
    @staticmethod
    def spy_walk(monkeypatch) -> list:
        """Record the order of each walk the readers of the support fall back on."""
        from lyapcum import graphs

        orders = []
        walk = graphs.equitrek_multisets
        monkeypatch.setattr(
            graphs, "equitrek_multisets", lambda g, n: orders.append(n) or walk(g, n)
        )
        return orders

    def test_every_small_graph_matches_the_walk(self, monkeypatch):
        # all 1 + 16 + 512 edge sets at p <= 3, self-loops included, each
        # read from its reach sets alone
        walked = self.spy_walk(monkeypatch)
        for p in (1, 2, 3):
            for edges in edge_sets(p):
                g = DirectedGraph(p, edges)
                for order in (2, 3, 4):
                    walk = equitrek_multisets(g, order)
                    assert support_size(g, order) == len(walk), (g, order)
                    if order == 2:
                        assert g.equitrek_neighbors == masks(walk, p), g
        assert walked == []

    @pytest.mark.parametrize(
        "k, walked", [(2, []), (3, [2]), (7, [2, 3]), (10, [2, 3, 4])]
    )
    def test_sources_missing_one_sink_each(self, k, walked, monkeypatch):
        # unlooped sources 0..k-1, each pointing to every looped sink k..2k-1
        # but its own: the k reach sets "all sinks but one" meet in 2^k
        # distinct intersections.  Each order's inclusion-exclusion gives way
        # to the walk once its terms outnumber the C(2k + n - 1, n) multisets.
        # A multiset of sinks is joined iff it misses a sink, and each source
        # joins itself.
        orders = self.spy_walk(monkeypatch)
        g = DirectedGraph(
            2 * k,
            [(k + j, k + j) for j in range(k)]
            + [(i, k + j) for i in range(k) for j in range(k) if i != j],
        )
        count = count_equations_vs_parameters(g, 4)
        for order in (2, 3, 4):
            expected = comb(k + order - 1, order) - comb(order - 1, k - 1) + k
            assert comb(2 * k + order - 1, order) - count.zero_entries[order] == expected
            assert len(equitrek_multisets(g, order)) == expected
        assert orders == walked

    @pytest.mark.parametrize(
        "lengths, rows, walked",
        [((2, 3, 5, 7), 210 + 1, [2, 3, 4]), ((2, 3, 5, 7, 11), None, [2, 3, 4, 2])],
    )
    def test_source_above_coprime_cycles(self, lengths, rows, walked, monkeypatch):
        # a source pointing into directed cycles of coprime lengths: its rows
        # after the first take one vertex of each cycle and repeat only after
        # the product of the lengths.  With the cycles' singletons, 1 + 210 +
        # 17 rows fit in p**2 = 324, and 210 of them and {0} are maximal;
        # 2310 rows overflow p**2 = 841, so every reader walks.
        orders = self.spy_walk(monkeypatch)
        g = source_above_cycles(lengths)
        p = g.p
        assert (g.equitrek_support and len(g.equitrek_support)) == rows
        count = count_equations_vs_parameters(g, 4)
        for order in (2, 3, 4):
            walk = equitrek_multisets(g, order)
            assert comb(p + order - 1, order) - count.zero_entries[order] == len(walk)
        assert g.equitrek_neighbors == masks(equitrek_multisets(g, 2), p)
        assert orders == walked


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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_graphs())
    def test_separation_implies_marginal_independence(self, g):
        # a biedge i-j is a path inside every I+J+K, so analyze asks only the marginal pairs
        for i, j in itertools.combinations(range(g.p), 2):
            for k in set(range(g.p)) - {i, j}:
                if implied_conditional_independence(g, [i], [j], [k]):
                    assert implied_marginal_independence(g, [i], [j])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            implied_marginal_independence(collider_square(), [0], [0])

    # queries on the path 0 -> 1 -> 2 that both functions refuse: (groups, whole message)
    REFUSALS = {
        "j-above-p": ([[0], [99]], "vertex ids [99] lie outside range(3)"),
        "i-negative": ([[-1], [0]], "vertex ids [-1] lie outside range(3)"),
        "i-above-p": ([[5], [0]], "vertex ids [5] lie outside range(3)"),
        "j-negative": ([[0], [-1]], "vertex ids [-1] lie outside range(3)"),
        "both-outside": ([[0, 7], [-2, 1]], "vertex ids [-2, 7] lie outside range(3)"),
        "k-above-p": ([[0], [2], [7]], "vertex ids [7] lie outside range(3)"),
        "i-float": ([[0.5], [1]], "vertex ids [0.5] lie outside range(3)"),
        "i-string": ([["a"], [1]], "vertex ids ['a'] lie outside range(3)"),
        "i-bool": ([[True], [0]], "vertex ids [True] lie outside range(3)"),
        "bool-beside-its-int": ([[True], [1]], "vertex ids [True] lie outside range(3)"),
        "i-list": ([[[0]], [1]], "vertex ids [[0]] lie outside range(3)"),
        "j-above-p-given-k": ([[0], [9], [1]], "vertex ids [9] lie outside range(3)"),
        "empty-i": ([[], [0]], "I and J must be nonempty"),
        "empty-j": ([[0], [], [1]], "I and J must be nonempty"),
        "overlapping-i-j": ([[0, 1], [1]], "the vertex groups must be pairwise disjoint"),
        "overlapping-i-k": ([[0], [2], [0, 1]], "the vertex groups must be pairwise disjoint"),
    }

    def test_numpy_integer_ids_answer_as_ints(self):
        # a looped path past 64 vertices, so an id past a machine word's bits is asked too
        g = DirectedGraph(70, [(0, 0)] + [(i, i + 1) for i in range(69)])
        for i, j, k in [(0, 69, 1), (2, 67, 1), (68, 69, 0), (5, 66, 64)]:
            ni, nj, nk = np.int64(i), np.int32(j), np.int8(k)
            assert implied_marginal_independence(g, [ni], [nj]) == (
                implied_marginal_independence(g, [i], [j])
            )
            assert implied_conditional_independence(g, [ni], [nj], [nk]) == (
                implied_conditional_independence(g, [i], [j], [k])
            )

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refuses_bad_groups(self, case):
        groups, message = self.REFUSALS[case]
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        i, j, k = groups if len(groups) == 3 else (*groups, [])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            implied_conditional_independence(g, i, j, k)
        if len(groups) == 2:  # marginal independence is separation given K = {}
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                implied_marginal_independence(g, i, j)


def brute_force_star(g) -> StarClassification:
    """The classification by its definitions, on the skeleton as a set of vertex pairs:
    the least hub on every skeleton edge, else the least vertex on every 3-vertex path."""
    skeleton = {frozenset(e) for e in g.edges if e[0] != e[1]}
    paths = [
        {a, mid, b}
        for a, mid, b in itertools.permutations(range(g.p), 3)
        if {a, mid} in skeleton and {mid, b} in skeleton
    ]
    hubs = set(range(g.p)).intersection(*skeleton)  # every vertex when p = 1
    common = set(range(g.p)).intersection(*paths)
    if hubs:
        return StarClassification(kind="star", center=min(hubs))
    if common:
        return StarClassification(kind="generalized-two-star", center=min(common))
    return StarClassification(kind="neither")


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
            assert classify_star(g) == brute_force_star(g), g


class TestAdjacencyViews:
    """The views read from the adjacency rows against scans of the edge set."""

    @staticmethod
    def edge_scan_views(g):
        """(isolated vertices, topological order or None, is_polytree) from ``g.edges``."""
        skeleton = {frozenset(e) for e in g.edges if e[0] != e[1]}
        isolated = tuple(v for v in range(g.p) if not any(v in e for e in skeleton))
        # the least vertex whose non-loop parents are all placed, until none is
        order, left = [], set(range(g.p))
        while left:
            free = [v for v in sorted(left) if not any(j == v != i in left for i, j in g.edges)]
            if not free:
                order = None
                break
            order.append(free[0])
            left.remove(free[0])
        nbrs = [[u for e in skeleton if v in e for u in e - {v}] for v in range(g.p)]
        connected = reachable(nbrs, 0) == set(range(g.p))
        polytree = connected and order is not None and len(skeleton) == g.p - 1
        return isolated, order, polytree

    @staticmethod
    def size_keyed_support(g):
        """The maximal reach rows picked from a dict keyed by size, or None past p**2 rows."""
        rows = set()
        for row in (1 << r for r in range(g.p)):
            while row and row not in rows:
                rows.add(row)
                step = {c for v in range(g.p) if row >> v & 1 for c in g.children[v]}
                row = sum(1 << c for c in step)
        if len(rows) > g.p**2:
            return None
        maximal = {}
        for row in sorted(rows, key=lambda m: (-m.bit_count(), m)):
            size = row.bit_count()
            if all(row & ~m for k, ms in maximal.items() if k > size for m in ms):
                maximal.setdefault(size, []).append(row)
        return tuple(itertools.chain.from_iterable(maximal.values()))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_small_graphs_match_the_edge_scans(self, p):
        # every loop-free edge set at p <= 4, under every set of self-loops at p <= 3;
        # at p = 4 under none, all, and the k-th set mod 16 for the k-th edge set
        for k, edges in enumerate(edge_sets(p, loops=False)):
            bare = DirectedGraph(p, edges)
            isolated, order, polytree = self.edge_scan_views(bare)
            star = brute_force_star(bare) if bare.is_skeleton_connected else None
            for loops in range(1 << p) if p < 4 else (0, (1 << p) - 1, k % (1 << p)):
                g = DirectedGraph(p, edges + [(v, v) for v in range(p) if loops >> v & 1])
                assert g.isolated_vertices == isolated, g
                assert (g.topological_order() if g.is_dag else None) == order, g
                assert g.is_polytree == polytree, g
                if star:
                    assert classify_star(g) == star, g
                assert g.equitrek_support == self.size_keyed_support(g), g
