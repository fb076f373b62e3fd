"""Directed graphs with self-loops and their trek combinatorics.

Vertices are integers ``0..p-1``.  An edge ``(i, j)`` means ``i -> j``; self
loops ``(i, i)`` are ordinary edges.  Graphs are immutable after construction
and all derived classifiers are memoized per instance, so instances are safe
to share across threads.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from numbers import Integral
from typing import Iterable


class CyclicGraph(Exception):
    """A directed cycle of length >= 2 was found where a DAG was required."""


class DisconnectedGraph(Exception):
    """The undirected skeleton is disconnected."""


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer: a float or a bool is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_key_int(text: str) -> int:
    """An id from a JSON key, if ASCII decimal digits: ``int()`` also reads "+1", " 1", "1_0"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} in a JSON key is not ASCII decimal digits")
    return int(text)


def json_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number: a string or a bool is a ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _is_vertex_id(v) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def check_permutation(perm: Iterable[int], p: int) -> list[int]:
    """``perm`` as a list.

    Raises
    ------
    ValueError
        Unless ``perm`` is a permutation of ``range(p)``; a bool, a float or a
        string is no vertex id.
    """
    perm = list(perm)
    if not all(map(_is_vertex_id, perm)) or sorted(perm) != list(range(p)):
        raise ValueError(f"relabeling {perm} is not a permutation of range({p})")
    return perm


class DirectedGraph:
    """Directed graph on ``p`` vertices with an explicit edge set.

    Parameters
    ----------
    p : int
        Number of vertices, labeled ``0..p-1``.
    edges : iterable of (int, int)
        Ordered pairs ``(i, j)`` for edges ``i -> j``.  Duplicates are
        rejected; self-loops are allowed.
    """

    def __init__(self, p: int, edges: Iterable[tuple[int, int]]):
        if not _is_vertex_id(p) or p <= 0:
            raise ValueError(f"vertex count must be a positive integer, got {p!r}")
        edge_list = []
        for i, j in edges:
            if not (_is_vertex_id(i) and _is_vertex_id(j)):
                raise ValueError(f"edge ({i!r},{j!r}) needs integer vertex ids")
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"edge ({i},{j}) out of range for p={p}")
            edge_list.append((int(i), int(j)))
        if len(edge_list) != len(set(edge_list)):
            raise ValueError("duplicate edges are not allowed")
        self.p = int(p)
        self.edges = frozenset(edge_list)

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.p == other.p
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph(p={self.p}, edges={sorted(self.edges)})"

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """``parents[v]`` lists u with u -> v, self included on a loop."""
        out: list[list[int]] = [[] for _ in range(self.p)]
        for i, j in self.sorted_edges:
            out[j].append(i)
        return tuple(tuple(v) for v in out)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.p)]
        for i, j in self.sorted_edges:
            out[i].append(j)
        return tuple(tuple(v) for v in out)

    @cached_property
    def self_loops(self) -> frozenset[int]:
        return frozenset(i for i, j in self.edges if i == j)

    def has_self_loop(self, v: int) -> bool:
        return (v, v) in self.edges

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """Vertices with no incoming edge other than a self-loop."""
        return tuple(
            v
            for v in range(self.p)
            if all(u == v for u in self.parents[v])
        )

    @cached_property
    def isolated_vertices(self) -> tuple[int, ...]:
        """Vertices touching no edge except possibly their own loop."""
        return tuple(v for v, nbrs in enumerate(self.skeleton_neighbors) if not nbrs)

    @cached_property
    def is_dag(self) -> bool:
        """True if acyclic once self-loops are ignored."""
        try:
            self.topological_order()
        except CyclicGraph:
            return False
        return True

    @cached_property
    def has_all_self_loops(self) -> bool:
        return len(self.self_loops) == self.p

    @cached_property
    def skeleton_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``skeleton_neighbors[v]``: the vertices joined to v by a non-loop edge, sorted."""
        nbrs: list[set[int]] = [set() for _ in range(self.p)]
        for i, j in self.edges:
            if i != j:
                nbrs[i].add(j)
                nbrs[j].add(i)
        return tuple(tuple(sorted(s)) for s in nbrs)

    @cached_property
    def is_skeleton_connected(self) -> bool:
        """True if a flood fill over ``skeleton_neighbors`` from vertex 0 reaches every vertex."""
        reached, stack = {0}, [0]
        while stack:
            for u in self.skeleton_neighbors[stack.pop()]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        return len(reached) == self.p

    @cached_property
    def is_polytree(self) -> bool:
        """True if directed cycles are absent and the skeleton is a tree (p - 1 edges)."""
        edges = sum(map(len, self.skeleton_neighbors)) // 2
        return self.is_skeleton_connected and self.is_dag and edges == self.p - 1

    def topological_order(self) -> list[int]:
        """Linear order with every non-loop edge forward, minimal index first.

        Raises
        ------
        CyclicGraph
            If a directed cycle of length >= 2 exists.
        """
        indeg = [len(ps) - (v in ps) for v, ps in enumerate(self.parents)]
        ready = [v for v in range(self.p) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self.children[v]:
                if c == v:
                    continue
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != self.p:
            raise CyclicGraph(
                f"graph has a directed cycle through "
                f"{sorted(set(range(self.p)) - set(order))}"
            )
        return order

    @cached_property
    def equitrek_support(self) -> tuple[int, ...] | None:
        """The maximal reach sets as bitmasks; ``R_L(r)`` ends the length-L walks from r.

        Legs step independently, so the n-leg, length-L equitreks from r end on exactly the
        n-multisets ``D_n(R_L(r))``: each order's support is the union of ``D_n(R)`` over the
        maximal R, and ``D_n(R) & D_n(R') = D_n(R & R')``.  Boolean powers are eventually
        periodic and a row fixes its successor, so each start steps until it meets a seen row.

        The period can reach Landau's function of p, so stepping stops at ``None`` once the
        rows outnumber p**2, p for each start, and the readers take :func:`equitrek_multisets`
        instead.  Every DAG and every graph with all self-loops fits: there a start's rows
        never repeat, and they die out or stop growing within p steps.
        """
        child_masks = [sum(1 << c for c in cs) for cs in self.children]
        seen: set[int] = set()
        for row in (1 << r for r in range(self.p)):
            while row and row not in seen:
                if len(seen) == self.p**2:
                    return None
                seen.add(row)
                row = reduce(int.__or__, (m for v, m in enumerate(child_masks) if row >> v & 1), 0)
        # largest first: a row is maximal iff no kept row holds it, and two distinct
        # rows of one size never hold each other
        maximal: list[int] = []
        for row in sorted(seen, key=lambda m: (-m.bit_count(), m)):
            if all(row & ~m for m in maximal):
                maximal.append(row)
        return tuple(maximal)

    @cached_property
    def equitrek_neighbors(self) -> tuple[int, ...]:
        """The equitrek graph as p bitmasks: bit j of row i is set iff an equitrek joins i and j.

        That is iff i and j lie in one maximal reach set, or past the support's bound, iff
        the order-2 walk reaches the pair.
        """
        sets = self.equitrek_support
        if sets is None:
            sets = [1 << i | 1 << j for i, j in equitrek_multisets(self, 2)]
        return tuple(reduce(int.__or__, (m for m in sets if m >> v & 1), 0) for v in range(self.p))

    def relabel(self, perm: Iterable[int]) -> "DirectedGraph":
        """New graph with vertex v renamed to perm[v]."""
        perm = check_permutation(perm, self.p)
        return DirectedGraph(self.p, [(perm[i], perm[j]) for i, j in self.edges])

    # -- JSON wire format --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": [list(e) for e in self.sorted_edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DirectedGraph":
        if not isinstance(data, dict) or "p" not in data or type(data.get("edges")) is not list:
            raise ValueError("graph JSON must contain 'p' and an 'edges' list")
        for e in data["edges"]:
            if type(e) is not list or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a list of two vertex ids")
        edges = [tuple(json_int(v, "an edge endpoint") for v in e) for e in data["edges"]]
        return cls(json_int(data["p"], "'p'"), edges)


# ---------------------------------------------------------------------------
# equitrek search
# ---------------------------------------------------------------------------


def equitrek_multisets(g: DirectedGraph, order: int) -> set[tuple[int, ...]]:
    """Sorted leaf multisets of the equitreks with ``order`` legs.

    A multiset is joined by an equitrek iff it is forward-reachable from a
    diagonal state ``(r,) * order`` under synchronized steps, every leg
    moving along one edge at a time.  Bounded by the C(p + order - 1, order)
    multisets, this walk serves the graphs whose reach sets are too many.
    """
    seen = {(r,) * order for r in range(g.p)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for state in frontier:
            for combo in itertools.product(*(g.children[v] for v in state)):
                succ = tuple(sorted(combo))
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def _support_size(g: DirectedGraph, n: int) -> int:
    """Number of n-multisets joined by an equitrek.

    Inclusion-exclusion over the distinct nonempty intersections X of the maximal reach
    sets, ``sum c_X C(|X| + n - 1, n)``.  Once the terms it updates outnumber the
    C(p + n - 1, n) multisets, or when the reach sets are too many to keep, it counts
    the states of :func:`equitrek_multisets` instead, whose walk that number bounds.
    """
    if g.equitrek_support is None:
        return len(equitrek_multisets(g, n))
    budget = comb(g.p + n - 1, n)
    terms: dict[int, int] = {}
    for r in g.equitrek_support:
        budget -= len(terms) + 1
        if budget < 0:
            return len(equitrek_multisets(g, n))
        for x, c in [*terms.items(), (r, -1)]:  # -c at X & R for each term, and +1 at R
            terms[x & r] = terms.get(x & r, 0) - c
        terms = {x: c for x, c in terms.items() if c and x}
    return sum(c * comb(x.bit_count() + n - 1, n) for x, c in terms.items())


def equitrek_graph(g: DirectedGraph) -> tuple[int, ...]:
    """Neighbor bitmasks of the bidirected equitrek graph of ``g``, memoized on the graph."""
    return g.equitrek_neighbors


def _separated(g: DirectedGraph, group_i, group_j, group_k) -> bool:
    """True iff no equitrek-graph path from I to J stays inside I+J+K.

    ``ValueError`` for an id that is not an integer in ``range(p)`` (a bool is not one),
    an empty I or J, or overlapping groups.
    """
    groups = [list(group_i), list(group_j), list(group_k)]
    # checked before the groups become sets, where True and 1 collapse; keyed by repr,
    # so an unhashable id is named too
    bad = {
        repr(v): v for group in groups for v in group if not _is_vertex_id(v) or not 0 <= v < g.p
    }
    if bad:  # integers in numeric order, then the rest by repr
        bad = sorted(
            bad.values(), key=lambda v: (0, v) if isinstance(v, Integral) else (1, repr(v))
        )
        raise ValueError(f"vertex ids {bad} lie outside range({g.p})")
    set_i, set_j, set_k = ({int(v) for v in group} for group in groups)
    if not set_i or not set_j:
        raise ValueError("I and J must be nonempty")
    if set_i & set_j or set_i & set_k or set_j & set_k:
        raise ValueError("the vertex groups must be pairwise disjoint")
    j = sum(1 << v for v in set_j)
    frontier, unreached = set_i, set_k
    while frontier:
        step = reduce(int.__or__, (g.equitrek_neighbors[v] for v in frontier), 0)
        if step & j:
            return False
        frontier = {v for v in unreached if step >> v & 1}
        unreached -= frontier
    return True


def implied_marginal_independence(
    g: DirectedGraph, group_i: Iterable[int], group_j: Iterable[int]
) -> bool:
    """True iff no equitrek-graph biedge joins the two vertex groups: separation given K = {}."""
    return _separated(g, group_i, group_j, ())


def implied_conditional_independence(
    g: DirectedGraph,
    group_i: Iterable[int],
    group_j: Iterable[int],
    group_k: Iterable[int],
) -> bool:
    """Separation of I and J by the complement of I+J+K in the equitrek graph.

    Holds iff no equitrek-graph path from I to J stays inside I+J+K; this is
    the sufficient criterion for the conditional independence X_I _||_ X_J
    given X_K in the Gaussian second-order model.
    """
    return _separated(g, group_i, group_j, group_k)


# ---------------------------------------------------------------------------
# skeleton classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarClassification:
    """Skeleton shape report: 'star', 'generalized-two-star', or 'neither'."""

    kind: str
    center: int | None = None


def classify_star(g: DirectedGraph) -> StarClassification:
    """Classify the undirected skeleton of a connected graph.

    A star has one hub on every edge.  A generalized two star has one vertex
    shared by every 3-vertex skeleton path.  The hub / center is reported;
    ties break to the smallest index.

    Raises
    ------
    DisconnectedGraph
        If the skeleton is not connected.
    """
    if not g.is_skeleton_connected:
        raise DisconnectedGraph("star classification needs a connected skeleton")
    degrees = [len(nbrs) for nbrs in g.skeleton_neighbors]
    hubs = [v for v, d in enumerate(degrees) if 2 * d == sum(degrees)]  # p = 1 gives [0]
    if hubs:
        return StarClassification(kind="star", center=hubs[0])
    common = set(range(g.p))
    for mid, nbrs in enumerate(g.skeleton_neighbors):
        for a, b in itertools.combinations(nbrs, 2):
            common &= {a, mid, b}
    if common:
        return StarClassification(kind="generalized-two-star", center=min(common))
    return StarClassification(kind="neither")
