"""Shared graph fixtures: the small worked-example graphs used throughout, the
seeded and exhaustive graph families the tests sweep, one seeded model draw, and
a JSON reader as strict as RFC 8259."""

import json

import numpy as np
import pytest

from lyapcum import (
    DirectedGraph,
    DiagonalCumulant,
    ParameterMatrix,
    model_stack,
    random_omegas,
    sample_stable_matrix,
)


def single_looped_vertex() -> DirectedGraph:
    """Vertex 0 with its self-loop: the one-vertex tree."""
    return DirectedGraph(1, [(0, 0)])


def two_node_chain() -> DirectedGraph:
    """0 -> 1 with a self-loop at the source only."""
    return DirectedGraph(2, [(0, 0), (0, 1)])


def two_node_both_loops() -> DirectedGraph:
    """0 -> 1 with self-loops at both vertices."""
    return DirectedGraph(2, [(0, 0), (0, 1), (1, 1)])


def sink_loop_chain() -> DirectedGraph:
    """0 -> 1 with a self-loop at the sink only (non-identifiable)."""
    return DirectedGraph(2, [(0, 1), (1, 1)])


def bare_two_cycle() -> DirectedGraph:
    """0 <-> 1 without self-loops (non-identifiable)."""
    return DirectedGraph(2, [(0, 1), (1, 0)])


def two_cycle_with_loops() -> DirectedGraph:
    """Complete graph on two vertices: 0 <-> 1 plus both loops."""
    return DirectedGraph(2, [(0, 0), (1, 1), (0, 1), (1, 0)])


def collider_square() -> DirectedGraph:
    """0->1, 0->3, 2->3 with all self-loops (the CI worked example)."""
    return DirectedGraph(4, [(0, 1), (0, 3), (2, 3), (0, 0), (1, 1), (2, 2), (3, 3)])


def diamond() -> DirectedGraph:
    """0->1, 0->2, 1->3, 2->3, loop at 0 only (non-identifiable family)."""
    return DirectedGraph(4, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 3)])


def four_node_tree() -> DirectedGraph:
    """Directed tree 0->1, 1->2, 1->3, source loop (toric fixture)."""
    return DirectedGraph(4, [(0, 0), (0, 1), (1, 2), (1, 3)])


def five_node_tree() -> DirectedGraph:
    """Directed tree 0->1, 0->2, 2->3, 2->4, source loop."""
    return DirectedGraph(5, [(0, 0), (0, 1), (0, 2), (2, 3), (2, 4)])


def fork_three() -> DirectedGraph:
    """0->1, 0->2 with loop at 0 (parents rank-bound fixture)."""
    return DirectedGraph(3, [(0, 0), (0, 1), (0, 2)])


def end_loop_path() -> DirectedGraph:
    """Path 0->1->2->3 with self-loops at the two ends."""
    return DirectedGraph(4, [(0, 0), (3, 3), (0, 1), (1, 2), (2, 3)])


def chain_with_end_loops() -> DirectedGraph:
    """Path 0->1->2 with loops at 0 and 2 (polytree fixture)."""
    return DirectedGraph(3, [(0, 0), (2, 2), (0, 1), (1, 2)])


def banded_dag(p: int) -> DirectedGraph:
    """All self-loops plus the edges v -> v+1 and v -> v+2."""
    edges = [(v, v) for v in range(p)] + [(v, v + 1) for v in range(p - 1)]
    return DirectedGraph(p, edges + [(v, v + 2) for v in range(p - 2)])


def source_above_cycles(lengths) -> DirectedGraph:
    """Vertex 0 pointing into one directed cycle of each length, without loops."""
    edges, p = [], 1
    for length in lengths:
        edges += [(0, p)] + [(p + i, p + (i + 1) % length) for i in range(length)]
        p += length
    return DirectedGraph(p, edges)


def unit_parameters(g: DirectedGraph, diag: float, off: float) -> ParameterMatrix:
    """Matrix with every self-loop at ``diag`` and every other edge at ``off``."""
    entries = np.zeros((g.p, g.p))
    for i, j in g.edges:
        entries[j, i] = diag if i == j else off
    return ParameterMatrix(g, entries)


def unit_noise(p: int, orders=(2, 3, 4)) -> dict[int, DiagonalCumulant]:
    return {n: DiagonalCumulant(n, np.ones(p)) for n in orders}


def fig1_matrix() -> ParameterMatrix:
    """The worked example: a00 = 1/2 and a10 = 1 on the two-node chain."""
    return unit_parameters(two_node_chain(), diag=0.5, off=1.0)


def random_graph(rng, p, edge_prob, all_loops=False, dag=False, nonempty=False) -> DirectedGraph:
    """Each slot (i, j), in row-major order, an edge with probability ``edge_prob``.

    ``dag`` keeps only the slots i < j, ``all_loops`` puts every loop slot in
    without a draw, and ``nonempty`` puts the first slot in when the draw is empty.
    """
    slots = [(i, j) for i in range(p) for j in range(i + 1 if dag else 0, p)]
    edges = [(i, j) for i, j in slots if (all_loops and i == j) or rng.uniform() < edge_prob]
    return DirectedGraph(p, edges if edges or not nonempty else slots[:1])


def edge_sets(p, loops=True, masks=None):
    """Every edge set on p vertices in mask order, or the sets of ``masks``.

    Bit k of a mask picks the k-th slot (i, j) in row-major order; the loop
    slots are left out unless ``loops``.
    """
    slots = [(i, j) for i in range(p) for j in range(p) if loops or i != j]
    for mask in range(1 << len(slots)) if masks is None else masks:
        yield [e for k, e in enumerate(slots) if int(mask) >> k & 1]


def reachable(steps, v) -> set[int]:
    """The vertices reachable from v, v included, where ``steps[u]`` lists u's successors."""
    seen, stack = {v}, [v]
    while stack:
        for c in steps[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def strict_json(text: str):
    """``json.loads`` that refuses NaN and +-Infinity, which RFC 8259 JSON does not have."""

    def refuse(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=refuse)


def seeded_model(g, seed, noise_offset, radius=0.6, orders=(2, 3, 4)):
    """A stable A drawn at ``seed``, noise drawn at ``seed + noise_offset``, and their stack."""
    pm = sample_stable_matrix(g, seed=seed, target_radius=radius)
    omegas = random_omegas(np.random.default_rng(seed + noise_offset), g.p, orders)
    return pm, omegas, model_stack(pm, omegas)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
