"""The base-trek calculus: placement polynomials and the exact cumulant.

Every steady-state cumulant entry is a sum over equitreks of noise-weighted
edge monomials.  For a DAG whose self-loops all carry one weight ``t``, the
infinitely many equitreks over one base trek (legs that are loop-free paths)
close into one rational coefficient, for any number of legs.

Theorem.  Let a base trek have legs of ``x_1, ..., x_n`` edges, with
``X = sum_j x_j`` and ``M = max_j x_j``, and let ``s = t^n``.  Its equitreks
weigh, in total, the base monomial times

    C(x_1, ..., x_n; t) = t^(nM - X) h(s) / (1 - s)^(X+1),

where ``h`` has integer coefficients and degree at most ``X - M``.

Proof.  A leg of length ``L`` over a base path of ``x`` edges is that path
with ``L - x`` self-loop steps spread over its ``x + 1`` vertices: there are
``C(L, x)`` of them, each the path monomial times ``t^(L-x)``.  An equitrek of
length ``L`` picks one such leg per base leg, so there are
``f(L) = prod_j C(L, x_j)`` of them, each the base monomial times
``t^(nL - X)``.  Hence the total is ``t^(nM - X) sum_{k>=0} f(M + k) s^k``.
``g(k) = f(M + k)`` is a polynomial in ``k`` of degree ``X`` that vanishes at
``k = -1, ..., -M`` (there ``0 <= M + k < M`` and some binomial is zero), so
``sum_k g(k) s^k = h(s) / (1 - s)^(X+1)`` with ``deg h <= X - M`` (Stanley,
*Enumerative Combinatorics* I, Cor. 4.3.1).  Multiplying the series by
``(1 - s)^(X+1)`` gives

    h_l = sum_{k<=l} (-1)^(l-k) C(X+1, l-k) prod_j C(M+k, x_j),

an integer.  For two legs ``h_l = C(max, min - l) C(min, l)``: the
coefficient of ``t^(2l)`` in the placement polynomial ``P_{x,y}``.

Placement-polynomial arithmetic is exact over the integers, and a Fraction
``t`` gives an exact coefficient.  The placement table needs neither graphs
nor arrays, so the functions that do import ``graphs``, ``engine``,
``tensors`` and numpy themselves.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .engine import DiagonalCumulant, ParameterMatrix
    from .graphs import DirectedGraph
    from .tensors import SymmetricTensor


class PoleAtUnit(Exception):
    """Self-loop parameter hit the pole |t| >= 1.

    A DAG whose self-loops all weigh t has every eigenvalue equal to t, so
    this is also the instability of the constant-self-loop model.
    """


# ---------------------------------------------------------------------------
# placement polynomials and base-trek coefficients
# ---------------------------------------------------------------------------


def placement_polynomial(*xs: int) -> list[int]:
    """Integer coefficients of ``h`` (module docstring), ascending in ``s = t^n``.

    ``xs`` are the leg lengths.  With two legs the coefficient of ``t^(2l)``
    is ``C(max(x,y), min(x,y)-l) * C(min(x,y), l)``.
    """
    if not xs:
        raise ValueError("need at least one leg distance")
    if any(x < 0 for x in xs):
        raise ValueError("leg distances must be nonnegative")
    total, top = sum(xs), max(xs)
    counts = [prod(comb(top + k, x) for x in xs) for k in range(total - top + 1)]
    return [
        sum((-1) ** (l - k) * comb(total + 1, l - k) * counts[k] for k in range(l + 1))
        for l in range(total - top + 1)
    ]


def base_trek_coefficient(xs: Sequence[int], t):
    """Rational weight ``t^(nM-X) h(t^n) / (1-t^n)^(X+1)`` of legs ``xs``.

    Accepts float or Fraction ``t`` (Fractions evaluate exactly).

    Raises
    ------
    PoleAtUnit
        If ``|t| >= 1``.
    """
    if abs(t) >= 1:
        raise PoleAtUnit(f"coefficient has a pole at |t|=1, got t={t}")
    n, total = len(xs), sum(xs)
    s = t**n
    numer = 0
    for c in reversed(placement_polynomial(*xs)):
        numer = numer * s + c
    return t ** (n * max(xs) - total) * numer / (1 - s) ** (total + 1)


def placement_table_csv(x_max: int, y_max: int) -> str:
    """CSV of placement polynomials: rows x, columns y, semicolon-joined coefficients."""
    lines = ["x\\y," + ",".join(str(y) for y in range(y_max + 1))]
    for x in range(x_max + 1):
        cells = [
            ";".join(str(c) for c in placement_polynomial(x, y))
            for y in range(y_max + 1)
        ]
        lines.append(f"{x}," + ",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# base treks and the exact cumulant
# ---------------------------------------------------------------------------


def _offdiag_dag(g: DirectedGraph) -> DirectedGraph:
    from .graphs import DirectedGraph

    dag = DirectedGraph(g.p, [(i, j) for i, j in g.edges if i != j])
    dag.topological_order()  # raises CyclicGraph when not a DAG
    return dag


def _top_paths(g: DirectedGraph) -> list[dict[int, list[tuple[int, ...]]]]:
    """Per top vertex, its simple paths in the self-loop-free DAG, sorted, by endpoint."""
    dag = _offdiag_dag(g)
    paths, stack = [], [(v,) for v in range(g.p)]
    while stack:
        path = stack.pop()
        paths.append(path)
        stack.extend(path + (c,) for c in dag.children[path[-1]])
    tops = [{v: [] for v in range(g.p)} for _ in range(g.p)]
    for path in sorted(paths):
        tops[path[0]][path[-1]].append(path)
    return tops


def effective_matrix(
    g: DirectedGraph, t: float, offdiag: Mapping[tuple[int, int], float]
) -> ParameterMatrix:
    """Assemble the constant-self-loop matrix: diagonal t, DAG edges as given.

    Raises
    ------
    ValueError
        If a weight is given for an edge that is not a DAG edge of ``g``, or
        a DAG edge has no weight.
    """
    import numpy as np

    from .engine import ParameterMatrix
    from .graphs import DirectedGraph

    dag = _offdiag_dag(g)
    full = DirectedGraph(
        g.p, list(dag.edges) + [(v, v) for v in range(g.p)]
    )
    entries = np.eye(g.p) * t
    for (i, j), w in offdiag.items():
        if (i, j) not in dag.edges:
            raise ValueError(f"weight given for missing edge {i}->{j}")
        entries[j, i] = w
    unweighted = sorted(dag.edges - offdiag.keys())
    if unweighted:
        i, j = unweighted[0]
        raise ValueError(f"no weight given for edge {i}->{j}")
    return ParameterMatrix(full, entries)


def base_trek_cumulant(
    g: DirectedGraph,
    t: float,
    offdiag: Mapping[tuple[int, int], float],
    omega: DiagonalCumulant,
) -> SymmetricTensor:
    """Exact order-n cumulant of the constant-self-loop DAG model by base treks.

    ``T[i_1..i_n] = sum over base treks of C(legs; t) * (leg monomials) * w_top``;
    the sum is finite because base treks exclude loops.
    """
    from .tensors import SymmetricTensor, multiset_indices

    if abs(t) >= 1:
        raise PoleAtUnit(f"constant self-loop weight t={t} puts every eigenvalue at |t|>=1")
    entries = effective_matrix(g, t, offdiag).entries.tolist()  # raises CyclicGraph first
    if omega.p != g.p:
        raise ValueError("omega must be a cumulant on the same vertices")
    weights = cache(lambda path: [entries[b][a] for a, b in zip(path, path[1:])])
    # h is symmetric in the legs, so one coefficient serves each sorted leg tuple
    coefficient = cache(lambda xs: base_trek_coefficient(xs, t))
    paths = _top_paths(g)
    values = {}
    for key in multiset_indices(g.p, omega.order):
        total = 0.0
        for top, by_end in enumerate(paths):
            # the base treks out of top in path order, each as (edge-weight product, leg lengths)
            partial = [(1.0, ())]
            for leaf in key:
                partial = [
                    (prod(weights(leg), start=value), lengths + (len(leg) - 1,))
                    for value, lengths in partial
                    for leg in by_end[leaf]
                ]
            w_top = float(omega.w[top])
            for value, lengths in partial:
                total += coefficient(tuple(sorted(lengths))) * value * w_top
        values[key] = total
    return SymmetricTensor(omega.order, g.p, values)
