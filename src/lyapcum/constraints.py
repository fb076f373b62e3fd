"""Algebraic constraints satisfied by model cumulants.

Directed trees with a single self-loop at the source admit a monomial
(toric) cumulant parametrization via shortest equitreks; its integer
exponent matrix yields binomial invariants through exact kernel
computation, and two trees give the same constraint ideal exactly when
their level partitions and shortest-equitrek tops agree.  For general
graphs, the parent count of a vertex set bounds the rank of certain
cumulant submatrices.

Rank bounds.  Take the columns U of S, or of the slices of T, and rows
that miss every diagonal entry ``S_jj``, ``T_jjj`` with j in U.  An
equitrek from a row index to j in U then has positive length (the length-0
trek is the noise term, on the diagonal), so its j-leg enters j from a
parent of j.  In formulas, ``S = A S A^T + W2`` and
``T = T x_1 A x_2 A x_3 A + W3`` with diagonal noise give, off the diagonal,
column j = ``sum_{l in pa(j)} A_jl v_l`` for vectors ``v_l`` that depend on
l alone.  So the off-diagonal S block and the stacked Q have rank at most
|pa(U)|.

No grandparent bound is checked.  The sibling-pruned matrix that bound
was checked on keeps only rows of Q (U is among its own siblings), and
its valid bound |pa(U) ∪ pa(pa(U))| is never below |pa(U)|: in
0 -> 2 <- 1 -> 0 with no loops, U = {0} has pa(pa(U)) empty, yet ``S_20``
holds the trek 0 <- 1 -> 2.  Such a check fails only where the Q check
fails, so it adds no constraint; a matrix whose rank the grandparents
bound below |pa(U)| is not built here.

All toric arithmetic is exact (Python integers and Fractions) so that
kernel vectors and row-equivalence checks are identities rather than
float comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

import numpy as np

from .graphs import DirectedGraph
from .identify import CumulantStack, HypothesisViolated
from .jacobian import numeric_rank
from .tensors import multiset_indices

VANISH_RTOL = 1e-9
NONZERO_FLOOR = 1e-6


class ModelInconsistency(Exception):
    """An observed rank exceeded its structural bound on a model stack."""


# ---------------------------------------------------------------------------
# directed-tree structure
# ---------------------------------------------------------------------------


def _tree_structure(g: DirectedGraph) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """(source, levels, source paths) for a directed tree, or raise.

    Hypotheses: single source, tree skeleton, and the source's self-loop is
    the only loop.  Such a graph is an arborescence: every non-source vertex
    has exactly one parent and a unique path from the source.
    """
    if len(g.sources) != 1:
        raise HypothesisViolated(f"need exactly one source, found {g.sources}")
    source = g.sources[0]
    if g.self_loops != frozenset({source}):
        raise HypothesisViolated(
            f"need the source self-loop only, found loops at {sorted(g.self_loops)}"
        )
    if not g.is_polytree:
        raise HypothesisViolated("skeleton must be a tree")
    paths: list[tuple[int, ...] | None] = [None] * g.p
    paths[source] = (source,)
    frontier = [source]
    while frontier:
        v = frontier.pop()
        for c in g.children[v]:
            if c == v:
                continue
            if paths[c] is not None:
                raise HypothesisViolated(f"vertex {c} has two tree parents")
            paths[c] = paths[v] + (c,)
            frontier.append(c)
    if any(path is None for path in paths):
        raise HypothesisViolated("some vertex is unreachable from the source")
    levels = [len(path) - 1 for path in paths]
    return source, levels, paths


def level_partition(g: DirectedGraph) -> list[list[int]]:
    """Vertex sets by shortest-path distance from the source."""
    return _partition(_tree_structure(g)[1])


def _partition(levels: list[int]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(levels) + 1)]
    for v, level in enumerate(levels):
        out[level].append(v)
    return out


def shortest_equitrek_top(g: DirectedGraph, indices: Sequence[int]) -> int:
    """Top vertex of the unique shortest equitrek between the given vertices.

    With self-loops only at the source, unequal leaf levels force the top to
    the source (only it can pad short legs); equal levels put the top at the
    deepest common ancestor.
    """
    return _top(_tree_structure(g), indices)


def _top(tree: tuple, indices: Sequence[int]) -> int:
    """:func:`shortest_equitrek_top` on the ``(source, levels, paths)`` of a tree."""
    source, levels, paths = tree
    idx = list(indices)
    if len({levels[i] for i in idx}) > 1:
        return source
    prefix = paths[idx[0]]
    for i in idx[1:]:
        other = paths[i]
        keep = 0
        while keep < min(len(prefix), len(other)) and prefix[keep] == other[keep]:
            keep += 1
        prefix = prefix[:keep]
    return prefix[-1]


# ---------------------------------------------------------------------------
# toric exponent matrix
# ---------------------------------------------------------------------------


@dataclass
class ToricMatrix:
    """Integer exponent matrix of the shortest-equitrek parametrization.

    Rows: one block of v parameters per order (vertex-indexed), then the
    edges (source loop first).  Columns: canonical cumulant multisets per
    order.  Entry = exponent of the row parameter in the column's monomial.
    """

    matrix: np.ndarray
    row_labels: list[tuple]
    col_labels: list[tuple[int, tuple[int, ...]]]

    def to_csv(self) -> str:
        header = "row," + ",".join(
            "|".join(map(str, (order,) + key)) for order, key in self.col_labels
        )
        lines = [header]
        for label, row in zip(self.row_labels, self.matrix):
            name = "-".join(map(str, label))
            lines.append(name + "," + ",".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"


def toric_matrix(g: DirectedGraph, order: int) -> ToricMatrix:
    """Exponent matrix of the monomial cumulant parametrization up to ``order``.

    Each cumulant entry equals ``v^(m)_top * a^(leg_1) ... a^(leg_m)`` over
    its unique shortest equitrek; the column records the exponents of the
    v parameter and of every edge (self-loop padding counts on the source
    loop row).
    """
    return _toric(g, _tree_structure(g), order)


def _toric(g: DirectedGraph, tree: tuple, order: int) -> ToricMatrix:
    """:func:`toric_matrix` on the ``(source, levels, paths)`` of the tree g."""
    if order < 2:
        raise ValueError("order must be at least 2")
    source, levels, paths = tree
    edges = sorted(g.edges)
    row_labels: list[tuple] = []
    for m in range(2, order + 1):
        row_labels.extend(("v", m, i) for i in range(g.p))
    row_labels.extend(("a", i, j) for i, j in edges)
    edge_row = {edge: len(row_labels) - len(edges) + k for k, edge in enumerate(edges)}
    v_row = {
        (m, i): (m - 2) * g.p + i for m in range(2, order + 1) for i in range(g.p)
    }

    col_labels: list[tuple[int, tuple[int, ...]]] = []
    for m in range(2, order + 1):
        col_labels.extend((m, key) for key in multiset_indices(g.p, m))

    matrix = np.zeros((len(row_labels), len(col_labels)), dtype=int)
    for col, (m, key) in enumerate(col_labels):
        top = _top(tree, key)
        matrix[v_row[(m, top)], col] = 1
        # unequal leaf levels force top = source and source-loop padding up
        # to the deepest leaf; equal levels need no padding at all
        key_levels = [levels[i] for i in key]
        depth = max(key_levels)
        padded = len(set(key_levels)) > 1
        for i in key:
            if padded:
                matrix[edge_row[(source, source)], col] += depth - levels[i]
            walk = paths[i][paths[i].index(top):]
            for aa, bb in zip(walk, walk[1:]):
                matrix[edge_row[(aa, bb)], col] += 1
    return ToricMatrix(matrix=matrix, row_labels=row_labels, col_labels=col_labels)


def _rref(matrix: np.ndarray) -> tuple[list[list[Fraction]], list[int]]:
    """Exact reduced row echelon form: (nonzero rows, pivot columns)."""
    rows, cols = matrix.shape
    work = [[Fraction(int(matrix[r, c])) for c in range(cols)] for r in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work[: len(pivots)], pivots


def integer_kernel(matrix: np.ndarray) -> list[np.ndarray]:
    """Integer basis of the rational kernel via exact elimination."""
    reduced, pivots = _rref(matrix)
    cols = matrix.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(np.array([int(x * denom) for x in vec], dtype=object))
    return basis


def kernel_binomial_values(
    tm: ToricMatrix, stack: CumulantStack
) -> list[tuple[np.ndarray, float, float]]:
    """Evaluate each kernel binomial on a stack: (vector, value, scale).

    A kernel vector k splits into positive and negative parts; the binomial
    is ``prod c_i^(k_i+) - prod c_i^(k_i-)`` over the column cumulants, and
    it vanishes on every model point of the tree.
    """
    entries = []
    for order, key in tm.col_labels:
        entries.append(stack.tensor(order)[key])
    results = []
    for vec in integer_kernel(tm.matrix):
        pos = 1.0
        neg = 1.0
        for exponent, value in zip(vec, entries):
            if exponent > 0:
                pos *= value ** int(exponent)
            elif exponent < 0:
                neg *= value ** int(-exponent)
        scale = max(abs(pos), abs(neg), 1e-300)
        results.append((vec, pos - neg, scale))
    return results


# ---------------------------------------------------------------------------
# level and top-trek polynomial checks
# ---------------------------------------------------------------------------


@dataclass
class PolynomialCheck:
    family: str
    indices: tuple[int, ...]
    value: float
    scale: float
    expected_zero: bool

    @classmethod
    def of(cls, family: str, indices: tuple[int, ...], lhs: float, rhs: float,
           expected_zero: bool) -> "PolynomialCheck":
        """The check of ``lhs - rhs`` at the scale ``max(|lhs|, |rhs|, 1e-300)``."""
        return cls(family, indices, lhs - rhs, max(abs(lhs), abs(rhs), 1e-300), expected_zero)

    @property
    def ok(self) -> bool:
        if self.expected_zero:
            return abs(self.value) <= VANISH_RTOL * self.scale
        return abs(self.value) >= NONZERO_FLOOR * self.scale


def level_polynomial_checks(
    g: DirectedGraph, stack: CumulantStack
) -> list[PolynomialCheck]:
    """Evaluate the level-detecting polynomials on a numeric model stack.

    Families: (source-balance) ``s_ij^3 t_iii^2 - s_ii^3 t_iij t_ijj``
    vanishes for every j iff i is the source; (same-level)
    ``s_0i t_00j - s_0j t_00i`` vanishes iff i and j share a level;
    (level-order) for cross-level pairs ``s_ij t_00j - s_0j t_0ij``
    vanishes iff j is deeper than i.  The source-balance family is
    aggregated over j; the others are per-pair.
    """
    source, levels, _ = _tree_structure(g)
    s, t = stack.s, stack.t
    checks: list[PolynomialCheck] = []
    for i in range(g.p):
        # the all-zero baseline, then every j: max keeps the first largest ratio
        balances = [(0.0, 0.0)] + [
            (s[(i, j)] ** 3 * t[(i, i, i)] ** 2, s[(i, i)] ** 3 * t[(i, i, j)] * t[(i, j, j)])
            for j in range(g.p)
            if j != i
        ]
        checks.append(max(
            (PolynomialCheck.of("source-balance", (i,), lhs, rhs, i == source)
             for lhs, rhs in balances),
            key=lambda check: abs(check.value) / check.scale,
        ))
    for i, j in itertools.combinations(range(g.p), 2):
        checks.append(PolynomialCheck.of(
            "same-level", (i, j), s[(source, i)] * t[(source, source, j)],
            s[(source, j)] * t[(source, source, i)], levels[i] == levels[j],
        ))
    for i, j in itertools.permutations(range(g.p), 2):
        if levels[i] != levels[j]:
            checks.append(PolynomialCheck.of(
                "level-order", (i, j), s[(i, j)] * t[(source, source, j)],
                s[(source, j)] * t[(source, i, j)], levels[j] > levels[i],
            ))
    return checks


def top_trek_polynomial_check(
    g: DirectedGraph, stack: CumulantStack, i: int, j: int, top: int
) -> PolynomialCheck:
    """Evaluate ``s_0l s_ij t_llj - s_0i s_ll t_ljj`` for a candidate top l.

    Vanishes exactly when l tops the shortest (i, j)-equitrek and that trek
    needs no source padding, i.e. i and j sit on one level.  Cross-level
    pairs leave an uncancelled source-loop power even at the padded top, so
    they are predicted nonzero for every l.
    """
    tree = _tree_structure(g)
    source, levels, _ = tree
    s, t = stack.s, stack.t
    return PolynomialCheck.of(
        "top-trek", (i, j, top),
        s[(source, top)] * s[(i, j)] * t[(top, top, j)],
        s[(source, i)] * s[(top, top)] * t[(top, j, j)],
        levels[i] == levels[j] and top == _top(tree, (i, j)),
    )


# ---------------------------------------------------------------------------
# tree model equivalence
# ---------------------------------------------------------------------------


@dataclass
class TreeEquivalence:
    equal: bool
    witness: str | None = None
    row_equivalence_checked: bool = False


def tree_equivalence(
    g: DirectedGraph, h: DirectedGraph, order: int = 3
) -> TreeEquivalence:
    """Decide whether two directed trees carve out the same constraint ideal.

    True iff the labeled level partitions coincide and every vertex pair has
    the same shortest-equitrek top.  A positive answer is cross-checked by
    exact row reduction: the two toric exponent matrices must span the same
    row space.
    """
    if g.p != h.p:
        raise HypothesisViolated("trees must share the vertex count")
    tree_g, tree_h = _tree_structure(g), _tree_structure(h)
    levels_g = [set(level) for level in _partition(tree_g[1])]
    levels_h = [set(level) for level in _partition(tree_h[1])]
    if levels_g != levels_h:
        return TreeEquivalence(
            equal=False, witness=f"level partitions differ: {levels_g} vs {levels_h}"
        )
    for i, j in itertools.combinations(range(g.p), 2):
        top_g, top_h = _top(tree_g, (i, j)), _top(tree_h, (i, j))
        if top_g != top_h:
            return TreeEquivalence(
                equal=False,
                witness=f"pair ({i},{j}) has tops {top_g} vs {top_h}",
            )
    rref_g = _rref(_toric(g, tree_g, order).matrix)
    rref_h = _rref(_toric(h, tree_h, order).matrix)
    if rref_g != rref_h:
        raise RuntimeError(
            "tops and levels agree but exponent row spaces differ; "
            "this contradicts the swap construction"
        )
    return TreeEquivalence(equal=True, row_equivalence_checked=True)


# ---------------------------------------------------------------------------
# determinantal rank constraints
# ---------------------------------------------------------------------------


@dataclass
class RankConstraintResult:
    kind: str  # parents-S | parents-stacked-Q
    u: tuple[int, ...]
    bound: int
    rank: int
    shape: tuple[int, int]
    minors_checked: int = 0
    minor_norm: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "U": list(self.u),
            "bound": self.bound,
            "rank": self.rank,
            "shape": list(self.shape),
            "minors_checked": self.minors_checked,
            "max_violation": self.minor_norm,
        }


def parent_set(g: DirectedGraph, u: Sequence[int]) -> set[int]:
    out: set[int] = set()
    for v in u:
        out.update(g.parents[v])
    return out


def _minor_norm(sing: np.ndarray, size: int) -> float:
    """Root sum of squares of all size x size minors, from the singular values.

    By Cauchy-Binet that sum is ``e_size(sigma_1^2, ..., sigma_r^2)``; its
    root bounds every single minor, and it is 0 when no minor of that size
    exists.
    """
    e = np.zeros(size + 1)
    e[0] = 1.0
    for s2 in np.square(sing):
        e[1:] = e[1:] + s2 * e[:-1]
    return float(np.sqrt(e[size]))


def _constraint_matrices(
    g: DirectedGraph, stacked: np.ndarray, u: tuple[int, ...]
) -> list[tuple[str, int, np.ndarray]]:
    """The two rank-bounded matrices of U, gathered by one index array.

    ``stacked`` is S over the ``(p^2, p)`` unfolding of T, whose row
    ``p + i p + j`` is ``T_ij.``; Q keeps S's rows off U and T's rows off
    the diagonals ``(i, i)`` with i in U, and its first block is S's.
    """
    p = g.p
    rows = np.delete(np.arange(p + p * p), [*u, *(p + i * (p + 1) for i in u)])
    q_matrix = stacked[np.ix_(rows, u)]
    bound = len(parent_set(g, u))
    return [
        ("parents-S", bound, q_matrix[: p - len(u)]),
        ("parents-stacked-Q", bound, q_matrix),
    ]


def rank_constraints_scan(
    g: DirectedGraph, stack: CumulantStack, max_subset: int
) -> list[RankConstraintResult]:
    """Check every parent rank bound over subsets U.

    For each U with |U| <= max_subset: the off-diagonal S columns and the
    stacked S-plus-T-slices matrix Q must have rank at most |pa(U)| (module
    docstring).  Each result also
    carries the root sum of squares of all (bound+1)-minors (``minor_norm``,
    zero when the bound holds exactly).

    Raises
    ------
    ModelInconsistency
        If an observed rank exceeds its bound (the stack cannot come from a
        model point of this graph).
    """
    p = g.p
    stacked = np.vstack([stack.s.to_dense(), stack.t.to_dense().reshape(p * p, p)])
    results = []
    violations = []
    for size in range(1, max_subset + 1):
        for u in itertools.combinations(range(p), size):
            for kind, bound, matrix in _constraint_matrices(g, stacked, u):
                rank, sing = numeric_rank(matrix)
                rows, cols = matrix.shape
                result = RankConstraintResult(
                    kind=kind,
                    u=u,
                    bound=bound,
                    rank=rank,
                    shape=(rows, cols),
                    minors_checked=comb(rows, bound + 1) * comb(cols, bound + 1),
                    minor_norm=_minor_norm(sing, bound + 1),
                )
                results.append(result)
                if rank > bound:
                    violations.append(result)
    if violations:
        worst = violations[0]
        raise ModelInconsistency(
            f"{len(violations)} rank bounds violated, first: kind={worst.kind} "
            f"U={worst.u} rank={worst.rank} > bound={worst.bound}"
        )
    return results
