"""Modified Jacobian of the cumulant parametrization and generic-rank tests.

The Jacobian of the map (A, noise cumulants) -> (S, T, ...) factors into an
invertible Kronecker block times the "modified" Jacobian, so their ranks
agree.  Its noise columns are unit vectors on the diagonal cumulant rows,
so rank(modified) = p * |orders| + rank(block), where the block holds the
edge-derivative columns at the off-diagonal rows, all of them or those a
row map keeps per order.  Only that block is assembled here: the model is
locally identifiable iff it has rank |E| generically.

Each order's edge columns are read from one contraction
``U = T_n x_2 A ... x_n A``, run on the solver's GEMM kernel
:func:`tensors._tucker`: the derivative along alpha -> beta at multiset row K
is ``mult_beta(K) * U[alpha, K minus one beta]``.

Generic rank is certified by the maximum numeric rank over repeated random
draws: one full-rank witness suffices because rank is lower semicontinuous
on the parameter variety, while a deficiency verdict needs one rank in every
trial.  A deficient trial's wide singular-value gap follows: the block has at
least |E| rows, so a rank below |E| puts ``smax / smin`` at 1e12 / rows or
more, at least 1e6 for any block of up to 1e6 rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .engine import (
    ParameterMatrix,
    random_omegas,
    sample_stable_matrix,
    solve_cumulant,  # not called here: perfbench's tracer test reads it (ROADMAP item 1)
)
from .graphs import DirectedGraph, _is_vertex_id
from .identify import CumulantStack, HypothesisViolated, _check_stack, model_stack
from .tensors import _tucker, multiset_indices

RANK_EPS = 1e-12


@dataclass
class ModifiedJacobian:
    """Off-diagonal edge block of the modified Jacobian.

    One row per kept off-diagonal multiset of each order, listed in ``rows``
    as ``(order, multiset)``, by default every one in ``multiset_indices``
    order; the columns follow ``g.sorted_edges``.
    """

    matrix: np.ndarray
    rows: list[tuple[int, tuple[int, ...]]]


def _edge_columns(u: np.ndarray, keys: list, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Edge block of one order from ``u = T x_2 A ... x_n A``.

    Row K, column alpha -> beta: ``sum_j delta(K_j, beta) u[alpha, K without K_j]``.
    """
    rows = np.array(keys, dtype=np.intp).reshape(-1, u.ndim)
    alpha, beta = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    out = np.zeros((len(rows), len(alpha)))
    for j in range(u.ndim):
        rest = np.delete(rows, j, axis=1)[:, :, None]
        out += np.where(rows[:, j, None] == beta, u[(alpha, *rest.transpose(1, 0, 2))], 0.0)
    return out


def build_modified_jacobian(
    g: DirectedGraph,
    a: ParameterMatrix,
    stack: CumulantStack,
    rows: Mapping[int, Iterable[Sequence[int]]] | None = None,
) -> ModifiedJacobian:
    """Assemble the off-diagonal edge block at A from every order of the stack.

    Column alpha -> beta holds ``sum_k T_n x_1 A ... x_k E_(beta alpha) ... x_n A``
    at the kept rows, read from ``T_n x_2 A ... x_n A`` (``_edge_columns``).
    The full modified Jacobian adds one unit noise column per diagonal row,
    so its rank is ``p * len(stack.orders)`` plus this block's.  The tensors
    are read, never solved: a model stack of A gives the Jacobian of the
    parametrization.  ``rows`` maps an order to an iterable (read once) of
    multisets, in any index order, whose rows the block keeps; an order it
    omits keeps them all, and diagonal ones are dropped.  A key that is no
    int order of the stack, or a row that is not n vertex ids in ``range(p)``,
    raises ``ValueError``; a stack or an A that does not fit ``g``, ``HypothesisViolated``.
    """
    _check_stack(g, stack)
    if a.g != g:
        raise HypothesisViolated("parameter matrix is on another graph")
    chosen = {}  # each row checked and sorted in the one pass, so an iterator keeps its rows
    for n, given in (rows or {}).items():
        if not _is_vertex_id(n) or n not in stack.orders:
            raise ValueError(f"rows name order {n!r}; the stack has orders {stack.orders}")
        chosen[n] = []
        for row in given:
            try:
                ids = tuple(row)
            except TypeError:  # a bare id or a 0-d array
                ids = ()
            if len(ids) != n or not all(_is_vertex_id(v) and 0 <= v < g.p for v in ids):
                raise ValueError(f"order-{n} row {row!r} is not {n} vertex ids in range({g.p})")
            chosen[n].append(tuple(sorted(map(int, ids))))
    a.require_stable()
    kept, blocks = [], []
    for n in stack.orders:
        keys = chosen[n] if n in chosen else multiset_indices(g.p, n)
        keys = [k for k in keys if len(set(k)) > 1]
        # n - 1 steps leave axis 1 last; .T puts it first, and U is symmetric in the rest
        u = _tucker(stack.tensor(n).to_dense(), a.entries, n, n - 1).reshape((g.p,) * n).T
        blocks.append(_edge_columns(u, keys, g.sorted_edges))
        kept.extend((n, key) for key in keys)
    return ModifiedJacobian(matrix=np.vstack(blocks), rows=kept)


# ---------------------------------------------------------------------------
# numeric rank
# ---------------------------------------------------------------------------


def numeric_rank(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank at the threshold ``smax * max_dim * RANK_EPS``, and the singular values."""
    if matrix.size == 0:
        return 0, np.array([])
    sing = np.linalg.svd(matrix, compute_uv=False)
    threshold = sing[0] * max(matrix.shape) * RANK_EPS
    return int(np.sum(sing > threshold)), sing


# ---------------------------------------------------------------------------
# local identifiability verdict
# ---------------------------------------------------------------------------


def two_cycle_components(g: DirectedGraph) -> list[tuple[int, int]]:
    """Skeleton components of size two whose vertices form a directed 2-cycle."""
    nbrs = g.skeleton_neighbors
    return [
        (i, j) for i, j in g.sorted_edges
        if i < j and (j, i) in g.edges and nbrs[i] == (j,) and nbrs[j] == (i,)
    ]


def augmentation_rows(g: DirectedGraph) -> dict[int, list[tuple[int, ...]]]:
    """Order-4 rows for each two-cycle pair with both loops: both diagonals plus one mixed.

    Such a pair has 4 edges on 3 off-diagonal rows at orders 2-3.  The edge block is
    block-diagonal over skeleton components, and a pair with one loop is full at orders
    2-3, one without loops rank 0 at every order.  ``{4: rows}``, or ``{}`` without such
    a pair: a verdict augments exactly when the map is nonempty.
    """
    looped = [(i, j) for i, j in two_cycle_components(g) if {i, j} <= g.self_loops]
    rows = [row for i, j in looped for row in ((i,) * 4, (j,) * 4, (i, i, i, j))]
    return {4: rows} if rows else {}


@dataclass
class TrialRecord:
    rank: int
    augmented: bool
    singular_values: tuple[float, ...] = ()  # descending


@dataclass
class LocalIdReport:
    verdict: str  # locally-identifiable | rank-deficient | not-identifiable | inconclusive
    n_edges: int
    row_counts: dict[int, int] = field(default_factory=dict)
    trials: list[TrialRecord] = field(default_factory=list)
    reason: str = ""

    @property
    def generic_rank(self) -> int:
        return max((t.rank for t in self.trials), default=0)

    @property
    def deficiency(self) -> int:
        return self.n_edges - self.generic_rank

    @property
    def augmented(self) -> bool:
        return any(t.augmented for t in self.trials)

    @property
    def orders(self) -> tuple[int, ...]:
        return (2, 3, 4) if self.augmented else (2, 3)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_edges": self.n_edges,
            "generic_rank": self.generic_rank,
            "deficiency": self.deficiency,
            "orders": list(self.orders),
            "augmented": self.augmented,
            "row_counts": {str(k): v for k, v in self.row_counts.items()},
            "reason": self.reason,
            "trials": [
                {"rank": t.rank, "top_singular": sing[0], "bottom_singular": sing[-1],
                 "gap": sing[0] / sing[-1] if sing[-1] else None, "augmented": t.augmented}
                for t in self.trials
                for sing in [t.singular_values or (0.0,)]
            ],
        }

    def singular_values_csv(self) -> str:
        lines = ["trial,augmented,rank,singular_values"]
        for idx, t in enumerate(self.trials):
            values = ";".join(repr(float(s)) for s in t.singular_values)
            lines.append(f"{idx},{int(t.augmented)},{t.rank},{values}")
        return "\n".join(lines) + "\n"


def local_identifiability_verdict(
    g: DirectedGraph, trials: int = 5, seed: int = 0
) -> LocalIdReport:
    """Sample-based generic-rank verdict for local identifiability.

    Each trial draws a stable parameter point (alternating between two
    magnitude scales) and measures the off-diagonal block rank at orders
    {2,3}, or at {2,3,4} on the :func:`augmentation_rows` of a graph that has
    them: one solve and one build per trial.  Any full-rank trial certifies
    the verdict; a deficiency needs one rank in every trial, and trials that
    disagree leave the verdict ``inconclusive``.  Each deficient trial has a
    wide gap: the block has at least |E| rows, so its smallest singular value
    is at most ``smax * rows * RANK_EPS``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    report = LocalIdReport("inconclusive", len(g.edges), reason="trials disagree on the rank")
    if g.isolated_vertices:
        report.verdict = "not-identifiable"
        report.reason = (
            f"isolated vertices {g.isolated_vertices}: one more parameter "
            "than available equations at every order"
        )
        return report
    extra_rows = augmentation_rows(g)
    for trial in range(trials):
        radius = 0.45 if trial % 2 == 0 else 0.85
        a = sample_stable_matrix(g, seed=seed * 1000 + trial, target_radius=radius)
        rng = np.random.default_rng(seed * 1000 + trial + 7)
        omegas = random_omegas(rng, g.p, (2, 3))  # drawn even when unused, so the rng stream holds
        if extra_rows:
            omegas = random_omegas(rng, g.p, (2, 3, 4))
        mj = build_modified_jacobian(g, a, model_stack(a, omegas), rows=extra_rows)
        rank, sing = numeric_rank(mj.matrix)
        report.trials.append(TrialRecord(rank, bool(extra_rows), tuple(sing.tolist())))
    report.row_counts = {
        n: len(extra_rows[n]) if n in extra_rows else comb(g.p + n - 1, n) for n in report.orders
    }
    if report.deficiency == 0:
        report.verdict = "locally-identifiable"
        report.reason = "a full-rank witness certifies generic full rank"
    elif len({t.rank for t in report.trials}) == 1:
        report.verdict = "rank-deficient"
        report.reason = f"all trials agree on deficiency {report.deficiency} with a wide gap"
    return report
