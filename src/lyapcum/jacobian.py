"""Modified Jacobian of the cumulant parametrization and generic-rank tests.

The Jacobian of the map (A, noise cumulants) -> (S, T, ...) factors into an
invertible Kronecker block times the "modified" Jacobian, so their ranks
agree.  Its noise columns are unit vectors on the diagonal cumulant rows,
so rank(modified) = p * |orders| + rank(block), where the block holds the
edge-derivative columns at the off-diagonal rows.  Only that block is
assembled here: the model is locally identifiable iff it has rank |E|
generically.

Each order's edge columns are read from one contraction
``U = T_n x_2 A ... x_n A``, run on the solver's GEMM kernel
:func:`tensors._tucker`: the derivative along alpha -> beta at multiset row K
is ``mult_beta(K) * U[alpha, K minus one beta]``.

Generic rank is certified by the maximum numeric rank over repeated random
draws: one full-rank witness suffices because rank is lower semicontinuous
on the parameter variety, while a deficiency verdict requires unanimity
across trials plus a wide singular-value gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Sequence

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
GAP_STRUCTURAL = 1e6


@dataclass
class ModifiedJacobian:
    """Off-diagonal edge block of the modified Jacobian.

    One row per off-diagonal multiset of each included order, listed in
    ``rows`` as ``(order, multiset)`` in ``multiset_indices`` order; the
    columns follow ``g.sorted_edges``.
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
    order4_rows: Sequence[tuple[int, ...]] | None = None,
) -> ModifiedJacobian:
    """Assemble the off-diagonal edge block at A from every order of the stack.

    Column alpha -> beta holds ``sum_k T_n x_1 A ... x_k E_(beta alpha) ... x_n A``
    at the off-diagonal multiset rows, read from ``T_n x_2 A ... x_n A``
    (``_edge_columns``).  The full modified Jacobian adds one unit noise
    column per diagonal row, so its rank is ``p * len(stack.orders)`` plus
    this block's.  The tensors are read, never solved: a model stack of A
    gives the Jacobian of the parametrization.  Order-4 rows default to all
    multisets but can be restricted (``order4_rows``) for targeted
    augmentation; diagonal ones among them are dropped.  ``order4_rows``
    without an order-4 tensor in the stack, or with a row that is not four
    vertex ids in ``range(p)``, raises ``ValueError``; a stack of another p,
    or an A on another graph, raises ``HypothesisViolated``.
    """
    _check_stack(g, stack)
    if a.g != g:
        raise HypothesisViolated("parameter matrix is on another graph")
    if order4_rows is not None and 4 not in stack.orders:
        raise ValueError("order4_rows needs an order-4 tensor in the stack")
    for row in order4_rows or ():
        if len(row) != 4 or not all(_is_vertex_id(v) and 0 <= v < g.p for v in row):
            raise ValueError(f"order4_rows row {row!r} is not four vertex ids in range({g.p})")
    a.require_stable()
    rows: list[tuple[int, tuple[int, ...]]] = []
    blocks = []
    for n in stack.orders:
        if n == 4 and order4_rows is not None:
            keys = [tuple(sorted(k)) for k in order4_rows]
        else:
            keys = multiset_indices(g.p, n)
        keys = [k for k in keys if len(set(k)) > 1]
        # n - 1 steps leave axis 1 last; .T puts it first, and U is symmetric in the rest
        u = _tucker(stack.tensor(n).to_dense(), a.entries, n, n - 1).reshape((g.p,) * n).T
        blocks.append(_edge_columns(u, keys, g.sorted_edges))
        rows.extend((n, key) for key in keys)
    return ModifiedJacobian(matrix=np.vstack(blocks), rows=rows)


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


def augmentation_rows(g: DirectedGraph) -> list[tuple[int, ...]]:
    """Fourth-order rows repairing two-cycle pairs: both diagonals plus one mixed.

    A verdict escalates to order 4 only when this list is nonempty, and reports its
    length as the order-4 row count.
    """
    return [row for i, j in two_cycle_components(g) for row in ((i,) * 4, (j,) * 4, (i, i, i, j))]


@dataclass
class TrialRecord:
    rank: int
    augmented: bool
    singular_values: tuple[float, ...] = ()  # descending

    @property
    def gap(self) -> float:
        """Largest over smallest nonzero singular value; infinite when none is nonzero."""
        nonzero = [s for s in self.singular_values if s > 0]
        return nonzero[0] / nonzero[-1] if nonzero else np.inf


@dataclass
class LocalIdReport:
    verdict: str  # locally-identifiable | rank-deficient | not-identifiable | inconclusive
    n_edges: int
    generic_rank: int
    deficiency: int
    orders: tuple[int, ...]
    augmented: bool
    row_counts: dict[int, int] = field(default_factory=dict)
    trials: list[TrialRecord] = field(default_factory=list)
    reason: str = ""

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
                 "gap": t.gap, "augmented": t.augmented}
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
    {2,3}; two-cycle pair components escalate to the fourth-order
    augmentation rows.  Any full-rank trial certifies the verdict.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n_edges = len(g.edges)
    if g.isolated_vertices:
        return LocalIdReport(
            verdict="not-identifiable",
            n_edges=n_edges,
            generic_rank=0,
            deficiency=n_edges,
            orders=(2, 3),
            augmented=False,
            reason=(
                f"isolated vertices {g.isolated_vertices}: one more parameter "
                "than available equations at every order"
            ),
        )
    extra_rows = augmentation_rows(g)
    # a pair with both loops has 4 edges on 3 off-diagonal rows at orders 2-3: every
    # draw is deficient there, so its trials skip that solve
    always_augmented = any({i, j} <= g.self_loops for i, j in two_cycle_components(g))

    def run_trial(trial: int) -> TrialRecord:
        radius = 0.45 if trial % 2 == 0 else 0.85
        a = sample_stable_matrix(g, seed=seed * 1000 + trial, target_radius=radius)
        rng = np.random.default_rng(seed * 1000 + trial + 7)
        omegas = random_omegas(rng, g.p, (2, 3))  # drawn even when unused, so the rng stream holds
        augmented = always_augmented
        if not augmented:
            mj = build_modified_jacobian(g, a, model_stack(a, omegas))
            rank, sing = numeric_rank(mj.matrix)
            augmented = rank < n_edges and bool(extra_rows)
        if augmented:
            stack = model_stack(a, random_omegas(rng, g.p, (2, 3, 4)))
            mj = build_modified_jacobian(g, a, stack, order4_rows=extra_rows)
            rank, sing = numeric_rank(mj.matrix)
        return TrialRecord(rank=rank, augmented=augmented, singular_values=tuple(sing.tolist()))

    records = [run_trial(trial) for trial in range(trials)]
    best_rank = max(r.rank for r in records)
    augmented = any(r.augmented for r in records)
    used_orders = (2, 3, 4) if augmented else (2, 3)
    row_counts = {
        n: comb(g.p + n - 1, n) if n < 4 else len(extra_rows)
        for n in used_orders
    }
    deficiency = n_edges - best_rank
    if deficiency == 0:
        verdict = "locally-identifiable"
        reason = "a full-rank witness certifies generic full rank"
    else:
        unanimous = all(r.rank == best_rank for r in records)
        wide_gap = all(r.gap >= GAP_STRUCTURAL for r in records)
        if unanimous and wide_gap:
            verdict = "rank-deficient"
            reason = f"all trials agree on deficiency {deficiency} with a wide gap"
        else:
            verdict = "inconclusive"
            reason = "trials disagree or sit near the rank threshold"
    return LocalIdReport(
        verdict=verdict,
        n_edges=n_edges,
        generic_rank=best_rank,
        deficiency=deficiency,
        orders=used_orders,
        augmented=augmented,
        row_counts=row_counts,
        trials=records,
        reason=reason,
    )
