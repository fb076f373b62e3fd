"""Modified Jacobian of the cumulant parametrization and generic-rank tests.

The Jacobian of the map (A, noise cumulants) -> (S, T, ...) factors into an
invertible Kronecker block times the "modified" Jacobian assembled here, so
their ranks agree.  Noise columns are unit vectors on diagonal cumulant
rows, which reduces the full-rank question to the off-diagonal rows of the
edge-derivative columns: the model is locally identifiable iff that block
has rank |E| generically.

Each order's edge columns are read from one contraction
``U = T_n x_2 A ... x_n A``: the derivative along alpha -> beta at multiset
row K is ``mult_beta(K) * U[alpha, K minus one beta]``.

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
from .graphs import DirectedGraph
from .identify import CumulantStack, model_stack
from .tensors import k_mode_product, multiset_indices

RANK_EPS = 1e-12
GAP_STRUCTURAL = 1e6


@dataclass
class ModifiedJacobian:
    """Cumulant-derivative block matrix with row/column index metadata.

    Rows are canonical index multisets per included order; columns are the
    edge derivatives followed by one noise block per order.
    """

    matrix: np.ndarray
    rows: list[tuple[int, tuple[int, ...]]]
    cols: list[tuple]

    def offdiag_row_indices(self) -> list[int]:
        return [
            idx for idx, (_, key) in enumerate(self.rows) if len(set(key)) > 1
        ]

    def a_col_indices(self) -> list[int]:
        return [idx for idx, tag in enumerate(self.cols) if tag[0] == "a"]

    def offdiag_a_block(self) -> np.ndarray:
        return self.matrix[np.ix_(self.offdiag_row_indices(), self.a_col_indices())]


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
    """Assemble the modified Jacobian at A from every order of the stack.

    Edge columns hold ``sum_k T_n x_1 A ... x_k E_(beta alpha) ... x_n A``
    at the multiset rows, read from ``T_n x_2 A ... x_n A`` (``_edge_columns``);
    noise columns are unit vectors on the diagonal rows of their order.
    The tensors are read, never solved: a model stack of A gives the
    Jacobian of the parametrization.  Order-4 rows default to all multisets
    but can be restricted (``order4_rows``) for targeted augmentation.
    """
    a.require_stable()
    p = g.p
    orders = stack.orders
    edges = g.sorted_edges
    cols: list[tuple] = [("a", alpha, beta) for alpha, beta in edges]
    for n in orders:
        cols.extend(("w", n, i) for i in range(p))

    rows: list[tuple[int, tuple[int, ...]]] = []
    blocks = [np.zeros((0, len(cols)))]
    for n in orders:
        if n == 4 and order4_rows is not None:
            keys = [tuple(sorted(k)) for k in order4_rows]
        else:
            keys = multiset_indices(p, n)
        u = stack.tensor(n).to_dense()
        for axis in range(1, n):
            u = k_mode_product(u, a.entries, axis)
        block = np.zeros((len(keys), len(cols)))
        block[:, : len(edges)] = _edge_columns(u, keys, edges)
        w_base = len(edges) + sum(p for m in orders if m < n)
        for i in range(p):
            diag_key = (i,) * n
            if diag_key in keys:
                block[keys.index(diag_key), w_base + i] = 1.0
        rows.extend((n, key) for key in keys)
        blocks.append(block)
    return ModifiedJacobian(matrix=np.vstack(blocks), rows=rows, cols=cols)


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


def offdiag_rank(mj: ModifiedJacobian) -> tuple[int, np.ndarray]:
    """Numeric rank (and singular values) of the off-diagonal edge block."""
    return numeric_rank(mj.offdiag_a_block())


# ---------------------------------------------------------------------------
# local identifiability verdict
# ---------------------------------------------------------------------------


def two_cycle_components(g: DirectedGraph) -> list[tuple[int, int]]:
    """Skeleton components of size two whose vertices form a directed 2-cycle."""
    pairs = []
    for comp in g.skeleton_components:
        if len(comp) == 2:
            i, j = comp
            if (i, j) in g.edges and (j, i) in g.edges:
                pairs.append((i, j))
    return pairs


def augmentation_rows(g: DirectedGraph) -> list[tuple[int, ...]]:
    """Fourth-order rows repairing two-cycle pairs: both diagonals plus one mixed.

    The one source of the augmentation decision: a verdict escalates to order 4
    only when this list is nonempty, and reports its length as the order-4 row count.
    """
    rows = []
    for i, j in two_cycle_components(g):
        rows.extend([(i, i, i, i), (j, j, j, j), (i, i, i, j)])
    return rows


@dataclass
class TrialRecord:
    rank: int
    top_singular: float
    bottom_singular: float
    gap: float
    augmented: bool
    singular_values: tuple[float, ...] = ()


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
                {
                    "rank": t.rank,
                    "top_singular": t.top_singular,
                    "bottom_singular": t.bottom_singular,
                    "gap": t.gap,
                    "augmented": t.augmented,
                }
                for t in self.trials
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

    def run_trial(trial: int) -> TrialRecord:
        radius = 0.45 if trial % 2 == 0 else 0.85
        a = sample_stable_matrix(g, seed=seed * 1000 + trial, target_radius=radius)
        rng = np.random.default_rng(seed * 1000 + trial + 7)
        mj = build_modified_jacobian(g, a, model_stack(a, random_omegas(rng, g.p, (2, 3))))
        rank, sing = offdiag_rank(mj)
        augmented = False
        if rank < n_edges and extra_rows:
            stack = model_stack(a, random_omegas(rng, g.p, (2, 3, 4)))
            mj = build_modified_jacobian(g, a, stack, order4_rows=extra_rows)
            rank, sing = offdiag_rank(mj)
            augmented = True
        nonzero = sing[sing > 0]
        gap = float(nonzero[0] / nonzero[-1]) if len(nonzero) else np.inf
        return TrialRecord(
            rank=rank,
            top_singular=float(sing[0]) if len(sing) else 0.0,
            bottom_singular=float(sing[-1]) if len(sing) else 0.0,
            gap=gap,
            augmented=augmented,
            singular_values=tuple(float(s) for s in sing),
        )

    records = [run_trial(trial) for trial in range(trials)]
    best_rank = max(r.rank for r in records)

    used_orders = (2, 3, 4) if any(r.augmented for r in records) else (2, 3)
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
        wide_gap = all(
            r.gap >= GAP_STRUCTURAL or np.isinf(r.gap) for r in records
        )
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
        augmented=any(r.augmented for r in records),
        row_counts=row_counts,
        trials=records,
        reason=reason,
    )
