"""Constructive parameter recovery from steady-state cumulants.

Implements one constructive method, :func:`identify_dag`: a topological-order
elimination for DAGs whose sources carry self-loops, two-node pairs included,
and an equation-counting diagnostic for non-identifiable patterns.
Each source's self-loop is the closed-form a00 of the pair it forms with its
first child, a rational function of the pair's cumulants; every other row of
A is a least-squares solve over the second- and third-order identities of
the rows already recovered.  All block solves are rank revealing and report
condition numbers, and the recovered A is certified by its forward residual;
non-generic inputs surface as diagnostics instead of silent garbage.  The
elimination is planned once per graph and run once per stack; the split
changes which work is repeated, not the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .engine import (
    DiagonalCumulant,
    ParameterMatrix,
    _forward_residual,
    solve_cumulant,
)
from .graphs import DirectedGraph, _support_size
from .tensors import SymmetricTensor

DEGENERACY_TOL = 1e-12
# blocks are declared singular when the smallest singular value sits at the
# noise floor; structurally singular patterns land near machine epsilon
# while merely ill-conditioned (still solvable) draws stay well above
BLOCK_RCOND = 1e-12


class DegenerateDenominator(Exception):
    """A closed-form denominator is numerically zero (non-generic point)."""


class HypothesisViolated(Exception):
    """The graph does not satisfy the method's structural hypotheses."""


class SingularBlock(Exception):
    """A linear block in the elimination is numerically singular."""

    def __init__(self, vertex: int, cond: float, message: str = ""):
        self.vertex = vertex
        self.cond = cond
        super().__init__(
            message
            or f"singular block at vertex {vertex} (condition number {cond:.3g})"
        )


class CumulantStack:
    """Cumulant tensors keyed by order: orders 2 and 3 required, order 4 optional."""

    def __init__(self, *tensors: SymmetricTensor):
        self._by_order = {t.order: t for t in sorted(tensors, key=lambda t: t.order)}
        if len(self._by_order) != len(tensors):
            raise ValueError("stack takes one tensor per order")
        if not {2, 3} <= self._by_order.keys() <= {2, 3, 4}:
            raise ValueError(
                f"stack needs orders 2 and 3 and at most order 4, got {list(self._by_order)}"
            )
        if len({t.p for t in tensors}) != 1:
            raise ValueError("stack tensors must share the dimension p")

    @property
    def p(self) -> int:
        return self._by_order[2].p

    @property
    def s(self) -> SymmetricTensor:
        return self._by_order[2]

    @property
    def t(self) -> SymmetricTensor:
        return self._by_order[3]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self._by_order)

    def tensor(self, order: int) -> SymmetricTensor:
        return self._by_order[order]

    def relabel(self, perm) -> "CumulantStack":
        return CumulantStack(*(t.relabel(perm) for t in self._by_order.values()))


def _check_stack(g: DirectedGraph, stack: CumulantStack) -> None:
    """``HypothesisViolated`` unless the stack's p is the graph's."""
    if stack.p != g.p:
        raise HypothesisViolated("stack dimension does not match the graph")


def model_stack(a: ParameterMatrix, omegas: dict[int, DiagonalCumulant]) -> CumulantStack:
    """Forward map: solve the Lyapunov equations into a stack."""
    return CumulantStack(*(solve_cumulant(a, w) for w in omegas.values()))


@dataclass
class IdentifiabilityReport:
    method: str
    verdict: str  # recovered | degenerate | hypothesis-violated
    a: np.ndarray | None = None
    noise: dict[int, np.ndarray] | None = None
    forward_residuals: dict[int, float] = field(default_factory=dict)
    block_conditions: dict[str, float] = field(default_factory=dict)
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "verdict": self.verdict,
            "a": None if self.a is None else [list(row) for row in self.a],
            "noise": None
            if self.noise is None
            else {str(k): list(v) for k, v in self.noise.items()},
            "forward_residuals": {str(k): v for k, v in self.forward_residuals.items()},
            "block_conditions": dict(self.block_conditions),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# source self-loops: the closed form on a source's pair
# ---------------------------------------------------------------------------


def _guard(name: str, value: float, scale: float) -> None:
    # a denominator is degenerate when cancellation or an exact structural
    # zero wipes out its significant digits relative to the assembled terms
    if abs(value) <= DEGENERACY_TOL * scale:
        raise DegenerateDenominator(f"denominator {name} = {value:.3g} is degenerate")


def _both_loops_edge(s00, s01, t000, t001, r0000, r0001) -> float:
    """Closed-form a00 of the pair model 0 -> 1 with both self-loops.

    The guards are the denominators of the pair's whole rational solution
    (a10 and a11 divide by ``r0001^2 core^3``), so a pair that fails them is
    refused even though a00 alone would not divide by zero; an exact 0 fails them.
    """
    core = s00 * t001 - s01 * t000
    core_scale = abs(s00 * t001) + abs(s01 * t000)
    mix = r0000 * t001 - r0001 * t000
    mix_scale = abs(r0000 * t001) + abs(r0001 * t000)
    _guard("s01 (r0000 t001 - r0001 t000)", s01 * mix, abs(s01) * mix_scale)
    _guard("r0001^2 (s00 t001 - s01 t000)^3", r0001**2 * core**3, r0001**2 * core_scale**3)
    return -r0001 * core / (s01 * mix)


def _source_loop_only_edge(s00, s01, t000, t001) -> float:
    """Closed-form a00 when only the source of the pair carries a self-loop.

    The second guard is the denominator of ``a10 = s01^2 t000 / (s00^2 t001)``.
    """
    t_scale = max(abs(t000), abs(t001))
    _guard("s01 t000", s01 * t000, abs(s00) * t_scale)
    _guard("s00^2 t001", s00**2 * t001, s00**2 * t_scale)
    return s00 * t001 / (s01 * t000)


# ---------------------------------------------------------------------------
# shared elimination machinery
# ---------------------------------------------------------------------------


def _solve_block(matrix: np.ndarray, rhs: np.ndarray, vertex: int):
    """Rank-revealing least-squares solve; returns (solution, condition number).

    Fewer rows than unknowns count as a zero singular value.
    """
    u, sing, vt = np.linalg.svd(matrix, full_matrices=False)
    smax = sing[0] if len(sing) else 0.0
    smin = sing[-1] if len(sing) == matrix.shape[1] else 0.0
    cond = np.inf if smin == 0.0 else smax / smin
    if smax == 0.0 or smin <= smax * BLOCK_RCOND:
        raise SingularBlock(vertex, cond)
    solution = vt.T @ ((u.T @ rhs) / sing)
    return solution, float(cond)


# ---------------------------------------------------------------------------
# DAGs with looped sources
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _plan(g: DirectedGraph) -> tuple[tuple, ...]:
    """The graph-only half of :func:`identify_dag`: one step per vertex, in topological order.

    A source j gets ``(j, child, looped, None, None)``: its first child, which
    the refusal of isolated vertices guarantees, and whether that
    child is looped.  No other parent q of the child is reachable from j, or
    a child of j on the path to q would come first.  A non-source j gets
    ``(j, None, False, unknowns, rows)``: its pattern row and the read-only
    rows ``done`` and ``done + p`` of the ``(2p, p)`` buffers of the run.
    """
    order = g.topological_order()  # raises CyclicGraph on cycles
    pos = {v: idx for idx, v in enumerate(order)}
    steps = []
    for idx, j in enumerate(order):
        if j in g.sources:
            child = min((c for c in g.children[j] if c != j), key=pos.__getitem__)
            steps.append((j, child, g.has_self_loop(child), None, None))
        else:
            done = np.array(order[:idx], dtype=np.intp)
            unknowns = np.array(g.parents[j], dtype=np.intp)
            rows = np.concatenate([done, done + g.p])
            unknowns.setflags(write=False)
            rows.setflags(write=False)
            steps.append((j, None, False, unknowns, rows))
    return tuple(steps)


def identify_dag(
    g: DirectedGraph, stack: CumulantStack, tol: float = 1e-8
) -> IdentifiabilityReport:
    """Recover A and the noise cumulants of a DAG with looped sources.

    A is recovered row by row in topological order and then certified.
    Each source's self-loop comes from the closed form on the pair it forms
    with its first child in topological order.  A non-source j solves for
    its pattern row ``a_j`` (its parents, itself only on a self-loop) by
    least squares over two identities per already-recovered vertex z, which
    hold because every Omega_n is diagonal and z != j:

    - ``S_zj = sum_l (a_z S)_l a_jl``;
    - ``T_zzj = sum_l (T x_1 a_z x_2 a_z)_l a_jl``.

    It reads each order n over ``2**e_n``, ``e_n`` its :meth:`SymmetricTensor.exponent`,
    so no verdict depends on the stack's scale.
    Each order's ``forward_residuals`` entry is the certified bound U of
    :func:`engine._forward_residual` on ``max|solve(A, Omega_n) - T_n|``: at
    most twice that value, computed from the recursion's defect without a
    second solve, and inf for an unstable A.  The verdict is ``recovered`` iff
    each order's U is at most ``tol * max|T_n|``, both in that order's units;
    noise and residuals are reported back in the stack's units.
    Rows that vanish on j's unknowns are dropped and the rest are scaled to
    unit max; ``block_conditions`` holds the condition of that scaled block.
    The report's ``method`` names the graph's class: ``dag-all-loops`` when
    every vertex is looped, ``polytree`` when the skeleton is a tree, and
    ``dag-looped-sources`` otherwise.

    Raises
    ------
    HypothesisViolated
        If the stack's p differs from the graph's, a vertex is isolated, a
        source lacks its self-loop, or a looped child of a source needs
        fourth-order input the stack lacks.
    CyclicGraph
        If the graph has a directed cycle.
    ValueError
        If a stack entry is not finite.
    DegenerateDenominator
        If a source's closed form meets a vanishing denominator.
    SingularBlock
        If a block is numerically singular (a non-generic point, or a
        pattern such as the diamond whose rows of orders 2-3 are deficient).
    """
    _check_stack(g, stack)
    if g.isolated_vertices:
        raise HypothesisViolated(
            f"isolated vertices {g.isolated_vertices} are never identifiable"
        )
    plan = _plan(g)
    missing = [v for v in g.sources if not g.has_self_loop(v)]
    if missing:
        raise HypothesisViolated(f"sources {missing} lack self-loops")
    p = g.p
    shift = {n: stack.tensor(n).exponent() for n in stack.orders}  # refuses any non-finite order
    dense = {n: np.ldexp(stack.tensor(n).to_dense(), -e) for n, e in shift.items()}
    s, t, r = dense[2], dense[3], dense.get(4)
    entries = np.zeros((p, p))
    coef = np.zeros((2 * p, p))  # rows z and p + z: a_z S and T x_1 a_z x_2 a_z
    diag = np.arange(p)
    rhs = np.concatenate([s, t[diag, diag]])  # rows z and p + z: S_z. and T_zz.
    conditions: dict[str, float] = {}
    for j, child, looped, unknowns, rows in plan:
        if unknowns is None:
            see, sec = s.item(j, j), s.item(j, child)
            teee, teec = t.item(j, j, j), t.item(j, j, child)
            if not looped:
                entries[j, j] = _source_loop_only_edge(see, sec, teee, teec)
            elif r is None:
                raise HypothesisViolated(
                    "fourth-order cumulants required for a looped child base case"
                )
            else:
                entries[j, j] = _both_loops_edge(
                    see, sec, teee, teec, r.item(j, j, j, j), r.item(j, j, j, child)
                )
        else:
            block, target = coef[rows[:, None], unknowns], rhs[rows, j]
            scale = np.abs(block).max(axis=1)
            keep = scale > 0.0
            if not keep.all():  # the masks cost near the SVD's time, so only when needed
                block, target, scale = block[keep], target[keep], scale[keep]
            solution, cond = _solve_block(block / scale[:, None], target / scale, j)
            entries[j, unknowns] = solution
            conditions[f"vertex-{j}"] = cond
        coef[j] = entries[j] @ s
        coef[p + j] = entries[j] @ t @ entries[j]
    if g.has_all_self_loops:
        method = "dag-all-loops"
    elif g.is_polytree:
        method = "polytree"
    else:
        method = "dag-looped-sources"
    recovered = ParameterMatrix(g, entries)
    noise, residuals, certified = {}, {}, True
    for n, e in shift.items():
        omega, bound = _forward_residual(dense[n], recovered)
        certified &= bound <= tol * np.abs(dense[n]).max()
        with np.errstate(over="ignore"):  # to the stack's units; past the float range reads inf
            noise[n], residuals[n] = np.ldexp(omega, e), float(np.ldexp(bound, e))
    return IdentifiabilityReport(
        method=method,
        verdict="recovered" if certified else "degenerate",
        a=entries,
        noise=noise,
        forward_residuals=residuals,
        block_conditions=conditions,
        detail="" if recovered.stable else (
            f"recovered matrix is unstable (radius {recovered.radius():.4g})"
        ),
    )


# ---------------------------------------------------------------------------
# equation counting
# ---------------------------------------------------------------------------


@dataclass
class EquationCount:
    params: int
    equations: int
    bound_satisfied: bool
    zero_entries: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "equations": self.equations,
            "bound_satisfied": self.bound_satisfied,
            "zero_entries": {str(k): v for k, v in self.zero_entries.items()},
        }


def count_equations_vs_parameters(g: DirectedGraph, n_max: int) -> EquationCount:
    """Parameter count |E| + p(n-1) against nonzero cumulant equations.

    Cumulant entries forced to zero by missing equitreks are excluded from
    the equation count; ``bound_satisfied`` is False when parameters exceed
    equations, certifying non-identifiability.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    params = len(g.edges) + g.p * (n_max - 1)
    zero_entries = {}
    equations = 0
    for order in range(2, n_max + 1):
        total = comb(order + g.p - 1, order)
        nonzero = _support_size(g, order)
        zero_entries[order] = total - nonzero
        equations += nonzero
    return EquationCount(
        params=params,
        equations=equations,
        bound_satisfied=params <= equations,
        zero_entries=zero_entries,
    )


# ---------------------------------------------------------------------------
# method auto-selection
# ---------------------------------------------------------------------------


class NoMethodApplies(Exception):
    """No constructive identification method matches the graph predicates."""


def auto_identify(g: DirectedGraph, stack: CumulantStack, tol: float = 1e-8):
    """Run :func:`identify_dag` on the graphs it is known to recover.

    Those are the DAGs without isolated vertices whose sources are looped and
    that either have every self-loop or a tree skeleton; two-node pairs are
    among them.  Every other graph raises ``NoMethodApplies``, including DAGs
    with looped sources outside both classes, which ``identify_dag`` accepts
    but whose blocks of orders 2-3 may be singular.
    """
    if (
        g.is_dag
        and (g.has_all_self_loops or g.is_polytree)
        and not g.isolated_vertices
        and all(g.has_self_loop(v) for v in g.sources)
    ):
        return identify_dag(g, stack, tol=tol)
    raise NoMethodApplies("graph matches neither constructive hypothesis class")
