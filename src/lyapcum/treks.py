"""Trek monomials, base-trek enumeration and the base-trek calculus.

Every steady-state cumulant entry is a sum over equitreks of noise-weighted
edge monomials.  For DAGs whose self-loops all carry one weight ``t``, the
infinitely many equitreks over a base trek collapse into a closed-form
rational coefficient ``C(x, y; t) = t^|x-y| P_{x,y}(t) / (1-t^2)^(x+y+1)``
whose numerator counts weighted self-loop placements along the trek legs.

Placement-polynomial arithmetic is exact over the integers so that the
recursion checks are identities, not float comparisons.  The higher-order
generalization of the placement polynomial is unproven; everything derived
from it is tagged CONJECTURE and is never consumed by identification or
rank code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .engine import DiagonalCumulant, ParameterMatrix, solve_cumulant
from .graphs import DirectedGraph, Trek
from .tensors import SymmetricTensor, multiset_indices

CONJECTURE_TAG = "CONJECTURE"


class PoleAtUnit(Exception):
    """Self-loop parameter hit the pole |t| >= 1."""


class UnstableEffective(Exception):
    """The assembled constant-self-loop matrix is not Schur stable."""


# ---------------------------------------------------------------------------
# trek monomials (the truncated trek sum is engine.series_cumulant)
# ---------------------------------------------------------------------------


def trek_monomial(entries: np.ndarray, trek: Trek) -> float:
    """Product of edge weights along all legs of a trek."""
    value = 1.0
    for leg in trek.legs:
        for a, b in zip(leg, leg[1:]):
            value *= entries[b, a]
    return value


# ---------------------------------------------------------------------------
# placement polynomials
# ---------------------------------------------------------------------------


def placement_polynomial(x: int, y: int) -> list[int]:
    """Self-loop placement numerator for a two-leg base trek.

    Returns integer coefficients ``c_l`` of ``t^(2l)`` with
    ``c_l = C(max(x,y), min(x,y)-l) * C(min(x,y), l)``.
    """
    if x < 0 or y < 0:
        raise ValueError("leg distances must be nonnegative")
    lo, hi = min(x, y), max(x, y)
    return [comb(hi, lo - l) * comb(lo, l) for l in range(lo + 1)]


def _poly_eval_even(coeffs: Sequence[int], t):
    t2 = t * t
    value = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        value = value * t2 + c
    return value


def base_trek_coefficient(x: int, y: int, t):
    """Rational weight ``t^|x-y| P_{x,y}(t) / (1-t^2)^(x+y+1)``.

    Accepts float or Fraction ``t`` (Fractions evaluate exactly).

    Raises
    ------
    PoleAtUnit
        If ``|t| >= 1``.
    """
    if abs(t) >= 1:
        raise PoleAtUnit(f"coefficient has a pole at |t|=1, got t={t}")
    numer = _poly_eval_even(placement_polynomial(x, y), t)
    one = Fraction(1) if isinstance(t, Fraction) else 1.0
    return t ** abs(x - y) * numer / (one - t * t) ** (x + y + 1)


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
# base-trek enumeration and the restricted covariance
# ---------------------------------------------------------------------------


def _offdiag_dag(g: DirectedGraph) -> DirectedGraph:
    dag = DirectedGraph(g.p, [(i, j) for i, j in g.edges if i != j])
    dag.topological_order()  # raises CyclicGraph when not a DAG
    return dag


def _paths_to_all(dag: DirectedGraph, top: int) -> dict[int, list[tuple[int, ...]]]:
    """All simple directed paths from ``top``, grouped by endpoint."""
    by_end: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(dag.p)}
    stack = [(top,)]
    while stack:
        path = stack.pop()
        by_end[path[-1]].append(path)
        for c in dag.children[path[-1]]:
            stack.append(path + (c,))
    for paths in by_end.values():
        paths.sort()
    return by_end


def enumerate_base_treks(g: DirectedGraph, leaves: Sequence[int]) -> list[Trek]:
    """All base treks between the leaves: legs are self-loop-free simple paths."""
    dag = _offdiag_dag(g)
    treks = []
    for top in range(dag.p):
        by_end = _paths_to_all(dag, top)
        options = [by_end[leaf] for leaf in leaves]
        if any(not o for o in options):
            continue
        for combo in itertools.product(*options):
            treks.append(Trek(top=top, legs=tuple(combo)))
    return treks


def _path_weight(path: tuple[int, ...], weights: Mapping[tuple[int, int], float]):
    value = 1.0
    for a, b in zip(path, path[1:]):
        value *= weights[(a, b)]
    return value


def effective_matrix(
    g: DirectedGraph, t: float, offdiag: Mapping[tuple[int, int], float]
) -> ParameterMatrix:
    """Assemble the constant-self-loop matrix: diagonal t, DAG edges as given."""
    dag = _offdiag_dag(g)
    full = DirectedGraph(
        g.p, list(dag.edges) + [(v, v) for v in range(g.p)]
    )
    entries = np.eye(g.p) * t
    for (i, j), w in offdiag.items():
        if (i, j) not in dag.edges:
            raise ValueError(f"weight given for missing edge {i}->{j}")
        entries[j, i] = w
    return ParameterMatrix(full, entries)


def base_trek_covariance(
    g: DirectedGraph,
    t: float,
    offdiag: Mapping[tuple[int, int], float],
    omega2: DiagonalCumulant,
) -> SymmetricTensor:
    """Exact covariance of the constant-self-loop DAG model by base treks.

    ``s_ij = sum over base treks of C(d_i, d_j; t) a^leg_i a^leg_j w_top``;
    the sum is finite because base treks exclude loops.
    """
    if abs(t) >= 1:
        raise UnstableEffective(
            f"constant self-loop weight t={t} puts every eigenvalue at |t|>=1"
        )
    _offdiag_dag(g)  # raises CyclicGraph before the order check
    if omega2.order != 2 or omega2.p != g.p:
        raise ValueError("omega2 must be an order-2 cumulant on the same vertices")
    values = {}
    for key in multiset_indices(g.p, 2):
        total = 0.0
        for trek in enumerate_base_treks(g, key):
            leg_i, leg_j = trek.legs
            coeff = base_trek_coefficient(len(leg_i) - 1, len(leg_j) - 1, t)
            total += (
                coeff
                * _path_weight(leg_i, offdiag)
                * _path_weight(leg_j, offdiag)
                * omega2.w[trek.top]
            )
        values[key] = total
    return SymmetricTensor(2, g.p, values)


# ---------------------------------------------------------------------------
# recursion checks
# ---------------------------------------------------------------------------


@dataclass
class RecursionReport:
    ok: bool
    polynomial_checks: int
    coefficient_checks: int
    failures: list[str] = field(default_factory=list)


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for idx, c in enumerate(a):
        out[idx] += c
    for idx, c in enumerate(b):
        out[idx] += c
    return out


def _poly_scale_shift(a: list[int], scale: int, shift: int) -> list[int]:
    """scale * t^(2 shift) * a, in t^2 coefficient lists."""
    return [0] * shift + [scale * c for c in a]


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def check_placement_recursions(x_max: int, y_max: int) -> RecursionReport:
    """Verify the placement-polynomial and coefficient recursions.

    (i) ``P_{x+1,y+1} = t^2 P_{x,y+1} + (1 + (t^2-1) [x=y]) P_{x+1,y}
    + (1 - t^2) P_{x,y}`` as exact integer identities, and (ii)
    ``C(x+1,y+1;t) = (t (C(x,y+1;t) + C(x+1,y;t)) + C(x,y;t)) / (1-t^2)``
    at exact rational sample points, for all 0 <= x <= y within the bounds.
    """
    report = RecursionReport(ok=True, polynomial_checks=0, coefficient_checks=0)
    sample_ts = [Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)]
    for x in range(x_max + 1):
        for y in range(x, y_max + 1):
            lhs = _trim(placement_polynomial(x + 1, y + 1))
            rhs = _poly_scale_shift(placement_polynomial(x, y + 1), 1, 1)
            if x == y:
                rhs = _poly_add(
                    rhs, _poly_scale_shift(placement_polynomial(x + 1, y), 1, 1)
                )
            else:
                rhs = _poly_add(rhs, placement_polynomial(x + 1, y))
            pxy = placement_polynomial(x, y)
            rhs = _poly_add(rhs, pxy)
            rhs = _poly_add(rhs, _poly_scale_shift(pxy, -1, 1))
            report.polynomial_checks += 1
            if _trim(rhs) != lhs:
                report.ok = False
                report.failures.append(f"polynomial recursion fails at (x,y)=({x},{y})")
            for t in sample_ts:
                lhs_c = base_trek_coefficient(x + 1, y + 1, t)
                rhs_c = (
                    t * (base_trek_coefficient(x, y + 1, t) + base_trek_coefficient(x + 1, y, t))
                    + base_trek_coefficient(x, y, t)
                ) / (1 - t * t)
                report.coefficient_checks += 1
                if lhs_c != rhs_c:
                    report.ok = False
                    report.failures.append(
                        f"coefficient recursion fails at (x,y,t)=({x},{y},{t})"
                    )
    return report


# ---------------------------------------------------------------------------
# conjectured higher-order placement polynomials
# ---------------------------------------------------------------------------


def conjectured_placement_poly(xs: Sequence[int]) -> list[int]:
    """CONJECTURE: placement numerator for an n-leg base trek.

    Returns integer coefficients of ``t^(n m)`` ascending in m.  The n = 2
    specialization provably matches :func:`placement_polynomial`; beyond
    that the formula is unproven and outputs must not feed identification
    or rank decisions.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("need at least one leg distance")
    if any(x < 0 for x in xs):
        raise ValueError("leg distances must be nonnegative")
    total = sum(xs)
    span = total - max(xs)
    coeffs = []
    for m in range(span + 1):
        l = span - m
        inner = 0
        for k in range(l + 1):
            prod = 1
            for x in xs:
                prod *= comb(x + k, k)
            inner += (-1) ** (l - k) * comb(total + 1, l - k) * prod
        coeffs.append(inner)
    return coeffs


def conjectured_coefficient(xs: Sequence[int], t: float) -> float:
    """CONJECTURE: n-leg analogue of :func:`base_trek_coefficient`."""
    n = len(xs)
    if abs(t) >= 1:
        raise PoleAtUnit(f"coefficient has a pole at |t|=1, got t={t}")
    total = sum(xs)
    coeffs = conjectured_placement_poly(xs)
    tn = t**n
    numer = 0.0
    for m, c in enumerate(coeffs):
        numer += c * tn**m
    return t ** (n * max(xs) - total) * numer / (1 - tn) ** (total + 1)


@dataclass
class ConjectureReport:
    tag: str
    max_rel_deviation: float
    entries_checked: int


def validate_conjecture_order3(
    g: DirectedGraph,
    t: float,
    offdiag: Mapping[tuple[int, int], float],
    omega3: DiagonalCumulant,
) -> ConjectureReport:
    """Compare the conjectured order-3 base-trek rule to the exact solver.

    Assembles the third-order cumulant from conjectured coefficients and
    reports the maximum relative deviation against :func:`solve_cumulant`.  The
    outcome is evidence about the conjecture, not ground truth.
    """
    if abs(t) >= 1:
        raise UnstableEffective(f"constant self-loop weight t={t} is unstable")
    exact = solve_cumulant(effective_matrix(g, t, offdiag), omega3)
    scale = max(exact.max_abs(), 1e-300)
    max_dev = 0.0
    checked = 0
    for key in multiset_indices(g.p, 3):
        total = 0.0
        for trek in enumerate_base_treks(g, key):
            dists = [len(leg) - 1 for leg in trek.legs]
            weight = 1.0
            for leg in trek.legs:
                weight *= _path_weight(leg, offdiag)
            total += conjectured_coefficient(dists, t) * weight * omega3.w[trek.top]
        max_dev = max(max_dev, abs(total - exact[key]) / scale)
        checked += 1
    return ConjectureReport(
        tag=CONJECTURE_TAG, max_rel_deviation=max_dev, entries_checked=checked
    )
