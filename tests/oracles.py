"""Loop oracles the tests check the package against.

- The modified-Jacobian entries as explicit delta sums (``jacobian`` builds
  them from one contraction per order).
- The two-leg recursions of the placement polynomials and base-trek
  coefficients, which ``treks`` derives from the n-leg placement formula.
- Treks as explicit vertex paths: the brute-force equitrek enumeration and
  trek monomials, whose sum ``engine.series_cumulant`` truncates, and the
  base-trek enumeration that ``treks.base_trek_cumulant`` sums over, written
  from the definition of a base trek rather than from its path table.
- The rational function that gives the whole of A for the pair 0 -> 1
  (``identify`` keeps only its a00, for each source's self-loop), with exact
  pair cumulants to evaluate it on, and every parameter point of the
  both-loops pair that fits (S, T) alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from lyapcum import (
    CumulantStack,
    DirectedGraph,
    SymmetricTensor,
    base_trek_coefficient,
    placement_polynomial,
)


def jacobian_entry_order2(
    a: np.ndarray, s: SymmetricTensor, row: tuple[int, int], col: tuple[int, int]
) -> float:
    """Entry of the order-2 modified Jacobian at row (i,j), column alpha->beta.

    ``delta_j(beta) sum_l a_il s_(l alpha) + delta_i(beta) sum_k a_jk s_(k alpha)``.
    """
    i, j = row
    alpha, beta = col
    value = 0.0
    if j == beta:
        value += sum(a[i, l] * s[(l, alpha)] for l in range(s.p))
    if i == beta:
        value += sum(a[j, k] * s[(k, alpha)] for k in range(s.p))
    return value


def jacobian_entry_order3(
    a: np.ndarray,
    t: SymmetricTensor,
    row: tuple[int, int, int],
    col: tuple[int, int],
) -> float:
    """Entry of the order-3 modified Jacobian: the three-term delta sum."""
    i, j, k = row
    alpha, beta = col
    p = t.p
    value = 0.0
    if i == beta:
        value += sum(
            a[j, m] * a[k, n] * t[(alpha, m, n)] for m in range(p) for n in range(p)
        )
    if j == beta:
        value += sum(
            a[i, l] * a[k, n] * t[(l, alpha, n)] for l in range(p) for n in range(p)
        )
    if k == beta:
        value += sum(
            a[i, l] * a[j, m] * t[(l, m, alpha)] for l in range(p) for m in range(p)
        )
    return value


@dataclass(frozen=True)
class Trek:
    """Tuple of directed paths (legs) out of one common top vertex.

    Each leg is a vertex sequence starting at ``top``; consecutive vertices
    must be graph edges.  A trek is an equitrek when all legs have equal edge
    length and a base trek when no leg repeats a vertex.
    """

    top: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.legs:
            raise ValueError("a trek needs at least one leg")
        if any(leg[0] != self.top for leg in self.legs):
            raise ValueError("all legs must start at the top vertex")

    @property
    def leg_lengths(self) -> tuple[int, ...]:
        return tuple(len(leg) - 1 for leg in self.legs)

    @property
    def is_equitrek(self) -> bool:
        return len(set(self.leg_lengths)) == 1

    @property
    def is_base_trek(self) -> bool:
        return all(len(set(leg)) == len(leg) for leg in self.legs)


def enumerate_equitreks(
    g: DirectedGraph, leaves: Sequence[int], max_len: int
) -> list[Trek]:
    """All equitreks with leg length <= ``max_len``, by length, top, then leg order."""
    leaves = tuple(leaves)
    if not leaves:
        raise ValueError("leaf tuple must be nonempty")
    # walks[top]: the walks of the current length out of top, in lexicographic
    # order since children are sorted
    walks = [[(top,)] for top in range(g.p)]
    treks = []
    for length in range(max_len + 1):
        if length:
            walks = [[w + (c,) for w in out for c in g.children[w[-1]]] for out in walks]
        for top, out in enumerate(walks):
            per_leaf = [[w for w in out if w[-1] == leaf] for leaf in leaves]
            treks.extend(Trek(top=top, legs=legs) for legs in itertools.product(*per_leaf))
    return treks


def trek_monomial(entries: np.ndarray, trek: Trek) -> float:
    """Product of edge weights along all legs of a trek."""
    value = 1.0
    for leg in trek.legs:
        for a, b in zip(leg, leg[1:]):
            value *= entries[b, a]
    return value


def enumerate_base_treks(g: DirectedGraph, leaves: Sequence[int]) -> list[Trek]:
    """All base treks between the leaves, by top, then leg order.

    A leg is any path out of the top that repeats no vertex, so it never
    takes a self-loop; each top pairs every such path to each leaf.
    """

    def simple_paths(path: tuple[int, ...], leaf: int) -> list[tuple[int, ...]]:
        found = [path] if path[-1] == leaf else []
        for c in g.children[path[-1]]:
            if c not in path:
                found += simple_paths(path + (c,), leaf)
        return found

    treks = []
    for top in range(g.p):
        options = [sorted(simple_paths((top,), leaf)) for leaf in leaves]
        treks.extend(Trek(top=top, legs=legs) for legs in itertools.product(*options))
    return treks


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
                lhs_c = base_trek_coefficient((x + 1, y + 1), t)
                rhs_c = (
                    t * base_trek_coefficient((x, y + 1), t)
                    + t * base_trek_coefficient((x + 1, y), t)
                    + base_trek_coefficient((x, y), t)
                ) / (1 - t * t)
                report.coefficient_checks += 1
                if lhs_c != rhs_c:
                    report.ok = False
                    report.failures.append(
                        f"coefficient recursion fails at (x,y,t)=({x},{y},{t})"
                    )
    return report


def pair_cumulants(a00, a10, a11, w0, w1, order: int) -> list:
    """Exact order-n cumulants of the pair 0 -> 1, indexed by the count m of 1s.

    A is lower triangular, so an index 0 maps only to 0 (through a00) and an
    index 1 to 0 or 1 (through a10 or a11); the Lyapunov equation
    ``T = T x_1 A ... x_n A + Omega`` then reads
    ``T_m = a00^(n-m) sum_k C(m, k) a10^(m-k) a11^k T_k + Omega_m``, solved
    for m = 0..n in turn.  Fraction arguments give Fraction cumulants.
    """
    out = []
    for m in range(order + 1):
        known = sum(comb(m, k) * a10 ** (m - k) * a11**k * out[k] for k in range(m))
        omega = w0 if m == 0 else w1 if m == order else 0
        out.append((omega + a00 ** (order - m) * known) / (1 - a00 ** (order - m) * a11**m))
    return out


def pair_both_loops(s00, s01, t000, t001, r0000, r0001) -> tuple:
    """(a00, a10, a11) of the pair 0 -> 1 with both self-loops, from (S, T, R)."""
    core = s00 * t001 - s01 * t000
    mix = r0000 * t001 - r0001 * t000
    a00 = -r0001 * core / (s01 * mix)
    a10 = (
        -(s01**2)
        * t001
        * (r0000 * s01 * t001 + r0001 * s00 * t001 - 2 * r0001 * s01 * t000)
        * mix
        / (r0001**2 * core**3)
    )
    a11 = mix * s01**2 * (r0000 * s00 * t001**2 - r0001 * s01 * t000**2) / (
        core**3 * r0001**2
    )
    return a00, a10, a11


def pair_source_loop_only(s00, s01, t000, t001) -> tuple:
    """(a00, a10) of the pair 0 -> 1 with a self-loop at 0 only, from (S, T)."""
    return s00 * t001 / (s01 * t000), s01**2 * t000 / (s00**2 * t001)


@dataclass
class TwoNodeCandidate:
    a00: float
    a10: float
    a11: float
    stable: bool
    residual: float


def two_node_st_solutions(stack: CumulantStack) -> list[TwoNodeCandidate]:
    """Every parameter point of the both-loops pair 0 -> 1 that fits (S, T).

    With lower-triangular A the ratios ``u = s01/s00 = x b/(1 - x c)``,
    ``v = t001/t000 = x^2 b/(1 - x^2 c)`` and
    ``w = t011/t000 = x b (b + 2 c v)/(1 - x c^2)`` do not depend on the
    noise (x = a00, b = a10, c = a11).  The first two give
    ``c = (v - u x)/(x^2 D)`` and ``b = u (1 - x c)/x`` with ``D = v - u``;
    substituting them into the third leaves a cubic in x whose root x = 1,
    where ``I - kron(A, A)`` is singular, is spurious.  Dividing it out gives
    ``w D^2 x^2 + (u^2 v^2 + w v (v - 2u)) x + (w v^2 - u v^2 (2v - u)) = 0``.
    Each root that refits the three ratios to 1e-8 is tagged with Schur
    stability.  The true parameters are among them unless ``|a00| < 1e-9``
    or ``|x^2 D| < 1e-12``; nothing here assumes that only one is stable.
    """
    u = stack.s[(0, 1)] / stack.s[(0, 0)]
    v = stack.t[(0, 0, 1)] / stack.t[(0, 0, 0)]
    w = stack.t[(0, 1, 1)] / stack.t[(0, 0, 0)]
    d = v - u
    coeffs = [
        w * d * d,
        u * u * v * v + w * v * (v - 2 * u),
        w * v * v - u * v * v * (2 * v - u),
    ]
    if not np.all(np.isfinite(coeffs)):
        return []
    found: list[TwoNodeCandidate] = []
    # the true a00 is a root, so both are real; rounding near a double root
    # can still leave a conjugate pair, whose real part the residual judges
    for x in np.roots(coeffs).real:
        if abs(x) < 1e-9 or abs(x * x * d) < 1e-12:
            continue
        c = (v - u * x) / (x * x * d)
        b = u * (1 - x * c) / x
        model = np.array(
            [
                x * b / (1 - x * c),
                x * x * b / (1 - x * x * c),
                x * b * (b + 2 * c * v) / (1 - x * c * c),
            ]
        )
        residual = float(np.max(np.abs(model - [u, v, w])))
        if not residual <= 1e-8 or any(abs(f.a00 - x) < 1e-7 for f in found):
            continue
        found.append(
            TwoNodeCandidate(
                a00=float(x),
                a10=float(b),
                a11=float(c),
                stable=bool(max(abs(x), abs(c)) < 1.0),
                residual=residual,
            )
        )
    found.sort(key=lambda f: (round(f.a00, 9), round(f.a10, 9)))
    return found
