import hashlib
import itertools
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcum import (
    DiagonalCumulant,
    DirectedGraph,
    PoleAtUnit,
    base_trek_coefficient,
    base_trek_cumulant,
    effective_matrix,
    placement_polynomial,
    sample_stable_matrix,
    series_cumulant,
    solve_cumulant,
)
from lyapcum.treks import placement_table_csv
from oracles import (
    check_placement_recursions,
    enumerate_base_treks,
    enumerate_equitreks,
    trek_monomial,
)
from conftest import fig1_matrix, random_graph, sink_loop_chain, two_node_chain, unit_parameters


def loop_insertion_sum(dists, t):
    """Truncated equitrek sum at the tips of a looped broom with unit edges.

    The broom is one chain of each length in ``dists`` out of vertex 0, so
    the sum counts the self-loop insertions along one base trek.
    """
    p = 1 + sum(dists)
    edges = [(v, v) for v in range(p)]
    tips = []
    nxt = 1
    for d in dists:
        chain = [0] + list(range(nxt, nxt + d))
        nxt += d
        edges += list(zip(chain, chain[1:]))
        tips.append(chain[-1])
    pm = unit_parameters(DirectedGraph(p, edges), diag=t, off=1.0)
    w = np.zeros(p)
    w[0] = 1.0
    return series_cumulant(pm, DiagonalCumulant(len(dists), w), terms=301)[tuple(tips)]


class TestTrekRuleEntry:
    def test_two_node_closed_form(self):
        value = series_cumulant(fig1_matrix(), DiagonalCumulant(2, [1.0, 1.0]), terms=201)[(0, 1)]
        assert value == pytest.approx(2 / 3, rel=1e-12)

    def test_no_equitrek_means_zero(self):
        g = sink_loop_chain()
        pm = unit_parameters(g, diag=0.5, off=1.0)
        value = series_cumulant(pm, DiagonalCumulant(2, [1.0, 1.0]), terms=51)[(0, 1)]
        assert value == 0.0

    def test_matches_solver(self, rng):
        for seed in range(5):
            g = random_graph(rng, 3, 0.5, nonempty=True)
            pm = sample_stable_matrix(g, seed=seed, target_radius=0.5)
            for order in (2, 3):
                omega = DiagonalCumulant(order, rng.uniform(0.5, 2, 3))
                exact = solve_cumulant(pm, omega)
                approx = series_cumulant(pm, omega, terms=221)
                for key in exact.keys():
                    assert approx[key] == pytest.approx(exact[key], rel=1e-10, abs=1e-12)

    def test_matches_literal_enumeration(self):
        # short truncation cross-checked monomial by monomial
        g = two_node_chain()
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 1.0])
        length = 6
        literal = sum(
            omega.w[trek.top] * trek_monomial(pm.entries, trek)
            for trek in enumerate_equitreks(g, (0, 1), length)
        )
        assert series_cumulant(pm, omega, terms=length + 1)[(0, 1)] == pytest.approx(
            literal, rel=1e-13
        )

    def test_geometric_convergence(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 1.0])
        at_100 = series_cumulant(pm, omega, terms=101)[(0, 1)]
        at_200 = series_cumulant(pm, omega, terms=201)[(0, 1)]
        assert abs(at_200 - at_100) <= 0.5 ** (2 * 100) * 100


class TestPlacementPolynomial:
    def test_first_row_constant(self):
        for y in range(6):
            assert placement_polynomial(0, y) == [1]

    def test_displayed_entries(self):
        assert placement_polynomial(2, 3) == [3, 6, 1]
        assert placement_polynomial(3, 3) == [1, 9, 9, 1]

    def test_symmetry(self):
        for x in range(6):
            for y in range(6):
                assert placement_polynomial(x, y) == placement_polynomial(y, x)

    def test_value_at_one_counts_lattice_paths(self):
        # independent oracle: grid DP for monotone lattice paths (0,0)->(x,y)
        for x in range(11):
            for y in range(11):
                grid = np.zeros((x + 1, y + 1), dtype=object)
                grid[0, :] = 1
                grid[:, 0] = 1
                for a in range(1, x + 1):
                    for b in range(1, y + 1):
                        grid[a, b] = grid[a - 1, b] + grid[a, b - 1]
                assert sum(placement_polynomial(x, y)) == grid[x, y]


class TestBaseTrekCoefficient:
    def test_empty_trek(self):
        t = 0.3
        assert base_trek_coefficient((0, 0), t) == pytest.approx(1 / (1 - t * t))

    def test_exact_fraction_display_value(self):
        t = Fraction(1, 2)
        value = base_trek_coefficient((2, 3), t)
        expected = t * (3 + 6 * t**2 + t**4) / (1 - t**2) ** 6
        assert value == expected

    def test_pole(self):
        with pytest.raises(PoleAtUnit):
            base_trek_coefficient((1, 1), 1.0)

    def test_matches_loop_insertion_sum(self):
        # oracle: a broom graph with disjoint chains of lengths x and y; the
        # truncated equitrek sum counts exactly the self-loop insertions
        for x, y in [(0, 2), (1, 1), (2, 3), (3, 2)]:
            t = 0.4
            assert loop_insertion_sum((x, y), t) == pytest.approx(
                float(base_trek_coefficient((x, y), t)), rel=1e-10
            )


class TestBaseTrekCovariance:
    def test_four_path_displayed_entry(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        weights = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}
        t = 0.5
        s = base_trek_cumulant(g, t, weights, DiagonalCumulant(2, np.ones(4)))
        expected = (
            t * (3 + 6 * t**2 + t**4) / (1 - t**2) ** 6
            + t * (2 + t**2) / (1 - t**2) ** 4
            + t / (1 - t**2) ** 2
        )
        assert s[(2, 3)] == pytest.approx(expected, rel=1e-12)

    def test_polytree_single_top_form(self):
        # in a polytree each pair has one base trek per common ancestor
        g = DirectedGraph(4, [(0, 1), (0, 2), (2, 3)])
        t = 0.3
        weights = {(0, 1): 0.8, (0, 2): -0.6, (2, 3): 1.1}
        s = base_trek_cumulant(g, t, weights, DiagonalCumulant(2, np.ones(4)))
        # pair (1,3): unique common ancestor 0, distances 1 and 2
        expected = (
            float(base_trek_coefficient((1, 2), t)) * 0.8 * (-0.6) * 1.1
        )
        assert s[(1, 3)] == pytest.approx(expected, rel=1e-12)

    def test_matches_solver_random_dags(self, rng):
        for seed in range(6):
            p = int(rng.integers(3, 6))
            g = random_graph(rng, p, 0.5, dag=True, nonempty=True)
            weights = {
                (i, j): float(rng.uniform(0.3, 1.0) * rng.choice([-1, 1]))
                for i, j in g.edges
                if i != j
            }
            t = float(rng.uniform(-0.6, 0.6))
            omega = DiagonalCumulant(2, rng.uniform(0.5, 2, p))
            direct = base_trek_cumulant(g, t, weights, omega)
            exact = solve_cumulant(effective_matrix(g, t, weights), omega)
            scale = max(exact.max_abs(), 1e-300)
            for key in exact.keys():
                assert abs(direct[key] - exact[key]) / scale <= 1e-10

    def test_zero_without_base_trek(self):
        g = DirectedGraph(3, [(0, 1), (2, 1)])
        s = base_trek_cumulant(
            g, 0.5, {(0, 1): 1.0, (2, 1): 1.0}, DiagonalCumulant(2, np.ones(3))
        )
        assert s[(0, 2)] == 0.0

    def test_unstable_rejected(self):
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(PoleAtUnit):
            base_trek_cumulant(g, 1.0, {(0, 1): 1.0}, DiagonalCumulant(2, np.ones(2)))


class TestRecursions:
    def test_smallest_case(self):
        assert placement_polynomial(1, 1) == [1, 1]

    def test_all_bounds_pass(self):
        report = check_placement_recursions(10, 10)
        assert report.ok, report.failures
        assert report.polynomial_checks == 66

    def test_degenerate_at_zero(self):
        for x in range(4):
            for y in range(x, 4):
                lhs = base_trek_coefficient((x + 1, y + 1), Fraction(0))
                rhs = base_trek_coefficient((x, y), Fraction(0)) if x == y else 0
                assert lhs == rhs


class TestConjecture:
    """The n-leg placement theorem of the treks module docstring."""

    def test_two_leg_specialization(self):
        for x in range(7):
            for y in range(7):
                lo, hi = min(x, y), max(x, y)
                closed = [comb(hi, lo - l) * comb(lo, l) for l in range(lo + 1)]
                assert placement_polynomial(x, y) == closed
        t = Fraction(-2, 5)
        for x, y in itertools.product(range(5), repeat=2):
            numer = sum(c * t ** (2 * l) for l, c in enumerate(placement_polynomial(x, y)))
            two_leg = t ** abs(x - y) * numer / (1 - t * t) ** (x + y + 1)
            assert base_trek_coefficient((x, y), t) == two_leg

    def test_equal_legs_generating_function(self):
        # oracle: convolve the cubed-binomial series against (1-s)^(3x+1)
        for x in range(4):
            series = [comb(x + i, i) ** 3 for i in range(2 * x + 1)]
            binom_part = [(-1) ** k * comb(3 * x + 1, k) for k in range(3 * x + 2)]
            coeffs = []
            for l in range(2 * x + 1):
                coeffs.append(
                    sum(
                        series[i] * binom_part[l - i]
                        for i in range(max(0, l - len(binom_part) + 1), l + 1)
                    )
                )
            got = placement_polynomial(x, x, x)
            assert got == coeffs
            assert [got[2 * x - l] for l in range(2 * x + 1)] == coeffs

    def test_series_counts_equitreks(self):
        # h(s) / (1-s)^(X+1) has s^k coefficient prod_j C(M+k, x_j), the
        # number of equitreks of length M+k; exact in integers
        for n in range(2, 6):
            for xs in itertools.product(range(4), repeat=n):
                total, top = sum(xs), max(xs)
                h = placement_polynomial(*xs)
                assert len(h) - 1 <= total - top
                for k in range(40):
                    series = sum(
                        c * comb(total + k - l, total) for l, c in enumerate(h) if l <= k
                    )
                    assert series == prod(comb(top + k, x) for x in xs), (xs, k)

    def test_order3_validator_on_path(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        weights = {(0, 1): 1.0, (1, 2): 1.0}
        omega = DiagonalCumulant(3, np.ones(3))
        direct = base_trek_cumulant(g, 0.5, weights, omega)
        exact = solve_cumulant(effective_matrix(g, 0.5, weights), omega)
        dev = np.max(np.abs(direct.to_dense() - exact.to_dense())) / exact.max_abs()
        assert dev <= 1e-9

    def test_coefficient_pole(self):
        with pytest.raises(PoleAtUnit):
            base_trek_coefficient([1, 1, 1], 1.0)

    def test_three_leg_coefficient_matches_loop_insertion(self):
        # oracle: a broom with three disjoint chains out of vertex 0; the
        # truncated three-leg equitrek sum counts the self-loop insertions
        for dists in [(0, 1, 2), (1, 1, 1), (2, 1, 0), (2, 2, 1)]:
            t = 0.45
            assert loop_insertion_sum(dists, t) == pytest.approx(
                base_trek_coefficient(list(dists), t), rel=1e-10
            )

    def test_four_leg_coefficient_matches_loop_insertion(self):
        for dists in [(0, 1, 1, 2), (1, 1, 1, 1), (2, 0, 1, 0), (2, 1, 2, 1)]:
            t = 0.45
            assert loop_insertion_sum(dists, t) == pytest.approx(
                base_trek_coefficient(dists, t), rel=1e-10
            )


@st.composite
def constant_loop_dags(draw):
    """DAG (p <= 5, vertices in drawn order) with signed off-diagonal weights."""
    p = draw(st.integers(2, 5))
    order = draw(st.permutations(range(p)))
    slots = [(order[a], order[b]) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.sets(st.sampled_from(slots), min_size=1))
    loops = draw(st.sets(st.sampled_from(range(p))))
    g = DirectedGraph(p, list(edges) + [(v, v) for v in loops])
    magnitude = st.floats(0.3, 1.0)
    weights = {e: draw(magnitude) * draw(st.sampled_from([-1.0, 1.0])) for e in edges}
    t = draw(st.floats(-0.6, 0.6))
    return g, weights, t


class TestBaseTrekCumulant:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(constant_loop_dags(), st.integers(2, 4), st.data())
    def test_matches_solver_any_order(self, model, order, data):
        g, weights, t = model
        w = data.draw(st.lists(st.floats(0.5, 2.0), min_size=g.p, max_size=g.p))
        omega = DiagonalCumulant(order, w)
        direct = base_trek_cumulant(g, t, weights, omega)
        exact = solve_cumulant(effective_matrix(g, t, weights), omega)
        scale = exact.max_abs()
        for key in exact.keys():
            if enumerate_base_treks(g, key):
                assert abs(direct[key] - exact[key]) <= 1e-12 * scale
            else:
                assert direct[key] == 0.0 and exact[key] == 0.0

    def test_complete_dag_golden_bytes(self):
        """The sha256 of the value vectors at orders 2-4 on the complete DAG, p = 5.

        Recorded when every base trek recomputed its placement polynomial; the
        per-call paths and the per-leg-tuple coefficients leave every bit alone.
        """
        p = 5
        pairs = list(itertools.combinations(range(p), 2))
        g = DirectedGraph(p, pairs + [(v, v) for v in range(p)])
        weights = {(i, j): (-1) ** j * 0.7 / (1 + j - i) for i, j in pairs}
        digest = hashlib.sha256()
        for n in (2, 3, 4):
            omega = DiagonalCumulant(n, np.linspace(0.5, 2.0, p))
            digest.update(base_trek_cumulant(g, 0.4, weights, omega)._vec.tobytes())
        assert digest.hexdigest() == (
            "789cffbe4cfcca92678e403c9cb6a331a2be6e218e6a46eff5aa300e86dd61e9"
        )

    def test_effective_matrix_names_unweighted_edge(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="no weight given for edge 1->2"):
            effective_matrix(g, 0.5, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="edge 1->2"):
            base_trek_cumulant(g, 0.5, {(0, 1): 1.0}, DiagonalCumulant(2, np.ones(3)))

    def test_effective_matrix_rejects_weight_on_missing_edge(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        weights = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
        with pytest.raises(ValueError, match="missing edge 0->2"):
            effective_matrix(g, 0.5, weights)

    def test_effective_matrix_rejects_weight_on_a_loop(self):
        # every loop weighs t, so a weight on a loop of g is refused like a missing edge
        g = DirectedGraph(2, [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="missing edge 0->0"):
            effective_matrix(g, 0.5, {(0, 0): 0.3, (0, 1): 1.0})


class TestBaseTrekEnumeration:
    def test_caps_at_simple_paths(self):
        g = DirectedGraph(3, [(0, 0), (0, 1), (1, 2), (0, 2)])
        treks = enumerate_base_treks(g, (1, 2))
        assert all(trek.is_base_trek for trek in treks)
        # top 0 pairs the edge to 1 with either route to 2; top 1 pairs the
        # empty leg with the edge 1 -> 2
        assert {(t.top, t.legs) for t in treks} == {
            (0, ((0, 1), (0, 1, 2))),
            (0, ((0, 1), (0, 2))),
            (1, ((1,), (1, 2))),
        }


def test_placement_table_csv():
    table = placement_table_csv(3, 3)
    lines = table.strip().splitlines()
    assert lines[0] == "x\\y,0,1,2,3"
    assert lines[3].split(",")[3] == "1;4;1"


def test_placement_table_golden_bytes():
    # the bytes `lyapcum ppoly` prints for these bounds
    golden = {
        6: "db8aec68a720bc7be2366632b666a463ddbbf9c19e7d27c18f83c33b31153e94",
        10: "da091f1d3a2c3898033ef5bc6a0a64156fa0c210f6f045f5009b3061255da843",
    }
    for bound, digest in golden.items():
        table = placement_table_csv(bound, bound).encode()
        assert hashlib.sha256(table).hexdigest() == digest
