import hashlib
import itertools
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcum import (
    CumulantStack,
    DegenerateDenominator,
    DiagonalCumulant,
    DirectedGraph,
    HypothesisViolated,
    ParameterMatrix,
    SingularBlock,
    auto_identify,
    count_equations_vs_parameters,
    identify_dag,
    model_stack,
    random_omegas,
    sample_stable_matrix,
    solve_cumulant,
)
from lyapcum import identify
from lyapcum.engine import _forward_residual
from lyapcum.identify import NoMethodApplies
from lyapcum.tensors import SymmetricTensor
from oracles import (
    pair_both_loops,
    pair_cumulants,
    pair_source_loop_only,
    scaled_stack,
    two_node_st_solutions,
)
from conftest import (
    banded_dag,
    bare_two_cycle,
    chain_with_end_loops,
    diamond,
    edge_sets,
    four_node_tree,
    random_graph,
    reachable,
    seeded_model,
    sink_loop_chain,
    two_node_both_loops,
    two_node_chain,
    unit_noise,
)


stack_for = partial(seeded_model, noise_offset=5000)


class TestCumulantStack:
    @staticmethod
    def tensors(p=3, orders=(2, 3, 4)):
        return {n: SymmetricTensor(n, p, {(i,) * n: i + 1.0 for i in range(p)}) for n in orders}

    def test_keyed_by_each_tensor_order(self):
        t = self.tensors()
        stack = CumulantStack(t[4], t[2], t[3])
        assert stack.orders == (2, 3, 4) and stack.p == 3
        assert (stack.s, stack.t, stack.tensor(4)) == (t[2], t[3], t[4])
        assert CumulantStack(t[3], t[2]).orders == (2, 3)

    @pytest.mark.parametrize(
        "orders, message",
        [
            ((3, 4), "orders 2 and 3"),
            ((2,), "orders 2 and 3"),
            ((2, 3, 5), "at most order 4"),
            ((1, 2, 3), "at most order 4"),
            ((2, 3, 3), "one tensor per order"),
        ],
    )
    def test_refuses_bad_orders(self, orders, message):
        t = self.tensors(orders=set(orders))
        with pytest.raises(ValueError, match=message):
            CumulantStack(*(t[n] for n in orders))

    def test_refuses_mixed_dimensions(self):
        with pytest.raises(ValueError, match="share the dimension p"):
            CumulantStack(self.tensors(3)[2], self.tensors(4)[3])

    @pytest.mark.parametrize("orders", [(2, 3), (2, 3, 4)])
    def test_relabel_keeps_orders(self, orders):
        stack = CumulantStack(*self.tensors(orders=orders).values())
        moved = stack.relabel([2, 0, 1])
        assert moved.orders == orders
        assert moved.s[(2, 2)] == stack.s[(0, 0)]

    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1.0, 3.0, 1e150, 1e300])
    def test_in_units_is_an_exact_power_of_two_scaling(self, c):
        # each order over 2**exponent() peaks in [1/2, 1), and scaling back is exact
        stack = seeded_model(four_node_tree(), seed=3, noise_offset=1)[2]
        scaled = scaled_stack(stack, {n: c for n in stack.orders})
        for n in scaled.orders:
            tensor = scaled.tensor(n)
            dense, e = tensor.to_dense(), tensor.exponent()
            assert 0.5 <= np.abs(np.ldexp(dense, -e)).max() < 1.0
            np.testing.assert_array_equal(np.ldexp(np.ldexp(dense, -e), e), dense)
        assert SymmetricTensor(2, 4, {}).exponent() == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_refused(self, bad):
        # the elimination and the constraint checks take each order's exponent() first
        g = two_node_both_loops()
        stack = model_stack(sample_stable_matrix(g, seed=0), unit_noise(2))
        stack.s.values[(0, 1)] = bad
        for call in (stack.s.exponent, lambda: identify_dag(g, stack)):
            with pytest.raises(ValueError, match="^stack has a non-finite entry$"):
                call()


class TestTwoNode:
    """The two-node pairs, through the elimination entry points."""

    def test_both_loops_round_trip(self):
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.4, 0.0], [0.7, 0.3]]))
        stack = model_stack(pm, unit_noise(2))
        report = identify_dag(g, stack)
        assert report.verdict == "recovered"
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-9)
        for order in (2, 3, 4):
            np.testing.assert_allclose(report.noise[order], [1.0, 1.0], atol=1e-9)

    def test_source_loop_only_formula(self):
        g = two_node_chain()
        pm = ParameterMatrix(g, np.array([[0.5, 0.0], [1.0, 0.0]]))
        stack = model_stack(pm, unit_noise(2, orders=(2, 3)))
        report = identify_dag(g, stack)
        s, t = stack.s, stack.t
        assert report.verdict == "recovered"
        assert report.a[0, 0] == pytest.approx(
            s[(0, 0)] * t[(0, 0, 1)] / (s[(0, 1)] * t[(0, 0, 0)]), rel=1e-14
        )
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-12)
        np.testing.assert_allclose(report.noise[2], [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(report.noise[3], [1.0, 1.0], atol=1e-12)

    def test_missing_edge_degenerates(self):
        g = two_node_chain()
        pm = ParameterMatrix(g, np.array([[0.5, 0.0], [0.0, 0.0]]))
        stack = model_stack(pm, unit_noise(2, orders=(2, 3)))
        with pytest.raises(DegenerateDenominator, match="s01 t000"):
            identify_dag(g, stack)

    @pytest.mark.parametrize(
        "g", [two_node_both_loops(), two_node_chain()], ids=["both-loops", "source-loop-only"]
    )
    def test_stack_of_another_p_rejected(self, g):
        three = sample_stable_matrix(DirectedGraph(3, [(0, 0), (0, 1), (1, 2)]), seed=0)
        with pytest.raises(HypothesisViolated, match="stack dimension"):
            identify_dag(g, model_stack(three, unit_noise(3)))

    def test_both_loops_needs_fourth_order(self):
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.4, 0.0], [0.7, 0.3]]))
        stack = model_stack(pm, unit_noise(2, orders=(2, 3)))
        with pytest.raises(HypothesisViolated, match="fourth-order"):
            identify_dag(g, stack)


# rational pair points (a00, a10, a11, w0, w1), a11 = 0 for the source-loop-only pair
PAIR_POINTS = [
    (Fraction(2, 5), Fraction(7, 10), Fraction(3, 10), Fraction(1), Fraction(1)),
    (Fraction(-1, 3), Fraction(5, 4), Fraction(1, 2), Fraction(2), Fraction(3, 7)),
    (Fraction(3, 4), Fraction(-2, 9), Fraction(-3, 5), Fraction(5, 2), Fraction(1, 3)),
]


def stack_pair(stack):
    """(s00, s01, t000, t001), plus (r0000, r0001) with order 4, of a float stack."""
    out = (stack.s[(0, 0)], stack.s[(0, 1)], stack.t[(0, 0, 0)], stack.t[(0, 0, 1)])
    if 4 not in stack.orders:
        return out
    r = stack.tensor(4)
    return out + (r[(0, 0, 0, 0)], r[(0, 0, 0, 1)])


def exact_pair(a00, a10, a11, w0, w1, orders):
    """The same entries, exact: the cumulants with no 1 and with one 1, per order."""
    return tuple(x for n in orders for x in pair_cumulants(a00, a10, a11, w0, w1, n)[:2])


class TestPairOracle:
    """The pair's rational function A(S, T, R), against the elimination."""

    @pytest.mark.parametrize("point", PAIR_POINTS)
    def test_exact_cumulants_give_exact_a(self, point):
        a00, a10, a11, w0, w1 = point
        assert pair_both_loops(*exact_pair(a00, a10, a11, w0, w1, (2, 3, 4))) == (a00, a10, a11)
        assert pair_source_loop_only(*exact_pair(a00, a10, 0, w0, w1, (2, 3))) == (a00, a10)

    @pytest.mark.parametrize("point", PAIR_POINTS)
    def test_exact_cumulants_match_the_solver(self, point):
        a00, a10, a11, w0, w1 = point
        pm = ParameterMatrix(two_node_both_loops(), np.array([[a00, 0], [a10, a11]], float))
        omegas = {n: DiagonalCumulant(n, np.array([w0, w1], float)) for n in (2, 3, 4)}
        stack = model_stack(pm, omegas)
        for n in (2, 3, 4):
            exact = pair_cumulants(a00, a10, a11, w0, w1, n)
            got = [stack.tensor(n)[(0,) * (n - m) + (1,) * m] for m in range(n + 1)]
            np.testing.assert_allclose(got, [float(x) for x in exact], rtol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_elimination_matches_oracle(self, seed):
        # a00 is the same expression, so it is bit-equal; the rest of A comes
        # from the least-squares rows of the elimination
        for g, orders, oracle in (
            (two_node_both_loops(), (2, 3, 4), pair_both_loops),
            (two_node_chain(), (2, 3), pair_source_loop_only),
        ):
            _, _, stack = stack_for(g, seed=seed + 400, orders=orders)
            report = identify_dag(g, stack)
            a = oracle(*stack_pair(stack)) + (0.0,)  # a11 = 0 without the sink loop
            assert report.verdict == "recovered"
            assert report.a[0, 0] == a[0]
            np.testing.assert_allclose(report.a[1], a[1:3], rtol=1e-12, atol=1e-12)


class TestDagAllLoops:
    def test_two_node_reduces_to_closed_form(self):
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.4, 0.0], [0.7, 0.3]]))
        stack = model_stack(pm, unit_noise(2))
        report = identify_dag(g, stack)
        assert report.verdict == "recovered"
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 7))
        g = random_graph(rng, p, 0.5, dag=True, nonempty=True)
        g = DirectedGraph(p, g.edges | {(i, i) for i in range(p)})
        if g.isolated_vertices:  # join the first one to its successor mod p
            v = min(g.isolated_vertices)
            g = DirectedGraph(p, g.edges | {(v, (v + 1) % p)})
        pm, omegas, stack = stack_for(g, seed=seed + 100)
        report = identify_dag(g, stack)
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-6
        for order in (2, 3, 4):
            np.testing.assert_allclose(report.noise[order], omegas[order].w, atol=1e-6)
            assert report.forward_residuals[order] <= 1e-8

    def test_diamond_hits_singular_block(self):
        g = diamond()
        pm, _, stack = stack_for(g, seed=21)
        with pytest.raises(SingularBlock) as err:
            identify_dag(g, stack)
        assert err.value.vertex == 3
        assert err.value.cond > 1e10

    def test_tolerated_missing_sink_loop(self):
        # a loopless non-source vertex has no a_jj unknown, so its diagonal
        # entry stays zero and the forward residual certifies the rest
        g = DirectedGraph(3, [(0, 0), (1, 1), (0, 1), (1, 2)])
        pm, omegas, stack = stack_for(g, seed=5)
        report = identify_dag(g, stack)
        assert report.verdict == "recovered"
        assert report.a[2, 2] == 0.0
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-8

    def test_inconsistent_stack_reports_degenerate(self):
        # corrupting one entry drives the recovery to an unstable matrix,
        # which cannot be residual-certified
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.4, 0.0], [0.7, 0.3]]))
        stack = model_stack(pm, unit_noise(2))
        stack.t.values[(0, 0, 1)] *= 4.0
        report = identify_dag(g, stack)
        assert report.verdict == "degenerate"
        radius = ParameterMatrix(g, report.a).radius()
        assert radius >= 1.0
        assert report.detail == f"recovered matrix is unstable (radius {radius:.4g})"
        assert report.forward_residuals == {2: np.inf, 3: np.inf, 4: np.inf}

    def test_isolated_vertex_refused(self):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
        pm, _, stack = stack_for(g, seed=3)
        with pytest.raises(HypothesisViolated):
            identify_dag(g, stack)

    def test_permutation_equivariance(self):
        g = DirectedGraph(4, [(i, i) for i in range(4)] + [(0, 1), (0, 2), (1, 3)])
        pm, omegas, stack = stack_for(g, seed=17)
        report = identify_dag(g, stack)
        perm = [2, 0, 3, 1]
        g2 = g.relabel(perm)
        stack2 = stack.relabel(perm)
        report2 = identify_dag(g2, stack2)
        expected = np.zeros((4, 4))
        for j in range(4):
            for i in range(4):
                expected[perm[j], perm[i]] = report.a[j, i]
        np.testing.assert_allclose(report2.a, expected, atol=1e-8)
        for bad in ([2, 0, 2, 1], [2.0, 0, 3, 1], [2, False, 3, True], [2, "0", 3, 1]):
            with pytest.raises(ValueError, match="not a permutation"):
                stack.relabel(bad)

    @pytest.mark.parametrize("p", [10, 16, 32])
    def test_deep_banded_dags(self, p):
        # each vertex i feeds i+1 and i+2, so depth grows with p; rows from
        # every recovered vertex keep the blocks well conditioned
        g = banded_dag(p)
        for seed in range(5):
            pm, _, stack = stack_for(g, seed, radius=0.7)
            report = identify_dag(g, stack)
            assert report.verdict == "recovered"
            assert np.max(np.abs(report.a - pm.entries)) <= 1e-8


class TestPolytree:
    def test_four_node_tree_round_trip(self):
        g = four_node_tree()
        pm, omegas, stack = stack_for(g, seed=31)
        report = identify_dag(g, stack)
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-6

    def test_chain_with_end_loops(self):
        g = chain_with_end_loops()
        pm, omegas, stack = stack_for(g, seed=32)
        report = identify_dag(g, stack)
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-6

    def test_collider_without_loop(self):
        # vertex with two parents and no self-loop takes the diagonal branch
        g = DirectedGraph(3, [(0, 0), (1, 1), (0, 2), (1, 2)])
        pm, omegas, stack = stack_for(g, seed=33)
        report = identify_dag(g, stack)
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-6

    def test_missing_source_loop_rejected(self):
        g = sink_loop_chain()
        pm, _, stack = stack_for(g, seed=34)
        with pytest.raises(HypothesisViolated):
            identify_dag(g, stack)

    def test_non_polytree_rejected(self):
        # the diamond is neither looped everywhere nor a tree, so it is not routed
        g = diamond()
        pm, _, stack = stack_for(g, seed=35)
        with pytest.raises(NoMethodApplies):
            auto_identify(g, stack)


class TestLoopedSources:
    """DAGs with looped sources outside both routed classes: ``identify_dag`` runs them."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unlooped_middle_vertex_recovered(self, seed):
        # vertex 1 has no loop and the skeleton is a triangle
        g = DirectedGraph(3, [(0, 0), (0, 1), (0, 2), (1, 2)])
        pm, _, stack = stack_for(g, seed=seed)
        report = identify_dag(g, stack)
        assert report.method == "dag-looped-sources"
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-12
        with pytest.raises(NoMethodApplies):
            auto_identify(g, stack)

    def test_looped_sink_block_is_singular(self):
        # the rows of orders 2-3 leave the block of vertex 2 rank-deficient
        g = DirectedGraph(3, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)])
        _, _, stack = stack_for(g, seed=0)
        with pytest.raises(SingularBlock) as err:
            identify_dag(g, stack)
        assert err.value.vertex == 2


class TestEquationCount:
    def test_sink_loop_chain(self):
        count = count_equations_vs_parameters(sink_loop_chain(), 3)
        assert count.params == 2 + 2 * 2
        assert count.equations == 4
        assert not count.bound_satisfied

    def test_bare_two_cycle(self):
        for n in (2, 3, 4):
            count = count_equations_vs_parameters(bare_two_cycle(), n)
            assert count.params == 2 + 2 * (n - 1)
            assert count.equations == 2 * (n - 1)
            assert not count.bound_satisfied

    def test_complete_two_node(self):
        g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        count = count_equations_vs_parameters(g, 3)
        assert count.params == 4 + 4
        assert count.equations == 3 + 4  # no missing equitreks
        assert not count.bound_satisfied

    def test_identifiable_graph_satisfies_bound(self):
        count = count_equations_vs_parameters(two_node_both_loops(), 4)
        assert count.bound_satisfied

    def test_order_below_two_refused(self):
        with pytest.raises(ValueError, match="need n_max >= 2"):
            count_equations_vs_parameters(two_node_both_loops(), 1)


class TestDiamondFamily:
    def test_one_parameter_family_is_invisible(self):
        # (a31, a32) pairs with equal a10*a31 + a20*a32 lie in one fiber of
        # the parametrization: every off-diagonal entry touching vertex 3
        # depends on the combination alone, and the pure-3 diagonal entries
        # are absorbed by the free sink noise (vertex 3 has no outgoing
        # edge, so its noise feeds exactly those entries)
        g = diamond()
        base = np.zeros((4, 4))
        base[0, 0] = 0.5
        base[1, 0], base[2, 0] = 0.8, -0.6

        def stack_with(a31, a32, omegas):
            entries = base.copy()
            entries[3, 1], entries[3, 2] = a31, a32
            return model_stack(ParameterMatrix(g, entries), omegas)

        combo = 0.8 * 0.7 + (-0.6) * 0.4  # a10*a31 + a20*a32
        first = stack_with(0.7, 0.4, unit_noise(4))
        a31_alt = 0.2
        a32_alt = (combo - 0.8 * a31_alt) / (-0.6)
        plain = stack_with(a31_alt, a32_alt, unit_noise(4))
        adjusted = unit_noise(4)
        for order in (2, 3, 4):
            delta = first.tensor(order)[(3,) * order] - plain.tensor(order)[(3,) * order]
            adjusted[order].w[3] += delta
        second = stack_with(a31_alt, a32_alt, adjusted)
        for order in (2, 3, 4):
            t1 = first.tensor(order)
            t2 = second.tensor(order)
            assert max(abs(t1[k] - t2[k]) for k in t1.keys()) <= 1e-12


class TestAutoIdentify:
    def test_dispatches_two_node(self):
        # the both-loops pair is a DAG with all self-loops
        g = two_node_both_loops()
        pm, _, stack = stack_for(g, seed=41)
        report = auto_identify(g, stack)
        assert report.method == "dag-all-loops"
        assert report.verdict == "recovered"
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-8)

    def test_dispatches_two_node_relabeled(self):
        # the chain 1 -> 0 with a loop at 1 is a polytree with a looped source
        g = DirectedGraph(2, [(1, 1), (1, 0)])
        pm, _, stack = stack_for(g, seed=44)
        report = auto_identify(g, stack)
        assert report.method == "polytree"
        assert report.verdict == "recovered"
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-8)

    def test_both_loops_pair_without_fourth_order(self):
        g = DirectedGraph(2, [(1, 1), (0, 0), (1, 0)])
        pm, _, stack = stack_for(g, seed=45, orders=(2, 3))
        with pytest.raises(HypothesisViolated):
            auto_identify(g, stack)

    def test_dispatches_dag(self):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
        pm, _, stack = stack_for(g, seed=41)
        report = auto_identify(g, stack)
        assert report.method == "dag-all-loops"
        np.testing.assert_allclose(report.a, pm.entries, atol=1e-7)

    def test_dispatches_polytree(self):
        g = four_node_tree()
        pm, _, stack = stack_for(g, seed=42)
        assert auto_identify(g, stack).method == "polytree"

    def test_no_method(self):
        g = bare_two_cycle()
        pm, _, stack = stack_for(g, seed=43, radius=0.5)
        with pytest.raises(NoMethodApplies):
            auto_identify(g, stack)


@st.composite
def constructive_models(draw, max_p=8, max_radius=0.95):
    """A DAG with all self-loops or a polytree with looped sources, p <= max_p.

    The radius stays at or above 0.3: as A shrinks toward 0 every
    off-diagonal cumulant vanishes, and at radius 0.2 the deepest draws
    lose accuracy with depth (errors up to 4e-8).
    """
    p = draw(st.integers(2, max_p))
    tree = [(draw(st.integers(0, k - 1)), k) for k in range(1, p)]
    if draw(st.booleans()):
        pairs = list(itertools.combinations(range(p), 2))
        extra = draw(st.lists(st.sampled_from(pairs), max_size=p))
        edges = tree + extra + [(v, v) for v in range(p)]
    else:
        edges = [(u, v) if draw(st.booleans()) else (v, u) for u, v in tree]
        looped = set(DirectedGraph(p, edges).sources)
        looped |= {v for v in range(p) if draw(st.booleans())}
        edges += [(v, v) for v in looped]
    g = DirectedGraph(p, set(edges))
    seed = draw(st.integers(0, 2**16))
    pm = sample_stable_matrix(g, seed=seed, target_radius=draw(st.floats(0.3, max_radius)))
    return g, pm, model_stack(pm, random_omegas(np.random.default_rng(seed), p))


class TestConstructiveProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(constructive_models(), st.data())
    def test_recovers_and_relabels(self, model, data):
        g, pm, stack = model
        report = auto_identify(g, stack)
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-8
        perm = data.draw(st.permutations(range(g.p)))
        relabeled = auto_identify(g.relabel(perm), stack.relabel(perm))
        expected = np.empty_like(pm.entries)
        expected[np.ix_(perm, perm)] = pm.entries
        assert relabeled.method == report.method
        assert relabeled.verdict == "recovered"
        assert np.max(np.abs(relabeled.a - expected)) <= 1e-8


class TestCertificate:
    """The verdict compares each forward residual with tol * max|T_n|."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(constructive_models(max_p=6, max_radius=0.9), st.floats(-6.0, -3.0), st.data())
    def test_bound_brackets_the_resolved_residual(self, model, exponent, data):
        """U lies in [old, 2 old] up to 1e-13 max|T|, and the verdict is U <= tol max|T_n|.

        ``old`` is the residual of a second solve, ``max|solve(A, Omega) - T|``;
        A is the true matrix, then A moved on its pattern by up to 10^exponent.
        The rule is read through ``identify_dag`` at a tol just either side of
        the largest ratio of its forward residuals to ``max|T_n|``.
        """
        g, pm, stack = model
        dense = {n: stack.tensor(n).to_dense() for n in stack.orders}
        bump = np.zeros_like(pm.entries)
        for i, j in g.sorted_edges:
            bump[j, i] = data.draw(st.floats(-1.0, 1.0))
        for entries in (pm.entries, pm.entries + 10.0**exponent * bump):
            a = ParameterMatrix(g, entries)
            for n, tensor in dense.items():
                noise, bound = _forward_residual(tensor, a)
                forward = solve_cumulant(a, DiagonalCumulant(n, noise))
                old = np.max(np.abs(forward.to_dense() - tensor))
                slack = 1e-13 * np.max(np.abs(tensor))
                assert old - slack <= bound <= 2 * old + slack
        report = identify_dag(g, stack)
        need = max(report.forward_residuals[n] / stack.tensor(n).max_abs() for n in dense)
        assert identify_dag(g, stack, tol=need * (1 + 1e-9)).verdict == "recovered"
        if need > 0.0:
            assert identify_dag(g, stack, tol=need * (1 - 1e-9)).verdict == "degenerate"

    def test_certificate_solves_nothing(self, monkeypatch):
        g = DirectedGraph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)] + [(v, v) for v in range(5)])
        pm, _, stack = stack_for(g, seed=11)

        def refuse(*args):
            raise AssertionError("the certificate must not solve or fold again")

        monkeypatch.setattr(identify, "solve_cumulant", refuse)
        monkeypatch.setattr(SymmetricTensor, "from_dense", refuse)
        report = auto_identify(g, stack)
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-8

    def test_large_polytree_tensors_recovered(self):
        # max|T_4| is 1.7e6 here, so an accurate recovery leaves absolute
        # forward residuals near 1e-7
        g = DirectedGraph(6, [(1, 0), (1, 2), (1, 5), (3, 1), (3, 3), (5, 4), (5, 5)])
        entries = np.zeros((6, 6))
        for (i, j), value in {
            (1, 0): 1.3405, (3, 1): 3.4194, (1, 2): 0.5673, (3, 3): 0.6918,
            (5, 4): -0.8612, (1, 5): -3.8450, (5, 5): 0.7985,
        }.items():
            entries[j, i] = value
        pm = ParameterMatrix(g, entries)
        omegas = {
            2: DiagonalCumulant(2, [0.6073, 1.7285, 1.8178, 1.8551, 1.9936, 0.7672]),
            3: DiagonalCumulant(3, [-1.4503, -0.8446, 0.9343, -1.4795, 0.9041, 1.7075]),
            4: DiagonalCumulant(4, [0.6315, 1.3555, 0.6019, 1.6153, 1.9559, 1.7067]),
        }
        stack = model_stack(pm, omegas)
        report = auto_identify(g, stack)
        assert report.method == "polytree"
        assert report.verdict == "recovered"
        assert np.max(np.abs(report.a - entries)) <= 1e-9

    def test_near_unit_radius_dag_recovered(self):
        edges = [(0, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6)]
        g = DirectedGraph(7, edges + [(v, v) for v in range(7)])
        pm, _, stack = seeded_model(g, 9, 1000, radius=0.97)
        report = auto_identify(g, stack)
        assert report.verdict == "recovered"
        assert max(report.forward_residuals.values()) > 1e-8  # absolute values
        assert np.max(np.abs(report.a - pm.entries)) <= 1e-9

    def test_verdict_is_scale_invariant(self):
        # scaling every omega_n by c^n scales every T_n by c^n and leaves A; c^4
        # reaches 1e+-100, where the both-loops closed form's degree-8 guard
        # overflows or underflows unless each order is read in its own units
        looped_dag = DirectedGraph(4, [(i, i) for i in range(4)] + [(0, 1), (0, 2), (1, 3), (2, 3)])
        for g in (four_node_tree(), two_node_both_loops(), looped_dag):
            pm = sample_stable_matrix(g, seed=7, target_radius=0.6)
            omegas = random_omegas(np.random.default_rng(7), g.p)
            for c in (1e-25, 1e-3, 1.0, 1e3, 1e25):
                scaled = {n: DiagonalCumulant(n, c**n * w.w) for n, w in omegas.items()}
                report = auto_identify(g, model_stack(pm, scaled))
                assert report.verdict == "recovered", (g.edges, c)
                assert np.max(np.abs(report.a - pm.entries)) <= 1e-9
                for n, w in scaled.items():
                    assert report.noise[n] == pytest.approx(w.w, rel=1e-9)


class TestExperimentalEnumerator:
    def test_two_solutions_one_stable(self):
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.4, 0.0], [0.7, 0.3]]))
        stack = model_stack(pm, unit_noise(2))
        candidates = two_node_st_solutions(stack)
        assert len(candidates) == 2
        matches = [
            c
            for c in candidates
            if abs(c.a00 - 0.4) < 1e-6 and abs(c.a10 - 0.7) < 1e-6
        ]
        assert len(matches) == 1
        assert matches[0].stable
        # the other root reported with its own stability tag
        other = next(c for c in candidates if c is not matches[0])
        assert isinstance(other.stable, bool)

    def test_close_roots_both_found(self):
        # the two roots of the quadratic lie within 6e-4 of each other
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.02, 0.0], [0.5, 0.75]]))
        candidates = two_node_st_solutions(model_stack(pm, unit_noise(2, (2, 3))))
        assert len(candidates) == 2
        truth = [c for c in candidates if abs(c.a00 - 0.02) < 1e-12]
        assert len(truth) == 1 and truth[0].stable
        assert truth[0].a10 == pytest.approx(0.5, abs=1e-10)
        assert truth[0].a11 == pytest.approx(0.75, abs=1e-10)

    def test_far_root_tagged_unstable(self):
        g = two_node_both_loops()
        pm = ParameterMatrix(g, np.array([[0.9, 0.0], [-0.3, -0.6]]))
        candidates = two_node_st_solutions(model_stack(pm, unit_noise(2, (2, 3))))
        assert [c.stable for c in candidates] == [True, False]
        assert candidates[0].a00 == pytest.approx(0.9, abs=1e-12)
        assert candidates[1].a00 == pytest.approx(76.447, abs=1e-3)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        a00=st.floats(0.05, 0.95),
        a10=st.floats(0.1, 2.0),
        a11=st.floats(-0.95, 0.95),
        signs=st.tuples(st.booleans(), st.booleans()),
        omega=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
    )
    def test_true_parameters_among_candidates(self, a00, a10, a11, signs, omega):
        a00, a10 = (-a00 if signs[0] else a00), (-a10 if signs[1] else a10)
        pm = ParameterMatrix(two_node_both_loops(), np.array([[a00, 0.0], [a10, a11]]))
        omegas = {2: DiagonalCumulant(2, omega[:2]), 3: DiagonalCumulant(3, omega[2:])}
        candidates = two_node_st_solutions(model_stack(pm, omegas))
        assert 1 <= len(candidates) <= 2
        assert all(c.residual <= 1e-8 for c in candidates)
        assert any(
            np.allclose([c.a00, c.a10, c.a11], [a00, a10, a11], rtol=0, atol=1e-8)
            for c in candidates
        )


def seeded_constructive(rng, p, polytree):
    """A relabeled DAG with all self-loops, or a polytree with looped sources."""
    tree = [(int(rng.integers(k)), k) for k in range(1, p)]
    if polytree:
        edges = [(u, v) if rng.uniform() < 0.5 else (v, u) for u, v in tree]
        looped = set(DirectedGraph(p, edges).sources)
        looped |= {v for v in range(p) if rng.uniform() < 0.4}
    else:
        extra = [(i, j) for i, j in itertools.combinations(range(p), 2) if rng.uniform() < 0.3]
        edges, looped = tree + extra, set(range(p))
    g = DirectedGraph(p, set(edges) | {(v, v) for v in looped})
    return g.relabel([int(v) for v in rng.permutation(p)])


class TestGoldenBytes:
    def test_identification_golden_bytes(self):
        """Seeded DAG-all-loops and polytree round trips, p = 2-8, three draws each.

        The sha256 of every report's A, noise vectors, forward residuals and
        block conditions, recorded before the elimination was split into a
        per-graph plan and a per-stack run.
        """
        rng = np.random.default_rng(2024)
        digests = {key: hashlib.sha256() for key in ("a", "noise", "residuals", "conditions")}
        methods = []
        for p in range(2, 9):
            for polytree in (False, True):
                for _ in range(3):
                    g = seeded_constructive(rng, p, polytree)
                    pm = sample_stable_matrix(
                        g, seed=int(rng.integers(2**31)), target_radius=rng.uniform(0.3, 0.9)
                    )
                    report = auto_identify(g, model_stack(pm, random_omegas(rng, p)))
                    assert report.verdict == "recovered"
                    methods.append(report.method)
                    digests["a"].update(report.a.tobytes())
                    for n in sorted(report.noise):
                        digests["noise"].update(report.noise[n].tobytes())
                    for n in sorted(report.forward_residuals):
                        digests["residuals"].update(np.float64(report.forward_residuals[n]).tobytes())
                    for key, cond in report.block_conditions.items():
                        digests["conditions"].update(key.encode() + np.float64(cond).tobytes())
        assert set(methods) == {"dag-all-loops", "polytree"}
        assert {key: d.hexdigest() for key, d in digests.items()} == {
            "a": "6b17083a3efcb5806aade316343aedb329e83f1725820ad412879bfce035af5a",
            "noise": "0b20e16874f94f0ee6a1dd43d4d99d0f36b6d3ff5f20e953d4cb4dc733f7b094",
            "residuals": "ff9d460006b1e27f359970ac2eab6bd1ede51ce1474d21b2a19134de74b8ed50",
            "conditions": "b7a522f22d8a89a2aff0e7db538bf8ce633557804b30ceb5b24ca71cf2980833",
        }


class TestErrorParity:
    """Each refusal keeps its type and message, also when the graph's plan is cached."""

    CASES = {
        # a source with no outgoing edge is an isolated vertex, refused up front
        "source-without-edge": (
            DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (1, 2)]), (2, 3, 4),
            [
                (identify_dag, HypothesisViolated,
                 r"isolated vertices \(0,\) are never identifiable"),
                (auto_identify, NoMethodApplies,
                 r"graph matches neither constructive hypothesis class"),
            ],
        ),
        "looped-child-without-order-4": (
            DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)]), (2, 3),
            [
                (f, HypothesisViolated,
                 r"fourth-order cumulants required for a looped child base case")
                for f in (identify_dag, auto_identify)
            ],
        ),
        # the source's loop comes from a closed form, so an unlooped source is refused
        "unlooped-source": (
            DirectedGraph(3, [(1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]), (2, 3, 4),
            [
                (identify_dag, HypothesisViolated, r"sources \[0\] lack self-loops"),
                (auto_identify, NoMethodApplies,
                 r"graph matches neither constructive hypothesis class"),
            ],
        ),
        "diamond": (
            diamond(), (2, 3, 4),
            [
                (identify_dag, SingularBlock,
                 r"singular block at vertex 3 \(condition number \S+\)"),
                (auto_identify, NoMethodApplies,
                 r"graph matches neither constructive hypothesis class"),
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_refusal_twice(self, name):
        g, orders, expected = self.CASES[name]
        _, _, stack = stack_for(g, seed=21, orders=orders)
        for method, error, message in expected:
            raised = []
            for _ in range(2):
                with pytest.raises(error, match=f"^{message}$") as err:
                    method(g, stack)
                raised.append(str(err.value))
            assert raised[0] == raised[1]

    def test_second_call_uses_the_cached_plan(self):
        g = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)])
        _, _, stack = stack_for(g, seed=21, orders=(2, 3))
        hits = identify._plan.cache_info().hits
        for _ in range(2):
            with pytest.raises(HypothesisViolated, match="fourth-order"):
                identify_dag(g, stack)
        assert identify._plan.cache_info().hits >= hits + 1

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_first_child_is_never_contaminated(self, p):
        """No other parent of a source's first child is reachable from the source.

        Over every DAG on p vertices: such a parent q would put a child of
        the source on the path to q, before the first child.  So the plan
        needs no contamination check.
        """
        for edges in edge_sets(p, loops=False):
            g = DirectedGraph(p, edges)
            if not g.is_dag or g.isolated_vertices:
                continue
            for j, child, _, unknowns, _ in identify._plan(g):
                if unknowns is None:
                    others = set(g.parents[child]) - {j, child}
                    assert not others & reachable(g.children, j)
