import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcum import (
    DiagonalCumulant,
    DirectedGraph,
    NoiseSpec,
    ParameterMatrix,
    SingularSystem,
    UnstableMatrix,
    base_trek_cumulant,
    placement_polynomial,
    recover_noise,
    random_omegas,
    recursive_residual,
    sample_stable_matrix,
    series_cumulant,
    simulate_and_estimate,
    solve_cumulant,
    spectral_radius,
)
from lyapcum.engine import STABILITY_MARGIN, _k_statistics
from lyapcum.graphs import equitrek_multisets
from lyapcum.tensors import DimensionMismatch, SymmetricTensor, multiset_indices
from conftest import (
    banded_dag,
    fig1_matrix,
    random_graph,
    two_node_chain,
    unit_noise,
    unit_parameters,
)


@st.composite
def signed_models(draw, max_p=8):
    """Random digraph (p <= max_p) with signed weights scaled to radius 0.5."""
    p = draw(st.integers(1, max_p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_graph(rng, p, draw(st.floats(0.1, 0.4)), nonempty=True)
    entries = np.zeros((p, p))
    for i, j in g.sorted_edges:
        entries[j, i] = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
    rho = spectral_radius(entries)
    if rho > 0.0:
        entries *= 0.5 / rho
    return ParameterMatrix(g, entries), rng.uniform(0.5, 2.0, p)


class TestSpectralRadius:
    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_triangular_path(self):
        # lower-triangular: eigenvalues are the diagonal entries
        a = np.diag([0.5] * 4)
        for k in range(3):
            a[k + 1, k] = 1.0
        assert spectral_radius(a) == pytest.approx(0.5, rel=1e-12)


class TestParameterMatrix:
    def test_sparsity_enforced(self):
        with pytest.raises(ValueError):
            ParameterMatrix(two_node_chain(), np.array([[0.5, 0.2], [1.0, 0.0]]))

    def test_stability_certificate(self):
        assert fig1_matrix().stable
        unstable = ParameterMatrix(two_node_chain(), np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(UnstableMatrix):
            unstable.require_stable()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_dag_radius_is_the_largest_loop(self, data):
        # a DAG's radius is max|a_jj|, read without an eigenvalue solve
        p = data.draw(st.integers(1, 8))
        perm = data.draw(st.permutations(range(p)))
        edges = {
            (perm[i], perm[j])
            for i in range(p)
            for j in range(i if data.draw(st.booleans()) else i + 1, p)
            if data.draw(st.booleans())
        }
        g = DirectedGraph(p, edges) if edges else DirectedGraph(p, [(0, 0)])
        assert g.is_dag
        entries = np.zeros((p, p))
        for i, j in g.sorted_edges:
            entries[j, i] = data.draw(st.floats(-1.5, 1.5) if i == j else st.floats(-3.0, 3.0))
        pm = ParameterMatrix(g, entries)
        rho = spectral_radius(entries)
        assert abs(pm.radius() - rho) <= 1e-14 * max(1.0, rho)
        assert pm.stable == (rho < 1.0 - STABILITY_MARGIN)


class TestSolveCumulant:
    def test_two_node_worked_example(self):
        pm = fig1_matrix()
        s = solve_cumulant(pm, DiagonalCumulant(2, [1.0, 1.0]))
        assert s[(0, 0)] == pytest.approx(4 / 3, rel=1e-12)
        assert s[(0, 1)] == pytest.approx(2 / 3, rel=1e-12)
        assert s[(1, 1)] == pytest.approx(7 / 3, rel=1e-12)

    def test_zero_matrix_returns_noise(self):
        g = DirectedGraph(3, [(0, 0)])
        pm = ParameterMatrix(g, np.zeros((3, 3)))
        omega = DiagonalCumulant(3, [1.0, -2.0, 0.5])
        t = solve_cumulant(pm, omega)
        assert np.array_equal(t.to_dense(), omega.to_dense())

    def test_collider_square_determinant(self):
        g = DirectedGraph(4, [(0, 1), (0, 3), (2, 3)] + [(i, i) for i in range(4)])
        pm = unit_parameters(g, diag=0.5, off=1.0)
        s = solve_cumulant(pm, DiagonalCumulant(2, np.ones(4))).to_dense()
        det = np.linalg.det(s[np.ix_([1, 0], [3, 0])])
        assert det == pytest.approx(256 / 81, rel=1e-12)

    def test_requires_stability(self):
        pm = ParameterMatrix(two_node_chain(), np.array([[1.2, 0.0], [1.0, 0.0]]))
        with pytest.raises(UnstableMatrix):
            solve_cumulant(pm, DiagonalCumulant(2, [1.0, 1.0]))

    @pytest.mark.parametrize("p", [12, 16])
    def test_large_p_matches_series(self, p):
        g = banded_dag(p)
        pm = sample_stable_matrix(g, seed=p, target_radius=0.6)
        omega = DiagonalCumulant(4, np.linspace(0.5, 2.0, p))
        exact = solve_cumulant(pm, omega).to_dense()
        series = series_cumulant(pm, omega, terms=3000).to_dense()
        assert np.max(np.abs(exact - series)) <= 1e-12 * np.max(np.abs(series))

    def test_converges_near_unit_radius(self):
        g = banded_dag(4)
        pm = unit_parameters(g, diag=1.0 - 1e-6, off=0.3)
        assert pm.radius() == pytest.approx(1.0 - 1e-6, abs=1e-12)
        for order in (2, 3, 4):
            omega = DiagonalCumulant(order, np.linspace(0.5, 2.0, 4))
            t = solve_cumulant(pm, omega)
            assert recursive_residual(t, pm, omega) <= 1e-12 * t.max_abs()

    def test_non_normal_equal_loops_matches_long_series(self):
        # a defective A (equal self-loops on a DAG) with strong transient
        # growth: the entries reach 1e26, and no walk sum cancels
        p = 8
        edges = [(v, v) for v in range(p)] + [(v, v + 1) for v in range(p - 1)]
        g = DirectedGraph(p, edges + [(0, 2), (1, 4), (3, 6), (2, 7)])
        pm = unit_parameters(g, diag=0.9, off=1.0)
        for order in (2, 3, 4):
            omega = DiagonalCumulant(order, np.linspace(0.5, 2.0, p))
            exact = solve_cumulant(pm, omega).to_dense()
            series = series_cumulant(pm, omega, terms=20_000).to_dense()
            assert np.all(np.abs(exact - series) <= 1e-12 * np.abs(series))

    def test_nilpotent_matrix_sums_finitely(self):
        # a loopless path has A^4 = 0: the solve is the four-term series
        g = DirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        pm = unit_parameters(g, diag=0.0, off=0.7)
        for order in (2, 3, 4):
            omega = DiagonalCumulant(order, [1.0, -2.0, 0.5, 1.5])
            exact = solve_cumulant(pm, omega).to_dense()
            series = series_cumulant(pm, omega, terms=4).to_dense()
            np.testing.assert_allclose(exact, series, rtol=1e-15, atol=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(signed_models(), st.integers(2, 4))
    def test_zero_outside_equitrek_support(self, model, order):
        a, w = model
        t = solve_cumulant(a, DiagonalCumulant(order, w))
        support = equitrek_multisets(a.g, order)
        assert all(v == 0.0 for k, v in t.values.items() if k not in support)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(signed_models(max_p=6), st.integers(2, 4))
    def test_matches_series_oracle(self, model, order):
        a, w = model
        omega = DiagonalCumulant(order, w)
        exact = solve_cumulant(a, omega).to_dense()
        series = series_cumulant(a, omega).to_dense()
        assert np.max(np.abs(exact - series)) <= 1e-10 * np.max(np.abs(exact))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(signed_models(max_p=6), st.permutations([2, 3, 4]))
    def test_shared_squares_are_bit_exact(self, model, orders):
        """Orders solved on one matrix, in any sequence, equal fresh solves bit for bit."""
        a, w = model
        for order in orders:
            omega = DiagonalCumulant(order, w)
            shared = solve_cumulant(a, omega)
            fresh = solve_cumulant(ParameterMatrix(a.g, a.entries), omega)
            assert shared.to_dense().tobytes() == fresh.to_dense().tobytes()
            assert np.float64(shared.sym_defect).tobytes() == (
                np.float64(fresh.sym_defect).tobytes()
            )

    def test_squares_are_computed_once(self):
        pm = fig1_matrix()
        square, norm = pm.squared_power(2)
        assert pm.squared_power(2)[0] is square and not square.flags.writeable
        a = pm.entries
        assert np.array_equal(square, (a @ a) @ (a @ a))
        assert norm == np.max(np.sum(np.abs(square), axis=1))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(signed_models(max_p=5), st.integers(2, 4), st.data())
    def test_relabeling_equivariance(self, model, order, data):
        """Renaming vertex v to perm[v] renames the solved tensor's multisets.

        The values agree to 1e-12 of max|T|; the off-support zeros are exact
        on both sides, so the zero sets match multiset for multiset.
        """
        a, w = model
        perm = data.draw(st.permutations(range(a.p)))
        entries = np.zeros_like(a.entries)
        entries[np.ix_(perm, perm)] = a.entries
        noise = np.zeros_like(w)
        noise[perm] = w
        t = solve_cumulant(a, DiagonalCumulant(order, w)).relabel(perm)
        moved = solve_cumulant(ParameterMatrix(a.g.relabel(perm), entries),
                               DiagonalCumulant(order, noise))
        assert np.max(np.abs(moved.to_dense() - t.to_dense())) <= 1e-12 * t.max_abs()
        assert [k for k in moved.keys() if moved[k] == 0.0] == [
            k for k in t.keys() if t[k] == 0.0
        ]

    def test_golden_bytes(self):
        """Fixed seeded solves: p = 1-8, a nilpotent, a diagonal and a radius-0.97 A.

        The sha256 of every tensor's value vector and of every ``sym_defect``,
        orders 2-4, recorded from the solver before its doubling became the
        shared in-place kernel.
        """
        rng = np.random.default_rng(1968)
        models = [
            (sample_stable_matrix(random_graph(rng, p, 0.45, nonempty=True), seed=p, target_radius=0.8), p)
            for p in range(1, 9)
        ]
        path = DirectedGraph(5, [(v, v + 1) for v in range(4)])
        models.append((sample_stable_matrix(path, seed=9), 5))
        models.append((sample_stable_matrix(DirectedGraph(4, [(v, v) for v in range(4)]), seed=10), 4))
        models.append(
            (sample_stable_matrix(random_graph(rng, 6, 0.6, nonempty=True), seed=11, target_radius=0.97), 6)
        )
        assert models[8][0].radius() == 0.0 and models[10][0].radius() == pytest.approx(0.97)
        values, defects = hashlib.sha256(), hashlib.sha256()
        for a, p in models:
            for omega in random_omegas(np.random.default_rng(p), p).values():
                t = solve_cumulant(a, omega)
                values.update(t._vec.tobytes())
                defects.update(np.float64(t.sym_defect).tobytes())
        assert values.hexdigest() == (
            "3ef586f485e26cc28cc8ac9be59bd7f857fec947987fb5601e80ac59bf773590"
        )
        assert defects.hexdigest() == (
            "981bdcb4c1c53db1e95ffa8555c198f3576f9ff6d4dbe3902bb3b740f0b23a70"
        )

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_overflowing_tensor_is_singular(self, order):
        # finite, shrinking squares (radius 0.5), but T x A overflows at once
        pm = ParameterMatrix(two_node_chain(), np.array([[0.5, 0.0], [1e200, 0.0]]))
        with pytest.raises(SingularSystem, match="^doubling produced non-finite values$"):
            solve_cumulant(pm, DiagonalCumulant(order, [1.0, 1.0]))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_non_finite_square_is_singular(self, order):
        # nilpotent A whose square overflows; the tiny noise keeps T x A finite
        # at orders 2 and 3, so the non-finite norm of A^2 is what fails
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        pm = ParameterMatrix(g, np.array([[0.0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]]))
        with pytest.raises(SingularSystem, match="^doubling produced non-finite values$"):
            solve_cumulant(pm, DiagonalCumulant(order, [1e-300] * 3))

    def test_symmetry_defect_small(self, rng):
        g = random_graph(rng, 3, 0.45, nonempty=True)
        pm = sample_stable_matrix(g, seed=5, target_radius=0.6)
        t = solve_cumulant(pm, DiagonalCumulant(3, rng.uniform(0.5, 2, 3)))
        assert t.sym_defect <= 1e-10 * max(t.max_abs(), 1.0)


class TestSeriesCumulant:
    def test_single_term_is_noise(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 2.0])
        np.testing.assert_allclose(
            series_cumulant(pm, omega, 1).to_dense(), omega.to_dense(), atol=1e-15
        )

    def test_matches_solver_on_two_node(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 1.0])
        series = series_cumulant(pm, omega, 200)
        exact = solve_cumulant(pm, omega)
        for key in exact.keys():
            assert series[key] == pytest.approx(exact[key], rel=1e-12)

    def test_error_decreases_with_length(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 1.0])
        exact = solve_cumulant(pm, omega).to_dense()
        errors = [
            np.max(np.abs(series_cumulant(pm, omega, terms).to_dense() - exact))
            for terms in (5, 10, 20, 40)
        ]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0]

    def test_default_length_covers_transient_growth(self):
        # equal self-loops on a banded DAG: the terms grow for a while before
        # rho^i takes over, so a stop on rho alone leaves a large tail
        pm = unit_parameters(banded_dag(12), diag=0.9, off=0.5)
        for order in (2, 3, 4):
            omega = DiagonalCumulant(order, np.linspace(0.5, 2.0, 12))
            series = series_cumulant(pm, omega)
            assert recursive_residual(series, pm, omega) <= 1e-12 * series.max_abs()

    def test_oracle_equivalence_random_patterns(self, rng):
        # series is the independent oracle for the doubling solve
        for p in (2, 3, 4):
            for _ in range(4):
                g = random_graph(rng, p, 0.45, nonempty=True)
                pm = sample_stable_matrix(g, seed=int(rng.integers(1e6)), target_radius=0.6)
                for order in (2, 3, 4):
                    omega = DiagonalCumulant(order, rng.uniform(0.5, 2, p))
                    exact = solve_cumulant(pm, omega)
                    approx = series_cumulant(pm, omega, 200)
                    scale = max(exact.max_abs(), 1e-300)
                    dev = max(abs(exact[k] - approx[k]) for k in exact.keys())
                    assert dev / scale <= 1e-10


class TestResidualAndRecovery:
    def test_solver_output_residual(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(3, [1.0, 1.0])
        t = solve_cumulant(pm, omega)
        assert recursive_residual(t, pm, omega) <= 1e-12

    def test_noise_is_not_a_solution(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(2, [1.0, 1.0])
        noise = SymmetricTensor(2, 2, {(0, 0): 1.0, (1, 1): 1.0})
        assert recursive_residual(noise, pm, omega) > 0.1

    def test_perturbation_scales_linearly(self, rng):
        g = random_graph(rng, 3, 0.45, nonempty=True)
        pm = sample_stable_matrix(g, seed=3, target_radius=0.4)
        omega = DiagonalCumulant(2, [1.0, 1.0, 1.0])
        t = solve_cumulant(pm, omega)
        eps = 1e-4
        bumped = SymmetricTensor(2, 3, dict(t.values))
        bumped.values[(0, 1)] += eps
        residual = recursive_residual(bumped, pm, omega)
        assert 0.1 * eps <= residual <= 10 * eps

    def test_round_trip(self, rng):
        for order in (2, 3, 4):
            g = random_graph(rng, 3, 0.45, nonempty=True)
            pm = sample_stable_matrix(g, seed=order, target_radius=0.6)
            omega = DiagonalCumulant(order, rng.uniform(0.5, 2, 3))
            recovered, defect = recover_noise(solve_cumulant(pm, omega), pm)
            np.testing.assert_allclose(recovered.w, omega.w, atol=1e-10)
            assert defect <= 1e-10

    def test_zero_matrix_recovers_tensor(self):
        g = DirectedGraph(2, [(0, 0)])
        pm = ParameterMatrix(g, np.zeros((2, 2)))
        t = SymmetricTensor(2, 2, {(0, 0): 1.5, (1, 1): 2.5})
        recovered, defect = recover_noise(t, pm)
        np.testing.assert_allclose(recovered.w, [1.5, 2.5])
        assert defect == 0.0

    def test_wrong_matrix_leaves_defect(self, rng):
        g = DirectedGraph(3, [(0, 0), (0, 1), (1, 2), (1, 1), (2, 2)])
        pm = sample_stable_matrix(g, seed=1, target_radius=0.6)
        other = sample_stable_matrix(g, seed=2, target_radius=0.6)
        t = solve_cumulant(pm, DiagonalCumulant(3, [1.0, 1.0, 1.0]))
        _, defect = recover_noise(t, other)
        assert defect > 1e-4

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(signed_models(max_p=6), st.integers(2, 4))
    def test_recover_noise_inverts_solve(self, model, order):
        a, w = model
        t = solve_cumulant(a, DiagonalCumulant(order, w))
        recovered, defect = recover_noise(t, a)
        assert np.max(np.abs(recovered.w - w)) <= 1e-10 * np.max(np.abs(w))
        assert defect <= 1e-10 * t.max_abs()


class TestSampleStableMatrix:
    def test_diagonal_only_within_target(self):
        g = DirectedGraph(3, [(i, i) for i in range(3)])
        for seed in range(5):
            pm = sample_stable_matrix(g, seed=seed, target_radius=0.6)
            assert pm.radius() <= 0.6 + 1e-12
            assert np.count_nonzero(pm.entries - np.diag(np.diag(pm.entries))) == 0

    def test_loopless_dag_is_nilpotent(self):
        g = DirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        pm = sample_stable_matrix(g, seed=0, target_radius=0.6)
        assert pm.radius() <= 1e-12

    def test_always_certified(self):
        g = DirectedGraph(4, [(0, 1), (1, 0), (2, 3), (0, 0), (3, 3)])
        for seed in range(10):
            pm = sample_stable_matrix(g, seed=seed, target_radius=0.7)
            assert pm.stable
            assert pm.radius() == pytest.approx(0.7, abs=1e-9)

    def test_deterministic(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (0, 0)])
        a = sample_stable_matrix(g, seed=42, target_radius=0.6)
        b = sample_stable_matrix(g, seed=42, target_radius=0.6)
        np.testing.assert_array_equal(a.entries, b.entries)


class TestModelSymmetries:
    def test_sign_flip_preserves_covariance_exactly(self, rng):
        g = random_graph(rng, 3, 0.45, nonempty=True)
        pm = sample_stable_matrix(g, seed=9, target_radius=0.6)
        omega = DiagonalCumulant(2, [1.0, 0.7, 1.3])
        plus = solve_cumulant(pm, omega)
        minus = solve_cumulant(ParameterMatrix(pm.g, -pm.entries), omega)
        for key in plus.keys():
            assert plus[key] == minus[key]

    def test_sign_flip_changes_third_order(self):
        pm = fig1_matrix()
        omega = DiagonalCumulant(3, [1.0, 1.0])
        plus = solve_cumulant(pm, omega)
        minus = solve_cumulant(ParameterMatrix(pm.g, -pm.entries), omega)
        assert max(
            abs(plus[k] - minus[k]) for k in multiset_indices(2, 3)
        ) > 1e-3

    def test_gaussian_specialization(self, rng):
        g = random_graph(rng, 4, 0.45, nonempty=True)
        pm = sample_stable_matrix(g, seed=11, target_radius=0.6)
        d = rng.uniform(0.5, 2, 4)
        sigma = solve_cumulant(pm, DiagonalCumulant(2, d)).to_dense()
        lhs = pm.entries @ sigma @ pm.entries.T + np.diag(d)
        np.testing.assert_allclose(lhs, sigma, atol=1e-12 * max(1, np.max(np.abs(sigma))))


class TestSimulation:
    def test_zero_noise_gives_zero_cumulants(self):
        pm = fig1_matrix()
        est = simulate_and_estimate(
            pm, NoiseSpec("zero", [1.0, 1.0]), t_max=2000, burn_in=100, order=2, seed=0
        )
        assert est.estimate.max_abs() == 0.0

    def test_gaussian_third_order_vanishes(self):
        pm = fig1_matrix()
        est = simulate_and_estimate(
            pm,
            NoiseSpec("gaussian", [1.0, 1.0]),
            t_max=200_000,
            burn_in=1000,
            order=3,
            seed=4,
        )
        for key in est.estimate.keys():
            assert abs(est.estimate[key]) <= 3 * est.stderr[key] + 1e-3

    # the exact cumulants at orders 2, 3 and 4 of each kind at scales 1 and 2
    NOISE_CUMULANTS = {
        "gaussian": [[1.0, 4.0], [0.0, 0.0], [0.0, 0.0]],
        "zero": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "centered_exponential": [[1.0, 4.0], [2.0, 16.0], [6.0, 96.0]],
    }

    def test_noise_spec_cumulants(self):
        for kind, expected in self.NOISE_CUMULANTS.items():
            spec = NoiseSpec(kind, [1.0, 2.0])
            for order, w in zip((2, 3, 4), expected):
                np.testing.assert_array_equal(
                    spec.cumulant(order).w, w, err_msg=f"{kind} noise, order {order}"
                )


# each refusal of a malformed argument: (call, exception, whole message)
REFUSALS = {
    "cumulant-order-1": (
        lambda: DiagonalCumulant(1, [1.0]), ValueError, "cumulant order must be at least 2"
    ),
    "cumulant-matrix": (
        lambda: DiagonalCumulant(2, np.eye(2)), ValueError, "diagonal entries must form a vector"
    ),
    "solve-dimension": (
        lambda: solve_cumulant(fig1_matrix(), unit_noise(3)[2]),
        DimensionMismatch, "noise cumulant dimension does not match matrix",
    ),
    "series-dimension": (
        lambda: series_cumulant(fig1_matrix(), unit_noise(3)[2]),
        DimensionMismatch, "noise cumulant dimension does not match matrix",
    ),
    "series-zero-terms": (
        lambda: series_cumulant(fig1_matrix(), unit_noise(2)[2], terms=0),
        ValueError, "series needs at least one term",
    ),
    "residual-order": (
        lambda: recursive_residual(SymmetricTensor(2, 2, {}), fig1_matrix(), unit_noise(2)[3]),
        DimensionMismatch, "orders or dimensions do not match",
    ),
    "residual-dimension": (
        lambda: recursive_residual(SymmetricTensor(2, 3, {}), fig1_matrix(), unit_noise(2)[2]),
        DimensionMismatch, "orders or dimensions do not match",
    ),
    "recover-dimension": (
        lambda: recover_noise(SymmetricTensor(2, 3, {}), fig1_matrix()),
        DimensionMismatch, "tensor dimension does not match matrix",
    ),
    "simulate-dimension": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(3)), 10, 0, 2, 0),
        DimensionMismatch, "noise dimension does not match matrix",
    ),
    "simulate-order-4": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(2)), 10, 0, 4, 0),
        ValueError, "simulation estimates support orders 2 and 3",
    ),
    "simulate-short-order-2": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(2)), 79, 0, 2, 0),
        ValueError, "need t_max >= 80 and burn_in >= 0 at order 2",
    ),
    "simulate-short-order-3": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(2)), 119, 0, 3, 0),
        ValueError, "need t_max >= 120 and burn_in >= 0 at order 3",
    ),
    "simulate-negative-t-max": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(2)), -3, 0, 2, 0),
        ValueError, "need t_max >= 80 and burn_in >= 0 at order 2",
    ),
    "simulate-negative-burn-in": (
        lambda: simulate_and_estimate(fig1_matrix(), NoiseSpec("zero", np.ones(2)), 80, -5, 2, 0),
        ValueError, "need t_max >= 80 and burn_in >= 0 at order 2",
    ),
    "k-statistics-order-4": (
        lambda: _k_statistics(np.ones((10, 2)), 4),
        ValueError, "sample cumulants are implemented for orders 2 and 3",
    ),
    "radius-0": (
        lambda: sample_stable_matrix(two_node_chain(), seed=0, target_radius=0.0),
        ValueError, r"target radius must lie in \(0, 1\)",
    ),
    "radius-1": (
        lambda: sample_stable_matrix(two_node_chain(), seed=0, target_radius=1.0),
        ValueError, r"target radius must lie in \(0, 1\)",
    ),
    "noise-kind": (
        lambda: NoiseSpec("uniform", [1.0]), ValueError, "unknown noise kind 'uniform'"
    ),
    "noise-scale-matrix": (
        lambda: NoiseSpec("gaussian", [[1.0], [2.0]]), ValueError, "noise scale must be a vector"
    ),
    "noise-scale-scalar": (
        lambda: NoiseSpec("gaussian", 3.0), ValueError, "noise scale must be a vector"
    ),
    "fold-non-hypercubic": (
        lambda: SymmetricTensor.from_dense(np.zeros((2, 3))),
        DimensionMismatch, "dense tensor must be hypercubic",
    ),
    "placement-no-legs": (
        lambda: placement_polynomial(), ValueError, "need at least one leg distance"
    ),
    "placement-negative-leg": (
        lambda: placement_polynomial(2, -1), ValueError, "leg distances must be nonnegative"
    ),
    "base-trek-omega": (
        lambda: base_trek_cumulant(DirectedGraph(2, [(0, 1)]), 0.5, {(0, 1): 1.0}, unit_noise(3)[2]),
        ValueError, "omega must be a cumulant on the same vertices",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refuses_malformed_arguments(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()
