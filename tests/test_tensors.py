import itertools
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lyapcum import DimensionMismatch, SymmetricTensor, k_mode_product, tucker_product
from lyapcum.tensors import multiset_indices


def symmetrize(dense):
    """Brute-force fold: the mean over all n! axis transposes, summed in order."""
    perms = list(itertools.permutations(range(dense.ndim)))
    return sum(dense.transpose(perm) for perm in perms) / len(perms)


def symmetry_defect(dense):
    """Brute-force defect: max disagreement between entries at permuted indices."""
    return max(
        float(np.max(np.abs(dense - dense.transpose(perm))))
        for perm in itertools.permutations(range(dense.ndim))
    )


class TestKModeProduct:
    def test_identity_is_noop(self, rng):
        t = rng.standard_normal((3, 3, 3))
        for axis in range(3):
            np.testing.assert_array_almost_equal(
                k_mode_product(t, np.eye(3), axis), t, decimal=14
            )

    def test_order_two_matches_matrix_products(self, rng):
        t = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))
        np.testing.assert_allclose(k_mode_product(t, m, 0), m @ t, rtol=1e-13)
        np.testing.assert_allclose(k_mode_product(t, m, 1), t @ m.T, rtol=1e-13)

    def test_matches_brute_force(self, rng):
        # independent oracle: direct triple loop over the defining sum
        t = rng.standard_normal((2, 2, 2))
        m = rng.standard_normal((2, 2))
        got = k_mode_product(t, m, 1)
        for i, j, k in itertools.product(range(2), repeat=3):
            expected = sum(m[j, x] * t[i, x, k] for x in range(2))
            assert got[i, j, k] == pytest.approx(expected, rel=1e-13)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            k_mode_product(rng.standard_normal((2, 2)), rng.standard_normal((3, 3)), 0)
        with pytest.raises(DimensionMismatch, match="axis 2 invalid for order-2 tensor"):
            k_mode_product(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), 2)
        with pytest.raises(DimensionMismatch, match="second operand must be a matrix"):
            k_mode_product(rng.standard_normal((2, 2)), rng.standard_normal(2), 0)
        for matrix in (rng.standard_normal((2, 3)), rng.standard_normal(2)):
            with pytest.raises(DimensionMismatch):
                tucker_product(rng.standard_normal((2, 2)), matrix)

    def test_tucker_is_iterated_modes(self, rng):
        t = rng.standard_normal((2, 2, 2))
        m = rng.standard_normal((2, 2))
        step = k_mode_product(k_mode_product(k_mode_product(t, m, 0), m, 1), m, 2)
        np.testing.assert_allclose(tucker_product(t, m), step, rtol=1e-13)


class TestSymmetricTensor:
    def test_dense_round_trip(self, rng):
        raw = rng.standard_normal((3, 3, 3))
        sym = sum(raw.transpose(p) for p in itertools.permutations(range(3))) / 6
        tensor = SymmetricTensor.from_dense(sym)
        np.testing.assert_allclose(tensor.to_dense(), sym, rtol=1e-13)
        assert tensor.sym_defect <= 1e-14

    def test_defect_reported(self, rng):
        raw = rng.standard_normal((2, 2))
        tensor = SymmetricTensor.from_dense(raw)
        assert tensor.sym_defect == pytest.approx(
            symmetry_defect(raw), rel=1e-12
        )

    def test_getitem_sorts_indices(self):
        t = SymmetricTensor(3, 2, {(0, 0, 1): 0.5, (0, 0, 0): 1.0})
        assert t[(1, 0, 0)] == 0.5
        assert t[(0, 1, 0)] == 0.5

    def test_json_round_trip(self):
        t = SymmetricTensor(3, 2, {(0, 0, 0): 1.0, (1, 1, 1): 2.0})
        data = t.to_json_dict()
        assert data["entries"]["0,0,0"] == 1.0
        back = SymmetricTensor.from_json_dict(data)
        assert back.values == t.values

    def test_json_rejects_duplicate_multisets(self):
        data = SymmetricTensor(2, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}).to_json_dict()
        data["entries"]["1,0"] = 5.0
        with pytest.raises(ValueError, match="multisets once"):
            SymmetricTensor.from_json_dict(data)

    # int() reads the ids of the first five keys, "0,1_0" as (0, 10) and "0,\u0663" as (0, 3)
    @pytest.mark.parametrize("key", ["0,1_0", "+0,1", "0,+1", "0, 1", "0,\u0663", "0,-1", "0,"])
    def test_json_keys_are_ascii_decimal_ids(self, key):
        data = SymmetricTensor(2, 2, {(0, 1): 2.0}).to_json_dict()
        data["entries"][key] = data["entries"].pop("0,1")
        with pytest.raises(ValueError, match="in a JSON key is not ASCII decimal digits$"):
            SymmetricTensor.from_json_dict(data)

    def test_json_reads_unsorted_keys(self):
        data = SymmetricTensor(2, 2, {(0, 1): 2.0}).to_json_dict()
        data["entries"]["1,0"] = data["entries"].pop("0,1")
        assert SymmetricTensor.from_json_dict(data)[0, 1] == 2.0

    def test_relabel(self, rng):
        t = SymmetricTensor(2, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
        swapped = t.relabel([1, 0])
        assert swapped[(1, 1)] == 1.0
        assert swapped[(0, 1)] == 2.0
        assert swapped[(0, 0)] == 3.0
        # a relabeling moves each orbit whole, so a folded array keeps its defect
        folded = SymmetricTensor.from_dense(rng.standard_normal((3, 3, 3)))
        assert folded.relabel([2, 0, 1]).sym_defect == folded.sym_defect > 0.0

    def test_relabel_rejects_non_permutations(self):
        # [0, 0] would collide the keys (0, 0), (0, 1) and (1, 1)
        t = SymmetricTensor(2, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
        for perm in ([0, 0], [1], [0, 1, 2], [1, 2], [1.0, 0.0], [True, False], ["a", 0]):
            with pytest.raises(ValueError, match="not a permutation"):
                t.relabel(perm)

    def test_multiset_enumeration_is_graded_lex(self):
        assert multiset_indices(3, 2) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]

    def test_csv_order2_only(self):
        t = SymmetricTensor(2, 2, {(0, 0): 1.0, (1, 1): 2.0})
        assert t.to_csv().splitlines()[0] == "1.0,0.0"
        with pytest.raises(ValueError):
            SymmetricTensor(3, 1, {(0, 0, 0): 1.0}).to_csv()


class TestValuesView:
    """``values`` is a live mapping over the tensor's one vector."""

    def test_writes_show_everywhere(self):
        t = SymmetricTensor(3, 2, {(0, 0, 0): 1.0, (0, 1, 1): -2.0})
        t.values[(0, 0, 1)] = 3.0
        t.values[(0, 1, 1)] += 5.0
        assert t[(0, 0, 1)] == 3.0 and t[(0, 1, 1)] == 3.0
        dense = t.to_dense()
        assert dense[1, 0, 0] == dense[0, 1, 0] == dense[0, 0, 1] == 3.0
        assert dense[1, 1, 0] == dense[0, 1, 1] == 3.0
        t.values[(1, 1, 1)] = -7.5
        assert t.max_abs() == 7.5
        assert t.to_json_dict()["entries"] == {
            "0,0,0": 1.0, "0,0,1": 3.0, "0,1,1": 3.0, "1,1,1": -7.5,
        }

    def test_non_canonical_key_lands_on_its_multiset(self):
        t = SymmetricTensor(3, 3, {(0, 0, 0): 1.0, (1, 1, 1): 2.0, (2, 2, 2): 3.0})
        t.values[(2, 0, 1)] = 4.0
        t.values[(1, 0, 1)] += 0.5
        assert t.values[(0, 1, 2)] == t[(1, 2, 0)] == 4.0
        assert t.values[(0, 1, 1)] == t[(1, 1, 0)] == 0.5
        assert len(t.values) == comb(5, 3)

    def test_lists_every_multiset_in_order(self):
        t = SymmetricTensor(2, 3, {(2, 1): 6.0})
        assert list(dict(t.values)) == multiset_indices(3, 2)
        assert dict(t.values) == {
            (0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0, (1, 1): 0.0, (1, 2): 6.0, (2, 2): 0.0,
        }

    def test_unknown_multiset_and_delete_rejected(self):
        t = SymmetricTensor(2, 2, {(0, 0): 1.0, (1, 1): 2.0})
        with pytest.raises(KeyError):
            t.values[(0, 2)] = 1.0
        with pytest.raises(TypeError):
            del t.values[(0, 1)]
        with pytest.raises(ValueError, match="bad index multiset"):
            SymmetricTensor(2, 2, {(0, 2): 1.0})


@st.composite
def shapes(draw):
    return draw(st.integers(1, 6)), draw(st.integers(2, 4))


@st.composite
def symmetric_tensors(draw):
    """Random tensor with every multiset set, values of at most 40 significant bits.

    ``from_dense`` averages n! entries in ``symmetrize``'s order; for a value
    x with a full 53-bit significand, 24 sequential additions of x followed
    by a division by 24 can round away from x, so the exact round trip is
    stated on values whose multiples up to n! are exact.
    """
    p, order = draw(shapes())
    mantissas = st.integers(-(2**40), 2**40)
    values = draw(
        st.lists(
            st.tuples(mantissas, st.integers(-60, 20)).map(lambda me: me[0] * 2.0 ** me[1]),
            min_size=comb(p + order - 1, order),
            max_size=comb(p + order - 1, order),
        )
    )
    return SymmetricTensor(order, p, dict(zip(multiset_indices(p, order), values)))


@st.composite
def tucker_operands(draw):
    """Order 1-5 tensor over p <= 6 with a square or a non-square q x p matrix."""
    p, order = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    q = p if draw(st.booleans()) else draw(st.integers(1, 6))
    entries = st.floats(-10, 10)
    return (draw(arrays(np.float64, (p,) * order, elements=entries)),
            draw(arrays(np.float64, (q, p), elements=entries)))


class TestTuckerProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tucker_operands())
    def test_matches_chained_mode_products(self, operands):
        """Agrees to 1e-12 of the entry bound ||M||_inf^n max|T|, also on views.

        ``tensor.T`` reverses the axes of a C-contiguous array, so it is a
        non-contiguous view for every order above one.
        """
        tensor, matrix = operands
        bound = np.max(np.abs(matrix).sum(axis=1)) ** tensor.ndim * np.max(np.abs(tensor))
        for view in (tensor, tensor.T):
            expected = view
            for axis in range(view.ndim):
                expected = k_mode_product(expected, matrix, axis)
            got = tucker_product(view, matrix)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * bound


class TestSymmetricTensorProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symmetric_tensors())
    def test_dense_round_trip_is_exact(self, t):
        assert SymmetricTensor.from_dense(t.to_dense()).values == t.values

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symmetric_tensors())
    def test_json_round_trip(self, t):
        back = SymmetricTensor.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
        assert (back.order, back.p, back.values) == (t.order, t.p, t.values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symmetric_tensors(), st.data())
    def test_relabel_reindexes_dense(self, t, data):
        perm = data.draw(st.permutations(range(t.p)))
        # variable v becomes perm[v]: new[perm[i], perm[j], ...] = old[i, j, ...]
        expected = np.empty_like(t.to_dense())
        expected[np.ix_(*[perm] * t.order)] = t.to_dense()
        assert np.array_equal(t.relabel(perm).to_dense(), expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shapes().flatmap(
        lambda s: arrays(np.float64, (s[0],) * s[1], elements=st.floats(-1e6, 1e6))
    ))
    def test_fold_matches_brute_force(self, raw):
        tensor = SymmetricTensor.from_dense(raw)
        sym = symmetrize(raw)
        for key in multiset_indices(raw.shape[0], raw.ndim):
            assert tensor.values[key] == sym[key]  # bitwise, same summation order
        assert tensor.sym_defect == symmetry_defect(raw)
