"""Symmetric tensors stored as one vector over sorted multisets, plus mode products.

A ``SymmetricTensor`` holds one float64 per sorted index multiset, in
``multiset_indices`` order.  Its ``values`` is a live mapping over that
vector, so a write through it changes the tensor.  The fold from and the
unfold to the dense ``(p,) * n`` array each go through one cached index map
per ``(p, n)``: ``_orbits`` for the fold, ``_inverse`` for the unfold.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, MutableMapping
from functools import lru_cache
from math import comb, frexp

import numpy as np

from .graphs import check_permutation, json_int, json_key_int, json_number


class DimensionMismatch(Exception):
    """Tensor and matrix dimensions are incompatible."""


def multiset_indices(p: int, order: int) -> list[tuple[int, ...]]:
    """Canonical sorted index multisets (i1 <= ... <= i_n), graded lex order."""
    return list(_multisets(p, order))


@lru_cache(maxsize=32)
def _multisets(p: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Cached, immutable :func:`multiset_indices` for the fold and unfold."""
    return tuple(itertools.combinations_with_replacement(range(p), order))


def k_mode_product(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``axis`` of the tensor with the columns of ``matrix``.

    Entry-wise, ``out[..., j, ...] = sum_k matrix[j, k] * tensor[..., k, ...]``
    along the chosen axis.
    """
    tensor = np.asarray(tensor, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise DimensionMismatch("second operand must be a matrix")
    if not 0 <= axis < tensor.ndim:
        raise DimensionMismatch(f"axis {axis} invalid for order-{tensor.ndim} tensor")
    if tensor.shape[axis] != matrix.shape[1]:
        raise DimensionMismatch(
            f"mode-{axis} dimension {tensor.shape[axis]} does not match "
            f"matrix column count {matrix.shape[1]}"
        )
    return np.moveaxis(np.tensordot(matrix, tensor, axes=(1, axis)), 0, axis)


def tucker_product(tensor: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply the same q x p matrix along every mode of the tensor (:func:`_tucker`)."""
    out = np.asarray(tensor, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or out.shape != (matrix.shape[1],) * out.ndim:
        raise DimensionMismatch(f"matrix {matrix.shape} does not fit tensor {out.shape}")
    return _tucker(out, matrix, out.ndim).reshape((matrix.shape[0],) * out.ndim)


def _tucker(flat: np.ndarray, matrix: np.ndarray, n: int, steps: int | None = None) -> np.ndarray:
    """Unchecked Tucker product: the ``(q, q^(n-1))`` unfolding of the image.

    ``flat`` is an order-n tensor over p variables in any C-order shape, such
    as its ``(p^(n-1), p)`` unfolding, and ``matrix`` is q x p.  Each step is
    one GEMM, ``matrix @ U.T``, on the unfolding U of the last axis (Kolda &
    Bader 2009); it rotates that axis's image to the front, so n steps, the
    default, restore the order.  After ``steps`` = s < n the C-order axes are
    the images of axes n-s+1..n, then the untouched axes 1..n-s.
    """
    q, p = matrix.shape
    for k in range(n if steps is None else steps):
        flat = matrix @ flat.reshape(q**k * p ** (n - 1 - k), p).T
    return flat


@lru_cache(maxsize=32)
def _orbits(p: int, order: int) -> np.ndarray:
    """Cached (n! x rows) map from multiset rows to flat dense positions.

    Entry ``[k, r]`` is the position that ``dense.transpose(perm)`` reads at
    row r of ``multiset_indices``, for the k-th ``itertools.permutations``
    ``perm``; each row's column lists its whole orbit.
    """
    rows = np.array(_multisets(p, order), dtype=np.intp).reshape(-1, order)
    perms = np.array([np.ravel_multi_index(rows[:, np.argsort(perm)].T, (p,) * order)
                      for perm in itertools.permutations(range(order))], dtype=np.intp)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=32)
def _rows(p: int, order: int) -> dict[tuple[int, ...], int]:
    """Cached multiset -> row of the value vector; shared, so never mutated."""
    return {key: row for row, key in enumerate(_multisets(p, order))}


@lru_cache(maxsize=32)
def _inverse(p: int, order: int) -> np.ndarray:
    """Cached flat dense position -> row of the multiset whose orbit holds it."""
    orbits = _orbits(p, order)
    inverse = np.empty(p**order, dtype=np.intp)
    inverse[orbits] = np.arange(orbits.shape[1])  # every position lies in one orbit
    inverse.setflags(write=False)
    return inverse


def _row(rows: dict[tuple[int, ...], int], index: tuple[int, ...] | int) -> int:
    index = (index,) if isinstance(index, int) else tuple(index)
    row = rows.get(index)  # canonical keys hit at once: sort only on a miss
    return rows[tuple(sorted(index))] if row is None else row


class _Values(MutableMapping):
    """Live multiset -> value mapping over a tensor's vector.

    Keys iterate in ``multiset_indices`` order; a non-canonical key is sorted
    before it is read or written, and every multiset always has a value.
    """

    def __init__(self, tensor: "SymmetricTensor"):
        self._vec, self._rows = tensor._vec, _rows(tensor.p, tensor.order)

    def __getitem__(self, key) -> float:
        return self._vec.item(_row(self._rows, key))

    def __setitem__(self, key, value: float) -> None:
        self._vec[_row(self._rows, key)] = value

    def __delitem__(self, key) -> None:
        raise TypeError("a symmetric tensor holds a value at every multiset")

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class SymmetricTensor:
    """Order-n symmetric tensor over p variables, one value per sorted multiset.

    The values form one float64 vector in ``multiset_indices`` order; dense
    expansion reproduces every permuted index.
    """

    def __init__(self, order: int, p: int, values: Mapping[tuple[int, ...], float]):
        """Keys may be unsorted; multisets absent from ``values`` hold zero."""
        self.order = int(order)
        self.p = int(p)
        if self.order < 1 or self.p < 1:
            raise ValueError(f"order and p must be positive, got {self.order} and {self.p}")
        rows = _rows(self.p, self.order)
        self._vec = np.zeros(len(rows))
        for key, value in values.items():
            key = tuple(sorted(key))
            if key not in rows:
                raise ValueError(f"bad index multiset {key}")
            self._vec[rows[key]] = float(value)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricTensor":
        """Fold a dense tensor to the mean of each multiset's n! permuted entries.

        The sum runs over the transposes in ``itertools.permutations`` order.
        Only the mean is kept: an asymmetric input is averaged, not refused.
        """
        dense = np.asarray(dense, dtype=float)
        if dense.ndim == 0 or dense.size == 0:
            raise DimensionMismatch(f"dense tensor needs an axis and a variable, got {dense.shape}")
        p = dense.shape[0]
        if dense.shape != (p,) * dense.ndim:
            raise DimensionMismatch("dense tensor must be hypercubic")
        orbit = dense.reshape(-1)[_orbits(p, dense.ndim)]
        tensor = cls.__new__(cls)  # the vector is in multiset order: skip __init__
        tensor.order, tensor.p = dense.ndim, p
        # axis 0 of a C-contiguous array sums row by row, in order, as n! adds
        # do; at p = 1 it is one contiguous run, which numpy sums pairwise
        total = orbit.sum(axis=0) if p > 1 else orbit.cumsum(axis=0)[-1]
        tensor._vec = total / len(orbit)
        return tensor

    @property
    def values(self) -> MutableMapping[tuple[int, ...], float]:
        """Live view: ``t.values[key] += x`` changes the tensor."""
        return _Values(self)

    def to_dense(self) -> np.ndarray:
        return self._vec[_inverse(self.p, self.order)].reshape((self.p,) * self.order)

    def __getitem__(self, index: tuple[int, ...] | int) -> float:
        return self._vec.item(_row(_rows(self.p, self.order), index))

    def keys(self) -> Iterator[tuple[int, ...]]:
        return iter(_multisets(self.p, self.order))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._vec), initial=0.0))

    def exponent(self) -> int:
        """The binary exponent e of ``max_abs()``: ``ldexp(T, -e)`` peaks in [1/2, 1), or is 0."""
        top = self.max_abs()
        if not np.isfinite(top):
            raise ValueError("stack has a non-finite entry")
        return frexp(top)[1]

    def relabel(self, perm: Iterable[int]) -> "SymmetricTensor":
        """New tensor, variable v renamed to perm[v]."""
        perm = check_permutation(perm, self.p)
        return SymmetricTensor(
            self.order,
            self.p,
            {tuple(perm[i] for i in k): v for k, v in zip(self.keys(), self._vec.tolist())},
        )

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self.order}, p={self.p})"

    # -- wire format ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        keys = (",".join(map(str, k)) for k in _multisets(self.p, self.order))
        entries = dict(zip(keys, self._vec.tolist()))
        return {"order": self.order, "p": self.p, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymmetricTensor":
        try:
            order, p = json_int(data["order"], "'order'"), json_int(data["p"], "'p'")
            if order < 1 or p < 1:
                raise ValueError(f"'order' and 'p' must be positive, got {order} and {p}")
            entries = data["entries"]
            values = {
                tuple(sorted(map(json_key_int, key.split(",")))): json_number(v, "an entry")
                for key, v in entries.items()
            }
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed tensor JSON: {exc}") from exc
        # counted before the tensor is built, so a huge (p, order) allocates nothing
        expected = comb(p + order - 1, order)
        if not len(entries) == len(values) == expected:
            raise ValueError(
                f"tensor JSON needs each of its {expected} multisets once, got "
                f"{len(entries)} entries for {len(values)}"
            )
        tensor = cls(order, p, values)
        if not np.isfinite(tensor._vec).all():
            raise ValueError("tensor JSON has non-finite entries")
        return tensor

    def to_csv(self) -> str:
        """Dense matrix CSV; only defined for order 2."""
        if self.order != 2:
            raise ValueError("CSV export is only supported for order-2 tensors")
        rows = [",".join(repr(float(x)) for x in row) for row in self.to_dense()]
        return "\n".join(rows) + "\n"
