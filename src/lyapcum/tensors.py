"""Symmetric tensors in canonical multiset storage, plus mode products."""

from __future__ import annotations

import itertools
from math import comb, isfinite
from typing import Iterable, Iterator

import numpy as np


class DimensionMismatch(Exception):
    """Tensor and matrix dimensions are incompatible."""


def multiset_indices(p: int, order: int) -> list[tuple[int, ...]]:
    """Canonical sorted index multisets (i1 <= ... <= i_n), graded lex order."""
    return list(itertools.combinations_with_replacement(range(p), order))


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
    """Apply the same matrix along every mode of the tensor."""
    out = np.asarray(tensor, dtype=float)
    for axis in range(out.ndim):
        out = k_mode_product(out, matrix, axis)
    return out


def symmetry_defect(dense: np.ndarray) -> float:
    """Max absolute disagreement between entries at permuted indices."""
    defect = 0.0
    order = dense.ndim
    for perm in itertools.permutations(range(order)):
        defect = max(defect, float(np.max(np.abs(dense - dense.transpose(perm)))))
    return defect


def symmetrize(dense: np.ndarray) -> np.ndarray:
    order = dense.ndim
    perms = list(itertools.permutations(range(order)))
    return sum(dense.transpose(perm) for perm in perms) / len(perms)


class SymmetricTensor:
    """Order-n symmetric tensor over p variables, keyed by sorted multisets.

    Storage holds one value per canonical index multiset; dense expansion
    reproduces every permuted index.
    """

    def __init__(self, order: int, p: int, values: dict[tuple[int, ...], float]):
        self.order = int(order)
        self.p = int(p)
        self.values = {tuple(sorted(k)): float(v) for k, v in values.items()}
        for key in self.values:
            if len(key) != self.order or any(not 0 <= i < self.p for i in key):
                raise ValueError(f"bad index multiset {key}")
        self.sym_defect: float = 0.0

    @classmethod
    def zeros(cls, order: int, p: int) -> "SymmetricTensor":
        return cls(order, p, {k: 0.0 for k in multiset_indices(p, order)})

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricTensor":
        """Fold a dense tensor; records its permutation-symmetry defect."""
        dense = np.asarray(dense, dtype=float)
        p = dense.shape[0]
        if any(s != p for s in dense.shape):
            raise DimensionMismatch("dense tensor must be hypercubic")
        sym = symmetrize(dense)
        tensor = cls(dense.ndim, p, {k: sym[k] for k in multiset_indices(p, dense.ndim)})
        tensor.sym_defect = symmetry_defect(dense)
        return tensor

    @classmethod
    def diagonal(cls, diag: Iterable[float], order: int) -> "SymmetricTensor":
        diag = list(diag)
        values = {k: 0.0 for k in multiset_indices(len(diag), order)}
        for i, w in enumerate(diag):
            values[(i,) * order] = float(w)
        return cls(order, len(diag), values)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.p,) * self.order)
        for key, val in self.values.items():
            for perm in set(itertools.permutations(key)):
                dense[perm] = val
        return dense

    def __getitem__(self, index: tuple[int, ...] | int) -> float:
        if isinstance(index, int):
            index = (index,)
        return self.values[tuple(sorted(index))]

    def keys(self) -> Iterator[tuple[int, ...]]:
        return iter(multiset_indices(self.p, self.order))

    def diag(self) -> np.ndarray:
        return np.array([self.values[(i,) * self.order] for i in range(self.p)])

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)

    def relabel(self, perm: Iterable[int]) -> "SymmetricTensor":
        """New tensor with variable v renamed to perm[v]."""
        perm = list(perm)
        return SymmetricTensor(
            self.order,
            self.p,
            {tuple(perm[i] for i in k): v for k, v in self.values.items()},
        )

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self.order}, p={self.p})"

    # -- wire format ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = {
            ",".join(map(str, k)): self.values[k]
            for k in multiset_indices(self.p, self.order)
        }
        return {"order": self.order, "p": self.p, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymmetricTensor":
        try:
            order, p = int(data["order"]), int(data["p"])
            values = {
                tuple(int(s) for s in key.split(",")): float(v)
                for key, v in data["entries"].items()
            }
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed tensor JSON: {exc}") from exc
        tensor = cls(order, p, values)
        expected = comb(p + order - 1, order)
        if len(tensor.values) != expected:
            raise ValueError(
                f"tensor JSON needs all {expected} entries, got {len(tensor.values)}"
            )
        if not all(isfinite(v) for v in tensor.values.values()):
            raise ValueError("tensor JSON has non-finite entries")
        return tensor

    def to_csv(self) -> str:
        """Dense matrix CSV; only defined for order 2."""
        if self.order != 2:
            raise ValueError("CSV export is only supported for order-2 tensors")
        rows = [",".join(repr(float(x)) for x in row) for row in self.to_dense()]
        return "\n".join(rows) + "\n"
