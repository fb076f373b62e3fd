"""Symmetric tensors in canonical multiset storage, plus mode products.

Every conversion between the multiset values and the dense ``(p,) * n``
array goes through one cached index map per ``(p, n)``, ``_orbits``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, isfinite, prod
from typing import Iterable, Iterator

import numpy as np


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
    """Apply the same q x p matrix along every mode of the tensor.

    Each of the n steps is one GEMM, ``matrix @ unfolding.T``, on the
    ``(p^(n-1), p)`` unfolding of the last axis (Kolda & Bader 2009); it
    rotates that axis's image to the front, so the n steps restore the order.
    """
    out = np.asarray(tensor, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or any(s != matrix.shape[1] for s in out.shape):
        raise DimensionMismatch(f"matrix {matrix.shape} does not fit tensor {out.shape}")
    q, p = matrix.shape
    for _ in range(out.ndim):
        rest = out.shape[:-1]
        out = (matrix @ out.reshape(prod(rest), p).T).reshape((q,) + rest)
    return out


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
    def from_dense(cls, dense: np.ndarray) -> "SymmetricTensor":
        """Fold a dense tensor to the mean of each multiset's n! permuted entries.

        The sum runs over the transposes in ``itertools.permutations`` order;
        ``sym_defect`` is the largest spread (max - min) within one orbit.
        """
        dense = np.asarray(dense, dtype=float)
        p = dense.shape[0]
        if any(s != p for s in dense.shape):
            raise DimensionMismatch("dense tensor must be hypercubic")
        orbit = dense.reshape(-1)[_orbits(p, dense.ndim)]
        # axis 0 of a C-contiguous array sums row by row, in order, as n! adds do
        sym = orbit.sum(axis=0) / len(orbit)
        # the keys are canonical by construction, so skip __init__'s checks
        tensor = cls.__new__(cls)
        tensor.order, tensor.p = dense.ndim, p
        tensor.values = dict(zip(_multisets(p, dense.ndim), sym.tolist()))
        tensor.sym_defect = float(np.max(np.ptp(orbit, axis=0)))
        return tensor

    @classmethod
    def diagonal(cls, diag: Iterable[float], order: int) -> "SymmetricTensor":
        diag = list(diag)
        values = {k: 0.0 for k in multiset_indices(len(diag), order)}
        for i, w in enumerate(diag):
            values[(i,) * order] = float(w)
        return cls(order, len(diag), values)

    def to_dense(self) -> np.ndarray:
        """Dense array; multisets missing from ``values`` read as zero."""
        vals = [self.values.get(k, 0.0) for k in _multisets(self.p, self.order)]
        dense = np.empty(self.p**self.order)
        dense[_orbits(self.p, self.order)] = vals  # every position lies in one orbit
        return dense.reshape((self.p,) * self.order)

    def __getitem__(self, index: tuple[int, ...] | int) -> float:
        index = (index,) if isinstance(index, int) else tuple(index)
        value = self.values.get(index)  # stored keys are canonical: sort on a miss
        return self.values[tuple(sorted(index))] if value is None else value

    def keys(self) -> Iterator[tuple[int, ...]]:
        return iter(_multisets(self.p, self.order))

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
            for k in _multisets(self.p, self.order)
        }
        return {"order": self.order, "p": self.p, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymmetricTensor":
        try:
            order, p = int(data["order"]), int(data["p"])
            entries = data["entries"]
            values = {
                tuple(int(s) for s in key.split(",")): float(v)
                for key, v in entries.items()
            }
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed tensor JSON: {exc}") from exc
        tensor = cls(order, p, values)
        expected = comb(p + order - 1, order)
        if not len(entries) == len(tensor.values) == expected:
            raise ValueError(
                f"tensor JSON needs each of its {expected} multisets once, got "
                f"{len(entries)} entries for {len(tensor.values)}"
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
