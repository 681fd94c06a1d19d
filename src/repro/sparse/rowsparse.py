"""Row-sparse gradient container for embedding-style parameters.

A minibatch of ``B`` triplets touches at most ``3 * B`` rows of the stacked
embedding matrix, yet a dense backward materialises — and the optimizer then
rewrites — all ``N + R`` rows.  :class:`RowSparseGrad` stores only the touched
rows, so the whole gradient pipeline (SpMM backward, gradient accumulation,
optimizer update) costs ``O(B * d)`` instead of ``O((N + R) * d)`` per step.

The contract mirrors ``torch.sparse``'s coalesced layout restricted to
row-level granularity:

* ``indices`` — 1-D ``int64`` array of **unique, sorted** row numbers, shape
  ``(k,)``.
* ``values`` — packed gradient rows aligned with ``indices``, shape
  ``(k,) + shape[1:]`` (usually ``(k, d)``).
* ``shape`` — the dense shape the gradient stands in for.

Custom SpMM backends that want to emit sparse gradients should build one with
:meth:`RowSparseGrad.from_rows` (which coalesces duplicates) and hand it to
``Tensor.accumulate_grad``; everything downstream — merging, densification,
and the optimizers' scatter updates — is handled by the framework.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def coalesce_rows(rows: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` over duplicate entries of ``rows``.

    Returns ``(unique_rows, packed_values)`` with ``unique_rows`` sorted.
    Vectorized as a stable sort plus a segmented reduction, which is far
    cheaper than ``np.add.at`` for wide value rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows, values[:0]
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    sorted_vals = values[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    unique = sorted_rows[boundaries]
    packed = np.add.reduceat(sorted_vals, boundaries, axis=0)
    return unique, packed


class RowSparseGrad:
    """A gradient that is non-zero only on a subset of leading rows.

    Parameters
    ----------
    indices:
        Unique, sorted row indices, shape ``(k,)``.
    values:
        Gradient rows aligned with ``indices``, shape ``(k,) + shape[1:]``.
    shape:
        Dense shape of the parameter the gradient belongs to.

    Use :meth:`from_rows` when the row list may contain duplicates.
    """

    __slots__ = ("indices", "values", "shape")

    #: Structural marker so the autograd engine can recognise the type without
    #: importing this module (avoids a circular import with the tape).
    is_row_sparse = True

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 shape: Tuple[int, ...]) -> None:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.asarray(values)
        shape = tuple(int(s) for s in shape)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if values.shape != (indices.size,) + shape[1:]:
            raise ValueError(
                f"values must have shape {(indices.size,) + shape[1:]}, got {values.shape}"
            )
        if indices.size:
            if indices.min() < 0 or indices.max() >= shape[0]:
                raise IndexError(
                    f"row index out of range for dense shape {shape}: "
                    f"[{indices.min()}, {indices.max()}]"
                )
            if np.any(indices[1:] <= indices[:-1]):
                raise ValueError(
                    "indices must be strictly increasing (unique and sorted); "
                    "use RowSparseGrad.from_rows to coalesce duplicates"
                )
        self.indices = indices
        self.values = values
        self.shape = shape

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: np.ndarray, values: np.ndarray,
                  shape: Tuple[int, ...]) -> "RowSparseGrad":
        """Build from a (possibly duplicated) row list, coalescing on the way."""
        unique, packed = coalesce_rows(rows, np.asarray(values))
        return cls(unique, packed, shape)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of stored (touched) rows ``k``."""
        return int(self.indices.size)

    @property
    def nnz(self) -> int:
        """Number of stored scalars (``k * prod(shape[1:])``)."""
        return int(self.values.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index and value arrays."""
        return self.indices.nbytes + self.values.nbytes

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def density(self) -> float:
        """Fraction of dense rows that are stored."""
        return self.n_rows / self.shape[0] if self.shape[0] else 0.0

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def merge(self, other: "RowSparseGrad") -> "RowSparseGrad":
        """Return the sum of two row-sparse gradients (still row-sparse)."""
        if not isinstance(other, RowSparseGrad):
            raise TypeError(f"expected RowSparseGrad, got {type(other)!r}")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        rows = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.values, other.values], axis=0)
        return RowSparseGrad.from_rows(rows, vals, self.shape)

    def add_to_dense(self, dense: np.ndarray) -> np.ndarray:
        """Scatter-add the stored rows into ``dense`` in place (and return it)."""
        dense = np.asarray(dense)
        if dense.shape != self.shape:
            raise ValueError(f"dense shape {dense.shape} != gradient shape {self.shape}")
        # ``indices`` is unique, so plain fancy-index addition is safe.
        dense[self.indices] += self.values
        return dense

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the full dense gradient (the transparent fallback)."""
        out = np.zeros(self.shape, dtype=dtype if dtype is not None else self.values.dtype)
        out[self.indices] = self.values
        return out

    def scale(self, factor: float) -> "RowSparseGrad":
        """Return a copy with every value multiplied by ``factor``."""
        return RowSparseGrad(self.indices.copy(), self.values * factor, self.shape)

    def copy(self) -> "RowSparseGrad":
        """Deep copy."""
        return RowSparseGrad(self.indices.copy(), self.values.copy(), self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RowSparseGrad(shape={self.shape}, rows={self.n_rows}, "
                f"density={self.density:.4f})")
