"""Coordinate-format (COO) sparse matrix.

COO is the construction format: a triplet list maps one-to-one onto
``(row, col, value)`` entries.  Irregular matrices convert to the
row-compressed layout with :meth:`COOMatrix.tocsr`; the incidence builders,
whose rows all hold the same two or three entries, write CSR directly
(:mod:`repro.sparse.incidence`) and skip the sort.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp


class COOMatrix:
    """A sparse matrix stored as parallel ``(row, col, value)`` arrays.

    Parameters
    ----------
    rows, cols:
        Integer index arrays of equal length.
    values:
        Non-zero values aligned with ``rows`` / ``cols``.
    shape:
        Matrix shape ``(n_rows, n_cols)``.
    """

    __slots__ = ("rows", "cols", "values", "shape")

    def __init__(self, rows, cols, values, shape: Tuple[int, int]) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not (rows.ndim == cols.ndim == values.ndim == 1):
            raise ValueError("rows, cols and values must be 1-D arrays")
        if not (rows.size == cols.size == values.size):
            raise ValueError(
                f"rows, cols and values must have equal length, got "
                f"{rows.size}, {cols.size}, {values.size}"
            )
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"shape must be non-negative, got {shape}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of bounds")
        self.rows = rows
        self.cols = cols
        self.values = values
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (0 for an empty matrix)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index and value arrays in bytes."""
        return self.rows.nbytes + self.cols.nbytes + self.values.nbytes

    def nnz_per_row(self) -> np.ndarray:
        """Histogram of non-zeros per row (length ``n_rows``)."""
        return np.bincount(self.rows, minlength=self.shape[0])

    # ------------------------------------------------------------------ #
    # Constructors / conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        """Build from a dense array, dropping entries with ``|x| <= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "COOMatrix":
        """Build from any SciPy sparse matrix."""
        coo = mat.tocoo()
        return cls(coo.row, coo.col, coo.data, coo.shape)

    def to_scipy(self) -> sp.coo_matrix:
        """Return the equivalent ``scipy.sparse.coo_matrix``."""
        return sp.coo_matrix((self.values, (self.rows, self.cols)), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (duplicate entries are summed)."""
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out

    def tocsr(self) -> "CSRMatrix":
        """Convert to :class:`~repro.sparse.csr.CSRMatrix`.

        Entries are ordered by row, then column, ties keeping their stored
        order; duplicates are kept, not summed.
        """
        from repro.sparse.csr import CSRMatrix

        order = np.lexsort((self.cols, self.rows))
        rows = self.rows[order]
        cols = self.cols[order]
        vals = self.values[order]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        counts = np.bincount(rows, minlength=self.shape[0])
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, cols, vals, self.shape)

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (shares no data with ``self``)."""
        return COOMatrix(self.cols.copy(), self.rows.copy(), self.values.copy(),
                         (self.shape[1], self.shape[0]))

    @property
    def T(self) -> "COOMatrix":
        return self.transpose()

    def copy(self) -> "COOMatrix":
        """Deep copy."""
        return COOMatrix(self.rows.copy(), self.cols.copy(), self.values.copy(), self.shape)

    # ------------------------------------------------------------------ #
    # Slicing / arithmetic helpers
    # ------------------------------------------------------------------ #
    def select_rows(self, row_indices: np.ndarray) -> "COOMatrix":
        """Return the submatrix containing only ``row_indices`` (renumbered 0..k-1).

        Used to cut per-minibatch incidence matrices out of the full-epoch
        incidence matrix without rebuilding it.
        """
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if row_indices.size and (row_indices.min() < 0 or row_indices.max() >= self.shape[0]):
            raise IndexError("row index out of bounds")
        remap = -np.ones(self.shape[0], dtype=np.int64)
        remap[row_indices] = np.arange(row_indices.size, dtype=np.int64)
        keep = remap[self.rows] >= 0
        return COOMatrix(
            remap[self.rows[keep]],
            self.cols[keep],
            self.values[keep],
            (int(row_indices.size), self.shape[1]),
        )

    def scale(self, factor: float) -> "COOMatrix":
        """Return a copy with every stored value multiplied by ``factor``."""
        return COOMatrix(self.rows.copy(), self.cols.copy(), self.values * factor, self.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (reference implementation)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        out_shape = (self.shape[0],) + x.shape[1:]
        out = np.zeros(out_shape, dtype=np.float64)
        np.add.at(out, self.rows, self.values.reshape(-1, *([1] * (x.ndim - 1))) * x[self.cols])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.allclose(self.to_dense(), other.to_dense())
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("COOMatrix is unhashable")
