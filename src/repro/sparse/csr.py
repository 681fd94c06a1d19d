"""Compressed Sparse Row (CSR) matrix.

CSR is the execution format for CPU SpMM (the paper uses CSR for iSpLib).  The
container stores ``indptr`` / ``indices`` / ``data`` arrays and exposes the
row-major product used by the backends.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp


class CSRMatrix:
    """A sparse matrix in compressed-sparse-row layout.

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices of the stored values, length ``nnz``.
    data:
        Stored values, length ``nnz``.
    shape:
        Matrix shape ``(n_rows, n_cols)``.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: Tuple[int, int]) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=np.float64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if indptr.ndim != 1 or indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {indptr.size}"
            )
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size != data.size or indices.size != indptr[-1]:
            raise ValueError("indices/data length must equal indptr[-1]")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column index out of bounds")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def density(self) -> float:
        """Fraction of cells that are stored."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        """Memory footprint of the three CSR arrays in bytes."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    # ------------------------------------------------------------------ #
    # Constructors / conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CSRMatrix":
        """Build from any SciPy sparse matrix."""
        csr = mat.tocsr()
        return cls(csr.indptr, csr.indices, csr.data, csr.shape)

    def to_scipy(self) -> sp.csr_matrix:
        """Return the equivalent ``scipy.sparse.csr_matrix``."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.shape[0]):
            start, stop = self.indptr[i], self.indptr[i + 1]
            np.add.at(out[i], self.indices[start:stop], self.data[start:stop])
        return out

    def tocoo(self) -> "COOMatrix":
        """Convert to :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(rows, self.indices.copy(), self.data.copy(), self.shape)

    def transpose(self) -> "CSRMatrix":
        """Return the transposed matrix in CSR layout."""
        return CSRMatrix.from_scipy(self.to_scipy().T.tocsr())

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape)

    # ------------------------------------------------------------------ #
    # Products
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return self.shape == other.shape and np.allclose(self.to_dense(), other.to_dense())

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("CSRMatrix is unhashable")
