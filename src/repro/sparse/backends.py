"""Pluggable SpMM backends.

The paper lets the user plug any high-performance SpMM under the framework
(iSpLib on CPU, DGL g-SpMM on GPU).  We mirror that with a small registry
holding one production kernel and one oracle:

* ``"scipy"`` — the compiled ``scipy.sparse`` CSR kernel; the production
  default and the stand-in for iSpLib/cuSparse-class kernels.  Forward, dense
  backward and row-sparse backward are all this one kernel, applied to ``A``,
  to ``A^T``, and to ``A^T`` with its empty rows dropped.
* ``"numpy"`` — a pure-NumPy gather/scatter reference; slow but dependency-free
  and easy to audit, used as the oracle in tests.

Backends operate on :class:`~repro.sparse.coo.COOMatrix` /
:class:`~repro.sparse.csr.CSRMatrix` (or SciPy matrices) and plain ndarrays;
the autograd wrapper lives in :mod:`repro.sparse.spmm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.autograd.function import count_flops
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import block_rows, split_rows
from repro.sparse.rowsparse import RowSparseGrad

SparseLike = Union[COOMatrix, CSRMatrix, sp.spmatrix]


def _as_scipy_csr(A: SparseLike) -> sp.csr_matrix:
    if isinstance(A, CSRMatrix):
        return A.to_scipy()
    if isinstance(A, COOMatrix):
        return A.to_scipy().tocsr()
    if sp.issparse(A):
        return A.tocsr()
    raise TypeError(f"expected a sparse matrix, got {type(A)!r}")


def _as_coo(A: SparseLike) -> COOMatrix:
    if isinstance(A, COOMatrix):
        return A
    if isinstance(A, CSRMatrix):
        return A.tocoo()
    if sp.issparse(A):
        return COOMatrix.from_scipy(A)
    raise TypeError(f"expected a sparse matrix, got {type(A)!r}")


def spmm_flops(A: SparseLike, X: np.ndarray) -> int:
    """Analytic FLOP count of ``A @ X``: one multiply-add per (nnz, column) pair."""
    nnz = A.nnz
    n_cols = X.shape[1] if X.ndim > 1 else 1
    return int(2 * nnz * n_cols)


@dataclass(frozen=True)
class SpMMBackend:
    """A named SpMM implementation.

    Attributes
    ----------
    name:
        Registry key.
    fn:
        Callable ``(A, X) -> A @ X`` operating on ndarrays.
    description:
        Human-readable summary shown by :func:`available_backends`.
    rowsparse_backward:
        Optional backward ``(A, grad, n_rows) -> RowSparseGrad``.  When set,
        the autograd wrapper (:func:`repro.sparse.spmm.spmm`) and the
        partitioned scoring path route the row-sparse backward through it
        instead of the production CSR one
        (:func:`repro.sparse.spmm.rowsparse_backward_for`).
    """

    name: str
    fn: Callable[[SparseLike, np.ndarray], np.ndarray]
    description: str = ""
    rowsparse_backward: Optional[Callable] = None

    def __call__(self, A: SparseLike, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if A.shape[1] != X.shape[0]:
            raise ValueError(f"dimension mismatch: {A.shape} @ {X.shape}")
        out = self.fn(A, X)
        count_flops(f"spmm[{self.name}]", spmm_flops(A, X))
        return out


# --------------------------------------------------------------------------- #
# Backend implementations
# --------------------------------------------------------------------------- #
def _out_dtype(X: np.ndarray) -> np.dtype:
    """Output dtype contract shared by every backend.

    Floating inputs keep their dtype (a float32 embedding matrix must not be
    silently upcast to float64 — that doubles the memory traffic the whole
    sparse formulation exists to minimise); integer inputs promote to float64.
    Sub-float32 floats (float16) compute at float32, the narrowest width every
    backend supports — SciPy's sparse kernels have no float16 path.
    """
    if np.issubdtype(X.dtype, np.floating):
        return np.result_type(X.dtype, np.float32)
    return np.result_type(X.dtype, np.float64)


def _scipy_spmm(A: SparseLike, X: np.ndarray) -> np.ndarray:
    """Compiled CSR kernel from SciPy, on every CPU.

    ``csr @ X`` allocates a zeroed output and runs ``csr_matvecs``
    (``csr_matvec`` for one column) over all rows; here that same call runs on
    contiguous row shares of one output allocated by the caller
    (:func:`~repro.sparse.kernels.split_rows`).  A share's rows read the
    whole ``X`` and write only their own output rows, each accumulating its
    entries in stored order as the serial call does, so the product is
    bit-identical to ``csr @ X`` at any worker count.
    """
    csr = _as_scipy_csr(A)
    dtype = _out_dtype(X)
    if X.ndim not in (1, 2):
        raise ValueError(f"SpMM needs a 1-D or 2-D dense operand, got {X.shape}")
    # Cast only the nnz values (cheap) so the product streams at X's width;
    # the index arrays are shared, not copied.
    values = csr.data.astype(dtype, copy=False)
    flat = np.ascontiguousarray(X, dtype=dtype).reshape(-1)
    out = np.zeros((csr.shape[0],) + X.shape[1:], dtype=dtype)
    n_cols = X.shape[1] if X.ndim == 2 else 1
    indptr, indices = csr.indptr, csr.indices

    def share(start: int, stop: int, _share: int, _shares: int) -> None:
        rows = out[start:stop].reshape(-1)
        if n_cols == 1:
            _sparsetools.csr_matvec(stop - start, csr.shape[1], indptr[start:stop + 1],
                                    indices, values, flat, rows)
        else:
            _sparsetools.csr_matvecs(stop - start, csr.shape[1], n_cols,
                                     indptr[start:stop + 1], indices, values, flat,
                                     rows)

    split_rows(csr.shape[0], block_rows(n_cols, out.itemsize), share)
    return out


def _numpy_spmm(A: SparseLike, X: np.ndarray) -> np.ndarray:
    """Pure-NumPy reference: gather source rows, scale, scatter-add into output."""
    coo = _as_coo(A)
    dtype = _out_dtype(X)
    vals = coo.values.astype(dtype, copy=False)
    if X.ndim == 1:
        out = np.zeros(coo.shape[0], dtype=dtype)
        np.add.at(out, coo.rows, vals * X[coo.cols])
        return out
    out = np.zeros((coo.shape[0], X.shape[1]), dtype=dtype)
    np.add.at(out, coo.rows, vals[:, None] * X[coo.cols])
    return out


def _rowsparse_backward(A: SparseLike, grad: np.ndarray, n_rows: int) -> RowSparseGrad:
    """Backward SpMM ``A^T @ grad`` emitted directly in row-sparse form.

    The production forward kernel applied to ``A^T`` with its empty rows
    dropped: SciPy's transpose is a counting pass that lists each column's
    entries in row order, the rows of ``A^T`` that hold an entry are exactly
    the rows of ``X`` the batch touched, and the CSR product accumulates each
    of them in sequence.  The packed values are therefore bit-identical to the
    touched rows of the dense backward ``scipy(A^T) @ grad``, at a cost of
    ``(nnz + touched) * d`` elements moved — no ``(K, d)`` densification.
    """
    transposed = _as_scipy_csr(A).T.tocsr()
    touched = np.flatnonzero(np.diff(transposed.indptr))
    compact = transposed[touched]
    packed = _scipy_spmm(compact, grad)
    count_flops("spmm_bwd[rowsparse]", spmm_flops(compact, grad))
    return RowSparseGrad(touched, packed, (n_rows,) + grad.shape[1:])


def _numpy_rowsparse_backward(A: SparseLike, grad: np.ndarray, n_rows: int) -> RowSparseGrad:
    """Pure-NumPy reference for :func:`_rowsparse_backward`.

    Each stored entry ``(r, c, v)`` of ``A`` contributes ``v * grad[r]`` to
    output row ``c``: one gather, one scale, and one sort-and-reduce coalesce
    over an ``(nnz, d)`` contribution matrix, with no transpose.
    """
    coo = _as_coo(A)
    vals = coo.values.astype(grad.dtype, copy=False)
    contributions = vals[:, None] * grad[coo.rows]
    out = RowSparseGrad.from_rows(coo.cols, contributions, (n_rows,) + grad.shape[1:])
    count_flops("spmm_bwd[numpy]", spmm_flops(coo, grad))
    return out


_REGISTRY: Dict[str, SpMMBackend] = {}


def register_backend(name: str, fn: Callable[[SparseLike, np.ndarray], np.ndarray],
                     description: str = "", overwrite: bool = False,
                     rowsparse_backward: Optional[Callable] = None) -> SpMMBackend:
    """Register a custom SpMM backend under ``name``.

    The paper's framework lets users plug their preferred SpMM library; this is
    the equivalent hook.  Registered backends become selectable by name in
    every model constructor.  ``fn`` must return a newly allocated array on
    every call: the dense backward adopts the product ``A^T @ grad`` as the
    parameter's gradient without copying it, so a buffer the backend reuses
    across calls would be overwritten under the optimizer.
    ``rowsparse_backward`` optionally supplies an
    ``(A, grad, n_rows) -> RowSparseGrad`` backward used in place of the
    production CSR one.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered (pass overwrite=True to replace)")
    backend = SpMMBackend(name=name, fn=fn, description=description,
                          rowsparse_backward=rowsparse_backward)
    _REGISTRY[name] = backend
    return backend


def get_backend(name: Union[str, SpMMBackend]) -> SpMMBackend:
    """Look up a backend by name (or pass an instance through)."""
    if isinstance(name, SpMMBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown SpMM backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> Dict[str, str]:
    """Return ``{name: description}`` for every registered backend."""
    return {name: backend.description for name, backend in sorted(_REGISTRY.items())}


register_backend("scipy", _scipy_spmm, "Compiled SciPy CSR kernel (production default)")
register_backend("numpy", _numpy_spmm, "Pure-NumPy gather/scatter reference kernel",
                 rowsparse_backward=_numpy_rowsparse_backward)

DEFAULT_BACKEND = "scipy"
