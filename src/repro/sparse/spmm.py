"""Autograd-aware sparse-dense matrix multiplication.

This module implements the operation the whole paper hinges on:

    ``C = A @ X``   with   ``dL/dX = A^T @ (dL/dC)``   (Appendix G)

``A`` is a constant incidence matrix built from the training triplets; ``X``
is the (learnable) embedding matrix.  Both the forward and backward pass are a
single SpMM, so one optimized kernel replaces the per-triplet gathers of the
forward pass and the per-triplet scatter-adds of the backward pass.

With ``sparse_grad=True`` the backward is still that one SpMM, applied to
``A^T`` with its empty rows dropped: instead of densifying ``A^T @ grad`` into
a full ``(K, d)`` array it emits a
:class:`~repro.sparse.rowsparse.RowSparseGrad` holding only the rows of ``X``
that the batch actually touched — bit-identical to those rows of the dense
product.  Per-step backward cost then scales with the batch (``O(nnz * d)``)
instead of the vocabulary (``O(K * d)``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor
from repro.sparse.backends import (
    DEFAULT_BACKEND,
    SparseLike,
    SpMMBackend,
    _rowsparse_backward,
    get_backend,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _transpose(A: SparseLike):
    if isinstance(A, (COOMatrix, CSRMatrix)):
        return A.T
    if sp.issparse(A):
        return A.T.tocsr()
    raise TypeError(f"expected a sparse matrix, got {type(A)!r}")


def rowsparse_backward_for(backend: Union[str, SpMMBackend]):
    """The row-sparse backward ``(A, grad, n_rows) -> RowSparseGrad`` of a backend.

    The production CSR backward
    (:func:`repro.sparse.backends._rowsparse_backward`) unless the backend was
    registered with its own, as the ``"numpy"`` oracle is.
    """
    return get_backend(backend).rowsparse_backward or _rowsparse_backward


def spmm(
    A: SparseLike,
    X: Tensor,
    backend: Union[str, SpMMBackend] = DEFAULT_BACKEND,
    A_t: Optional[SparseLike] = None,
    sparse_grad: bool = False,
) -> Tensor:
    """Differentiable ``A @ X`` where ``A`` is sparse and constant.

    Parameters
    ----------
    A:
        Sparse operand (COO, CSR, or SciPy matrix) of shape ``(M, K)``.
    X:
        Dense tensor of shape ``(K, d)`` (typically the stacked embedding
        matrix).  Gradients flow into ``X`` only.
    backend:
        Name of (or handle to) a registered SpMM backend.
    A_t:
        Optional pre-transposed ``A``.  The trainer caches this so repeated
        backward passes do not pay the transpose each step.
    sparse_grad:
        Emit the backward product ``A^T @ grad`` as a
        :class:`~repro.sparse.rowsparse.RowSparseGrad` instead of a dense
        ``(K, d)`` array.  Only takes effect when ``X`` is a leaf tensor (a
        parameter) and the upstream gradient is 2-D; otherwise the dense
        backward runs as usual.

    Returns
    -------
    Tensor of shape ``(M, d)`` participating in the autograd tape.
    """
    kernel = get_backend(backend)
    X_t = X if isinstance(X, Tensor) else Tensor(np.asarray(X))
    out_data = kernel(A, X_t.data)

    transposed = A_t
    n_rows = X_t.shape[0]

    def backward(grad: np.ndarray) -> None:
        nonlocal transposed
        if not X_t.requires_grad:
            return
        if sparse_grad and X_t.is_leaf and grad.ndim == 2:
            X_t.accumulate_grad(rowsparse_backward_for(kernel)(A, grad, n_rows))
            return
        if transposed is None:
            transposed = _transpose(A)
        # The product is a new array nothing else refers to: X adopts it as
        # its gradient instead of copying a table-sized array.
        X_t.accumulate_grad(kernel(transposed, grad), owned=True)

    return Tensor._make(out_data, (X_t,), backward, "spmm")


def spmm_t(
    A: SparseLike,
    X: Tensor,
    backend: Union[str, SpMMBackend] = DEFAULT_BACKEND,
) -> Tensor:
    """Differentiable ``A^T @ X`` (convenience wrapper around :func:`spmm`)."""
    return spmm(_transpose(A), X, backend=backend, A_t=A)
