"""Pluggable SpMM backends.

The paper lets the user plug any high-performance SpMM under the framework
(iSpLib on CPU, DGL g-SpMM on GPU).  We mirror that with a small registry:

* ``"scipy"`` — the compiled ``scipy.sparse`` CSR kernel; the production
  default and the stand-in for iSpLib/cuSparse-class kernels.
* ``"numpy"`` — a pure-NumPy gather/scatter reference; slow but dependency-free
  and easy to audit, used as the oracle in tests.
* ``"fused"`` — a kernel specialised for incidence matrices with a fixed,
  small number of non-zeros per row (2 for ``ht``, 3 for ``hrt``); it fuses the
  gathers and the signed accumulation into a handful of vectorized adds and is
  the closest analogue to the paper's FusedMM-style optimisation.
* ``"compiled"`` — the fused forward **and** row-sparse backward as single
  compiled loops (numba ``@njit(cache=True)`` when importable) with a
  cache-blocked pure-numpy fallback that is always available and bit-identical
  to ``"fused"``; see :mod:`repro.sparse.kernels`.

Backends operate on :class:`~repro.sparse.coo.COOMatrix` /
:class:`~repro.sparse.csr.CSRMatrix` (or SciPy matrices) and plain ndarrays;
the autograd wrapper lives in :mod:`repro.sparse.spmm`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.function import count_flops, counting_active
from repro.sparse import kernels
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

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


def _record(A: SparseLike, X: np.ndarray, out: np.ndarray, kernel: str,
            seconds: float = 0.0) -> None:
    """Register FLOPs, byte traffic, and wall-time for one SpMM call.

    The unique-bytes figure counts the distinct embedding rows read plus the
    freshly written output (write-allocate traffic) — the compulsory-miss
    volume the cache model compares against the total streamed bytes.  Finding
    the distinct rows is an ``np.unique`` over the column indices, a cost
    comparable to the kernel itself on a training batch, so it is derived only
    while a ``flop_counter()`` region is collecting it; the global counters
    record flops, streamed bytes and seconds either way.
    """
    row_bytes = X.itemsize * (X.shape[1] if X.ndim > 1 else 1)
    unique = 0
    if counting_active():
        coo_cols = None
        if isinstance(A, COOMatrix):
            coo_cols = A.cols
        elif isinstance(A, CSRMatrix):
            coo_cols = A.indices
        elif sp.issparse(A):
            coo_cols = A.tocoo().col
        unique_reads = len(np.unique(coo_cols)) * row_bytes if coo_cols is not None else 0
        unique = unique_reads + out.nbytes
    streamed = (A.nnz * row_bytes) + out.nbytes
    count_flops(kernel, spmm_flops(A, X), bytes_streamed=streamed,
                bytes_unique=unique, seconds=seconds)


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
        Optional fused backward ``(A, grad, n_rows) -> RowSparseGrad``.  When
        set, the autograd wrapper (:func:`repro.sparse.spmm.spmm`) and the
        partitioned scoring path route the row-sparse backward through it
        instead of the generic gather/scale/coalesce reference.
    """

    name: str
    fn: Callable[[SparseLike, np.ndarray], np.ndarray]
    description: str = ""
    rowsparse_backward: Optional[Callable] = None

    def __call__(self, A: SparseLike, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if A.shape[1] != X.shape[0]:
            raise ValueError(f"dimension mismatch: {A.shape} @ {X.shape}")
        t0 = time.perf_counter()
        out = self.fn(A, X)
        _record(A, X, out, f"spmm[{self.name}]", seconds=time.perf_counter() - t0)
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
    """Compiled CSR kernel from SciPy (cache-blocked C code)."""
    csr = _as_scipy_csr(A)
    dtype = _out_dtype(X)
    if csr.dtype != dtype:
        # Cast only the nnz values (cheap) so the product streams at X's
        # width; the index arrays are shared, not copied.
        csr = sp.csr_matrix(
            (csr.data.astype(dtype), csr.indices, csr.indptr), shape=csr.shape
        )
    return np.asarray(csr @ X)


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


#: Sentinel cached on a COOMatrix whose pattern probe came back irregular,
#: distinguishing "checked, not regular" from "never checked" (``None``).
_IRREGULAR = object()


def _probe_regular_pattern(coo: COOMatrix):
    """The actual pattern inspection behind :func:`_regular_pattern`.

    Returns the constant per-row nnz ``k`` when the pattern is regular,
    else ``None``.
    """
    m = coo.shape[0]
    if m == 0 or coo.nnz % m != 0:
        return None
    k = coo.nnz // m
    rows = coo.rows.reshape(m, k)
    if not np.array_equal(rows[:, 0], np.arange(m, dtype=rows.dtype)):
        return None
    if k > 1 and not (rows == rows[:, :1]).all():
        return None
    return k


def _regular_pattern(coo: COOMatrix):
    """Detect a sorted, constant-nnz-per-row COO pattern without a full sort.

    Matrices from :class:`~repro.sparse.incidence.IncidenceBuilder` always
    store rows as ``repeat(arange(m), k)``, so one reshape plus two vectorized
    comparisons replace the ``bincount`` + stable ``argsort`` that used to run
    on every call.  Returns ``(cols, vals)`` reshaped to ``(m, k)`` when the
    fast path applies, else ``None``.

    The verdict is memoised on the matrix itself, and only the verdict: the
    cache payload is the scalar ``k`` (or the ``_IRREGULAR`` sentinel), never
    the reshaped arrays.  The memo is therefore O(1) bytes per matrix and —
    because it lives in a ``__slots__`` attribute on the instance, not in any
    module-level table — dies with the matrix: the per-episode sub-incidence
    matrices the partitioned trainer remaps by the thousand leave nothing
    behind.  The ``(m, k)`` views handed back are rebuilt from the instance's
    *current* ``cols``/``values`` buffers on every call (a reshape is free),
    so the memo can never pin or serve stale array storage either.
    """
    cached = getattr(coo, "_regular_cache", None)
    if cached is None:
        cached = _probe_regular_pattern(coo)
        if cached is None:
            cached = _IRREGULAR
        try:
            coo._regular_cache = cached
        except AttributeError:  # pragma: no cover - foreign COO-likes
            pass
    if cached is _IRREGULAR:
        return None
    m = coo.shape[0]
    return coo.cols.reshape(m, cached), coo.values.reshape(m, cached)


def _fused_spmm(A: SparseLike, X: np.ndarray) -> np.ndarray:
    """Fused kernel for incidence matrices with a constant nnz-per-row.

    When every row holds exactly ``k`` non-zeros (k=2 for ``ht``, k=3 for
    ``hrt``) the product collapses to ``k`` strided gathers and ``k-1`` fused
    adds — no scatter, no atomic accumulation.  Incidence matrices arrive with
    rows already sorted, so the common case skips the sort entirely; only
    irregular-but-constant patterns pay the ``bincount`` + stable ``argsort``,
    and anything else falls back to the SciPy kernel.
    """
    coo = _as_coo(A)
    dtype = _out_dtype(X)
    if coo.nnz == 0:
        return np.zeros((coo.shape[0],) + X.shape[1:], dtype=dtype)
    regular = _regular_pattern(coo)
    if regular is None:
        counts = np.bincount(coo.rows, minlength=coo.shape[0])
        k = counts.max(initial=0)
        if k == 0 or not np.all(counts == k):
            return _scipy_spmm(A, X)
        order = np.argsort(coo.rows, kind="stable")
        cols = coo.cols[order].reshape(coo.shape[0], k)
        vals = coo.values[order].reshape(coo.shape[0], k)
    else:
        cols, vals = regular
        k = cols.shape[1]
    vals = vals.astype(dtype, copy=False)
    if X.ndim == 1:
        out = vals[:, 0] * X[cols[:, 0]]
        for j in range(1, k):
            out = out + vals[:, j] * X[cols[:, j]]
        return out
    out = vals[:, 0:1] * X[cols[:, 0]]
    for j in range(1, k):
        out += vals[:, j:j + 1] * X[cols[:, j]]
    return out


def _compiled_spmm(A: SparseLike, X: np.ndarray) -> np.ndarray:
    """Compiled/fused kernel: numba ``@njit`` when importable, blocked numpy else.

    The regular incidence pattern (constant nnz per sorted row — the shape
    every :class:`~repro.sparse.incidence.IncidenceBuilder` matrix has)
    dispatches to :func:`repro.sparse.kernels.fixed_spmm`: a single compiled
    gather-scatter loop under numba, or the cache-blocked pure-numpy kernel
    (bit-identical to the ``"fused"`` backend) otherwise.  Irregular matrices
    fall back to the ``"fused"`` backend's sort-then-gather path.
    """
    coo = _as_coo(A)
    dtype = _out_dtype(X)
    if coo.nnz == 0:
        return np.zeros((coo.shape[0],) + X.shape[1:], dtype=dtype)
    regular = _regular_pattern(coo)
    if regular is None:
        return _fused_spmm(A, X)
    cols, vals = regular
    if X.dtype != dtype:
        X = X.astype(dtype)
    return kernels.fixed_spmm(cols, vals, X, dtype)


def _compiled_rowsparse_backward(A: SparseLike, grad: np.ndarray, n_rows: int):
    """Fused ``A^T @ grad`` in row-sparse form (the ``"compiled"`` backward).

    Same contract and flop/byte accounting as
    :func:`repro.sparse.spmm._rowsparse_backward`, but the gather, scale, and
    coalesce run on the fused schedule of
    :func:`repro.sparse.kernels.rowsparse_bwd` and the measured wall-time is
    attributed to ``spmm_bwd[compiled]``.
    """
    from repro.sparse.rowsparse import RowSparseGrad

    coo = _as_coo(A)
    t0 = time.perf_counter()
    unique, packed = kernels.rowsparse_bwd(coo.cols, coo.rows, coo.values, grad)
    out = RowSparseGrad(unique, packed, (n_rows,) + grad.shape[1:])
    d = grad.shape[1] if grad.ndim > 1 else 1
    row_bytes = grad.itemsize * d
    count_flops(
        "spmm_bwd[compiled]",
        2 * coo.nnz * d,
        bytes_streamed=2 * coo.nnz * row_bytes + out.values.nbytes,
        bytes_unique=out.n_rows * row_bytes + out.values.nbytes,
        seconds=time.perf_counter() - t0,
    )
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
    ``rowsparse_backward`` optionally supplies a fused
    ``(A, grad, n_rows) -> RowSparseGrad`` backward used in place of the
    generic gather/scale/coalesce path.
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
register_backend("numpy", _numpy_spmm, "Pure-NumPy gather/scatter reference kernel")
register_backend("fused", _fused_spmm, "Fused gather kernel for fixed-nnz incidence rows")
register_backend(
    "compiled", _compiled_spmm,
    "Fused forward+backward kernels: numba @njit when importable, "
    "cache-blocked numpy fallback otherwise",
    rowsparse_backward=_compiled_rowsparse_backward,
)

DEFAULT_BACKEND = "scipy"
