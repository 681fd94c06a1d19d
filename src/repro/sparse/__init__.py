"""Sparse-matrix containers and kernels.

This package provides everything the SpTransX formulation needs on the sparse
side:

* :class:`COOMatrix` / :class:`CSRMatrix` — light-weight sparse containers
  mirroring the two formats the paper uses (COO for DGL g-SpMM, CSR for
  iSpLib).
* :mod:`repro.sparse.backends` — pluggable SpMM kernels: the compiled SciPy
  CSR kernel every production forward and backward runs on, and a pure-NumPy
  reference used as the test oracle.
* :func:`spmm` — the autograd-aware SpMM whose backward is another SpMM with
  the transposed operand (paper Appendix G); with ``sparse_grad=True`` the
  backward emits a :class:`RowSparseGrad` covering only the touched rows.
* :class:`RowSparseGrad` — the row-sparse gradient container consumed by the
  optimizers' scatter-update paths (see ``repro.sparse.rowsparse``).
* :mod:`repro.sparse.incidence` — builders for the ``ht`` (head − tail) and
  ``hrt`` (head + relation − tail) incidence matrices of Section 4.2.
* :mod:`repro.sparse.semiring` — the semiring SpMM of paper Appendix D: the
  same :func:`spmm` gathers head, relation and tail rows, and a registered
  semiring combines them into DistMult / ComplEx / RotatE scores.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.backends import (
    available_backends,
    get_backend,
    register_backend,
    SpMMBackend,
)
from repro.sparse.spmm import spmm, spmm_t
from repro.sparse.incidence import (
    build_ht_incidence,
    build_hrt_incidence,
    IncidenceBuilder,
)
from repro.sparse.rowsparse import RowSparseGrad, coalesce_rows
from repro.sparse.semiring import Semiring, SEMIRINGS, semiring_spmm

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "RowSparseGrad",
    "coalesce_rows",
    "available_backends",
    "get_backend",
    "register_backend",
    "SpMMBackend",
    "spmm",
    "spmm_t",
    "build_ht_incidence",
    "build_hrt_incidence",
    "IncidenceBuilder",
    "Semiring",
    "SEMIRINGS",
    "semiring_spmm",
]
