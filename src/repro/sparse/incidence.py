"""Incidence-matrix builders (paper Section 4.2).

Two sparse layouts turn a batch of triplets into one SpMM operand:

* **ht** — ``A ∈ {−1,0,+1}^{M×N}`` with ``+1`` at the head column and ``−1``
  at the tail column of each row; ``A @ E`` yields the per-triplet
  ``head − tail`` vectors (used by TransR and TransH).
* **hrt** — ``A ∈ {−1,0,+1}^{M×(N+R)}`` which additionally places ``+1`` at
  column ``N + relation``; multiplying by the vertically stacked
  ``[E_entities; E_relations]`` matrix yields ``head + relation − tail``
  (used by TransE and TorusE).

Every row therefore holds exactly two (ht) or three (hrt) non-zeros, so the
matrices stay extremely sparse regardless of how dense the underlying graph is
(paper Appendix B).
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple, Union

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_triples

Format = Literal["coo", "csr"]
SparseMat = Union[COOMatrix, CSRMatrix]


def _build_incidence(heads: np.ndarray, tails: np.ndarray,
                     relation_cols: Optional[np.ndarray],
                     shape: Tuple[int, int], fmt: Format) -> SparseMat:
    """Emit the ``k``-per-row incidence matrix (``k`` = 2, or 3 with relations).

    COO lists each row's entries as ``(head, [relation,] tail)``.  CSR is
    written directly rather than through :meth:`COOMatrix.tocsr`: every row
    holds exactly ``k`` entries, so ``indptr`` is an arithmetic progression,
    and ordering a row's columns is one compare-and-swap of head and tail —
    the relation column ``N + r`` exceeds every entity column, so it is always
    last, and ``head == tail`` keeps head first like the stable sort does.
    The arrays equal ``tocsr()``'s element for element, which keeps the
    kernels' accumulation order, and therefore training trajectories, intact.
    """
    if fmt not in ("coo", "csr"):
        raise ValueError(f"format must be 'coo' or 'csr', got {fmt!r}")
    m = heads.shape[0]
    k = 2 if relation_cols is None else 3
    cols = np.empty((m, k), dtype=np.int64)
    vals = np.empty((m, k), dtype=np.float64)
    if fmt == "coo":
        cols[:, 0] = heads
        cols[:, -1] = tails
        vals[:, :-1] = 1.0
        vals[:, -1] = -1.0
        if relation_cols is not None:
            cols[:, 1] = relation_cols
        rows = np.repeat(np.arange(m, dtype=np.int64), k)
        return COOMatrix(rows, cols.reshape(-1), vals.reshape(-1), shape)
    np.minimum(heads, tails, out=cols[:, 0])
    np.maximum(heads, tails, out=cols[:, 1])
    vals[:, 0] = np.where(heads > tails, -1.0, 1.0)
    np.negative(vals[:, 0], out=vals[:, 1])
    if relation_cols is not None:
        cols[:, 2] = relation_cols
        vals[:, 2] = 1.0
    indptr = np.arange(0, k * m + 1, k, dtype=np.int64)
    return CSRMatrix(indptr, cols.reshape(-1), vals.reshape(-1), shape)


def build_ht_incidence(
    triples: np.ndarray,
    n_entities: int,
    fmt: Format = "csr",
) -> SparseMat:
    """Build the ``(head − tail)`` incidence matrix for a batch of triplets.

    Parameters
    ----------
    triples:
        Integer array of shape ``(M, 3)`` holding ``(head, relation, tail)``
        indices.  The relation column is ignored here.
    n_entities:
        Number of entity rows in the embedding matrix (columns of ``A``).
    fmt:
        Output format; ``"csr"`` (default, CPU kernels) or ``"coo"``.

    Returns
    -------
    Sparse matrix of shape ``(M, n_entities)`` with exactly two non-zeros per
    row (they cancel when ``head == tail``, which is the mathematically
    correct ``h − t = 0``).
    """
    triples = check_triples(triples, n_entities=n_entities)
    return _build_incidence(triples[:, 0], triples[:, 2], None,
                            (triples.shape[0], int(n_entities)), fmt)


def build_hrt_incidence(
    triples: np.ndarray,
    n_entities: int,
    n_relations: int,
    fmt: Format = "csr",
) -> SparseMat:
    """Build the ``(head + relation − tail)`` incidence matrix for a batch.

    The relation column index is offset by ``n_entities`` so the matrix can be
    multiplied against the vertically stacked ``[E_entities; E_relations]``
    embedding matrix (paper Section 4.2.2 and Figure 3b).

    Returns
    -------
    Sparse matrix of shape ``(M, n_entities + n_relations)`` with exactly
    three non-zeros per row.
    """
    triples = check_triples(triples, n_entities=n_entities, n_relations=n_relations)
    return _build_incidence(
        triples[:, 0], triples[:, 2], triples[:, 1] + int(n_entities),
        (triples.shape[0], int(n_entities) + int(n_relations)), fmt)


class IncidenceBuilder:
    """Stateful builder that also caches transposes for the backward SpMM.

    The trainer asks this object for a fresh incidence matrix per minibatch;
    the builder remembers the dataset dimensions, the output format, and hands
    back ``(A, A^T)`` pairs so the backward pass never re-transposes.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes of the knowledge graph.
    fmt:
        Sparse format handed to the SpMM backend (``"csr"`` for the SciPy CPU
        kernel, ``"coo"`` for COO-oriented kernels, mirroring the paper's
        iSpLib-CSR / DGL-COO split).
    """

    def __init__(self, n_entities: int, n_relations: int, fmt: Format = "csr") -> None:
        if n_entities <= 0:
            raise ValueError(f"n_entities must be positive, got {n_entities}")
        if n_relations <= 0:
            raise ValueError(f"n_relations must be positive, got {n_relations}")
        if fmt not in ("coo", "csr"):
            raise ValueError(f"format must be 'coo' or 'csr', got {fmt!r}")
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.fmt: Format = fmt

    def ht(self, triples: np.ndarray, with_transpose: bool = False):
        """Build the ``ht`` matrix (optionally with its transpose)."""
        A = build_ht_incidence(triples, self.n_entities, fmt=self.fmt)
        if not with_transpose:
            return A
        return A, A.T

    def hrt(self, triples: np.ndarray, with_transpose: bool = False):
        """Build the ``hrt`` matrix (optionally with its transpose)."""
        A = build_hrt_incidence(triples, self.n_entities, self.n_relations, fmt=self.fmt)
        if not with_transpose:
            return A
        return A, A.T
