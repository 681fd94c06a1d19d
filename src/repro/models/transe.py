"""Sparse TransE (paper Section 4.3).

TransE enforces ``h + r ≈ t`` and scores a triplet with ``||h + r − t||``.
The sparse formulation obtains the whole batch of residuals with one SpMM:
the ``hrt`` incidence matrix (one row per triplet, +1 at head, +1 at the
offset relation column, −1 at tail) is multiplied against the stacked
``[E_entities; E_relations]`` matrix.

With ``partitions > 1`` the entity table moves into a
:class:`~repro.nn.partitioned.PartitionedEmbedding` and the *same* SpMM runs
over a **compacted sub-incidence matrix**: the batch's unique entity and
relation ids are remapped (order-preservingly) onto a compact column space,
only those rows are gathered from the resident buckets, and the backward
emits per-bucket row-sparse gradients.  Because the remap preserves the
within-row column order of the full incidence matrix, both the forward
residuals and the coalesced backward sums are bit-identical to the
unpartitioned ``sparse_grads`` path on the same backend — which is what lets
a ``P``-way partitioned run reproduce the unpartitioned trajectory digest
exactly while never holding more than ``max_resident`` buckets in memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.embedding import StackedEmbedding
from repro.nn.partitioned import PartitionedEmbedding
from repro.nn.table import EmbeddingTable
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND, get_backend
from repro.sparse.incidence import IncidenceBuilder, build_hrt_incidence
from repro.sparse.spmm import rowsparse_backward_for, spmm
from repro.utils.validation import check_triples


@register_model("transe", "sparse")
class SpTransE(TranslationalModel):
    """TransE trained through SpMM over the ``hrt`` incidence matrix.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    embedding_dim:
        Shared entity/relation embedding width.
    dissimilarity:
        ``"L1"`` or ``"L2"`` (the paper's experiments use L2).
    backend:
        Registered SpMM backend name (``"scipy"`` production kernel, ``"numpy"``
        oracle, or one added with ``register_backend``).
    fmt:
        Incidence-matrix format handed to the backend (``"csr"`` or ``"coo"``).
    rng:
        Seed or generator for the Xavier initialisation.
    partitions:
        Number of entity buckets (``1`` keeps the classic dense
        :class:`~repro.nn.embedding.StackedEmbedding`).  ``> 1`` pages entity
        rows through an LRU-bounded resident set and implies row-sparse
        gradients (the partitioned table has no dense full-table path).
    partition_dir:
        Directory backing the bucket files (default: private tempdir).
    max_resident:
        Buckets simultaneously resident; ``2`` matches the bucket-pair batch
        schedule.
    """

    ranking_geometry = "translation"

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", backend: str = DEFAULT_BACKEND,
                 fmt: str = "csr", rng=None, partitions: int = 1,
                 partition_dir: Optional[str] = None,
                 max_resident: Optional[int] = 2) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        self.partitions = max(1, int(partitions))
        self.n_partitions = self.partitions
        if self.partitions > 1:
            self.embeddings = PartitionedEmbedding(
                n_entities, n_relations, embedding_dim,
                partitions=self.partitions, rng=rng, directory=partition_dir,
                max_resident=max_resident)
            # The compact sub-incidence path always produces row-sparse
            # per-bucket gradients; dense full-table gradients do not exist.
            self.sparse_grads = True
        else:
            self.embeddings = StackedEmbedding(n_entities, n_relations,
                                               embedding_dim, rng=rng)
        self.builder = IncidenceBuilder(n_entities, n_relations, fmt=fmt)
        self.fmt = fmt
        self.backend = backend

    def set_sparse_grads(self, enabled: bool = True) -> "SpTransE":
        """Toggle row-sparse gradients (forced on for partitioned tables)."""
        if self.partitions > 1:
            enabled = True
        return super().set_sparse_grads(enabled)

    def bind_optimizer(self, optimizer) -> None:
        if self.partitions > 1:
            self.embeddings.attach_optimizer(optimizer)

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``h + r − t`` computed with a single SpMM."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        if self.partitions > 1:
            return self._residuals_partitioned(triples)
        if self.sparse_grads:
            # The row-sparse backward takes A and transposes it itself;
            # building A^T here would be dead work on the hot path.
            A, A_t = self.builder.hrt(triples), None
        else:
            A, A_t = self.builder.hrt(triples, with_transpose=True)
        return spmm(A, self.embeddings.weight, backend=self.backend, A_t=A_t,
                    sparse_grad=self.sparse_grads)

    def _residuals_partitioned(self, triples: np.ndarray) -> Tensor:
        """Compact sub-incidence SpMM over only the batch's unique rows.

        The unique entity/relation ids are remapped onto ``[0, U_e)`` /
        ``[0, U_r)``; both maps are monotone, so the compacted ``hrt``
        matrix's per-row column order — and therefore every floating-point
        accumulation in the kernel and in the row-sparse backward — matches
        the full-matrix computation exactly.  The backward splits the compact
        row-sparse gradient back onto the touched bucket parameters (bucket-
        local indices) and the relation parameter.
        """
        entity_ids = np.unique(triples[:, 0::2])
        relation_ids = np.unique(triples[:, 1])
        compact = np.empty_like(triples)
        compact[:, 0] = np.searchsorted(entity_ids, triples[:, 0])
        compact[:, 1] = np.searchsorted(relation_ids, triples[:, 1])
        compact[:, 2] = np.searchsorted(entity_ids, triples[:, 2])
        A = build_hrt_incidence(compact, int(entity_ids.size),
                                int(relation_ids.size), fmt=self.fmt)
        stacked, parents = self.embeddings.gather_stacked(entity_ids, relation_ids)
        out = get_backend(self.backend)(A, stacked)
        table = self.embeddings
        n_rows = stacked.shape[0]
        rowsparse_backward = rowsparse_backward_for(self.backend)

        def backward(grad: np.ndarray) -> None:
            table.scatter_stacked_grad(
                entity_ids, relation_ids, rowsparse_backward(A, grad, n_rows))

        return Tensor._make(out, parents, backward, "spmm[partitioned]")

    # ------------------------------------------------------------------ #
    # Ranking geometry and serving (the loop is TranslationalModel's)
    # ------------------------------------------------------------------ #
    def entity_table(self) -> EmbeddingTable:
        if self.partitions > 1:
            return self.embeddings
        return self.embeddings.entity_table()

    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        if self.partitions > 1:
            return self.embeddings.relation_rows(relations)
        return self.embeddings.relation_embeddings()[relations]

    @property
    def serving_quantized(self) -> Optional[str]:
        """Quantization mode the entity table is served from (or ``None``)."""
        if self.partitions > 1:
            return self.embeddings.quantized
        return None

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def relation_embedding_matrix(self) -> np.ndarray:
        if self.partitions > 1:
            return self.embeddings.relations.data.copy()
        return self.embeddings.relation_embeddings().copy()

    def normalize_parameters(self) -> None:
        """Project entity embeddings onto the unit L2 ball (TransE's constraint).

        Block-wise on both table kinds: bounded temporaries, bit-identical
        per-row results.
        """
        if self.partitions > 1:
            self.embeddings.renormalize_(max_norm=1.0, p=2)
        else:
            self.embeddings.renormalize_entities(max_norm=1.0, p=2)
