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

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.embedding import StackedEmbedding
from repro.nn.partitioned import PartitionedEmbedding
from repro.nn.table import block_rows_for
from repro.ranking import l2_distance_matrix, squared_norms
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

    #: Upper bound on the number of ``(B, block, d)`` diff elements a single
    #: closed-form ranking block may materialise (~16 MB of float64).  Keeps
    #: peak memory flat in the vocabulary size and each block inside the CPU
    #: cache hierarchy — large multi-query blocks were allocation-bound (every
    #: 100+ MB temporary is an mmap + kernel page-zeroing round trip); see
    #: ``score_all_tails``.
    RANK_BLOCK_ELEMENTS = 1 << 21

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

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity ``||h + r − t||`` per triplet."""
        return self.dissimilarity(self.residuals(triples))

    # ------------------------------------------------------------------ #
    # Closed-form ranking
    # ------------------------------------------------------------------ #
    def _entity_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        if self.partitions > 1:
            return self.embeddings.read_rows(entity_ids)
        return self.embeddings.entity_embeddings()[entity_ids]

    def _relation_rows(self, relation_ids: np.ndarray) -> np.ndarray:
        if self.partitions > 1:
            return self.embeddings.relation_rows(relation_ids)
        return self.embeddings.relation_embeddings()[relation_ids]

    def entity_sq_norms(self) -> Optional[np.ndarray]:
        """``‖e‖²`` of the dense entity table when ranking is the L2 GEMM.

        ``None`` for L1 / overridden reductions (no ``‖t‖²`` term) and for
        partitioned tables (buckets stream through the kernel one at a time,
        each computing its own).  Computed on every call and never kept: see
        :meth:`KGEModel.entity_sq_norms <repro.models.base.KGEModel.entity_sq_norms>`.
        """
        if self.partitions > 1 or not self._l2_gemm_applies():
            return None
        return squared_norms(self.embeddings.entity_embeddings())

    def score_all_tails(self, heads: np.ndarray, relations: np.ndarray,
                        chunk_size: int = 65536,
                        entity_sq: Optional[np.ndarray] = None) -> np.ndarray:
        """Closed-form ranking: ``||(h + r) − t'||`` against every entity.

        A subclass that overrides :meth:`scores` ranks through
        :class:`~repro.models.base.KGEModel`'s candidate expansion instead.
        The ``(B, N, d)`` diff tensor is never materialised whole — at
        B=128, N=100k, d=100 that would be ~10 GB — the candidate entities
        are processed in blocks bounded by :attr:`RANK_BLOCK_ELEMENTS` (and,
        for partitioned tables, streamed one resident bucket at a time).
        ``entity_sq`` is this model's :meth:`entity_sq_norms`, taken by a
        caller that ranks many batches against unchanged weights.
        """
        if not self._closed_form_applies():
            return super().score_all_tails(heads, relations, chunk_size=chunk_size)
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        translated = self._entity_rows(heads) + self._relation_rows(relations)
        return self._rank_blocked(translated, reverse=False,
                                  chunk_size=chunk_size, entity_sq=entity_sq)

    def score_all_heads(self, relations: np.ndarray, tails: np.ndarray,
                        chunk_size: int = 65536,
                        entity_sq: Optional[np.ndarray] = None) -> np.ndarray:
        """Closed-form ranking: ``||h' − (t − r)||`` against every entity.

        Blocked over candidate entities like :meth:`score_all_tails`.
        """
        if not self._closed_form_applies():
            return super().score_all_heads(relations, tails, chunk_size=chunk_size)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        target = self._entity_rows(tails) - self._relation_rows(relations)
        return self._rank_blocked(target, reverse=True, chunk_size=chunk_size,
                                  entity_sq=entity_sq)

    def _rank_blocked(self, queries: np.ndarray, reverse: bool,
                      chunk_size: int = 65536,
                      entity_sq: Optional[np.ndarray] = None) -> np.ndarray:
        """Reduce ``queries`` against every entity in memory-bounded blocks.

        ``chunk_size`` caps the entities per block; :attr:`RANK_BLOCK_ELEMENTS`
        additionally bounds the ``(B, block, d)`` diff tensor, whichever is
        smaller.  ``reverse`` flips the sign of the residual (``entity −
        query`` instead of ``query − entity``) so asymmetric dissimilarities
        in subclasses keep their original orientation.  Candidate blocks come
        from :meth:`iter_entity_embedding_blocks`, so the same loop serves the
        dense table (views) and the partitioned table (one bucket resident at
        a time).
        """
        use_gemm = self._l2_gemm_applies()
        if use_gemm and self.partitions == 1:
            # Dense fast path: the GEMM kernel over the whole entity matrix
            # (the norm is symmetric, so ``reverse`` needs no special case).
            return l2_distance_matrix(
                queries, self.embeddings.entity_embeddings(), target_sq=entity_sq)
        b, d = queries.shape
        n = self.n_entities
        block = max(1, min(int(chunk_size),
                           int(self.RANK_BLOCK_ELEMENTS // max(1, b * d))))
        # The GEMM path needs no (B, block, d) diff tensor, but each block
        # still materialises ~block*d floats of candidate rows — bound by
        # elements, not rows, so wide tables stay within the memory budget.
        block_rows = max(1, min(int(chunk_size),
                                int(self.RANK_BLOCK_ELEMENTS // max(1, d)))
                         ) if use_gemm else block
        out = np.empty((b, n), dtype=np.float64)
        for start, ent_block in self.iter_entity_embedding_blocks(block_rows):
            stop = start + ent_block.shape[0]
            if use_gemm:
                l2_distance_matrix(queries, ent_block, out=out[:, start:stop])
            else:
                diff = queries[:, None, :] - ent_block[None, :, :]
                if reverse:
                    np.negative(diff, out=diff)
                out[:, start:stop] = self._reduce(diff)
        return out

    def _closed_form_applies(self) -> bool:
        """Whether the score is :meth:`_reduce` of ``h + r − t``.

        False for subclasses that weight or re-metric the residual in their
        own :meth:`scores` (TransM, TransA): ranking them by the bare residual
        would order candidates by a score they do not train on.
        """
        scores_impl = getattr(self.scores, "__func__", self.scores)
        return scores_impl is SpTransE.scores

    def _l2_gemm_applies(self) -> bool:
        """Whether the GEMM expansion can replace the blocked diff reduction.

        Only valid when the score really is the plain L2 norm of the
        residual: subclasses (torus, squared, adaptive metrics) and instances
        that override :meth:`scores` or :meth:`_reduce` keep the blocked path.
        """
        reduce_impl = getattr(self._reduce, "__func__", self._reduce)
        return (self._closed_form_applies() and reduce_impl is SpTransE._reduce
                and self.dissimilarity_name == "L2")

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        if self.dissimilarity_name == "L1":
            return np.abs(diff).sum(axis=-1)
        return np.sqrt((diff ** 2).sum(axis=-1) + 1e-12)

    # ------------------------------------------------------------------ #
    # Exact rescoring (two-phase quantized serving)
    # ------------------------------------------------------------------ #
    @property
    def serving_quantized(self) -> Optional[str]:
        """Quantization mode the entity table is served from (or ``None``)."""
        if self.partitions > 1:
            return self.embeddings.quantized
        return None

    def exact_entity_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        """Float64 entity rows regardless of serving quantization.

        On a quantized partitioned table this reads the exact bucket files
        row-wise (:meth:`~repro.nn.partitioned.PartitionedEmbedding.exact_rows`)
        instead of the quantized resident slabs.
        """
        idx = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        if self.partitions > 1:
            return self.embeddings.exact_rows(idx)
        return np.array(self.embeddings.entity_embeddings()[idx],
                        dtype=np.float64, copy=True)

    def exact_candidate_scores(self, anchor: int, relation: int,
                               candidates: np.ndarray,
                               direction: str) -> Optional[np.ndarray]:
        """Full-precision scores for one query against a short candidate list.

        The rescoring half of two-phase quantized serving: the engine ranks
        every entity coarsely on the quantized slabs, keeps the top
        ``k × expansion`` candidates, and calls this to score just those rows
        from the exact float64 bucket files — the same
        ``||q||² − 2q·Tᵀ + ||t||²`` kernel the full-precision path runs, so
        the rescored ordering matches full-precision serving.  ``direction``
        is ``"tail"`` (``anchor`` is the head) or ``"head"`` (``anchor`` is
        the tail); returns ``None`` when the closed L2 form does not apply
        (L1 / overridden scores or reductions), telling the caller to serve
        the coarse ranking as-is.
        """
        query = self.l2_query_vector(anchor, relation, direction)
        if query is None:
            return None
        candidates = np.asarray(candidates, dtype=np.int64).reshape(-1)
        return l2_distance_matrix(query[None, :], self.exact_entity_rows(candidates))[0]

    def l2_query_vector(self, anchor: int, relation: int,
                        direction: str) -> Optional[np.ndarray]:
        """Float64 L2 query (``h + r`` / ``t − r``) when the closed form applies.

        Shared by :meth:`exact_candidate_scores` and the serving engine's
        ANN routing, so an IVF-rescored ranking and an exact rescored ranking
        score candidates from literally the same query vector.  ``None`` for
        L1 / overridden scores or reductions (the caller falls back to exact
        ranking).
        """
        if not self._l2_gemm_applies():
            return None
        anchor_row = self.exact_entity_rows(np.array([anchor]))[0]
        rel_row = np.asarray(self._relation_rows(np.array([relation]))[0],
                             dtype=np.float64)
        return anchor_row + rel_row if direction == "tail" else anchor_row - rel_row

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def entity_embedding_matrix(self) -> np.ndarray:
        """Dense snapshot; for partitioned tables this densifies every bucket
        (debugging / small-scale use — serving paths stream blocks instead)."""
        if self.partitions > 1:
            return self.embeddings.to_matrix()
        return self.embeddings.entity_embeddings().copy()

    def relation_embedding_matrix(self) -> np.ndarray:
        if self.partitions > 1:
            return self.embeddings.relations.data.copy()
        return self.embeddings.relation_embeddings().copy()

    def entity_embedding_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        idx = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        return np.array(self._entity_rows(idx), copy=True)

    def iter_entity_embedding_blocks(self, block_rows: Optional[int] = None
                                     ) -> Iterator[Tuple[int, np.ndarray]]:
        if block_rows is None:
            block_rows = block_rows_for(self.embedding_dim,
                                        self.RANK_BLOCK_ELEMENTS)
        if self.partitions > 1:
            yield from self.embeddings.iter_blocks(int(block_rows))
        else:
            yield from self.embeddings.entity_table().iter_blocks(int(block_rows))

    def normalize_parameters(self) -> None:
        """Project entity embeddings onto the unit L2 ball (TransE's constraint).

        Block-wise on both table kinds: bounded temporaries, bit-identical
        per-row results.
        """
        if self.partitions > 1:
            self.embeddings.renormalize_(max_norm=1.0, p=2)
        else:
            self.embeddings.renormalize_entities(max_norm=1.0, p=2)
