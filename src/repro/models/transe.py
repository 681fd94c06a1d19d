"""Sparse TransE (paper Section 4.3).

TransE enforces ``h + r ≈ t`` and scores a triplet with ``||h + r − t||``.
The sparse formulation obtains the whole batch of residuals with one SpMM:
the ``hrt`` incidence matrix (one row per triplet, +1 at head, +1 at the
offset relation column, −1 at tail) is multiplied against the stacked
``[E_entities; E_relations]`` matrix.  With ``partitions > 1`` the table is
paged from disk and the same lookup runs compacted
(:meth:`~repro.nn.partitioned.PartitionedEmbedding.spmm`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.partitioned import spmm_table
from repro.nn.table import EmbeddingTable
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND
from repro.sparse.incidence import IncidenceBuilder
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
    partitions, partition_dir, max_resident:
        Entity buckets, the directory backing them and how many stay
        resident (see :func:`~repro.nn.partitioned.spmm_table`).  ``1`` keeps
        the classic dense :class:`~repro.nn.embedding.StackedEmbedding`;
        ``> 1`` pages entity rows through an LRU-bounded resident set and
        always produces row-sparse gradients.
    """

    ranking_geometry = "translation"

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", backend: str = DEFAULT_BACKEND,
                 fmt: str = "csr", rng=None, partitions: int = 1,
                 partition_dir: Optional[str] = None,
                 max_resident: Optional[int] = 2) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        self.embeddings = spmm_table(n_entities, n_relations, embedding_dim,
                                     rng=rng, partitions=partitions,
                                     partition_dir=partition_dir,
                                     max_resident=max_resident)
        self.builder = IncidenceBuilder(n_entities, n_relations, fmt=fmt)
        self.fmt = fmt
        self.backend = backend

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``h + r − t`` computed with a single SpMM."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        return self.embeddings.spmm(triples, self.builder, self.backend)

    # ------------------------------------------------------------------ #
    # Ranking geometry and serving (the loop is TranslationalModel's)
    # ------------------------------------------------------------------ #
    def entity_table(self) -> EmbeddingTable:
        return self.embeddings.entity_table()

    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        return self.embeddings.relation_table().read_rows(relations)

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def normalize_parameters(self) -> None:
        """Project entity embeddings onto the unit L2 ball (TransE's constraint).

        Block-wise on both table kinds: bounded temporaries, bit-identical
        per-row results.
        """
        self.entity_table().renormalize_(max_norm=1.0, p=2)
