"""Sparse TransR (paper Section 4.4).

TransR scores ``||M_r h + r − M_r t||`` with a per-relation projection matrix
``M_r`` mapping the entity space (dimension ``d``) into the relation space
(dimension ``k``).  The paper's rearrangement ``M_r (h − t) + r`` exposes the
``ht`` expression, so the sparse path is:

1. one SpMM with the ``ht`` incidence matrix → per-triplet ``h − t``;
2. a batched projection by the gathered ``M_r`` matrices;
3. addition of the gathered relation vectors and the L2 norm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.ops import bmm_vec, gather_rows
from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn import init
from repro.nn.embedding import Embedding
from repro.nn.parameter import Parameter
from repro.nn.partitioned import spmm_table
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND
from repro.sparse.incidence import IncidenceBuilder
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


class RelationSpaceGeometry:
    """TransR's ranking geometry, shared by both formulations.

    Entities are mapped into the space of relation ``r`` by its projection
    ``X M_rᵀ`` and translated by ``r``.  Reads one ``(k, d)`` matrix per
    relation, never a copy of the ``(R, k, d)`` stack.
    """

    ranking_geometry = "projection"

    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        return self.relation_embeddings.weight.data[relations]

    def project_entities(self, rows: np.ndarray, relation: int) -> np.ndarray:
        return rows @ self.projections.data[relation].T


@register_model("transr", "sparse")
class SpTransR(RelationSpaceGeometry, TranslationalModel):
    """TransR trained through SpMM over the ``ht`` incidence matrix.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    embedding_dim:
        Entity embedding width ``d``.
    relation_dim:
        Relation-space width ``k`` (defaults to ``embedding_dim``).
    dissimilarity:
        ``"L1"`` or ``"L2"``.
    backend, fmt:
        SpMM backend name and incidence format.
    rng:
        Seed or generator for initialisation.
    partitions, partition_dir:
        Entity-table paging, as for :class:`~repro.models.transe.SpTransE`;
        the relation vectors and projections stay resident.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 relation_dim: int | None = None, dissimilarity: str = "L2",
                 backend: str = DEFAULT_BACKEND, fmt: str = "csr", rng=None,
                 partitions: int = 1, partition_dir: Optional[str] = None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        self.relation_dim = int(relation_dim) if relation_dim is not None else int(embedding_dim)
        if self.relation_dim <= 0:
            raise ValueError(f"relation_dim must be positive, got {relation_dim}")
        rng = new_rng(rng)
        self.entity_embeddings = spmm_table(
            n_entities, 0, embedding_dim, rng=rng, partitions=partitions,
            partition_dir=partition_dir)

        self.relation_embeddings = Embedding(n_relations, self.relation_dim, rng=rng)

        projections = Parameter(
            np.empty((n_relations, self.relation_dim, embedding_dim)), name="projections"
        )
        init.identity_stack_(projections)
        self.projections = projections

        self.builder = IncidenceBuilder(n_entities, n_relations, fmt=fmt)
        self.backend = backend

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``M_r (h − t) + r`` via one ``ht`` SpMM + batched projection."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        ht = self.entity_embeddings.spmm(triples, self.builder, self.backend)  # (B, d)
        rel_idx = triples[:, 1]
        mats = gather_rows(self.projections, rel_idx,
                           sparse_grad=self.sparse_grads)                      # (B, k, d)
        projected = bmm_vec(mats, ht)                                          # (B, k)
        rel = self.relation_embeddings(rel_idx)                                # (B, k)
        return projected + rel

    def normalize_parameters(self) -> None:
        """Constrain entity and relation embeddings to the unit L2 ball."""
        for table in (self.entity_table(), self.relation_embeddings):
            table.renormalize_(max_norm=1.0, p=2)
