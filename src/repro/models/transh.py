"""Sparse TransH (paper Section 4.5).

TransH projects entities onto a relation-specific hyperplane with normal
``w_r`` before translating by ``d_r``.  The paper's algebraic rearrangement,

    ``(h − t) + d_r − (w_rᵀ · (h − t)) w_r ≈ 0``,

contains the ``ht`` expression twice, so a single ``ht`` SpMM provides both
occurrences; the remaining work is a row-wise dot product and a rank-1
correction.  Reusing the SpMM output for both terms is what gives the sparse
TransH its small memory footprint (paper Section 6.2.2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.ops import normalize_rows, row_dot
from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.embedding import Embedding
from repro.nn.partitioned import spmm_table
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND
from repro.sparse.incidence import IncidenceBuilder
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


class HyperplaneGeometry:
    """TransH's ranking geometry, shared by both formulations.

    Entities are projected onto the hyperplane of relation ``r``,
    ``X − (X·w_r) w_r`` with the unit normal the forward normalises to, and
    translated by ``d_r``.  Reads the two relation rows it needs, never a
    whole stack.
    """

    ranking_geometry = "projection"

    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        return self.translations.weight.data[relations]

    def project_entities(self, rows: np.ndarray, relation: int) -> np.ndarray:
        w = self.normals.weight.data[relation]
        w = w / np.sqrt(w @ w + 1e-12)
        return rows - np.outer(rows @ w, w)

    def normal_vectors(self) -> np.ndarray:
        """Unit-normalised hyperplane normals ``(R, d)``."""
        w = self.normals.weight.data
        return w / np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)


@register_model("transh", "sparse")
class SpTransH(HyperplaneGeometry, TranslationalModel):
    """TransH trained through SpMM over the ``ht`` incidence matrix.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    embedding_dim:
        Entity (and hyperplane) embedding width.
    dissimilarity:
        ``"L1"`` or ``"L2"``.
    backend, fmt:
        SpMM backend name and incidence format.
    rng:
        Seed or generator for initialisation.
    partitions, partition_dir:
        Entity-table paging, as for :class:`~repro.models.transe.SpTransE`;
        the relation-side tables stay resident.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", backend: str = DEFAULT_BACKEND,
                 fmt: str = "csr", rng=None, partitions: int = 1,
                 partition_dir: Optional[str] = None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        rng = new_rng(rng)
        self.entity_embeddings = spmm_table(
            n_entities, 0, embedding_dim, rng=rng, partitions=partitions,
            partition_dir=partition_dir)

        self.translations = Embedding(n_relations, embedding_dim, rng=rng)
        self.normals = Embedding(n_relations, embedding_dim, rng=rng)

        self.builder = IncidenceBuilder(n_entities, n_relations, fmt=fmt)
        self.backend = backend

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``(h − t) + d_r − (w_rᵀ (h − t)) w_r`` with one SpMM."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        ht = self.entity_embeddings.spmm(triples, self.builder, self.backend)  # (B, d)
        rel_idx = triples[:, 1]
        d_r = self.translations(rel_idx)                                      # (B, d)
        w_r = normalize_rows(self.normals(rel_idx))                           # (B, d), unit norm
        projection = row_dot(w_r, ht)                                         # (B,)
        correction = w_r * projection.reshape(-1, 1)
        return ht + d_r - correction

    def relation_embedding_matrix(self) -> np.ndarray:
        return self.translations.weight.data.copy()

    def normalize_parameters(self) -> None:
        """Constrain entity embeddings to the unit ball and normals to unit norm."""
        self.entity_table().renormalize_(max_norm=1.0, p=2)
        w = self.normals.weight.data
        w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
