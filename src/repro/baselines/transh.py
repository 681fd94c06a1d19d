"""Dense TransH baseline (fine-grained gather/scatter, TorchKGE-style)."""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import normalize_rows, row_dot
from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.models.transh import HyperplaneGeometry
from repro.nn.embedding import Embedding
from repro.registry import register_model
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("transh", "dense")
class DenseTransH(HyperplaneGeometry, TranslationalModel):
    """TransH with per-operand hyperplane projections.

    Head and tail are gathered and projected onto the relation hyperplane
    separately (``h_⊥ = h − (w·h)w`` and ``t_⊥ = t − (w·t)w``), producing the
    larger computational graph the paper attributes to non-sparse TransH.

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Vocabulary sizes and embedding width.
    dissimilarity:
        ``"L1"`` or ``"L2"``.
    rng:
        Seed or generator for initialisation.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        rng = new_rng(rng)
        self.entity_embeddings = Embedding(n_entities, embedding_dim, rng=rng)
        self.translations = Embedding(n_relations, embedding_dim, rng=rng)
        self.normals = Embedding(n_relations, embedding_dim, rng=rng)

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``h_⊥ + d_r − t_⊥`` with separate projections of h and t."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h = self.entity_embeddings(triples[:, 0])
        t = self.entity_embeddings(triples[:, 2])
        rel_idx = triples[:, 1]
        d_r = self.translations(rel_idx)
        w_r = normalize_rows(self.normals(rel_idx))
        h_perp = h - w_r * row_dot(w_r, h).reshape(-1, 1)
        t_perp = t - w_r * row_dot(w_r, t).reshape(-1, 1)
        return h_perp + d_r - t_perp

    def relation_embedding_matrix(self) -> np.ndarray:
        return self.translations.weight.data.copy()

    def normalize_parameters(self) -> None:
        """Constrain entity embeddings to the unit ball and normals to unit norm."""
        self.entity_embeddings.renormalize_(max_norm=1.0, p=2)
        w = self.normals.weight.data
        w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
