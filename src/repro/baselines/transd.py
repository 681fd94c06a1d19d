"""Dense TransD baseline.

TransD appears in the paper's profiling study (Figure 2) as one of the models
whose embedding-gradient computation dominates CPU time; it is included here
so the function-level profile benchmark covers the same model set.  TransD has
no published sparse formulation (head and tail use *different* dynamic
projections, so the ``ht`` trick does not apply), which is exactly why it only
exists in the dense family.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import row_dot
from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.embedding import Embedding
from repro.registry import register_model
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("transd", "dense")
class DenseTransD(TranslationalModel):
    """TransD with dynamic mapping vectors for entities and relations.

    Using equal entity and relation dimensions, the projection simplifies to
    ``x_⊥ = x + (x_p · x) r_p`` where ``x_p`` and ``r_p`` are the entity and
    relation mapping vectors.

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Vocabulary sizes and (shared) embedding width.
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
        self.entity_projections = Embedding(n_entities, embedding_dim, rng=rng)
        self.relation_embeddings = Embedding(n_relations, embedding_dim, rng=rng)
        self.relation_projections = Embedding(n_relations, embedding_dim, rng=rng)

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``h_⊥ + r − t_⊥`` with dynamic per-triplet projections."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h = self.entity_embeddings(triples[:, 0])
        t = self.entity_embeddings(triples[:, 2])
        h_p = self.entity_projections(triples[:, 0])
        t_p = self.entity_projections(triples[:, 2])
        rel_idx = triples[:, 1]
        r = self.relation_embeddings(rel_idx)
        r_p = self.relation_projections(rel_idx)
        h_perp = h + r_p * row_dot(h_p, h).reshape(-1, 1)
        t_perp = t + r_p * row_dot(t_p, t).reshape(-1, 1)
        return h_perp + r - t_perp

    def relation_embedding_matrix(self) -> np.ndarray:
        return self.relation_embeddings.weight.data.copy()

    def normalize_parameters(self) -> None:
        """Constrain entity and relation embeddings to the unit L2 ball."""
        self.entity_embeddings.renormalize_(max_norm=1.0, p=2)
        self.relation_embeddings.renormalize_(max_norm=1.0, p=2)
