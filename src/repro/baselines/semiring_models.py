"""Dense DistMult / ComplEx baselines (gather-based bilinear scoring).

These mirror :mod:`repro.models.semiring_models` but compute the products from
separately gathered head / relation / tail blocks, matching how TorchKGE and
PyKEEN implement bilinear models.  They exist so the Appendix-D benchmark can
compare the semiring-SpMM path against the conventional path on identical
score functions.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.base import KGEModel
from repro.nn.embedding import Embedding
from repro.registry import register_model
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("distmult", "dense")
class DenseDistMult(KGEModel):
    """DistMult scored from three gathered blocks: ``sum_j h_j r_j t_j``."""

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int, rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        rng = new_rng(rng)
        self.entity_embeddings = Embedding(n_entities, embedding_dim, rng=rng)
        self.relation_embeddings = Embedding(n_relations, embedding_dim, rng=rng)

    def plausibility(self, triples: np.ndarray) -> Tensor:
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h = self.entity_embeddings(triples[:, 0])
        r = self.relation_embeddings(triples[:, 1])
        t = self.entity_embeddings(triples[:, 2])
        return (h * r * t).sum(axis=-1)

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity convention: negated plausibility."""
        return -self.plausibility(triples)

    def entity_embedding_matrix(self) -> np.ndarray:
        return self.entity_embeddings.weight.data.copy()


@register_model("complex", "dense")
class DenseComplEx(KGEModel):
    """ComplEx scored from gathered real/imaginary blocks."""

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int, rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        rng = new_rng(rng)
        self.entity_real = Embedding(n_entities, embedding_dim, rng=rng)
        self.entity_imag = Embedding(n_entities, embedding_dim, rng=rng)
        self.relation_real = Embedding(n_relations, embedding_dim, rng=rng)
        self.relation_imag = Embedding(n_relations, embedding_dim, rng=rng)

    def plausibility(self, triples: np.ndarray) -> Tensor:
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h_idx, r_idx, t_idx = triples[:, 0], triples[:, 1], triples[:, 2]
        h_re, h_im = self.entity_real(h_idx), self.entity_imag(h_idx)
        r_re, r_im = self.relation_real(r_idx), self.relation_imag(r_idx)
        t_re, t_im = self.entity_real(t_idx), self.entity_imag(t_idx)
        # Re(<h, r, conj(t)>) expanded into four real products.
        real_part = (h_re * r_re * t_re
                     - h_im * r_im * t_re
                     + h_re * r_im * t_im
                     + h_im * r_re * t_im)
        return real_part.sum(axis=-1)

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity convention: negated plausibility."""
        return -self.plausibility(triples)

    def entity_embedding_matrix(self) -> np.ndarray:
        return np.concatenate(
            [self.entity_real.weight.data, self.entity_imag.weight.data], axis=1
        )
