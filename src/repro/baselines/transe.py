"""Dense TransE baseline (fine-grained gather/scatter, TorchKGE-style)."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.nn.embedding import Embedding
from repro.registry import register_model
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("transe", "dense")
class DenseTransE(TranslationalModel):
    """TransE scored with three separate embedding gathers per batch.

    The forward pass gathers head, relation, and tail rows individually and
    computes ``h + r − t`` on the gathered copies; the backward pass runs one
    scatter-add per gather — the computational pattern the paper identifies as
    the training bottleneck (Figure 2).

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Vocabulary sizes and embedding width.
    dissimilarity:
        ``"L1"`` or ``"L2"``.
    rng:
        Seed or generator for initialisation.
    """

    ranking_geometry = "translation"

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        rng = new_rng(rng)
        self.entity_embeddings = Embedding(n_entities, embedding_dim, rng=rng)
        self.relation_embeddings = Embedding(n_relations, embedding_dim, rng=rng)

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``h + r − t`` from three gathered blocks."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h = self.entity_embeddings(triples[:, 0])
        r = self.relation_embeddings(triples[:, 1])
        t = self.entity_embeddings(triples[:, 2])
        return h + r - t

    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        return self.relation_embeddings.weight.data[relations]

    def normalize_parameters(self) -> None:
        """Project entity embeddings onto the unit L2 ball (TransE's constraint)."""
        self.entity_embeddings.renormalize_(max_norm=1.0, p=2)
