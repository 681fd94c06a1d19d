"""Dense TorusE baseline (fine-grained gather/scatter, TorchKGE-style)."""

from __future__ import annotations

import numpy as np

from repro.baselines.transe import DenseTransE
from repro.registry import register_model


@register_model("toruse", "dense")
class DenseTorusE(DenseTransE):
    """TorusE scored with separate gathers and the toroidal dissimilarity."""

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "torus_L2", rng=None) -> None:
        if not dissimilarity.startswith("torus"):
            raise ValueError(
                f"TorusE requires a toroidal dissimilarity, got {dissimilarity!r}"
            )
        super().__init__(n_entities, n_relations, embedding_dim,
                         dissimilarity=dissimilarity, rng=rng)

    def normalize_parameters(self) -> None:
        """Wrap embeddings into [0, 1): TorusE works on fractional parts."""
        np.mod(self.entity_embeddings.weight.data, 1.0,
               out=self.entity_embeddings.weight.data)
        np.mod(self.relation_embeddings.weight.data, 1.0,
               out=self.relation_embeddings.weight.data)
