"""Sparse TorusE (paper Section 4.6).

TorusE shares TransE's additive structure (``h + r ≈ t``) but measures the
residual with a toroidal (wraparound) distance over the fractional parts of
the embeddings.  The sparse path is therefore identical to SpTransE — one
``hrt`` SpMM — followed by the torus dissimilarity, which the paper's
profiling (Figure 2) shows is itself a significant cost for this model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.transe import SpTransE
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND


@register_model("toruse", "sparse")
class SpTorusE(SpTransE):
    """TorusE trained through SpMM over the ``hrt`` incidence matrix.

    Parameters are those of :class:`~repro.models.transe.SpTransE` except
    that the dissimilarity defaults to the squared toroidal L2 distance and
    the paged table keeps the factory's resident-bucket bound.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "torus_L2", backend: str = DEFAULT_BACKEND,
                 fmt: str = "csr", rng=None, partitions: int = 1,
                 partition_dir: Optional[str] = None) -> None:
        if not dissimilarity.startswith("torus"):
            raise ValueError(
                f"TorusE requires a toroidal dissimilarity, got {dissimilarity!r}"
            )
        super().__init__(n_entities, n_relations, embedding_dim,
                         dissimilarity=dissimilarity, backend=backend, fmt=fmt,
                         rng=rng, partitions=partitions,
                         partition_dir=partition_dir)

    def normalize_parameters(self) -> None:
        """TorusE works on the fractional part; wrap embeddings into [0, 1)."""
        for table in (self.entity_table(), self.embeddings.relation_table()):
            table.apply_rows_(lambda block: np.mod(block, 1.0, out=block))
