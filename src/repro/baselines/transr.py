"""Dense TransR baseline (fine-grained gather/scatter, TorchKGE-style)."""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import bmm_vec, gather_rows
from repro.autograd.tensor import Tensor
from repro.models.base import TranslationalModel
from repro.models.transr import RelationSpaceGeometry
from repro.nn import init
from repro.nn.embedding import Embedding
from repro.nn.parameter import Parameter
from repro.registry import register_model
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("transr", "dense")
class DenseTransR(RelationSpaceGeometry, TranslationalModel):
    """TransR with per-operand gathers: head and tail are projected separately.

    The conventional implementation gathers ``h`` and ``t``, projects each with
    the gathered ``M_r`` (two batched matrix-vector products instead of the
    sparse path's one), and then forms ``M_r h + r − M_r t``.  This mirrors the
    larger intermediate footprint the paper measures for non-sparse TransR.

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Vocabulary sizes and the entity embedding width ``d``.
    relation_dim:
        Relation-space width ``k`` (defaults to ``embedding_dim``).
    dissimilarity:
        ``"L1"`` or ``"L2"``.
    rng:
        Seed or generator for initialisation.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 relation_dim: int | None = None, dissimilarity: str = "L2",
                 rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim, dissimilarity)
        self.relation_dim = int(relation_dim) if relation_dim is not None else int(embedding_dim)
        if self.relation_dim <= 0:
            raise ValueError(f"relation_dim must be positive, got {relation_dim}")
        rng = new_rng(rng)
        self.entity_embeddings = Embedding(n_entities, embedding_dim, rng=rng)
        self.relation_embeddings = Embedding(n_relations, self.relation_dim, rng=rng)
        projections = Parameter(
            np.empty((n_relations, self.relation_dim, embedding_dim)), name="projections"
        )
        init.identity_stack_(projections)
        self.projections = projections

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet ``M_r h + r − M_r t`` from separate gathered blocks."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        h = self.entity_embeddings(triples[:, 0])
        t = self.entity_embeddings(triples[:, 2])
        rel_idx = triples[:, 1]
        r = self.relation_embeddings(rel_idx)
        mats = gather_rows(self.projections, rel_idx)
        h_proj = bmm_vec(mats, h)
        t_proj = bmm_vec(mats, t)
        return h_proj + r - t_proj

    def normalize_parameters(self) -> None:
        """Constrain entity and relation embeddings to the unit L2 ball."""
        self.entity_embeddings.renormalize_(max_norm=1.0, p=2)
        self.relation_embeddings.renormalize_(max_norm=1.0, p=2)
