"""Non-translational models via the semiring SpMM extension (paper Appendix D).

Each model scores a batch with one :func:`~repro.sparse.semiring.semiring_spmm`
over the stacked ``[entities; relations]`` embedding, under a registered
semiring:

* :class:`SpDistMult` — ``times_times``: per-row ``h ⊙ r ⊙ t``.
* :class:`SpComplEx` — ``complex`` over (real, imaginary) stacked tables.
* :class:`SpRotatE` — ``rotate``: the element-wise modulus of ``h ⊙ r − t``
  with unit-modulus relations parameterised by a phase.

To keep every model compatible with the margin-ranking trainer and the
ranking evaluator, ``scores`` returns a dissimilarity: bilinear models return
the *negated* plausibility, RotatE returns its modulus distance.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.models.base import KGEModel
from repro.nn.embedding import StackedEmbedding
from repro.nn.parameter import Parameter
from repro.nn import init
from repro.registry import register_model
from repro.sparse.semiring import semiring_spmm
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("distmult", "sparse")
class SpDistMult(KGEModel):
    """DistMult through the ``times_times`` semiring SpMM.

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Vocabulary sizes and embedding width.
    rng:
        Seed or generator for initialisation.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int, rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        self.embeddings = StackedEmbedding(n_entities, n_relations, embedding_dim, rng=rng)

    def plausibility(self, triples: np.ndarray) -> Tensor:
        """DistMult score ``sum_j h_j r_j t_j`` (larger = more plausible)."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        combined = semiring_spmm(triples, self.embeddings.weight, self.n_entities,
                                 "times_times", sparse_grad=self.sparse_grads)
        return combined.sum(axis=-1)

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity convention: negated plausibility."""
        return -self.plausibility(triples)

    def entity_embedding_matrix(self) -> np.ndarray:
        return self.embeddings.entity_embeddings().copy()


@register_model("complex", "sparse")
class SpComplEx(KGEModel):
    """ComplEx through the ``complex`` semiring SpMM.

    Embeddings are complex vectors stored as a (real, imaginary) pair of
    stacked matrices; the score is ``Re(<h, r, conj(t)>)``.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int, rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        rng = new_rng(rng)
        self.real = StackedEmbedding(n_entities, n_relations, embedding_dim, rng=rng)
        self.imag = StackedEmbedding(n_entities, n_relations, embedding_dim, rng=rng)

    def plausibility(self, triples: np.ndarray) -> Tensor:
        """ComplEx score ``Re(sum_j h_j r_j conj(t_j))``."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        real_part = semiring_spmm(triples, (self.real.weight, self.imag.weight),
                                  self.n_entities, "complex", sparse_grad=self.sparse_grads)
        return real_part.sum(axis=-1)

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity convention: negated plausibility."""
        return -self.plausibility(triples)

    def entity_embedding_matrix(self) -> np.ndarray:
        return np.concatenate(
            [self.real.entity_embeddings(), self.imag.entity_embeddings()], axis=1
        )


@register_model("rotate", "sparse")
class SpRotatE(KGEModel):
    """RotatE through the ``rotate`` semiring over paired stacked matrices.

    Entities are complex vectors; each relation is a unit-modulus rotation
    parameterised by a phase vector θ (so ``r = cos θ + i sin θ``).  The score
    is the summed complex modulus of ``h ⊙ r − t``.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int, rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        rng = new_rng(rng)
        ent_re = Parameter(np.empty((n_entities, embedding_dim)), name="entity_real")
        ent_im = Parameter(np.empty((n_entities, embedding_dim)), name="entity_imag")
        phases = Parameter(np.empty((n_relations, embedding_dim)), name="relation_phase")
        init.xavier_uniform_(ent_re, rng=rng)
        init.xavier_uniform_(ent_im, rng=rng)
        init.uniform_(phases, -np.pi, np.pi, rng=rng)
        self.entity_real = ent_re
        self.entity_imag = ent_im
        self.relation_phase = phases

    def _stacked(self) -> tuple[Tensor, Tensor]:
        """Stacked (real, imaginary) matrices ``[entities; relations]``.

        The relation block is the differentiable (cos θ, sin θ) image of the
        phase parameter, so gradients flow back into θ through the stack.
        """
        cos_theta = ops.cos(self.relation_phase)
        sin_theta = ops.sin(self.relation_phase)
        stacked_re = ops.concatenate([self.entity_real, cos_theta], axis=0)
        stacked_im = ops.concatenate([self.entity_imag, sin_theta], axis=0)
        return stacked_re, stacked_im

    def scores(self, triples: np.ndarray) -> Tensor:
        """Summed complex modulus of the rotation residual (smaller = better)."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        # The stack is computed, not a leaf, so its SpMM backward stays dense.
        modulus = semiring_spmm(triples, self._stacked(), self.n_entities, "rotate")
        return modulus.sum(axis=-1)

    def set_sparse_grads(self, enabled: bool = True) -> "SpRotatE":
        """Refuse the row-sparse path: the SpMM's relation block is computed."""
        if enabled:
            raise ValueError(
                "SpRotatE has no row-sparse gradient path: its relation block "
                "is computed from the phases, so its SpMM backward is always "
                "dense; train it with sparse_grads=False"
            )
        return super().set_sparse_grads(False)

    def entity_embedding_matrix(self) -> np.ndarray:
        return np.concatenate([self.entity_real.data, self.entity_imag.data], axis=1)
