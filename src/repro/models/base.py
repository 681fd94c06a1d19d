"""Shared interface for every knowledge-graph embedding model.

The convention throughout the library: :meth:`KGEModel.scores` returns a
**dissimilarity** per triplet — smaller means more plausible.  Translational
models return a distance directly; bilinear models (DistMult, ComplEx) return
the negated plausibility so the same margin-ranking loss and the same ranking
code work unchanged across families.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro import ranking
from repro.autograd.tensor import Tensor, no_grad
from repro.data.batching import TripletBatch
from repro.losses.margin import MarginRankingLoss
from repro.nn.module import Module
from repro.utils.validation import check_triples


class KGEModel(Module):
    """Abstract knowledge-graph embedding model.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes.
    embedding_dim:
        Entity embedding width ``d``.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int) -> None:
        super().__init__()
        if n_entities <= 0 or n_relations <= 0 or embedding_dim <= 0:
            raise ValueError(
                "n_entities, n_relations, and embedding_dim must all be positive, got "
                f"{n_entities}, {n_relations}, {embedding_dim}"
            )
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.embedding_dim = int(embedding_dim)
        #: When True, models that support it emit row-sparse gradients from
        #: their SpMM / gather backwards (see ``repro.sparse.rowsparse``).
        self.sparse_grads = False

    #: Number of entity-table buckets; models backed by a
    #: :class:`~repro.nn.partitioned.PartitionedEmbedding` override this with
    #: the partition count so the training/serving layers can stay
    #: partition-aware without isinstance checks.
    n_partitions = 1

    def set_sparse_grads(self, enabled: bool = True) -> "KGEModel":
        """Toggle the row-sparse gradient path.

        Models route the flag into their SpMM and embedding-gather backwards
        so gradients — and the optimizer updates they drive — cost
        ``O(batch)`` instead of ``O(vocabulary)`` per step.  It is a training
        choice, not part of the :class:`~repro.registry.ModelSpec`: the
        :class:`~repro.training.Trainer` calls this with
        ``TrainingConfig.sparse_grads``.  A model with no row-sparse path
        (:class:`~repro.models.SpRotatE`) raises ``ValueError`` when asked to
        enable it.  Returns ``self`` for chaining.
        """
        self.sparse_grads = bool(enabled)
        from repro.nn.embedding import Embedding, StackedEmbedding

        for module in self.modules():
            if isinstance(module, (Embedding, StackedEmbedding)):
                module.sparse_grad = bool(enabled)
        return self

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity of each triplet (differentiable), shape ``(B,)``."""
        raise NotImplementedError

    def forward(self, triples: np.ndarray) -> Tensor:
        return self.scores(triples)

    def loss(self, batch: TripletBatch, criterion: Optional[Module] = None) -> Tensor:
        """Margin-ranking loss of one positive/negative batch.

        The positive and negative triples are scored in a single concatenated
        pass (one incidence matrix, one SpMM) — the trick the sparse
        formulation exploits to amortise the kernel launch.
        """
        criterion = criterion if criterion is not None else MarginRankingLoss()
        combined = np.concatenate([batch.positives, batch.negatives], axis=0)
        all_scores = self.scores(combined)
        m = batch.size
        # Positives occupy the first half of the concatenated batch, so plain
        # slices split the scores; fancy indexing here would copy an index
        # array through the autograd gather op on every step.
        pos_scores = all_scores[:m]
        neg_scores = all_scores[m:]
        return criterion(pos_scores, neg_scores)

    def score_triples(self, triples: np.ndarray, chunk_size: int = 65536) -> np.ndarray:
        """Non-differentiable scores (used by evaluation), computed in chunks."""
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        out = np.empty(triples.shape[0], dtype=np.float64)
        with no_grad():
            for start in range(0, triples.shape[0], chunk_size):
                stop = min(start + chunk_size, triples.shape[0])
                out[start:stop] = self.scores(triples[start:stop]).data
        return out

    # ------------------------------------------------------------------ #
    # Link prediction helpers
    # ------------------------------------------------------------------ #
    def score_all_tails(self, heads: np.ndarray, relations: np.ndarray,
                        chunk_size: int = 65536) -> np.ndarray:
        """Score every entity as a candidate tail: ``(B, n_entities)``.

        The generic implementation expands to ``B * n_entities`` triples and
        scores them in chunks; subclasses with a cheaper closed form (e.g.
        TransE's ``h + r`` against all tails) override it.
        """
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        if heads.shape != relations.shape:
            raise ValueError("heads and relations must have equal length")
        return self._score_all_generic(heads, relations, position="tail",
                                       chunk_size=chunk_size)

    def score_all_heads(self, relations: np.ndarray, tails: np.ndarray,
                        chunk_size: int = 65536) -> np.ndarray:
        """Score every entity as a candidate head: ``(B, n_entities)``."""
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        if tails.shape != relations.shape:
            raise ValueError("tails and relations must have equal length")
        return self._score_all_generic(relations, tails, position="head",
                                       chunk_size=chunk_size)

    def entity_sq_norms(self) -> Optional[np.ndarray]:
        """``‖e‖²`` per entity for models whose ranking is an L2 GEMM, else ``None``.

        A caller that ranks many batches against weights it knows are not
        being written (one ``evaluate_link_prediction`` call) asks once and
        passes the array back as ``score_all_tails(..., entity_sq=)`` /
        ``score_all_heads(..., entity_sq=)``; a model that returns an array
        here accepts that keyword.  The model itself never remembers the
        answer: optimizers update ``weight.data`` in place and there is no
        write path to invalidate a cache from, so every call recomputes
        (:func:`repro.ranking.squared_norms`).  The default — no closed form
        with a ``‖t‖²`` term — is ``None``, and such models are called
        without the keyword.
        """
        return None

    def _score_all_generic(self, first: np.ndarray, second: np.ndarray,
                           position: str, chunk_size: int) -> np.ndarray:
        """Candidate-expansion ranking shared by the two ``score_all_*`` fallbacks.

        Delegates to :func:`repro.ranking.candidate_expansion_scores`, the one
        implementation of the expand-and-chunk grid this library has.
        """
        return ranking.candidate_expansion_scores(
            first, second, position=position, n_entities=self.n_entities,
            score_triples=self.score_triples, chunk_size=chunk_size)

    #: Pairwise L2 distances ``(B, N)`` through one GEMM; kept as a static
    #: method for API compatibility — the implementation lives in
    #: :func:`repro.ranking.l2_distance_matrix`.
    l2_distance_matrix = staticmethod(ranking.l2_distance_matrix)

    #: O(N) argpartition top-k (ascending); see :func:`repro.ranking.top_k`.
    _top_k = staticmethod(ranking.top_k)

    def predict_tails(self, head: int, relation: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible tail entities for ``(head, relation, ?)``."""
        scores = self.score_all_tails(np.array([head]), np.array([relation]))[0]
        return self._top_k(scores, k)

    def predict_heads(self, relation: int, tail: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible head entities for ``(?, relation, tail)``."""
        scores = self.score_all_heads(np.array([relation]), np.array([tail]))[0]
        return self._top_k(scores, k)

    def classify_triples(self, triples: np.ndarray, threshold: float) -> np.ndarray:
        """Binary triple classification: True when dissimilarity <= threshold."""
        return self.score_triples(triples) <= float(threshold)

    def l2_query_vector(self, anchor: int, relation: int,
                        direction: str) -> Optional[np.ndarray]:
        """Embedding-space query vector when ranking reduces to an L2 kNN.

        Models whose ``score_all_*`` is exactly ``||q − t'||`` over the entity
        table return the float64 query ``q`` (TransE: ``h + r`` for tails,
        ``t − r`` for heads) so the serving engine can route the query through
        an ANN index and rescore candidates with the identical closed form.
        The default returns ``None`` — "not L2-rankable" — which makes ANN
        serving fall back to exact ranking for this model.
        """
        return None

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def entity_embedding_matrix(self) -> np.ndarray:
        """Dense ``(n_entities, d)`` entity embedding snapshot."""
        raise NotImplementedError

    def relation_embedding_matrix(self) -> np.ndarray:
        """Dense ``(n_relations, d_rel)`` relation embedding snapshot."""
        raise NotImplementedError

    def entity_embedding_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        """Copy of selected entity embedding rows ``(k, d)``.

        The default slices the dense snapshot; table-backed models override
        it with a row read that never densifies the full matrix.
        """
        idx = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        return self.entity_embedding_matrix()[idx]

    def iter_entity_embedding_blocks(self, block_rows: Optional[int] = None
                                     ) -> Iterable[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, block)`` sweeps over the entity embeddings.

        Bounded-memory primitive behind blocked ranking and the serving
        engine's nearest-neighbour scan.  ``block_rows`` defaults to an
        element-bounded size (a few MB per block regardless of row width).
        The default yields slices of the dense snapshot; partitioned models
        stream one bucket at a time.
        """
        from repro.nn.table import block_rows_for

        if block_rows is None:
            block_rows = block_rows_for(self.embedding_dim)
        matrix = self.entity_embedding_matrix()
        for start in range(0, matrix.shape[0], int(block_rows)):
            yield start, matrix[start:start + int(block_rows)]

    def bind_optimizer(self, optimizer) -> None:
        """Give the model a chance to cooperate with its optimiser.

        Default is a no-op.  Partition-backed models attach the optimiser to
        their embedding table so per-bucket optimiser state slabs page in and
        out with their bucket (see
        :meth:`~repro.nn.partitioned.PartitionedEmbedding.attach_optimizer`).
        Trainers call this right after constructing the optimiser.
        """

    def normalize_parameters(self) -> None:
        """Per-epoch parameter maintenance (entity renormalisation etc.).

        Default is a no-op; models that constrain embedding norms override it.
        """


class TranslationalModel(KGEModel):
    """Base for models scoring with a distance over a translation residual.

    Parameters
    ----------
    dissimilarity:
        Name of the distance function (``"L1"``, ``"L2"``, ``"torus_L2"``...).
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2") -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        from repro.nn.functional import get_dissimilarity

        self.dissimilarity_name = dissimilarity
        self.dissimilarity = get_dissimilarity(dissimilarity)
