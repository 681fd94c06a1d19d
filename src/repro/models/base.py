"""Shared interface for every knowledge-graph embedding model.

The convention throughout the library: :meth:`KGEModel.scores` returns a
**dissimilarity** per triplet — smaller means more plausible.  Translational
models return a distance directly; bilinear models (DistMult, ComplEx) return
the negated plausibility so the same margin-ranking loss and the same ranking
code work unchanged across families.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro import ranking
from repro.autograd.tensor import Tensor, no_grad
from repro.data.batching import TripletBatch
from repro.losses.margin import MarginRankingLoss
from repro.nn.module import Module
from repro.nn.partitioned import partitioned_tables
from repro.nn.table import EmbeddingTable, block_rows_for
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

    @property
    def n_partitions(self) -> int:
        """Entity-table buckets: ``P`` of the model's paged table, else ``1``."""
        return max((table.n_partitions for table in partitioned_tables(self)),
                   default=1)

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
        scores them in chunks; :class:`TranslationalModel` ranks in closed
        form where the model's geometry allows it.
        """
        heads, relations = self._query_ids(heads, relations)
        return self._score_all_generic(heads, relations, position="tail",
                                       chunk_size=chunk_size)

    def score_all_heads(self, relations: np.ndarray, tails: np.ndarray,
                        chunk_size: int = 65536) -> np.ndarray:
        """Score every entity as a candidate head: ``(B, n_entities)``."""
        tails, relations = self._query_ids(tails, relations)
        return self._score_all_generic(relations, tails, position="head",
                                       chunk_size=chunk_size)

    def _query_ids(self, anchors, relations) -> Tuple[np.ndarray, np.ndarray]:
        """``int64`` ``(anchors, relations)`` of one ranking call, range-checked.

        A negative or too-large id raises ``IndexError`` on every ranking path
        (as the serving engine and the partitioned table do) instead of
        wrapping around a dense table.
        """
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        if anchors.shape != relations.shape:
            raise ValueError("anchors and relations must have equal length")
        for ids, limit, kind in ((anchors, self.n_entities, "entity"),
                                 (relations, self.n_relations, "relation")):
            if ids.size and (ids.min() < 0 or ids.max() >= limit):
                bad = ids.min() if ids.min() < 0 else ids.max()
                raise IndexError(f"{kind} id {bad} out of range [0, {limit})")
        return anchors, relations

    def rank_targets(self, anchors: np.ndarray, relations: np.ndarray,
                     targets: np.ndarray, direction: str,
                     exclusions=None) -> np.ndarray:
        """Rank of each target among every entity: ``(B,)`` float64, 1-based.

        ``direction="tail"`` ranks ``targets`` as the tails of ``(anchors,
        relations, ?)``; ``"head"`` as the heads of ``(?, relations,
        anchors)``.  ``exclusions`` are the filtered protocol's other known
        answers, in any form :func:`~repro.evaluation.compute_ranks` takes.
        This generic version scores every candidate with ``score_all_*`` and
        counts with ``compute_ranks``; :class:`TranslationalModel` counts in
        closed form, tile by tile, without the ``(B, n_entities)`` block.
        """
        from repro.evaluation.ranks import compute_ranks

        if direction == "tail":
            scores = self.score_all_tails(anchors, relations)
        elif direction == "head":
            scores = self.score_all_heads(relations, anchors)
        else:
            raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
        return compute_ranks(scores, targets, exclusions)

    def _score_all_generic(self, first: np.ndarray, second: np.ndarray,
                           position: str, chunk_size: int) -> np.ndarray:
        """Candidate-expansion ranking shared by the two ``score_all_*`` fallbacks.

        Delegates to :func:`repro.ranking.candidate_expansion_scores`, the one
        implementation of the expand-and-chunk grid this library has.
        """
        return ranking.candidate_expansion_scores(
            first, second, position=position, n_entities=self.n_entities,
            score_triples=self.score_triples, chunk_size=chunk_size)

    def predict_tails(self, head: int, relation: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible tail entities for ``(head, relation, ?)``."""
        scores = self.score_all_tails(np.array([head]), np.array([relation]))[0]
        return ranking.top_k(scores, k)

    def predict_heads(self, relation: int, tail: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible head entities for ``(?, relation, tail)``."""
        scores = self.score_all_heads(np.array([relation]), np.array([tail]))[0]
        return ranking.top_k(scores, k)

    def classify_triples(self, triples: np.ndarray, threshold: float) -> np.ndarray:
        """Binary triple classification: True when dissimilarity <= threshold."""
        return self.score_triples(triples) <= float(threshold)

    def l2_query_vector(self, anchor: int, relation: int,
                        direction: str) -> Optional[np.ndarray]:
        """Embedding-space query vector when ranking reduces to an L2 kNN.

        The float64 ``q`` with ``score_all_*`` exactly ``||q − t'||`` over the
        entity table, so the serving engine can route the query through an
        ANN index; ``None`` (the default) makes it fall back to exact ranking.
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

    def normalize_parameters(self) -> None:
        """Per-epoch parameter maintenance (entity renormalisation etc.).

        Default is a no-op; models that constrain embedding norms override it.
        """


class TranslationalModel(KGEModel):
    """Base for models scoring with a distance over a translation residual.

    A subclass supplies :meth:`residuals`; the score is :attr:`dissimilarity`
    of it.  Ranking is written once, here: a model that declares a
    :attr:`ranking_geometry` and does not override :meth:`scores` ranks every
    candidate in closed form from its parameter matrices, whichever
    formulation trained them; any other model ranks through
    :class:`KGEModel`'s candidate expansion, which stays the oracle the closed
    form is tested against (``tests/models/test_ranking_parity.py``).

    Parameters
    ----------
    dissimilarity:
        Name of the distance function (``"L1"``, ``"L2"``, ``"torus_L2"``...).
    """

    #: Upper bound on the elements one closed-form ranking block may
    #: materialise (~16 MB of float64): the ``(B, block, k)`` diff of a non-L2
    #: dissimilarity, or the ``(block, k)`` projected candidates of an L2 one,
    #: so peak memory stays flat in the vocabulary size.
    RANK_BLOCK_ELEMENTS = 1 << 21

    #: How candidates meet the query in the closed-form ranking.  ``None`` —
    #: the default — declares no closed form.  ``"translation"``: the query
    #: ``h + r`` (tails) or ``t − r`` (heads) is scored against the raw entity
    #: rows, so a chunk is one group (TransE, TorusE, TransC).
    #: ``"projection"``: anchors and candidates enter each relation's space
    #: through :meth:`project_entities` first, so a chunk is ranked one
    #: relation group at a time and each candidate block is projected once
    #: per distinct relation (TransH, TransR).
    ranking_geometry: Optional[str] = None

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2") -> None:
        super().__init__(n_entities, n_relations, embedding_dim)
        from repro.nn.functional import get_dissimilarity

        self.dissimilarity_name = dissimilarity
        self.dissimilarity = get_dissimilarity(dissimilarity)

    def residuals(self, triples: np.ndarray) -> Tensor:
        """Per-triplet translation residual ``(B, k)`` (differentiable)."""
        raise NotImplementedError

    def scores(self, triples: np.ndarray) -> Tensor:
        """Dissimilarity of each triplet's residual, shape ``(B,)``."""
        return self.dissimilarity(self.residuals(triples))

    # ------------------------------------------------------------------ #
    # Ranking geometry and entity rows
    # ------------------------------------------------------------------ #
    def relation_translations(self, relations: np.ndarray) -> np.ndarray:
        """Translation rows ``(B, k)`` of ``relations`` in relation space."""
        raise NotImplementedError

    def project_entities(self, rows: np.ndarray, relation: int) -> np.ndarray:
        """Entity ``rows`` ``(n, d)`` mapped into ``relation``'s space ``(n, k)``.

        Called only for the ``"projection"`` :attr:`ranking_geometry`.
        """
        raise NotImplementedError

    def entity_table(self) -> EmbeddingTable:
        """The entity rows as an :class:`~repro.nn.table.EmbeddingTable`.

        The default reads the ``entity_embeddings`` attribute: a table itself
        (an :class:`~repro.nn.embedding.Embedding` or a paged table), or an
        SpMM table exposing its entity rows.
        """
        table = self.entity_embeddings
        if isinstance(table, EmbeddingTable):
            return table
        return table.entity_table()

    @property
    def serving_quantized(self) -> Optional[str]:
        """Quantization mode the entity table is served from (or ``None``)."""
        return self.entity_table().quantized

    def entity_embedding_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        """Copy of selected entity rows ``(k, d)``; never densifies the table."""
        return self.entity_table().read_rows(
            np.asarray(entity_ids, dtype=np.int64).reshape(-1))

    def iter_entity_embedding_blocks(self, block_rows: Optional[int] = None
                                     ) -> Iterable[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, block)`` views over the entity rows.

        Bounded-memory primitive behind blocked ranking and the serving
        engine's nearest-neighbour scan: ``block_rows`` defaults to an
        element-bounded size, and a partitioned table streams one bucket at
        a time.
        """
        if block_rows is None:
            block_rows = block_rows_for(self.embedding_dim, self.RANK_BLOCK_ELEMENTS)
        return self.entity_table().iter_blocks(int(block_rows))

    def entity_embedding_matrix(self) -> np.ndarray:
        """Dense snapshot; a partitioned table densifies every bucket."""
        return self.entity_table().to_matrix()

    def _closed_form_applies(self) -> bool:
        """Whether ranking is the closed form of the score the model trains on.

        True when the model declares a :attr:`ranking_geometry` and scores
        with :meth:`scores` as defined here.  False for models that weight or
        re-metric the residual in their own :meth:`scores` (TransM, TransA):
        ranking them by the bare residual would order candidates by a score
        they do not train on.
        """
        scores_impl = getattr(self.scores, "__func__", self.scores)
        return (self.ranking_geometry is not None
                and scores_impl is TranslationalModel.scores)

    def _l2_over_entities(self) -> bool:
        """Whether ranking is an L2 kNN of one query vector over the raw entity rows."""
        return (self._closed_form_applies()
                and self.ranking_geometry == "translation"
                and self.dissimilarity_name == "L2")

    # ------------------------------------------------------------------ #
    # Closed-form ranking
    # ------------------------------------------------------------------ #
    def score_all_tails(self, heads: np.ndarray, relations: np.ndarray,
                        chunk_size: int = 65536) -> np.ndarray:
        """Score every entity as a candidate tail: ``(B, n_entities)``.

        In closed form when it applies: ``dissimilarity(q − project_r(t'))``
        with ``q = project_r(h) + r``, through
        :func:`repro.ranking.l2_distance_matrix` at L2 and the model's own
        :attr:`dissimilarity` otherwise, over candidate blocks bounded by
        ``chunk_size`` entities and :attr:`RANK_BLOCK_ELEMENTS`.
        """
        heads, relations = self._query_ids(heads, relations)
        if not self._closed_form_applies():
            return self._score_all_generic(heads, relations, position="tail",
                                           chunk_size=chunk_size)
        return self._rank_blocked(heads, relations, "tail", chunk_size)

    def score_all_heads(self, relations: np.ndarray, tails: np.ndarray,
                        chunk_size: int = 65536) -> np.ndarray:
        """Score every entity as a candidate head: ``(B, n_entities)``.

        The closed form is ``dissimilarity(project_r(h') − q)`` with
        ``q = project_r(t) − r``, blocked like :meth:`score_all_tails`.
        """
        tails, relations = self._query_ids(tails, relations)
        if not self._closed_form_applies():
            return self._score_all_generic(relations, tails, position="head",
                                           chunk_size=chunk_size)
        return self._rank_blocked(tails, relations, "head", chunk_size)

    def _query_groups(self, anchors: np.ndarray, relations: np.ndarray,
                      direction: str) -> List[Tuple[object, Optional[int], np.ndarray]]:
        """``(rows, relation, queries)`` per group of a closed-form ranking call.

        One group (``rows`` is ``slice(None)``, ``relation`` ``None``) for
        the ``"translation"`` geometry, one per distinct relation for
        ``"projection"``, whose queries are already in that relation's space.
        """
        anchor_rows = self.entity_embedding_rows(anchors)
        translations = self.relation_translations(relations)
        if direction == "head":
            translations = -translations  # ``x + (−r)`` rounds exactly as ``x − r``
        if self.ranking_geometry == "translation":
            return [(slice(None), None, anchor_rows + translations)]
        groups = []
        for relation in np.unique(relations):
            rows = np.flatnonzero(relations == relation)
            groups.append((rows, relation, translations[rows]
                           + self.project_entities(anchor_rows[rows], relation)))
        return groups

    def _rank_blocked(self, anchors: np.ndarray, relations: np.ndarray,
                      direction: str, chunk_size: int) -> np.ndarray:
        """The one closed-form scoring loop behind both ``score_all_*``.

        Queries are grouped by relation (:meth:`_query_groups`); candidate
        blocks come from :meth:`iter_entity_embedding_blocks`, so the same
        loop serves dense tables (views) and partitioned tables (one bucket
        resident at a time), and each block is projected once per group.
        For heads the residual is ``candidate − query``, so asymmetric
        dissimilarities keep the orientation the model trains on.
        """
        groups = self._query_groups(anchors, relations, direction)
        l2 = self.dissimilarity_name == "L2"
        matrix = self.entity_table().as_array()
        if l2 and matrix is not None and self.ranking_geometry == "translation":
            # Dense table: one GEMM kernel call over the whole entity matrix
            # (the norm is symmetric, so heads need no special case).
            return ranking.l2_distance_matrix(groups[0][2], matrix)
        b, n = anchors.shape[0], self.n_entities
        width = max([self.embedding_dim] + [q.shape[1] for _, _, q in groups])
        # An L2 block materialises only ~block·k floats of candidate rows; a
        # diff block is B times that.  Both are bounded by elements, not rows,
        # so wide tables stay within the memory budget.
        budget = self.RANK_BLOCK_ELEMENTS // max(1, width if l2 else b * width)
        block_rows = max(1, min(int(chunk_size), int(budget)))
        out = np.empty((b, n), dtype=np.float64)
        with no_grad():
            for start, block in self.iter_entity_embedding_blocks(block_rows):
                cols = slice(start, start + block.shape[0])
                for rows, relation, queries in groups:
                    if relation is None:
                        cand = block
                    else:
                        cand = self.project_entities(block, relation)
                    if l2 and relation is None:
                        ranking.l2_distance_matrix(queries, cand, out=out[:, cols])
                    elif l2:
                        out[rows, cols] = ranking.l2_distance_matrix(queries, cand)
                    else:
                        out[rows, cols] = self._residual_keys(queries, cand, direction)
        return out

    def _residual_keys(self, queries: np.ndarray, cand: np.ndarray,
                       direction: str) -> np.ndarray:
        """``(nb, w)`` :attr:`dissimilarity` of every query–candidate residual."""
        diff = queries[:, None, :] - cand[None, :, :]
        if direction == "head":
            np.negative(diff, out=diff)
        return self.dissimilarity(diff).data

    # ------------------------------------------------------------------ #
    # Closed-form rank counting
    # ------------------------------------------------------------------ #
    def rank_targets(self, anchors: np.ndarray, relations: np.ndarray,
                     targets: np.ndarray, direction: str,
                     exclusions=None) -> np.ndarray:
        """Rank of each target among every entity, counted tile by tile.

        Walks the candidate blocks and relation groups of the closed form
        (:meth:`_walk_keys`) and counts each tile into a
        :class:`~repro.evaluation.ranks.RankCounter`; the ``(B, n_entities)``
        block is never built.  A tile holds each candidate's *key*: at L2
        the squared distance less the query's own ``‖q‖²``, ``‖c‖² − 2q·c``,
        one GEMM of the pre-scaled ``−2q`` plus the block's row norms (no
        ``sqrt``, no clamp); for any other dissimilarity exactly the values
        ``score_all_*`` returns.  A candidate ties the target only when their
        keys, as computed, are bitwise equal.

        The target's key is bracketed from its own row first (GEMM rounding
        depends on a column's place in the tile, so the row value may differ
        from the tile's in the last bits); the tile's value is read back when
        the walk reaches it.  A query with another candidate inside its
        bracket — a tie or a near-duplicate of the target — is re-walked
        alone with its keys kept, ``(n_unresolved, n_entities)``, and ranked
        from them by :func:`~repro.evaluation.compute_ranks`.
        """
        from repro.evaluation.ranks import RankCounter, compute_ranks

        anchors, relations = self._query_ids(anchors, relations)
        if not self._closed_form_applies():
            return super().rank_targets(anchors, relations, targets, direction,
                                        exclusions)
        if direction not in ("tail", "head"):
            raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        if targets.shape != anchors.shape:
            raise ValueError("targets must align with anchors and relations")
        if not targets.size:
            return np.empty(0, dtype=np.float64)
        groups = self._query_groups(anchors, relations, direction)
        lo, hi = self._target_key_brackets(groups, targets, direction)
        counter = RankCounter(self.n_entities, targets, exclusions, lo, hi)
        self._walk_keys(groups, direction, counter.count)
        ranks, unresolved = counter.ranks()
        if unresolved.any():
            rows = np.flatnonzero(unresolved)
            keys = np.empty((rows.size, self.n_entities), dtype=lo.dtype)

            def keep(tile, sub, start):
                keys[sub, start:start + tile.shape[1]] = tile

            self._walk_keys(self._query_groups(anchors[rows], relations[rows],
                                               direction), direction, keep)
            ranks[rows] = compute_ranks(keys, targets[rows], counter.exclusions(rows))
        return ranks

    def _target_key_brackets(self, groups, targets: np.ndarray,
                             direction: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` around each target's key, computed from its own row.

        The bracket is a rounding bound: ``4 (w + 2) ε Σ a(1 + a)`` with
        ``a = |q| + |c|`` over the residual's ``w`` components, which covers
        the sum of ``w`` products or terms (the dot and norm of the L2 key,
        the residual's sum otherwise) rounded in any order.  A projected
        target row may itself round differently from its block's projection;
        should its tile key then fall outside, the counter reports the query
        unresolved and it is re-walked like a tie.
        """
        target_rows = self.entity_embedding_rows(targets)
        lo = np.empty(targets.shape[0], dtype=np.float64)
        hi = np.empty_like(lo)
        for rows, relation, queries in groups:
            cand = target_rows[rows]
            if relation is not None:
                cand = self.project_entities(cand, relation)
            dtype = np.result_type(queries.dtype, cand.dtype)
            queries = queries.astype(dtype, copy=False)
            cand = cand.astype(dtype, copy=False)
            if self.dissimilarity_name == "L2":
                key = (np.einsum("ij,ij->i", cand, cand)
                       + np.einsum("ij,ij->i", -2.0 * queries, cand))
            else:
                diff = (queries - cand)[:, None, :]
                if direction == "head":
                    np.negative(diff, out=diff)
                key = self.dissimilarity(diff).data[:, 0]
            size = np.abs(queries) + np.abs(cand)
            slack = (4 * (queries.shape[1] + 2) * np.finfo(dtype).eps
                     * np.einsum("ij,ij->i", size, 1.0 + size))
            lo[rows], hi[rows] = key - slack, key + slack
        return lo, hi

    def _walk_keys(self, groups, direction: str,
                   sink: Callable[[np.ndarray, object, int], None]) -> None:
        """Every ranking key of ``groups``' queries, one tile at a time.

        ``sink(keys, rows, start)`` receives the ``(len(rows), w)`` keys of
        candidates ``start .. start + w − 1``.  At L2 a tile is at most
        :data:`repro.ranking.RANK_TILE_ELEMENTS` keys, written by one GEMM
        into one scratch buffer reused for the whole walk.
        """
        l2 = self.dissimilarity_name == "L2"
        b = sum(queries.shape[0] for _, _, queries in groups)
        width = max([self.embedding_dim] + [q.shape[1] for _, _, q in groups])
        if l2:
            groups = [(rows, relation, -2.0 * queries)
                      for rows, relation, queries in groups]
            block_rows = min(self.RANK_BLOCK_ELEMENTS // width,
                             ranking.RANK_TILE_ELEMENTS // b)
        else:
            block_rows = self.RANK_BLOCK_ELEMENTS // (b * width)
        block_rows = max(1, block_rows)
        scratch = np.empty(0)
        with no_grad():
            for start, block in self.iter_entity_embedding_blocks(block_rows):
                for rows, relation, queries in groups:
                    cand = block if relation is None else self.project_entities(
                        block, relation)
                    if not l2:
                        sink(self._residual_keys(queries, cand, direction), rows, start)
                        continue
                    dtype = np.result_type(queries.dtype, cand.dtype)
                    cand = cand.astype(dtype, copy=False)
                    if scratch.dtype != dtype or scratch.size < b * block_rows:
                        scratch = np.empty(b * block_rows, dtype=dtype)
                    keys = scratch[:queries.shape[0] * cand.shape[0]].reshape(
                        queries.shape[0], cand.shape[0])
                    np.matmul(queries.astype(dtype, copy=False), cand.T, out=keys)
                    keys += np.einsum("ij,ij->i", cand, cand)
                    sink(keys, rows, start)

    # ------------------------------------------------------------------ #
    # Exact rescoring (ANN and two-phase quantized serving)
    # ------------------------------------------------------------------ #
    def exact_entity_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        """Float64 entity rows regardless of serving quantization.

        Read through :meth:`~repro.nn.table.EmbeddingTable.exact_rows`, so a
        partitioned table faults no bucket for them.
        """
        return self.entity_table().exact_rows(
            np.asarray(entity_ids, dtype=np.int64).reshape(-1))

    def exact_candidate_scores(self, anchor: int, relation: int,
                               candidates: np.ndarray,
                               direction: str) -> Optional[np.ndarray]:
        """Full-precision scores for one query against a short candidate list.

        The rescoring half of two-phase quantized serving: the same L2 kernel
        the full-precision path runs, over just the candidates' exact float64
        rows.  ``direction`` is ``"tail"`` (``anchor`` is the head) or
        ``"head"``; ``None`` when ranking is not an L2 kNN over the entity
        rows, telling the caller to serve the coarse ranking as-is.
        """
        query = self.l2_query_vector(anchor, relation, direction)
        if query is None:
            return None
        candidates = np.asarray(candidates, dtype=np.int64).reshape(-1)
        return ranking.l2_distance_matrix(
            query[None, :], self.exact_entity_rows(candidates))[0]

    def l2_query_vector(self, anchor: int, relation: int,
                        direction: str) -> Optional[np.ndarray]:
        """Float64 L2 query (``h + r`` / ``t − r``) when ranking is an L2 kNN.

        Shared by :meth:`exact_candidate_scores` and the serving engine's
        ANN routing, so an IVF-rescored ranking and an exact rescored ranking
        score candidates from literally the same query vector.  ``None`` for
        other dissimilarities, projected geometries and overridden scores
        (the caller falls back to exact ranking).
        """
        if not self._l2_over_entities():
            return None
        anchors, relations = self._query_ids([anchor], [relation])
        anchor_row = self.exact_entity_rows(anchors)[0]
        rel_row = np.asarray(self.relation_translations(relations)[0],
                             dtype=np.float64)
        return anchor_row + rel_row if direction == "tail" else anchor_row - rel_row
