"""Shared interface for every knowledge-graph embedding model.

The convention throughout the library: :meth:`KGEModel.scores` returns a
**dissimilarity** per triplet — smaller means more plausible.  Translational
models return a distance directly; bilinear models (DistMult, ComplEx) return
the negated plausibility so the same margin-ranking loss and the same ranking
code work unchanged across families.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import ranking
from repro.autograd.tensor import Tensor, no_grad
from repro.data.batching import TripletBatch
from repro.losses.margin import MarginRankingLoss
from repro.nn.module import Module
from repro.nn.partitioned import partitioned_tables
from repro.nn.table import EmbeddingTable, block_rows_for
from repro.utils.validation import check_triples

#: Default ``chunk_size``: triples per :meth:`KGEModel.score_triples` chunk,
#: and the most rows of one served block (``score_all_*`` and ``top_k``).
CHUNK_SIZE = 65536


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

    def score_triples(self, triples: np.ndarray, chunk_size: int = CHUNK_SIZE) -> np.ndarray:
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
                        chunk_size: int = CHUNK_SIZE) -> np.ndarray:
        """Score every entity as a candidate tail: ``(B, n_entities)``.

        The generic implementation expands to ``B * n_entities`` triples and
        scores them in chunks (:func:`repro.ranking.candidate_expansion_scores`);
        :class:`TranslationalModel` ranks in closed form where the model's
        geometry allows it.
        """
        heads, relations = self._query_ids(heads, relations)
        keep = ranking.KeepKeys(heads.shape[0], self.n_entities)
        self._rank_into(heads, relations, "tail", keep, chunk_size)
        return keep.keys

    def score_all_heads(self, relations: np.ndarray, tails: np.ndarray,
                        chunk_size: int = CHUNK_SIZE) -> np.ndarray:
        """Score every entity as a candidate head: ``(B, n_entities)``."""
        tails, relations = self._query_ids(tails, relations)
        keep = ranking.KeepKeys(tails.shape[0], self.n_entities)
        self._rank_into(tails, relations, "head", keep, chunk_size)
        return keep.keys

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

    def rank_triples(self, heads: np.ndarray, relations: np.ndarray,
                     tails: np.ndarray, tail_exclusions=None,
                     head_exclusions=None) -> Tuple[np.ndarray, np.ndarray]:
        """``(tail_ranks, head_ranks)`` of triples among every entity.

        Each is ``(B,)`` float64, 1-based: the tail's rank among the
        candidates of ``(h, r, ?)`` and the head's among those of ``(?, r,
        t)``.  ``tail_exclusions``/``head_exclusions`` are the filtered
        protocol's other known answers per direction, in any form
        :func:`~repro.evaluation.compute_ranks` takes.  This generic version
        scores every candidate with ``score_all_*`` and counts with
        ``compute_ranks``; :class:`TranslationalModel` counts both directions
        in closed form, in one walk of the entity table, without a
        ``(B, n_entities)`` block.
        """
        from repro.evaluation.ranks import compute_ranks

        return (compute_ranks(self.score_all_tails(heads, relations), tails,
                              tail_exclusions),
                compute_ranks(self.score_all_heads(relations, tails), heads,
                              head_exclusions))

    def top_k(self, direction: str, anchors: np.ndarray, relations: np.ndarray,
              k: int = 10, exclusions=None) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(ids, scores)`` of each query's ``k`` best ``direction``
        (``"tail"``/``"head"``) candidates; ``anchors`` are the other end.

        The ``score_all_*`` scores, by ``(score, id)``, kept by a
        :class:`~repro.ranking.TopK` sink that flat ``(rows, cols)``
        ``exclusions`` never enter: a walk never builds the ``(B, N)`` block.
        """
        anchors, relations = self._query_ids(anchors, relations)
        sink = ranking.TopK(anchors.shape[0], k, exclusions)
        self._rank_into(anchors, relations, direction, sink, CHUNK_SIZE)
        return sink.results()

    def _rank_into(self, anchors: np.ndarray, relations: np.ndarray,
                   direction: str, sink, chunk_size: int) -> None:
        """Feed ``sink`` every candidate's score: here the expanded
        candidate grid's ``(B, N)`` scores, as one tile."""
        first, second = ((anchors, relations) if direction == "tail"
                         else (relations, anchors))
        sink(ranking.candidate_expansion_scores(
            first, second, position=direction, n_entities=self.n_entities,
            score_triples=self.score_triples, chunk_size=chunk_size), slice(None), 0)

    def predict_tails(self, head: int, relation: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible tail entities for ``(head, relation, ?)``."""
        return self.top_k("tail", [head], [relation], k)[0][0]

    def predict_heads(self, relation: int, tail: int, k: int = 10) -> np.ndarray:
        """Return the ``k`` most plausible head entities for ``(?, relation, tail)``."""
        return self.top_k("head", [tail], [relation], k)[0][0]

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
    def _query_groups(self, anchor_rows: np.ndarray, relations: np.ndarray,
                      n_tail: int) -> List[Tuple[object, Optional[int], Optional[str],
                                                 np.ndarray]]:
        """``(rows, relation, direction, queries)`` per group of a ranking call.

        The queries are built from the anchors' entity rows; queries
        ``0 .. n_tail − 1`` rank tails, the rest heads.  One group
        (``relation`` ``None``) for the ``"translation"`` geometry, one per
        distinct relation for ``"projection"``, its queries already in that
        relation's space; split by direction unless at L2, whose norm is
        symmetric (``direction`` ``None``).  ``rows`` is ``slice(None)`` when
        a group holds every query.
        """
        b = anchor_rows.shape[0]
        translations = self.relation_translations(relations)
        # ``x + (−r)`` rounds exactly as ``x − r``.
        translations = np.concatenate([translations[:n_tail], -translations[n_tail:]])
        is_tail = np.arange(b, dtype=np.int64) < n_tail
        sides = [None] if self.dissimilarity_name == "L2" else ["tail", "head"]
        groups = []
        for relation in (np.unique(relations)
                         if self.ranking_geometry == "projection" else [None]):
            for side in sides:
                mask = np.ones(b, bool) if relation is None else relations == relation
                if side is not None:
                    mask &= is_tail == (side == "tail")
                rows = np.flatnonzero(mask)
                if not rows.size:
                    continue
                queries = anchor_rows[rows]
                if relation is not None:
                    queries = self.project_entities(queries, relation)
                groups.append((slice(None) if rows.size == b else rows, relation,
                               side, translations[rows] + queries))
        return groups

    def _rank_into(self, anchors: np.ndarray, relations: np.ndarray,
                   direction: str, sink, chunk_size: int) -> None:
        """The closed form's served walk into ``sink``: tails score
        ``dissimilarity(q − project_r(t'))`` with ``q = project_r(h) + r``,
        heads ``dissimilarity(project_r(h') − q)`` with ``q = project_r(t) − r``."""
        if not self._closed_form_applies():
            return super()._rank_into(anchors, relations, direction, sink, chunk_size)
        groups = self._query_groups(self.entity_embedding_rows(anchors), relations,
                                    anchors.shape[0] if direction == "tail" else 0)
        self._walk_keys(groups, sink, distances=True, chunk_size=chunk_size)

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
    def rank_triples(self, heads: np.ndarray, relations: np.ndarray,
                     tails: np.ndarray, tail_exclusions=None,
                     head_exclusions=None) -> Tuple[np.ndarray, np.ndarray]:
        """``(tail_ranks, head_ranks)``, both counted in one walk of the table.

        The chunk's ``B`` tail queries ``h + r`` and ``B`` head queries
        ``t − r`` are stacked into ``2B`` queries (head rows after tail rows,
        exclusions offset to match), and one walk of the candidate blocks and
        relation groups of the closed form (:meth:`_walk_keys`) counts every
        tile into one :class:`~repro.evaluation.ranks.RankCounter`; the
        ``(B, n_entities)`` block is never built.  Each candidate block is
        read once per call (the walk faults each bucket of a partitioned
        table once, and the chunk's own rows are read once), squared once,
        and at L2 meets all ``2B`` queries in one GEMM per tile; a
        ``"projection"`` block is projected once per relation for both
        directions.

        A candidate's *key* is, at L2, the squared distance less the query's
        own ``‖q‖²``, ``‖c‖² − 2q·c`` at fp64: one GEMM of the pre-scaled
        ``−2q`` plus the block's row norms (no ``sqrt``, no clamp); for any
        other dissimilarity exactly the values ``score_all_*`` returns.  A
        candidate ties the target only when their keys, as computed, are
        bitwise equal.

        The target's key is bracketed from its own row first (GEMM rounding
        depends on a column's place in the tile, so the row value may differ
        from the tile's in the last bits).  At L2 the walk then counts fp32
        keys, each certified to lie within a rigorous per-block bound of its
        fp64 key: a candidate is below or above the bracket for certain, or
        it is one of the few in the band between, which are settled from
        their fp64 keys and the GEMM's rounding margin from the block in
        hand; the target's own fp64 key must lie inside its bracket for
        certain.  Any other dissimilarity counts its fp64 keys directly and
        reads the target's back.  The queries of either direction that no
        count decides — a tie or a near-duplicate of the target inside its
        bracket, a band candidate no margin decides, a non-finite or
        fp32-overflowing operand — are re-walked together, once, at fp64 with
        their keys kept, ``(n_unresolved, n_entities)``, and ranked from them
        by :func:`~repro.evaluation.compute_ranks`.  Every rank is therefore
        the rank of the fp64 keys, whichever pass decided it.
        """
        from repro.evaluation.ranks import RankCounter, compute_ranks, stack_exclusions

        if not self._closed_form_applies():
            return super().rank_triples(heads, relations, tails, tail_exclusions,
                                        head_exclusions)
        heads, relations = self._query_ids(heads, relations)
        tails, _ = self._query_ids(tails, relations)
        b = heads.shape[0]
        if not b:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        # Every id is read once: the targets are the anchors, halves swapped.
        anchor_rows = self.entity_embedding_rows(np.concatenate([heads, tails]))
        targets = np.concatenate([tails, heads])
        relations = np.concatenate([relations, relations])
        groups = self._query_groups(anchor_rows, relations, b)
        lo, hi = self._target_key_brackets(groups, np.roll(anchor_rows, b, axis=0))
        exclusions = stack_exclusions((tail_exclusions, head_exclusions), b,
                                      self.n_entities)
        counter = RankCounter(self.n_entities, targets, exclusions, lo, hi)
        self._walk_keys(groups, counter)
        ranks, unresolved = counter.ranks()
        if unresolved.any():
            rows = np.flatnonzero(unresolved)
            keep = ranking.KeepKeys(rows.size, self.n_entities, dtype=lo.dtype)
            self._walk_keys(self._query_groups(anchor_rows[rows], relations[rows],
                                               np.searchsorted(rows, b)), keep)
            ranks[rows] = compute_ranks(keep.keys, targets[rows],
                                        counter.exclusions(rows))
        return ranks[:b], ranks[b:]

    def _target_key_brackets(self, groups, target_rows: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` around each target's key, computed from its own row.

        The bracket is a rounding bound: ``4 (w + 2) ε Σ a(1 + a)`` with
        ``a = |q| + |c|`` over the residual's ``w`` components, which covers
        the sum of ``w`` products or terms (the dot and norm of the L2 key,
        the residual's sum otherwise) rounded in any order.  A projected
        target row may itself round differently from its block's projection;
        should its tile key then fall outside, the counter reports the query
        unresolved and it is re-walked like a tie.
        """
        lo = np.empty(target_rows.shape[0], dtype=np.float64)
        hi = np.empty_like(lo)
        for rows, relation, direction, queries in groups:
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

    def _walk_keys(self, groups, sink, distances: bool = False,
                   chunk_size: Optional[int] = None) -> None:
        """:func:`repro.ranking.walk_table` over this model's blocks.

        Evaluation's walk is on squared keys, one GEMM tile per block; a
        served one (``distances``) on distance tiles, in blocks of at most
        ``chunk_size`` rows, but a dense table at L2 without projection is
        one block: the tiles of one ``l2_distance_matrix`` call.
        """
        b = sum(queries.shape[0] for *_, queries in groups)
        width = max([self.embedding_dim] + [q.shape[1] for *_, q in groups])
        l2 = self.dissimilarity_name == "L2"
        block_rows = self.RANK_BLOCK_ELEMENTS // max(1, width if l2 else b * width)
        if distances:
            whole = (l2 and self.ranking_geometry == "translation"
                     and self.entity_table().as_array() is not None)
            block_rows = self.n_entities if whole else min(block_rows, int(chunk_size))
        elif l2:
            block_rows = min(block_rows, ranking.RANK_TILE_ELEMENTS // max(1, b))
        with no_grad():
            ranking.walk_table(
                self.iter_entity_embedding_blocks(max(1, block_rows)), groups, sink,
                project=self.project_entities,
                residual=None if l2 else self._residual_keys,
                distances=distances)

    # ------------------------------------------------------------------ #
    # Exact rows (the ANN anchor row)
    # ------------------------------------------------------------------ #
    def exact_entity_rows(self, entity_ids: np.ndarray) -> np.ndarray:
        """Float64 entity rows, read without touching the table's residency.

        Read through :meth:`~repro.nn.table.EmbeddingTable.exact_rows`, so a
        partitioned table faults no bucket for them.
        """
        return self.entity_table().exact_rows(
            np.asarray(entity_ids, dtype=np.int64).reshape(-1))

    def l2_query_vector(self, anchor: int, relation: int,
                        direction: str) -> Optional[np.ndarray]:
        """Float64 L2 query (``h + r`` / ``t − r``) when ranking is an L2 kNN.

        The serving engine's ANN routing probes the IVF index with it.
        ``direction`` is ``"tail"`` (``anchor`` is the head) or ``"head"``.
        ``None`` for other dissimilarities, projected geometries and
        overridden scores (the caller falls back to exact ranking).
        """
        if not self._l2_over_entities():
            return None
        anchors, relations = self._query_ids([anchor], [relation])
        anchor_row = self.exact_entity_rows(anchors)[0]
        rel_row = np.asarray(self.relation_translations(relations)[0],
                             dtype=np.float64)
        return anchor_row + rel_row if direction == "tail" else anchor_row - rel_row
