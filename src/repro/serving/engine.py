"""The inference engine: checkpoint → answered top-k / scoring queries.

The engine is the programmatic serving surface the HTTP server and the
``sptransx serve`` CLI sit on:

* loads a model through the spec-driven registry
  (:func:`repro.training.checkpoint.load_model`), so the served model is
  backend- and hyperparameter-faithful to what was trained;
* answers ``top_k_tails`` / ``top_k_heads`` through the model's table walk
  with a running top-k sink (:class:`repro.ranking.TopK`), ordered by
  ``(score, id)``: no ``(B, n_entities)`` score block and no full sort;
* supports the **filtered** protocol at serving time: known positives are
  excluded from the candidate set, so the answer is "new predictions only";
* coalesces batches of single queries into one walk of the entity table
  (``model.top_k``, the batcher's fast path),
  deduplicating repeated ``(h, r, filtered)`` queries within a batch;
* keeps an LRU cache keyed ``(direction, h, r, k, filtered)`` that is
  invalidated atomically on :meth:`reload`;
* releases what it holds open — the ANN index's list files, the table's
  bucket maps and the model's mapped weights — on :meth:`close` (or on
  leaving a ``with`` block).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import ranking
from repro.data.known import KnownTriples
from repro.evaluation.ranks import stack_exclusions
from repro.models.base import KGEModel, TranslationalModel
from repro.registry import ModelSpec, spec_from_model
from repro.serving.cache import LRUCache


@dataclass(frozen=True)
class TopKQuery:
    """One ranking request: anchor entity + relation, ``k``, filter flag.

    ``anchor`` is the head for tail queries and the tail for head queries.
    ``ann`` / ``nprobe`` are per-request overrides of the engine's ANN
    routing: ``ann=False`` forces exact ranking for this query, ``nprobe``
    widens or narrows the probe (both default to the engine configuration).
    """

    anchor: int
    relation: int
    k: int = 10
    filtered: bool = False
    ann: Optional[bool] = None
    nprobe: Optional[int] = None


@dataclass(frozen=True)
class TopKResult:
    """Ranked answer: candidate entity ids with their dissimilarities."""

    entities: Tuple[int, ...]
    scores: Tuple[float, ...]

    def to_dict(self) -> Dict[str, object]:
        return {"entities": list(self.entities), "scores": list(self.scores)}


def _result(ids: np.ndarray, scores: np.ndarray) -> TopKResult:
    return TopKResult(entities=tuple(ids.tolist()),
                      scores=tuple(float(score) for score in scores))


class InferenceEngine:
    """Serve link-prediction queries from a trained KGE model.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.KGEModel` (typically
        ``load_model(path)``; artifact directories use :meth:`from_artifact`).
    known_triples:
        Optional iterable of ``(h, r, t)`` positives backing the filtered
        protocol; without it, ``filtered=True`` queries behave like raw ones.
    cache_size:
        LRU entries kept (``0`` disables result caching).
    ann_index:
        An :class:`repro.ann.IVFIndex` (or compatible) built over the model's
        entity table.  When set, L2-rankable queries probe ``nprobe`` clusters
        and rescore only the gathered candidates exactly — sub-linear scans
        with exact final scores; models without an L2 closed form fall back to
        exact ranking (counted in ``stats()["fallback_queries"]``).
    nprobe:
        Engine-default probe width, at least 1 (``None`` uses the index
        manifest's auto-chosen default; per-query overrides win over both).
    """

    def __init__(self, model: KGEModel,
                 known_triples: Optional[Iterable[Tuple[int, int, int]]] = None,
                 cache_size: int = 4096, ann_index=None,
                 nprobe: Optional[int] = None) -> None:
        self.model = model
        self.cache = LRUCache(cache_size)
        if ann_index is not None and int(ann_index.n_entities) != int(model.n_entities):
            raise ValueError(
                f"ANN index covers {ann_index.n_entities} entities but the "
                f"model has {model.n_entities}; rebuild the index from this "
                "artifact's weight files"
            )
        if nprobe is not None and int(nprobe) < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.ann_index = ann_index
        self.ann_nprobe = int(nprobe) if nprobe is not None else None
        #: How from_artifact selected the index ("auto"/kind/None); reload()
        #: uses it to decide whether to re-attach an index from the new path.
        self._ann_mode = "auto" if ann_index is not None else None
        # numpy scoring is read-only on the weights, but the autograd
        # ``no_grad`` switch used by the generic scoring fallbacks is process
        # global — serialise scoring so concurrent HTTP threads cannot race
        # it.  Cache writes happen under the same lock: reload() and
        # set_known_triples() also take it before clearing, so a thread that
        # scored against the old model can never repopulate the cache after
        # an invalidation.
        self._score_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.queries_served = 0
        self.scoring_calls = 0
        self.rows_scored = 0
        self.reloads = 0
        self.ann_queries = 0
        self.fallback_queries = 0
        self.ann_candidates = 0
        self._known: Optional[KnownTriples] = None
        self._entity_snapshot: Optional[np.ndarray] = None
        if known_triples is not None:
            self.set_known_triples(known_triples)

    # ------------------------------------------------------------------ #
    # Construction / lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def from_artifact(cls, path: str, filtered: bool = False,
                      cache_size: int = 4096, ann="auto",
                      nprobe: Optional[int] = None) -> "InferenceEngine":
        """Warm-load an ``sptransx run`` artifact directory.

        The artifact is self-contained: the checkpoint restores the exact
        model and, with ``filtered=True``, the stored
        :class:`~repro.experiment.ExperimentSpec`'s data section is
        re-materialised so the run's own triples back the filtered protocol —
        no side-channel dataset arguments needed.

        The model comes from :func:`repro.training.checkpoint.load_model`, as
        on :meth:`reload`: its tables are the artifact's ``weights/`` files,
        mapped or faulted in on demand and never densified into RAM.

        ``ann`` selects ANN-indexed serving: ``"auto"`` (default) lazily
        loads ``<path>/index/`` when the artifact carries one and serves
        exact otherwise; a kind name (``"ivf"``) requires that index;
        ``False``/``"off"`` disables ANN routing.  ``nprobe`` overrides the
        index manifest's auto-chosen default probe width.
        """
        from repro.experiment import load_artifact

        artifact = load_artifact(path)
        known = (artifact.spec.data.materialize().known_triples()
                 if filtered else None)
        model = artifact.load_model()
        ann_index = cls._load_artifact_index(path, ann, model)
        engine = cls(model,
                     known_triples=known, cache_size=cache_size,
                     ann_index=ann_index, nprobe=nprobe)
        engine._ann_mode = None if ann in (None, False, "off") else ann
        return engine

    @staticmethod
    def _load_artifact_index(path: str, ann, model: KGEModel):
        """Resolve ``ann`` against ``<path>/index/``, over ``model``'s table (or None)."""
        if ann in (None, False, "off"):
            return None
        import os

        from repro.ann import ARTIFACT_INDEX, load_index

        index_dir = os.path.join(path, ARTIFACT_INDEX)
        if os.path.isdir(index_dir):
            index = load_index(index_dir, table=model.entity_table())
            if ann not in (True, "auto") and index.kind != str(ann):
                raise ValueError(
                    f"artifact carries a {index.kind!r} index but "
                    f"ann={ann!r} was requested"
                )
            return index
        if ann in (True, "auto"):
            return None
        raise FileNotFoundError(
            f"no ANN index under {index_dir}; export the artifact with "
            f"--ann {ann} (or build_index_files(<artifact>, kind={str(ann)!r}))"
        )

    def set_known_triples(self, triples: Iterable[Tuple[int, int, int]]) -> None:
        """Install the positive set backing filtered queries (replaces any prior).

        A :class:`~repro.data.KnownTriples` (``dataset.known_triples()``) is
        held as is; any other iterable of triples is indexed here.
        """
        known = KnownTriples.coerce(triples)
        with self._score_lock:
            self._known = known
            self.cache.clear()

    def reload(self, path: str) -> None:
        """Swap in a new checkpoint atomically and invalidate the result cache.

        The new model comes from the loader :meth:`from_artifact` uses, so it
        is served the same way: mapped weights.  Any attached ANN index is
        dropped with the cache (its clusters describe the *old* weights) and
        closed, which releases its list files; when this engine came from
        ``from_artifact`` with ANN enabled and ``path`` is an artifact
        directory carrying an ``index/``, the new artifact's index is
        re-attached in the same swap.
        """
        import os

        from repro.training.checkpoint import load_model

        model = load_model(path)
        new_index = (self._load_artifact_index(path, self._ann_mode, model)
                     if self._ann_mode is not None and os.path.isdir(path)
                     else None)
        with self._score_lock:
            dropped = self.ann_index
            self.model = model
            self.ann_index = new_index
            if dropped is not None:
                dropped.close()
            self.cache.clear()
            self._entity_snapshot = None
            with self._stats_lock:
                self.reloads += 1

    def close(self) -> None:
        """Release what the engine holds open; it answers nothing afterwards.

        Closes the attached ANN index (its list files) and the served entity
        table where it can be closed (a partitioned table's resident slabs
        and bucket maps), empties the result cache and drops the model, whose
        mapped weight files are unmapped with it when the engine was its last
        holder.  The engine owns the model it serves: the table is closed even
        when the model was passed in.  Calling it again does nothing.
        """
        with self._score_lock:
            if self.model is None:
                return
            if self.ann_index is not None:
                self.ann_index.close()
            if isinstance(self.model, TranslationalModel):
                close = getattr(self.model.entity_table(), "close", None)
                if close is not None:
                    close()
            self.model = self.ann_index = self._entity_snapshot = None
            self.cache.clear()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spec(self) -> ModelSpec:
        """Spec of the currently served model."""
        return spec_from_model(self.model)

    def entity_snapshot(self) -> np.ndarray:
        """Dense entity-embedding snapshot, computed once per loaded model.

        Extracting the matrix can itself be expensive (ComplEx concatenates
        real/imaginary halves), so :meth:`nearest_entities` reads this cached
        copy; :meth:`reload` drops it with the result cache.
        """
        with self._score_lock:
            return self._entity_snapshot_locked()

    def _entity_snapshot_locked(self) -> np.ndarray:
        if self._entity_snapshot is None:
            self._entity_snapshot = self.model.entity_embedding_matrix()
        return self._entity_snapshot

    def nearest_entities(self, entity: int, k: int = 10) -> TopKResult:
        """The ``k`` entities closest to ``entity`` in embedding space.

        Embedding-space similarity ("entities like this one") rather than a
        scoring-function ranking — the query itself is excluded from the
        answer.  With an ANN index the answer is an IVF search; otherwise a
        translational model's entity table is swept block by block, and any
        other model ranks its cached dense snapshot.  Results share the
        engine's LRU cache.
        """
        entity = int(entity)
        if not 0 <= entity < self.model.n_entities:
            raise IndexError(
                f"entity id {entity} out of range [0, {self.model.n_entities})"
            )
        key = ("nearest", entity, int(k))
        found, value = self.cache.get(key)
        if not found:
            with self._score_lock:
                # Single-flight: a concurrent identical query may have filled
                # the cache while this thread waited for the lock.
                found, value = self.cache.recheck(key)
                if not found:
                    value = _result(*self._nearest_locked(entity, int(k)))
                    self.cache.put(key, value)
        with self._stats_lock:
            self.queries_served += 1
        return value

    def _nearest_locked(self, entity: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, distances)`` of :meth:`nearest_entities`; caller holds the score lock."""
        if self.ann_index is not None:
            # IVF route: probe the clusters around the entity's own row and
            # rescore the candidates exactly — the distances of the blocked
            # sweep whenever the true top-k lies in probed clusters.
            query = self.ann_index.table.exact_rows(np.array([entity]))[0]
            scored = self.ann_index.counters["candidates_scored"]
            nearest = self.ann_index.search(query, k, self._effective_nprobe(None),
                                            exclude=entity)
            with self._stats_lock:
                self.ann_queries += 1
                self.ann_candidates += int(
                    self.ann_index.counters["candidates_scored"] - scored)
            return nearest
        # The table walk with a top-k sink: a translational model's entity
        # table block by block, never densified; any other model's cached
        # dense snapshot as one block.  A non-finite distance (an
        # overflowing row) is never a neighbour.
        if isinstance(self.model, TranslationalModel):
            query = self.model.entity_embedding_rows(np.array([entity]))
            blocks = self.model.iter_entity_embedding_blocks()
        else:
            ent = self._entity_snapshot_locked()
            query, blocks = ent[entity][None, :], [(0, ent)]
        nearest = ranking.TopK(1, k, (np.zeros(1, dtype=np.int64), np.array([entity])))
        ranking.walk_table(blocks, [(slice(None), None, None, query)], nearest,
                           distances=True)
        idx, distances = nearest.results()[0]
        finite = np.isfinite(distances)
        return idx[finite], distances[finite]

    # ------------------------------------------------------------------ #
    # Query API
    # ------------------------------------------------------------------ #
    def top_k_tails(self, head: int, relation: int, k: int = 10,
                    filtered: bool = False, ann: Optional[bool] = None,
                    nprobe: Optional[int] = None) -> TopKResult:
        """The ``k`` most plausible tails for ``(head, relation, ?)``."""
        return self.top_k_tails_batch(
            [TopKQuery(head, relation, k, filtered, ann, nprobe)])[0]

    def top_k_heads(self, relation: int, tail: int, k: int = 10,
                    filtered: bool = False, ann: Optional[bool] = None,
                    nprobe: Optional[int] = None) -> TopKResult:
        """The ``k`` most plausible heads for ``(?, relation, tail)``."""
        return self.top_k_heads_batch(
            [TopKQuery(tail, relation, k, filtered, ann, nprobe)])[0]

    def top_k_tails_batch(self, queries: Sequence[TopKQuery]) -> List[TopKResult]:
        """Answer many tail queries with (at most) one ``model.top_k`` walk."""
        return self._top_k_batch(queries, direction="tail")

    def top_k_heads_batch(self, queries: Sequence[TopKQuery]) -> List[TopKResult]:
        """Answer many head queries with (at most) one ``model.top_k`` walk."""
        return self._top_k_batch(queries, direction="head")

    def _top_k_batch(self, queries: Sequence[TopKQuery],
                     direction: str) -> List[TopKResult]:
        results: List[Optional[TopKResult]] = [None] * len(queries)
        miss_positions: List[int] = []
        for i, q in enumerate(queries):
            found, value = self.cache.get(self._cache_key(direction, q))
            if found:
                results[i] = value
            else:
                miss_positions.append(i)

        if miss_positions:
            # Result construction and cache.put stay inside the lock so an
            # interleaved reload()/set_known_triples() cannot be followed by
            # stale entries written from the pre-invalidation model.
            with self._score_lock:
                # Single-flight guard: concurrent misses on the same key
                # serialise on the score lock, so any key another thread
                # computed while we waited is already cached — serve those
                # riders now instead of stampeding the scoring path again.
                miss_positions = self._uncoalesced_misses_locked(
                    queries, direction, miss_positions, results)
                # Route each miss: ANN when an index is attached, the query
                # didn't opt out, and the model exposes an L2 query vector;
                # everything else joins the exact batched scoring call.
                # Candidate sets are shared per (anchor, relation, nprobe) —
                # the ANN twin of the exact path's pair deduplication.
                ann_sets: Dict[Tuple[int, int, int],
                               Optional[Tuple[np.ndarray, np.ndarray]]] = {}
                plans: Dict[int, Tuple[str, Tuple]] = {}
                # One walk row per (anchor, relation, filtered): the rows
                # share the walk, each with its own exclusions.
                exact_rows: Dict[Tuple[int, int, bool], int] = {}
                ann_fallbacks = 0
                for i in miss_positions:
                    q = queries[i]
                    if self.ann_index is not None and q.ann is not False:
                        nprobe = self._effective_nprobe(q.nprobe)
                        ann_key = (q.anchor, q.relation, nprobe)
                        if ann_key not in ann_sets:
                            ann_sets[ann_key] = self._ann_candidate_set(
                                q.anchor, q.relation, direction, nprobe)
                        if ann_sets[ann_key] is not None:
                            plans[i] = ("ann", ann_key)
                            continue
                        ann_fallbacks += 1
                    row = (q.anchor, q.relation, bool(q.filtered))
                    exact_rows.setdefault(row, i)
                    plans[i] = ("exact", row)
                ranked = {}
                if exact_rows:
                    firsts = [queries[i] for i in exact_rows.values()]
                    k = max(queries[i].k for i, (kind, _) in plans.items()
                            if kind == "exact")
                    ranked = dict(zip(exact_rows, self._exact_top_k_locked(
                        direction, firsts, k)))
                ann_answered = 0
                ann_scanned = 0
                for i in miss_positions:
                    q = queries[i]
                    kind, ref = plans[i]
                    if kind == "ann":
                        exclude = self._exclusions(direction, q) if q.filtered else None
                        candidates, dist = ann_sets[ref]  # type: ignore[misc]
                        result = self._ann_result(candidates, dist, q.k, exclude)
                        ann_answered += 1
                        ann_scanned += int(candidates.size)
                    else:
                        ids, scores = ranked[ref]
                        keep = max(0, q.k)
                        result = _result(ids[:keep], scores[:keep])
                    self.cache.put(self._cache_key(direction, q), result)
                    results[i] = result
                with self._stats_lock:
                    self.ann_queries += ann_answered
                    self.ann_candidates += ann_scanned
                    self.fallback_queries += ann_fallbacks

        with self._stats_lock:
            self.queries_served += len(queries)
        return results  # type: ignore[return-value]

    def score(self, head: int, relation: int, tail: int) -> float:
        """Dissimilarity of one triple (smaller = more plausible)."""
        return float(self.score_triples([(head, relation, tail)])[0])

    def score_triples(self, triples: Sequence[Tuple[int, int, int]]) -> np.ndarray:
        """Dissimilarities for a batch of triples."""
        arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        with self._score_lock:
            out = self.model.score_triples(arr)
        with self._stats_lock:
            self.queries_served += arr.shape[0]
        return out

    def classify(self, triples: Sequence[Tuple[int, int, int]],
                 threshold: float) -> List[bool]:
        """Binary triple classification: plausible iff dissimilarity ≤ threshold."""
        return [bool(v) for v in self.score_triples(triples) <= float(threshold)]

    # ------------------------------------------------------------------ #
    # Internals / introspection
    # ------------------------------------------------------------------ #
    def _effective_nprobe(self, nprobe: Optional[int]) -> Optional[int]:
        """Per-query nprobe > engine default > index manifest default."""
        if nprobe is not None:
            return int(nprobe)
        return self.ann_nprobe

    def _ann_candidate_set(self, anchor: int, relation: int, direction: str,
                           nprobe: Optional[int]
                           ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """IVF candidates + exact distances for one pair, or None (fallback).

        Caller holds ``_score_lock`` (index residency state mutates here).
        Returns ``None`` when the model has no L2 closed form for this query
        — the caller serves it through exact ranking instead.
        """
        query = self.model.l2_query_vector(anchor, relation, direction)
        if query is None:
            return None
        return self.ann_index.probe(query, nprobe)

    def _ann_result(self, candidates: np.ndarray, dist: np.ndarray, k: int,
                    exclude: Optional[np.ndarray]) -> TopKResult:
        """Final top-k over an ANN candidate set (exclusions masked first).

        ``candidates`` is sorted ascending, so excluded ids are located with
        ``searchsorted``; with a full probe the candidate set is every entity
        and this is the exact route's answer.
        """
        if exclude is not None and exclude.size and candidates.size:
            exclude = np.asarray(exclude, dtype=np.int64).reshape(-1)
            pos = np.searchsorted(candidates, exclude)
            inside = pos < candidates.size
            pos = pos[inside]
            hit = pos[candidates[pos] == exclude[inside]]
            if hit.size:
                dist = dist.copy()
                dist[hit] = np.inf
        sel = ranking.top_k(dist, k)
        sel = sel[np.isfinite(dist[sel])]
        return _result(candidates[sel], dist[sel])

    def _exact_top_k_locked(self, direction: str, rows: Sequence[TopKQuery],
                            k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Each row's ``k`` best ``(ids, scores)`` by one walk (caller holds
        the score lock); a filtered row's known positives never enter."""
        filters = [self._exclusions(direction, q) if q.filtered else None for q in rows]
        ranked = self.model.top_k(
            direction, [q.anchor for q in rows], [q.relation for q in rows], k,
            stack_exclusions([filters], len(rows), self.model.n_entities))
        with self._stats_lock:
            self.scoring_calls += 1
            self.rows_scored += len(rows)
        return ranked

    def _uncoalesced_misses_locked(self, queries: Sequence[TopKQuery],
                                   direction: str,
                                   miss_positions: List[int],
                                   results: List[Optional[TopKResult]]
                                   ) -> List[int]:
        """Second-chance cache pass over ``miss_positions`` (caller holds
        the score lock): positions whose key landed in the cache while we
        waited for the lock are filled from it, the rest still need scoring.
        """
        remaining: List[int] = []
        for i in miss_positions:
            found, value = self.cache.recheck(
                self._cache_key(direction, queries[i]))
            if found:
                results[i] = value
            else:
                remaining.append(i)
        return remaining

    def _cache_key(self, direction: str, q: TopKQuery) -> Tuple:
        return (direction, q.anchor, q.relation, q.k, q.filtered, q.ann,
                q.nprobe)

    def _exclusions(self, direction: str, q: TopKQuery) -> Optional[np.ndarray]:
        if self._known is None:
            return None
        return self._known.values(direction, q.anchor, q.relation)

    def stats(self) -> Dict[str, object]:
        """Counters for the ``/v1/stats`` endpoint and the benchmarks.

        ``probed_fraction`` is the mean fraction of the entity table scanned
        per ANN-answered query (1.0 would be an exact sweep);
        ``fallback_queries`` counts queries that wanted ANN but fell back to
        exact ranking because the model has no L2 closed form.
        """
        index = self.ann_index
        with self._stats_lock:
            probed = (self.ann_candidates
                      / (self.ann_queries * max(1, self.model.n_entities))
                      if self.ann_queries else 0.0)
            return {
                "queries_served": self.queries_served,
                "scoring_calls": self.scoring_calls,
                "rows_scored": self.rows_scored,
                "reloads": self.reloads,
                "ann_queries": self.ann_queries,
                "fallback_queries": self.fallback_queries,
                "probed_fraction": probed,
                "ann": (None if index is None else {
                    "kind": index.kind,
                    "nprobe": (self.ann_nprobe if self.ann_nprobe is not None
                               else index.nprobe_default),
                    **index.stats(),
                }),
                "cache": self.cache.stats(),
            }
