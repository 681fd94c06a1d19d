"""IVF (inverted-file) ANN index: a layer over one entity table.

Exact blocked L2 ranking is O(N·d) per query.  This module trades a bounded
recall loss for sub-linear scans, Helmsman-style, over any
:class:`~repro.nn.table.EmbeddingTable`, however it is stored: each of the
table's :meth:`~repro.nn.table.EmbeddingTable.row_ranges` (one for a dense
table, one per bucket of a partitioned one) is clustered with seeded k-means
at artifact-export time, and a query probes only the ``nprobe``
globally-nearest clusters, then **rescores the candidates exactly** from the
table's float64 rows (:meth:`~repro.nn.table.EmbeddingTable.exact_rows`,
which faults no bucket) with the shared :func:`repro.ranking.top_k`.  Ranks
equal exact search whenever the true top-k lies in the probed clusters; with
``nprobe == n_clusters`` the candidates are every entity in ascending id
order and the result is bit-identical to the exact path, ties included.

On-disk layout (``<artifact>/index/`` beside ``<artifact>/weights/``)::

    index.json                         # versioned manifest; "buckets": ranges
    entities.bucket<k>.centroids.npy   # (clusters_k, d) float64, row range k
    entities.bucket<k>.assign.npy      # (rows_k,) int32 cluster id per local row

Centroids (≈ sqrt(rows) per range) stay resident; the assignment blocks are
faulted lazily under their own LRU.

Thread safety: the index mutates LRU/counter state without internal locking;
the serving engine serialises access under its scoring lock, and standalone
use (builds, CI recall gates, benches) is single-threaded.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.ann.kmeans import default_n_clusters, kmeans
from repro.nn.table import EmbeddingTable
from repro.ranking import l2_distance_matrix, top_k

#: Manifest filename written next to the index files.
INDEX_MANIFEST = "index.json"

#: Current index manifest schema version (bumped on layout changes; loads of
#: any other version are rejected).
INDEX_MANIFEST_VERSION = 1

#: Artifact subdirectory holding the index files (sibling of ``weights/``).
ARTIFACT_INDEX = "index"

#: Rows per table read of the exact top-k sweep behind recall measurements.
EXACT_BLOCK_ROWS = 16384

_INDEX_REGISTRY: Dict[str, Type["IVFIndex"]] = {}


def register_index(kind: str):
    """Class decorator registering an ANN index implementation under ``kind``.

    Every registered class must be named by a recall/parity test under
    ``tests/ann/`` — enforced statically by the ``ann-recall`` rule in
    :mod:`repro.analysis`.
    """
    def decorate(cls):
        cls.kind = kind
        _INDEX_REGISTRY[kind] = cls
        return cls
    return decorate


def index_kinds() -> Tuple[str, ...]:
    """Registered index kinds, sorted."""
    return tuple(sorted(_INDEX_REGISTRY))


def get_index_class(kind: str) -> Type["IVFIndex"]:
    try:
        return _INDEX_REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown ANN index kind {kind!r}; registered kinds: "
            f"{', '.join(index_kinds()) or '(none)'}"
        ) from None


def centroids_filename(part: int) -> str:
    """On-disk name of row range ``part``'s centroid table."""
    return f"entities.bucket{int(part)}.centroids.npy"


def assign_filename(part: int) -> str:
    """On-disk name of row range ``part``'s per-row cluster assignment."""
    return f"entities.bucket{int(part)}.assign.npy"


def artifact_table(directory: str) -> EmbeddingTable:
    """The entity table of the artifact at ``directory``, through ``load_model``."""
    from repro.models.base import TranslationalModel
    from repro.training.checkpoint import load_model

    model = load_model(directory)
    if not isinstance(model, TranslationalModel):
        raise ValueError(
            f"{type(model).__name__} has no entity table; ANN indexes are "
            "built over the entity rows of translational models"
        )
    return model.entity_table()


def _read_index_manifest(index_dir: str) -> Dict[str, object]:
    path = os.path.join(index_dir, INDEX_MANIFEST)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {INDEX_MANIFEST} in {index_dir}; not an ANN index directory")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = int(manifest.get("version", -1))
    if version != INDEX_MANIFEST_VERSION:
        raise ValueError(
            f"unsupported index manifest version {version} in {path}; this "
            f"build reads version {INDEX_MANIFEST_VERSION} — rebuild the "
            "index with build_index_files()"
        )
    return manifest


def load_index(index_dir: str, max_resident: Optional[int] = None,
               table: Optional[EmbeddingTable] = None) -> "IVFIndex":
    """Load the index under ``index_dir`` over ``table``, by manifest kind.

    ``table`` defaults to the entity table of the artifact holding ``index_dir``.
    """
    manifest = _read_index_manifest(index_dir)
    cls = get_index_class(str(manifest.get("kind", "ivf")))
    if table is None:
        table = artifact_table(os.path.dirname(os.path.abspath(index_dir)))
    return cls(index_dir, manifest, table, max_resident=max_resident)


def build_index_files(directory: str, kind: str = "ivf", **kwargs) -> Dict[str, object]:
    """Build ANN index files for the artifact at ``directory``.

    The index covers the artifact's entity table (:func:`artifact_table`),
    dense or partitioned, and is written to ``<directory>/index/``.  Returns
    the written manifest.
    """
    return get_index_class(kind).build(directory, **kwargs)


@register_index("ivf")
class IVFIndex:
    """IVF index over one entity table: resident centroids, LRU-paged assignments.

    Parameters
    ----------
    index_dir:
        Directory holding ``index.json`` and the per-range index files.
    manifest:
        Parsed (and version-checked) ``index.json`` payload.
    table:
        The :class:`~repro.nn.table.EmbeddingTable` the index was built over;
        candidates and recall probes read their float64 rows through its
        :meth:`~repro.nn.table.EmbeddingTable.exact_rows`.
    max_resident:
        LRU bound on simultaneously resident per-range assignment blocks
        (``None`` keeps every faulted block resident — they are int64
        permutations, ~16 bytes/row total).
    """

    kind = "ivf"

    def __init__(self, index_dir: str, manifest: Dict[str, object],
                 table: EmbeddingTable,
                 max_resident: Optional[int] = None) -> None:
        self.directory = str(index_dir)
        self.n_entities = int(manifest["n_entities"])
        self.embedding_dim = int(manifest["embedding_dim"])
        if (table.n_rows, table.embedding_dim) != (self.n_entities,
                                                   self.embedding_dim):
            raise ValueError(
                f"index covers {self.n_entities} entities of dimension "
                f"{self.embedding_dim} but the table holds {table.n_rows} "
                f"rows of dimension {table.embedding_dim}"
            )
        self.table = table
        self.nprobe_default = int(manifest.get("nprobe", 1))
        buckets = list(manifest["buckets"])
        self.n_buckets = len(buckets)
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = max_resident

        # Per-range geometry: global row range and global cluster-id range.
        self._range_start = np.empty(self.n_buckets + 1, dtype=np.int64)
        self._range_cluster_start = np.empty(self.n_buckets + 1, dtype=np.int64)
        self._range_entries: List[Dict[str, object]] = buckets
        row_cursor = 0
        cluster_cursor = 0
        centroid_parts: List[np.ndarray] = []
        for k, entry in enumerate(buckets):
            if int(entry["start"]) != row_cursor:
                raise ValueError(
                    f"index manifest range {k} starts at {entry['start']}, "
                    f"expected contiguous start {row_cursor}"
                )
            self._range_start[k] = row_cursor
            self._range_cluster_start[k] = cluster_cursor
            row_cursor += int(entry["rows"])
            cluster_cursor += int(entry["clusters"])
            part = np.load(os.path.join(index_dir, str(entry["centroids"])))
            centroid_parts.append(np.asarray(part, dtype=np.float64))
        self._range_start[self.n_buckets] = row_cursor
        self._range_cluster_start[self.n_buckets] = cluster_cursor
        if row_cursor != self.n_entities:
            raise ValueError(
                f"index manifest covers {row_cursor} rows, expected "
                f"{self.n_entities} entities"
            )
        # Global centroid table: small (≈ sqrt(rows) per range), always
        # resident so the coarse probe is a single tiled distance sweep.
        self._centroids = np.concatenate(centroid_parts, axis=0)
        self.n_clusters = int(self._centroids.shape[0])
        # Global cluster id -> owning range, for candidate gathering.
        self._cluster_range = np.repeat(
            np.arange(self.n_buckets, dtype=np.int64),
            np.diff(self._range_cluster_start))

        # Cluster-sorted row permutations fault lazily, one range at a time,
        # bounded by their own LRU.
        self._blocks: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self.counters: Dict[str, float] = {
            "index_faults": 0, "index_evictions": 0, "index_bytes_loaded": 0,
            "candidates_scored": 0,
        }

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, directory: str, n_clusters: Optional[int] = None,
              n_iters: int = 10, seed: int = 0, nprobe: Optional[int] = None,
              target_recall: float = 0.95, recall_sample: int = 32,
              recall_k: int = 10) -> Dict[str, object]:
        """Cluster every row range of the artifact's table; write ``<directory>/index/``.

        ``n_clusters`` defaults to ``sqrt(rows)`` per range, and range ``k``
        is clustered with seed ``seed + k``.  When ``nprobe`` is omitted, the
        default probe width is **auto-chosen for a target recall**: a
        deterministic sample of entity rows is queried through the fresh
        index and ``nprobe`` is doubled until measured recall@``recall_k``
        reaches ``target_recall`` (see :meth:`choose_nprobe`); the chosen
        value is recorded in the manifest as the serving default.
        """
        table = artifact_table(directory)
        index_dir = os.path.join(directory, ARTIFACT_INDEX)
        os.makedirs(index_dir, exist_ok=True)

        entries: List[Dict[str, object]] = []
        total_clusters = 0
        for k, (lo, hi) in enumerate(table.row_ranges()):
            rows = table.exact_rows(np.arange(lo, hi, dtype=np.int64))
            clusters = (default_n_clusters(hi - lo)
                        if n_clusters is None else int(n_clusters))
            # Per-range seed offset keeps range builds independent (and
            # reproducible) regardless of partition count.
            centroids, assign = kmeans(rows, clusters, n_iters=n_iters,
                                       seed=int(seed) + k)
            np.save(os.path.join(index_dir, centroids_filename(k)), centroids)
            np.save(os.path.join(index_dir, assign_filename(k)),
                    assign.astype(np.int32, copy=False))
            entries.append({
                "centroids": centroids_filename(k),
                "assign": assign_filename(k),
                "start": int(lo),
                "rows": int(hi - lo),
                "clusters": int(centroids.shape[0]),
            })
            total_clusters += int(centroids.shape[0])

        manifest: Dict[str, object] = {
            "version": INDEX_MANIFEST_VERSION,
            "kind": cls.kind,
            "metric": "l2",
            "n_entities": int(table.n_rows),
            "embedding_dim": int(table.embedding_dim),
            "partitions": int(table.n_partitions),
            "total_clusters": total_clusters,
            "kmeans_iters": int(n_iters),
            "seed": int(seed),
            "nprobe": 1,
            "buckets": entries,
        }
        index = cls(index_dir, manifest, table)
        if nprobe is None:
            queries = index._sample_queries(recall_sample, seed=int(seed))
            nprobe = index.choose_nprobe(queries, k=recall_k,
                                         target_recall=target_recall)
        manifest["nprobe"] = int(max(1, min(int(nprobe), max(1, total_clusters))))
        with open(os.path.join(index_dir, INDEX_MANIFEST), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return manifest

    # ------------------------------------------------------------------ #
    # Residency (assignment blocks page under their own LRU)
    # ------------------------------------------------------------------ #
    def _block(self, part: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fault range ``part``'s ``(perm, offsets)`` block (LRU-bounded).

        ``perm`` lists the range's local rows sorted by cluster id (stable,
        so within a cluster rows stay in ascending id order); ``offsets`` is
        the CSR-style boundary array — cluster ``c``'s rows are
        ``perm[offsets[c]:offsets[c + 1]]``.
        """
        if part in self._blocks:
            self._blocks.move_to_end(part)
            return self._blocks[part]
        if self.max_resident is not None:
            while len(self._blocks) >= self.max_resident:
                self._blocks.popitem(last=False)
                self.counters["index_evictions"] += 1
        entry = self._range_entries[part]
        assign = np.load(os.path.join(self.directory, str(entry["assign"])))
        clusters = int(entry["clusters"])
        perm = np.argsort(assign, kind="stable").astype(np.int64, copy=False)
        counts = np.bincount(assign, minlength=clusters)
        offsets = np.zeros(clusters + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)
        self._blocks[part] = (perm, offsets)
        self.counters["index_faults"] += 1
        self.counters["index_bytes_loaded"] += int(assign.nbytes)
        return perm, offsets

    # ------------------------------------------------------------------ #
    # Query path
    # ------------------------------------------------------------------ #
    def _clamp_nprobe(self, nprobe: Optional[int]) -> int:
        if nprobe is None:
            nprobe = self.nprobe_default
        return max(1, min(int(nprobe), max(1, self.n_clusters)))

    def candidate_ids(self, query: np.ndarray,
                      nprobe: Optional[int] = None) -> np.ndarray:
        """Global entity ids inside the ``nprobe`` nearest clusters, ascending.

        The probe ranks every centroid globally (not per range), so dense
        regions naturally draw more probes.  Clusters partition the rows, so
        the concatenated candidate lists are duplicate-free; sorting them
        ascending makes the full-probe candidate set literally
        ``arange(n_entities)`` — the bit-identical-to-exact guarantee.
        """
        nprobe = self._clamp_nprobe(nprobe)
        q = np.asarray(query, dtype=np.float64).reshape(1, -1)
        coarse = l2_distance_matrix(q, self._centroids)[0]
        probe = top_k(coarse, nprobe)
        parts: List[np.ndarray] = []
        for cluster in probe:
            part = int(self._cluster_range[cluster])
            local_cluster = int(cluster - self._range_cluster_start[part])
            perm, offsets = self._block(part)
            rows = perm[offsets[local_cluster]:offsets[local_cluster + 1]]
            parts.append(rows + self._range_start[part])
        candidates = np.concatenate(parts)
        candidates.sort(kind="stable")
        return candidates

    def probe(self, query: np.ndarray, nprobe: Optional[int] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates of ``query`` with their exact L2 distances.

        :meth:`candidate_ids` (ascending), rescored from the table's float64
        rows; ``(ids, distances)`` are aligned, not ranked.
        """
        candidates = self.candidate_ids(query, nprobe)
        q = np.asarray(query, dtype=np.float64).reshape(1, -1)
        dist = l2_distance_matrix(q, self.table.exact_rows(candidates))[0]
        self.counters["candidates_scored"] += int(candidates.size)
        return candidates, dist

    def search(self, query: np.ndarray, k: int, nprobe: Optional[int] = None,
               exclude: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` entities for ``query``: probe, gather, rescore exactly.

        Returns ``(indices, distances)`` ascending by distance.  ``exclude``
        drops one entity id (the query's own row for kNN).
        """
        candidates, dist = self.probe(query, nprobe)
        if exclude is not None and candidates.size:
            pos = np.searchsorted(candidates, int(exclude))
            if pos < candidates.size and candidates[pos] == int(exclude):
                candidates = np.delete(candidates, pos)
                dist = np.delete(dist, pos)
        keep = top_k(dist, k)
        return candidates[keep], dist[keep]

    def _sample_queries(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic sample of entity rows used as recall-probe queries."""
        rng = np.random.default_rng(seed)
        take = max(1, min(int(n), self.n_entities))
        ids = np.sort(rng.choice(self.n_entities, size=take, replace=False))
        return self.table.exact_rows(ids)

    # ------------------------------------------------------------------ #
    # Recall measurement / probe auto-tuning
    # ------------------------------------------------------------------ #
    def _exact_topk(self, queries: np.ndarray, k: int) -> List[np.ndarray]:
        """Exact top-``k`` ids per query, ascending by distance.

        One pass over the table, :data:`EXACT_BLOCK_ROWS` rows of one range
        at a time: each block is scored against every query in one
        :func:`l2_distance_matrix` call, and each query's running top-k is
        re-selected from its previous best plus the block.
        """
        queries = np.asarray(queries, dtype=np.float64)
        n_q = queries.shape[0]
        best_ids = np.empty((n_q, 0), dtype=np.int64)
        best_dist = np.empty((n_q, 0), dtype=np.float64)
        for part in range(self.n_buckets):
            lo = int(self._range_start[part])
            hi = int(self._range_start[part + 1])
            for start in range(lo, hi, EXACT_BLOCK_ROWS):
                block_ids = np.arange(start, min(hi, start + EXACT_BLOCK_ROWS),
                                      dtype=np.int64)
                block = self.table.exact_rows(block_ids)
                ids = np.concatenate(
                    (best_ids, np.broadcast_to(block_ids, (n_q, block_ids.size))),
                    axis=1)
                dist = np.concatenate(
                    (best_dist, l2_distance_matrix(queries, block)), axis=1)
                if dist.shape[1] > k:
                    keep = np.argpartition(dist, k - 1, axis=1)[:, :k]
                    ids = np.take_along_axis(ids, keep, axis=1)
                    dist = np.take_along_axis(dist, keep, axis=1)
                best_ids, best_dist = ids, dist
        order = np.lexsort((best_ids, best_dist), axis=1)
        return list(np.take_along_axis(best_ids, order, axis=1))

    def recall_probe(self, queries: np.ndarray, k: int = 10,
                     nprobe: Optional[int] = None) -> float:
        """Measured recall@``k`` of IVF search against exact search.

        ``queries`` is a ``(Q, d)`` sample (e.g. held-out or entity rows);
        recall is the mean fraction of each query's exact top-``k`` recovered
        by :meth:`search` at ``nprobe``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        truth = self._exact_topk(queries, k)
        return self._recall_against(queries, truth, k, self._clamp_nprobe(nprobe))

    def _recall_against(self, queries: np.ndarray, truth: List[np.ndarray],
                        k: int, nprobe: int) -> float:
        hits = 0.0
        for q, exact_ids in zip(queries, truth):
            if exact_ids.size == 0:
                hits += 1.0
                continue
            got, _ = self.search(q, k, nprobe=nprobe)
            hits += (np.intersect1d(got, exact_ids).size
                     / float(exact_ids.size))
        return hits / max(1, queries.shape[0])

    def choose_nprobe(self, queries: np.ndarray, k: int = 10,
                      target_recall: float = 0.95) -> int:
        """Smallest power-of-two ``nprobe`` meeting ``target_recall`` on ``queries``.

        Ground truth is computed once; ``nprobe`` doubles from 1 until the
        measured recall@``k`` reaches the target (worst case: every cluster,
        where search degenerates to exact and recall is 1.0 by construction).
        """
        queries = np.asarray(queries, dtype=np.float64)
        truth = self._exact_topk(queries, k)
        nprobe = 1
        while nprobe < max(1, self.n_clusters):
            if self._recall_against(queries, truth, k, nprobe) >= target_recall:
                return nprobe
            nprobe *= 2
        return max(1, self.n_clusters)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Fault/eviction counters plus geometry, for ``engine.stats()``."""
        out: Dict[str, object] = dict(self.counters)
        out["kind"] = self.kind
        out["n_clusters"] = self.n_clusters
        out["n_buckets"] = self.n_buckets
        out["nprobe_default"] = self.nprobe_default
        out["resident_blocks"] = len(self._blocks)
        out["max_resident"] = self.max_resident
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IVFIndex(entities={self.n_entities}, dim={self.embedding_dim}, "
                f"buckets={self.n_buckets}, clusters={self.n_clusters}, "
                f"nprobe={self.nprobe_default})")
