"""IVF (inverted-file) ANN index over partitioned entity tables.

The serving-latency ceiling after quantization is exact blocked L2 ranking:
O(N·d) per query over every bucket.  This module trades a bounded recall loss
for sub-linear scans, Helmsman-style: cluster each ``entities.bucket<k>.npy``
with seeded k-means at artifact-export time, store the centroids and the
cluster-sorted row permutation beside the weights, and at query time probe
only the ``nprobe`` globally-nearest clusters — then **rescore the gathered
candidates exactly from the fp64 originals** (``exact_rows`` + the shared
:func:`repro.ranking.top_k`), so final ranks are identical to exact search
whenever the true top-k lies inside the probed clusters.  With
``nprobe == n_clusters`` the candidate set is every entity in ascending id
order and the result is bit-identical to the exact path, ties included.

On-disk layout (``<artifact>/index/`` beside ``<artifact>/weights/``)::

    index.json                         # versioned manifest, like partition.json
    entities.bucket<k>.centroids.npy   # (clusters_k, d) float64
    entities.bucket<k>.assign.npy      # (rows_k,) int32 cluster id per local row

Centroids are small (≈ sqrt(rows) per bucket) and stay resident; the per-row
assignment blocks are faulted lazily and bounded by their own LRU, the same
discipline :class:`~repro.nn.partitioned.PartitionedEmbedding` applies to
bucket slabs.  The index never holds embedding rows itself — candidates are
rescored from the weight files (transient mmap) or from whatever
``exact_rows`` callable the serving engine supplies.

Thread safety: the index mutates LRU/counter state without internal locking;
the serving engine serialises access under its scoring lock, and standalone
use (builds, CI recall gates, benches) is single-threaded.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.ann.kmeans import default_n_clusters, kmeans
from repro.nn.partitioned import ARTIFACT_WEIGHTS, PARTITION_MANIFEST, bucket_filename
from repro.ranking import l2_distance_matrix, top_k

#: Manifest filename written next to the index files.
INDEX_MANIFEST = "index.json"

#: Current index manifest schema version (bumped on layout changes; loads of
#: any other version are rejected, mirroring ``partition.json``).
INDEX_MANIFEST_VERSION = 1

#: Artifact subdirectory holding the index files (sibling of ``weights/``).
ARTIFACT_INDEX = "index"

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


def centroids_filename(bucket: int) -> str:
    """On-disk name of bucket ``bucket``'s centroid table."""
    return f"entities.bucket{int(bucket)}.centroids.npy"


def assign_filename(bucket: int) -> str:
    """On-disk name of bucket ``bucket``'s per-row cluster assignment."""
    return f"entities.bucket{int(bucket)}.assign.npy"


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
               weights_dir: Optional[str] = None) -> "IVFIndex":
    """Load the index under ``index_dir``, dispatching on the manifest kind."""
    manifest = _read_index_manifest(index_dir)
    cls = get_index_class(str(manifest.get("kind", "ivf")))
    return cls(index_dir, manifest, max_resident=max_resident,
               weights_dir=weights_dir)


def build_index_files(directory: str, kind: str = "ivf", **kwargs) -> Dict[str, object]:
    """Build ANN index files for the artifact at ``directory``.

    ``directory`` must hold partitioned weight files under
    ``<directory>/weights/`` (what :func:`~repro.training.save_checkpoint`
    writes for a partitioned model); the index is written to
    ``<directory>/index/``.  Returns the written manifest.
    """
    return get_index_class(kind).build(directory, **kwargs)


@register_index("ivf")
class IVFIndex:
    """Per-bucket IVF index: resident centroids, LRU-paged assignment blocks.

    Parameters
    ----------
    index_dir:
        Directory holding ``index.json`` and the per-bucket index files.
    manifest:
        Parsed (and version-checked) ``index.json`` payload.
    max_resident:
        LRU bound on simultaneously resident per-bucket assignment blocks
        (``None`` keeps every faulted block resident — they are int64
        permutations, ~16 bytes/row total).
    weights_dir:
        Directory with the exact ``entities.bucket<k>.npy`` files used for
        rescoring and recall probes; defaults to the ``weights`` sibling of
        ``index_dir``.
    """

    kind = "ivf"

    def __init__(self, index_dir: str, manifest: Dict[str, object],
                 max_resident: Optional[int] = None,
                 weights_dir: Optional[str] = None) -> None:
        self.directory = str(index_dir)
        self.manifest = manifest
        self.n_entities = int(manifest["n_entities"])
        self.embedding_dim = int(manifest["embedding_dim"])
        self.metric = str(manifest.get("metric", "l2"))
        self.nprobe_default = int(manifest.get("nprobe", 1))
        buckets = list(manifest["buckets"])
        self.n_buckets = len(buckets)
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = max_resident
        if weights_dir is None:
            weights_dir = os.path.join(os.path.dirname(os.path.abspath(index_dir)),
                                       ARTIFACT_WEIGHTS)
        self.weights_dir = weights_dir

        # Per-bucket geometry: global row range and global cluster-id range.
        self._bucket_row_start = np.empty(self.n_buckets + 1, dtype=np.int64)
        self._bucket_cluster_start = np.empty(self.n_buckets + 1, dtype=np.int64)
        self._bucket_entries: List[Dict[str, object]] = buckets
        row_cursor = 0
        cluster_cursor = 0
        centroid_parts: List[np.ndarray] = []
        for k, entry in enumerate(buckets):
            if int(entry["start"]) != row_cursor:
                raise ValueError(
                    f"index manifest bucket {k} starts at {entry['start']}, "
                    f"expected contiguous start {row_cursor}"
                )
            self._bucket_row_start[k] = row_cursor
            self._bucket_cluster_start[k] = cluster_cursor
            row_cursor += int(entry["rows"])
            cluster_cursor += int(entry["clusters"])
            part = np.load(os.path.join(index_dir, str(entry["centroids"])))
            centroid_parts.append(np.asarray(part, dtype=np.float64))
        self._bucket_row_start[self.n_buckets] = row_cursor
        self._bucket_cluster_start[self.n_buckets] = cluster_cursor
        if row_cursor != self.n_entities:
            raise ValueError(
                f"index manifest covers {row_cursor} rows, expected "
                f"{self.n_entities} entities"
            )
        # Global centroid table: small (≈ sqrt(rows) per bucket), always
        # resident so the coarse probe is a single tiled distance sweep.
        self._centroids = (np.concatenate(centroid_parts, axis=0)
                           if centroid_parts
                           else np.empty((0, self.embedding_dim), dtype=np.float64))
        self.n_clusters = int(self._centroids.shape[0])
        # Global cluster id -> owning bucket, for candidate gathering.
        self._cluster_bucket = np.repeat(
            np.arange(self.n_buckets, dtype=np.int64),
            np.diff(self._bucket_cluster_start))

        # Cluster-sorted row permutations fault lazily, one bucket at a time,
        # bounded by their own LRU — the same residency discipline the bucket
        # slabs get in PartitionedEmbedding.
        self._blocks: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self.counters: Dict[str, float] = {
            "index_faults": 0, "index_evictions": 0, "index_bytes_loaded": 0,
        }

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, directory: str, n_clusters: Optional[int] = None,
              n_iters: int = 10, seed: int = 0, nprobe: Optional[int] = None,
              target_recall: float = 0.95, recall_sample: int = 32,
              recall_k: int = 10) -> Dict[str, object]:
        """Cluster every weight bucket and write ``<directory>/index/``.

        ``n_clusters`` defaults to ``sqrt(rows)`` per bucket.  When ``nprobe``
        is omitted, the default probe width is **auto-chosen for a target
        recall**: a deterministic sample of entity rows is queried through the
        fresh index and ``nprobe`` is doubled until measured recall@``recall_k``
        reaches ``target_recall`` (see :meth:`choose_nprobe`); the chosen value
        is recorded in the manifest as the serving default.
        """
        weights_dir = os.path.join(directory, ARTIFACT_WEIGHTS)
        partition_path = os.path.join(weights_dir, PARTITION_MANIFEST)
        if not os.path.exists(partition_path):
            raise ValueError(
                f"no {PARTITION_MANIFEST} under {weights_dir}; ANN indexes "
                "are built over partitioned weight artifacts (train with "
                "partitions > 1)"
            )
        with open(partition_path, "r", encoding="utf-8") as handle:
            partition = json.load(handle)
        index_dir = os.path.join(directory, ARTIFACT_INDEX)
        os.makedirs(index_dir, exist_ok=True)

        bucket_entries: List[Dict[str, object]] = []
        total_clusters = 0
        for k, entry in enumerate(partition["buckets"]):
            slab = np.load(os.path.join(weights_dir, str(entry["file"])))
            clusters = (default_n_clusters(slab.shape[0])
                        if n_clusters is None else int(n_clusters))
            # Per-bucket seed offset keeps bucket builds independent (and
            # reproducible) regardless of partition count.
            centroids, assign = kmeans(slab, clusters, n_iters=n_iters,
                                       seed=int(seed) + k)
            np.save(os.path.join(index_dir, centroids_filename(k)), centroids)
            np.save(os.path.join(index_dir, assign_filename(k)),
                    assign.astype(np.int32, copy=False))
            bucket_entries.append({
                "centroids": centroids_filename(k),
                "assign": assign_filename(k),
                "start": int(entry["start"]),
                "rows": int(entry["rows"]),
                "clusters": int(centroids.shape[0]),
            })
            total_clusters += int(centroids.shape[0])

        manifest: Dict[str, object] = {
            "version": INDEX_MANIFEST_VERSION,
            "kind": cls.kind,
            "metric": "l2",
            "n_entities": int(partition["n_entities"]),
            "embedding_dim": int(partition["embedding_dim"]),
            "partitions": int(partition["partitions"]),
            "total_clusters": total_clusters,
            "kmeans_iters": int(n_iters),
            "seed": int(seed),
            "nprobe": 1,
            "buckets": bucket_entries,
        }
        index = cls(index_dir, manifest, weights_dir=weights_dir)
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
    # Residency (assignment blocks page like buckets)
    # ------------------------------------------------------------------ #
    def _block(self, bucket: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fault bucket ``bucket``'s ``(perm, offsets)`` block (LRU-bounded).

        ``perm`` lists the bucket's local rows sorted by cluster id (stable,
        so within a cluster rows stay in ascending id order); ``offsets`` is
        the CSR-style boundary array — cluster ``c``'s rows are
        ``perm[offsets[c]:offsets[c + 1]]``.
        """
        if bucket in self._blocks:
            self._blocks.move_to_end(bucket)
            return self._blocks[bucket]
        if self.max_resident is not None:
            while len(self._blocks) >= self.max_resident:
                self._blocks.popitem(last=False)
                self.counters["index_evictions"] += 1
        entry = self._bucket_entries[bucket]
        assign = np.load(os.path.join(self.directory, str(entry["assign"])))
        clusters = int(entry["clusters"])
        perm = np.argsort(assign, kind="stable").astype(np.int64, copy=False)
        counts = np.bincount(assign, minlength=clusters)
        offsets = np.zeros(clusters + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)
        self._blocks[bucket] = (perm, offsets)
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

        The probe ranks every centroid globally (not per bucket), so dense
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
            bucket = int(self._cluster_bucket[cluster])
            local_cluster = int(cluster - self._bucket_cluster_start[bucket])
            perm, offsets = self._block(bucket)
            rows = perm[offsets[local_cluster]:offsets[local_cluster + 1]]
            parts.append(rows + self._bucket_row_start[bucket])
        if not parts:
            return np.empty(0, dtype=np.int64)
        candidates = np.concatenate(parts)
        candidates.sort(kind="stable")
        return candidates

    def search(self, query: np.ndarray, k: int, nprobe: Optional[int] = None,
               exclude: Optional[int] = None,
               exact_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` entities for ``query``: probe, gather, rescore exactly.

        Returns ``(indices, distances)`` ascending by distance.  ``exclude``
        drops one entity id (the query's own row for kNN); ``exact_rows``
        overrides the fp64 row source (the serving engine passes the model's
        ``exact_entity_rows`` so its read counters stay truthful).
        """
        candidates = self.candidate_ids(query, nprobe)
        if exclude is not None and candidates.size:
            pos = np.searchsorted(candidates, int(exclude))
            if pos < candidates.size and candidates[pos] == int(exclude):
                candidates = np.delete(candidates, pos)
        if candidates.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        rows = (exact_rows or self.exact_rows)(candidates)
        q = np.asarray(query, dtype=np.float64).reshape(1, -1)
        dist = l2_distance_matrix(q, rows)[0]
        keep = top_k(dist, k)
        return candidates[keep], dist[keep]

    # ------------------------------------------------------------------ #
    # Exact row access (fp64 originals, transient mmap — no residency)
    # ------------------------------------------------------------------ #
    def exact_rows(self, indices: np.ndarray) -> np.ndarray:
        """Gather fp64 rows from the weight files through a transient mmap."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_entities):
            raise IndexError("entity index out of range")
        out = np.empty((idx.size, self.embedding_dim), dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        sorted_ids = idx[order]
        bucket_of = np.searchsorted(self._bucket_row_start, sorted_ids,
                                    side="right") - 1
        boundaries = np.flatnonzero(
            np.concatenate((np.array([True]), bucket_of[1:] != bucket_of[:-1])))
        for i, start in enumerate(boundaries):
            stop = (boundaries[i + 1] if i + 1 < boundaries.size
                    else sorted_ids.size)
            bucket = int(bucket_of[start])
            lo = int(self._bucket_row_start[bucket])
            slab = np.load(os.path.join(self.weights_dir,
                                        bucket_filename(bucket)), mmap_mode="r")
            out[order[start:stop]] = slab[sorted_ids[start:stop] - lo]
            del slab  # drop the mmap (and its fd) as soon as rows are copied
        return out

    def _iter_exact_blocks(self, block_rows: int = 16384
                           ) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream ``(start, fp64 block)`` over the whole table via mmap."""
        for bucket in range(self.n_buckets):
            lo = int(self._bucket_row_start[bucket])
            hi = int(self._bucket_row_start[bucket + 1])
            slab = np.load(os.path.join(self.weights_dir,
                                        bucket_filename(bucket)), mmap_mode="r")
            for start in range(0, hi - lo, block_rows):
                stop = min(hi - lo, start + block_rows)
                yield lo + start, np.asarray(slab[start:stop], dtype=np.float64)
            del slab  # one bucket mmap live at a time, not n_buckets fds

    def _sample_queries(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic sample of entity rows used as recall-probe queries."""
        rng = np.random.default_rng(seed)
        take = max(1, min(int(n), self.n_entities))
        ids = np.sort(rng.choice(self.n_entities, size=take, replace=False))
        return self.exact_rows(ids)

    # ------------------------------------------------------------------ #
    # Recall measurement / probe auto-tuning
    # ------------------------------------------------------------------ #
    def _exact_topk(self, queries: np.ndarray, k: int) -> List[np.ndarray]:
        """Exact top-``k`` ids per query, ascending by distance.

        One pass over the table: each block is scored against every query in
        one :func:`l2_distance_matrix` call, and each query's running top-k
        is re-selected from its previous best plus the block.
        """
        queries = np.asarray(queries, dtype=np.float64)
        n_q = queries.shape[0]
        best_ids = np.empty((n_q, 0), dtype=np.int64)
        best_dist = np.empty((n_q, 0), dtype=np.float64)
        for start, block in self._iter_exact_blocks():
            block_ids = np.arange(start, start + block.shape[0], dtype=np.int64)
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
