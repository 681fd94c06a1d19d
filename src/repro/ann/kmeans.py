"""Seeded Lloyd's k-means over embedding rows (pure numpy).

The IVF serving index clusters each entity bucket independently; this module
is the trainer.  Design constraints, in order:

* **Determinism** — a fixed ``seed`` must reproduce centroids and assignments
  bit for bit across runs (index builds are part of the artifact contract and
  CI diffs them).  Initialisation draws from ``np.random.default_rng(seed)``
  and every tie-break below is a stable sort.
* **Bounded memory** — assignment never materialises the full
  ``(rows, clusters)`` distance matrix; rows are processed in tiles bounded
  by :data:`ASSIGN_TILE_ELEMENTS`.
* **No empty clusters** — Lloyd's update can starve a centroid; starved
  clusters are re-seeded from the rows currently farthest from their own
  centroid (one donor per empty cluster, farthest first), so every cluster
  in the returned assignment owns at least one row whenever
  ``n_clusters <= rows``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.ranking import l2_distance_matrix

#: Elements per ``(block, n_clusters)`` distance tile of the assignment sweep
#: (~16 MB at float64).  Each tile is one tall-and-narrow call of the distance
#: kernel, which never splits a call narrower than it is tall, so the GEMM
#: shapes — and with them the centroids an index build writes — do not depend
#: on the kernel's own scratch budget.
ASSIGN_TILE_ELEMENTS = 1 << 21


def default_n_clusters(n_rows: int) -> int:
    """The ``sqrt(rows)`` heuristic used when a bucket's cluster count is unset."""
    return max(1, min(int(n_rows), int(round(math.sqrt(max(1, n_rows))))))


def assign_clusters(rows: np.ndarray, centroids: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment, tiled over rows.

    Returns ``(assign, dist)``: per-row cluster id (int32) and the distance
    to that centroid (the inputs' promoted floating dtype).  Tile size keeps
    each ``(block, n_clusters)`` distance tile within
    :data:`ASSIGN_TILE_ELEMENTS` elements.
    """
    n = rows.shape[0]
    c = centroids.shape[0]
    dist_dtype = np.result_type(rows.dtype, centroids.dtype)
    if not np.issubdtype(dist_dtype, np.floating):
        dist_dtype = np.dtype(np.float64)
    assign = np.empty(n, dtype=np.int32)
    dist = np.empty(n, dtype=dist_dtype)
    block = max(1, ASSIGN_TILE_ELEMENTS // max(1, c))
    for start in range(0, n, block):
        stop = min(n, start + block)
        tile = l2_distance_matrix(rows[start:stop], centroids)
        nearest = np.argmin(tile, axis=1)
        assign[start:stop] = nearest.astype(np.int32)
        dist[start:stop] = tile[np.arange(stop - start, dtype=np.int64), nearest]
    return assign, dist


def _reseed_empty_clusters(assign: np.ndarray, dist: np.ndarray,
                           n_clusters: int) -> None:
    """Give every starved cluster a donor row, in place.

    Donors are the rows farthest from their assigned centroid (stable order on
    ``-dist``), skipping rows whose departure would starve *their* cluster.
    Repeats until no cluster is empty; terminates because each round strictly
    reduces the empty count while ``n_clusters <= rows``.
    """
    for _ in range(n_clusters):
        counts = np.bincount(assign, minlength=n_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return
        order = np.argsort(-dist, kind="stable")
        taken = 0
        for row in order:
            if taken >= empty.size:
                break
            src = int(assign[row])
            if counts[src] <= 1:
                continue  # donating would starve the source cluster
            counts[src] -= 1
            assign[row] = np.int32(empty[taken])
            counts[empty[taken]] += 1
            dist[row] = 0.0  # freshly seeded: it *is* its centroid now
            taken += 1


def kmeans(rows: np.ndarray, n_clusters: int, n_iters: int = 10,
           seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means: ``(centroids, assign)`` for ``rows``.

    ``centroids`` has shape ``(n_clusters, d)`` in the rows' floating dtype;
    ``assign`` is the per-row cluster id (int32).  ``n_clusters`` is clamped
    to the row count (tiny buckets), and every returned cluster is non-empty.
    Iteration stops early once assignments stop changing.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise ValueError("cannot cluster an empty row set")
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if not np.issubdtype(rows.dtype, np.floating):
        rows = rows.astype(np.float64)
    n, d = rows.shape
    n_clusters = min(int(n_clusters), n)

    rng = np.random.default_rng(seed)
    centroids = rows[rng.permutation(n)[:n_clusters]].copy()

    assign = np.empty(0, dtype=np.int32)
    prev = None
    for _ in range(max(1, int(n_iters))):
        assign, dist = assign_clusters(rows, centroids)
        _reseed_empty_clusters(assign, dist, n_clusters)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
        # Per-cluster means via one stable sort + segmented reduction: cheaper
        # than n_clusters boolean masks and exact for the means (sums in
        # float64 regardless of the slab dtype).
        perm = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=n_clusters)
        starts = np.zeros(n_clusters, dtype=np.int64)
        starts[1:] = np.cumsum(counts[:-1])
        sums = np.add.reduceat(rows[perm].astype(np.float64, copy=False),
                               starts, axis=0)
        means = sums / counts[:, None].astype(np.float64)
        centroids = means.astype(rows.dtype, copy=False)
    return centroids, assign
