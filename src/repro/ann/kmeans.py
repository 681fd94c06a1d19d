"""Seeded Lloyd's k-means over embedding rows (pure numpy).

The IVF serving index clusters each entity bucket independently; this module
is the trainer.  Design constraints, in order:

* **Determinism** — a fixed ``seed`` reproduces centroids and assignments bit
  for bit across runs of the same build (index builds are part of the
  artifact contract and a test diffs two of them).  That is determinism per
  seed, not bit-equality with the builds of earlier versions of this module.
  Initialisation and the Lloyd's sample draw from
  ``np.random.default_rng(seed)`` and every tie-break below is a stable sort.
* **Cost at the GEMM** — the assignment sweep is one GEMM per row tile into
  one reused scratch buffer, then an ``argmin``; the mean step is one SpMM
  with the transposed one-hot assignment matrix (the scatter-add of rows into
  clusters, which is the sparse formulation's own case).  Lloyd's iterations
  run on fresh seeded samples of the rows; one full-bucket pass finishes.
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

from repro.ranking import squared_norms
from repro.sparse.backends import DEFAULT_BACKEND, get_backend
from repro.sparse.csr import CSRMatrix

#: Elements of the one ``(block, n_clusters)`` scratch tile of the assignment
#: sweep (1 MB at float64).  Each row tile is one GEMM into it, then the
#: ``‖c‖²`` add and the ``argmin`` read it back while it is cache-resident.
#: Measured at the benchmark shape (25 000 × 64 rows, 158 centroids, one BLAS
#: thread, 2-vCPU x86-64): ``1 << 17`` beat ``1 << 21`` by ~10 %, with the
#: same bits.
ASSIGN_TILE_ELEMENTS = 1 << 17


def default_n_clusters(n_rows: int) -> int:
    """The ``sqrt(rows)`` heuristic used when a bucket's cluster count is unset."""
    return max(1, min(int(n_rows), int(round(math.sqrt(max(1, n_rows))))))


def _distance_dtype(rows: np.ndarray, centroids: np.ndarray) -> np.dtype:
    dtype = np.result_type(rows.dtype, centroids.dtype)
    return dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float64)


def _assign(rows: np.ndarray, rows_sq: np.ndarray, centroids: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment, tiled over rows, given ``rows_sq = ‖x‖²``.

    Returns ``(assign, dist)``: per-row cluster id (int32) and the textbook
    distance ``sqrt(max(‖x − c‖², 0) + 1e-12)`` to that centroid (the inputs'
    promoted floating dtype).  Beyond its ``(n,)`` outputs the call holds one
    ``(block, n_clusters)`` scratch tile of at most
    :data:`ASSIGN_TILE_ELEMENTS` elements.

    ``‖x − c‖² = ‖x‖² + (‖c‖² − 2 x·c)``, and ``‖x‖²`` is constant per row,
    so the ``argmin`` needs only the bracket: per row tile one GEMM
    ``x @ (−2C)ᵀ`` (scaling by −2 is exact) into the scratch tile, plus
    ``‖c‖²``.  The clamp, ``+1e-12`` and ``sqrt`` of the textbook distance run
    on the ``n`` chosen entries only.
    """
    n = rows.shape[0]
    c = centroids.shape[0]
    dtype = _distance_dtype(rows, centroids)
    neg2c_t = (centroids.astype(dtype, copy=False) * dtype.type(-2.0)).T
    c_sq = squared_norms(centroids, dtype)
    assign = np.empty(n, dtype=np.int32)
    best = np.empty(n, dtype=dtype)
    block = max(1, min(n, ASSIGN_TILE_ELEMENTS // max(1, c)))
    scratch = np.empty((block, c), dtype=dtype)
    for start in range(0, n, block):
        stop = min(n, start + block)
        tile = scratch[:stop - start]
        np.matmul(rows[start:stop].astype(dtype, copy=False), neg2c_t, out=tile)
        np.add(tile, c_sq, out=tile)
        nearest = np.argmin(tile, axis=1)
        assign[start:stop] = nearest
        best[start:stop] = tile[np.arange(stop - start, dtype=np.int64), nearest]
    np.add(best, rows_sq, out=best)
    np.maximum(best, 0.0, out=best)
    np.add(best, 1e-12, out=best)
    np.sqrt(best, out=best)
    return assign, best


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


def _cluster_means(rows: np.ndarray, assign: np.ndarray,
                   n_clusters: int) -> np.ndarray:
    """Per-cluster means as one SpMM: ``Aᵀ @ rows`` over the one-hot assignment.

    ``Aᵀ`` is ``(n_clusters, rows)`` in CSR form: row ``c`` lists, in
    ascending order, the rows assigned to cluster ``c``, each with value 1.
    The product is the production CSR kernel, which accumulates each cluster's
    rows in that order.  Every cluster is non-empty (reseeded) when this runs.
    """
    counts = np.bincount(assign, minlength=n_clusters)
    indptr = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    members = np.argsort(assign, kind="stable")
    one_hot_t = CSRMatrix(indptr, members,
                          np.ones(assign.shape[0], dtype=np.float64),
                          (n_clusters, rows.shape[0]))
    sums = get_backend(DEFAULT_BACKEND)(one_hot_t, rows)
    sums /= counts[:, None].astype(sums.dtype)
    return sums.astype(rows.dtype, copy=False)


def kmeans(rows: np.ndarray, n_clusters: int, n_iters: int = 10,
           seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means: ``(centroids, assign)`` for ``rows``.

    ``centroids`` has shape ``(n_clusters, d)`` in the rows' floating dtype;
    ``assign`` is the per-row cluster id (int32).  ``n_clusters`` is clamped
    to the row count (tiny buckets), and every returned cluster is non-empty.

    Iterations ``1 … n_iters − 1`` each run on a fresh seeded sample of
    ``max(rows // 4, 32 · n_clusters)`` rows; when that sample would not be
    smaller they run on every row and stop early once the assignments stop
    changing.  Iteration ``n_iters`` assigns and averages every row.  The
    returned ``assign`` is the nearest-centroid assignment of the returned
    centroids, reseeded only where a cluster would otherwise be empty.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise ValueError("cannot cluster an empty row set")
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    if not np.issubdtype(rows.dtype, np.floating):
        rows = rows.astype(np.float64)
    n = rows.shape[0]
    n_clusters = min(int(n_clusters), n)

    rng = np.random.default_rng(seed)
    centroids = rows[rng.permutation(n)[:n_clusters]].copy()
    rows_sq = squared_norms(rows)
    size = max(n // 4, 32 * n_clusters)
    sampled = size < n
    sample, sample_sq = rows, rows_sq

    prev = None
    for _ in range(int(n_iters) - 1):
        if sampled:
            # A fresh sample every iteration: on the benchmark's serve_zipf
            # table one fixed sample measured recall@10 0.965 at nprobe 4
            # over ten seeds, a fresh one 0.982 (full Lloyd's, six of those
            # seeds: 0.971).
            pick = np.sort(rng.choice(n, size=size, replace=False))
            sample, sample_sq = rows[pick], rows_sq[pick]
        assign, dist = _assign(sample, sample_sq, centroids)
        _reseed_empty_clusters(assign, dist, n_clusters)
        if not sampled and prev is not None and np.array_equal(assign, prev):
            break  # only a fixed row set can converge
        prev = assign
        centroids = _cluster_means(sample, assign, n_clusters)

    assign, dist = _assign(rows, rows_sq, centroids)
    _reseed_empty_clusters(assign, dist, n_clusters)
    centroids = _cluster_means(rows, assign, n_clusters)
    assign, dist = _assign(rows, rows_sq, centroids)
    _reseed_empty_clusters(assign, dist, n_clusters)
    return centroids, assign
