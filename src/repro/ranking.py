"""Blocked ranking and top-k selection shared by models and serving.

The pieces of ranking logic that models, evaluation, serving and the ANN
index all need live here, once, and every caller imports them directly —
:class:`~repro.models.base.TranslationalModel`'s one closed-form ranking loop,
``KGEModel.predict_*`` and the serving engine alike:

* :func:`top_k` — O(N) ``argpartition`` selection of the ``k`` smallest
  scores, ordered ascending;
* :func:`l2_distance_matrix` — pairwise L2 distances, one GEMM per column
  tile; beyond its ``(B, N)`` result it allocates one tile-sized scratch
  buffer (:data:`RANK_TILE_ELEMENTS`), never a table-sized or a second
  result-sized array;
* :func:`squared_norms` — the ``‖t‖²`` term of that kernel, blocked the same
  way.  The norms of a table are **owned by whoever knows the table is not
  being written**: k-means computes its rows' once per call and its
  centroids' once per iteration; a caller that scores many batches against
  one fixed table may pass them to the kernel as ``target_sq=``, and every
  other caller lets the kernel compute them in-call.  Models and tables
  never cache them: optimizers update ``weight.data`` in place through
  ``out=`` and there is no write path a cache could be invalidated from.
  Evaluation calls neither function: ``TranslationalModel.rank_targets``
  counts ranks on squared keys, tile by tile, and squares each candidate
  block it walks itself;
* :func:`candidate_expansion_scores` — the generic "expand every entity as a
  candidate and score the grid in chunks" ranking fallback;
* :func:`nearest_rows` — the blocked embedding-space kNN used to serve
  ``nearest_entities`` against tables that are never densified (partitioned
  models).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.autograd.function import count_flops

#: Elements in the ``(B, tile)`` scratch buffer of :func:`l2_distance_matrix`
#: (2 MB at float64; 4096 target columns at B = 64).  The kernel allocates
#: its result, that one buffer for the GEMM, and — when it has to compute
#: ``‖t‖²`` itself — one more inside :func:`squared_norms` before it, so a
#: call peaks at the result plus a tile (and the ``(N,)`` norms) however large
#: the table is; ``tests/test_ranking.py`` holds it to result + 2 tiles with
#: ``tracemalloc``.  The value was chosen by measurement, not from a cache
#: size: at the benchmark shape (B = 64, N = 28 951, d = 128, one BLAS thread)
#: 4096-column tiles beat 1024 and 2048, and every width from 512 up gives
#: the bits of the one-GEMM product while 256 does not (OpenBLAS switches
#: GEMM path) — the same test file pins that shape.
RANK_TILE_ELEMENTS = 1 << 18

#: Target columns per BLAS call of a single-query (B = 1) call — what one
#: query has always been given.  The engine's ``nearest_entities``,
#: :func:`nearest_rows` and the IVF rescore are B = 1 calls whose distances
#: go to clients, so they keep the call shape (and with it the rounding) they
#: had before the batched tile above was narrowed; the scratch this costs is
#: one ``(n,)`` row beside an ``(n, d)`` table.
SINGLE_QUERY_COLUMNS = 1 << 21


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest scores, ordered ascending.

    ``argpartition`` selects the top-k in O(N), then only those k entries are
    sorted — the serving-time win over a full O(N log N) ``argsort``.
    """
    n = scores.shape[0]
    k = max(0, min(int(k), n))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.argsort(scores, kind="stable").astype(np.int64)
    selected = np.argpartition(scores, k - 1)[:k]
    # Lexsort orders the selected subset stably by (score, index).  Which of
    # several candidates tied exactly at the k-th score make the cut is up to
    # argpartition, matching np.argsort's own unspecified tie order.
    order = np.lexsort((selected, scores[selected]))
    return selected[order].astype(np.int64)


def _floating(dtype) -> np.dtype:
    """``dtype`` itself when floating, ``float64`` otherwise (integer inputs)."""
    dtype = np.dtype(dtype)
    return dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float64)


def squared_norms(rows: np.ndarray, dtype=None) -> np.ndarray:
    """``‖row‖²`` of every row of ``rows``, accumulated in ``dtype``.

    The one producer of the ``‖t‖²`` term of :func:`l2_distance_matrix`: the
    kernel calls it when no ``target_sq`` is passed, and whoever holds an
    unchanging view of a table calls it once and passes the result in — the
    same function, so the same bits either way.  ``dtype`` defaults to the
    rows' own floating dtype (``float64`` for integer rows); pass the
    distance dtype when it is wider (fp16 rows scored by fp64 queries are
    squared in fp64, as the kernel does).  Rows are squared a block at a
    time into one :data:`RANK_TILE_ELEMENTS` scratch buffer, never into an
    ``(N, d)`` copy of the table.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    dtype = _floating(rows.dtype if dtype is None else dtype)
    n, d = rows.shape
    out = np.empty(n, dtype=dtype)
    block = max(1, RANK_TILE_ELEMENTS // max(1, d))
    squares = np.empty((min(n, block), d), dtype=dtype)
    for start in range(0, n, block):
        stop = min(n, start + block)
        sq = squares[:stop - start]
        np.square(rows[start:stop], out=sq, dtype=dtype)
        np.add.reduce(sq, axis=1, out=out[start:stop])
    return out


def l2_distance_matrix(queries: np.ndarray, targets: np.ndarray,
                       target_sq: Optional[np.ndarray] = None,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise L2 distances ``(B, N)``, one GEMM per column tile.

    Beyond the result the call allocates one tile-sized scratch buffer —
    never a table-sized array, nor (for B > 1) a second result-sized one.
    ``‖q − t‖² = ‖q‖² − 2 q·Tᵀ + ‖t‖²`` avoids the ``(B, N, d)`` diff tensor;
    shared by the closed-form ranking of every translational model
    (``TranslationalModel.score_all_*``: the whole table for TransE, one call
    per relation group for TransH/TransR), the serving engine's
    embedding-space kNN, the IVF probe, rescore and recall tuner, and the
    per-bucket sweeps over partitioned tables.

    The target rows are taken ``tile = max(RANK_TILE_ELEMENTS // B, B)``
    columns at a time.  Each tile's ``q·Tᵀ`` and its doubling go through one
    ``(B, tile)`` scratch buffer allocated once per call; ``‖q‖² + ‖t‖²``,
    the subtraction, clamp, ``+1e-12`` and ``sqrt`` run in place on the
    result's own tile, which the tile width keeps cache-sized while they do —
    the textbook expansion's elementwise operations in the textbook order, so
    the scores are the bits ``sqrt(max(q_sq + t_sq − 2·(q @ T.T), 0) + 1e-12)``
    gives (the form kept as the oracle in ``tests/test_ranking.py``) wherever
    BLAS rounds a column inside a tile as it does inside the one-GEMM
    product.  That is the only thing tiling can change, and it holds **with
    one BLAS thread** (how the benchmark pins its workers; the benchmark
    shape is pinned by a test run that way).  A multi-threaded BLAS splits
    the one-GEMM product differently from a tile and rounds its trailing
    ``N % 8`` columns differently, so there a multi-tile call can differ from
    the one-GEMM expression in the last bit of some scores; the ranks they
    give are held equal in-process, whatever the thread count.  A tile is
    never narrower than the batch is tall, so a tall-and-narrow call
    (thousands of query rows against a few hundred targets) stays one GEMM,
    and a single query (B = 1) takes :data:`SINGLE_QUERY_COLUMNS` targets per
    BLAS call, as it always has.

    ``target_sq`` is :func:`squared_norms` of ``targets`` in the result dtype,
    for callers that score many batches against a table that does not change
    in between; omitted, the kernel computes it.  Nothing caches it on a model
    or table: optimizers write ``weight.data`` in place and there is no write
    path to invalidate from, so the norms live exactly as long as the
    caller's claim that the table is fixed.  ``out`` receives the result in
    place (a ``(B, N)`` view of the result dtype, e.g. a column slice of a
    larger score block) and is returned.

    Dtype follows the inputs (``float32`` queries never silently upcast to
    ``float64``).  Mixed precision promotes: quantized ``float16`` target
    tables scored against ``float64`` queries are dequantized one tile at a
    time — the full table is never widened in memory.
    """
    queries = np.asarray(queries)
    targets = np.asarray(targets)
    if (queries.ndim != 2 or targets.ndim != 2
            or queries.shape[1] != targets.shape[1]):
        raise ValueError(
            f"queries {queries.shape} and targets {targets.shape} must be "
            "2-D with the same embedding width")
    b, d = queries.shape
    n = targets.shape[0]
    dtype = _floating(np.result_type(queries.dtype, targets.dtype))
    if out is None:
        out = np.empty((b, n), dtype=dtype)
    elif out.shape != (b, n) or out.dtype != dtype:
        raise ValueError(
            f"out must be a {(b, n)} {dtype} array, got {out.shape} {out.dtype}")
    if target_sq is None:
        target_sq = squared_norms(targets, dtype)
    else:
        target_sq = np.asarray(target_sq)
        if target_sq.shape != (n,):
            raise ValueError(
                f"target_sq must have shape {(n,)} (one squared norm per "
                f"target row), got {target_sq.shape}")
        target_sq = target_sq.astype(dtype, copy=False)
    q = queries.astype(dtype, copy=False)
    q_sq = (q ** 2).sum(axis=1)[:, None]
    width = (SINGLE_QUERY_COLUMNS if b == 1
             else max(RANK_TILE_ELEMENTS // max(1, b), b))
    tile = max(1, min(n, width))
    dot_buf = np.empty(b * tile, dtype=dtype)
    for start in range(0, n, tile):
        stop = min(n, start + tile)
        acc = out[:, start:stop]
        dot = dot_buf[:b * (stop - start)].reshape(b, stop - start)
        blk = targets[start:stop].astype(dtype, copy=False)
        np.add(q_sq, target_sq[start:stop], out=acc)
        np.matmul(q, blk.T, out=dot)
        np.multiply(dot, 2.0, out=dot)
        np.subtract(acc, dot, out=acc)
        # Cancellation can leave tiny negatives where q ≈ t.
        np.maximum(acc, 0.0, out=acc)
        np.add(acc, 1e-12, out=acc)
        np.sqrt(acc, out=acc)
    count_flops("rank_l2[tiled]", 2 * b * n * d + 5 * b * n)
    return out


def candidate_expansion_scores(
    first: np.ndarray,
    second: np.ndarray,
    position: str,
    n_entities: int,
    score_triples: Callable[..., np.ndarray],
    chunk_size: int,
) -> np.ndarray:
    """Candidate-expansion ranking shared by the two ``score_all_*`` fallbacks.

    The whole candidate grid is materialised with ``np.repeat``/``np.tile``
    in blocks of query rows (rather than one Python-level ``column_stack``
    per query), sized so each block stays within ``chunk_size`` triples.
    ``position`` selects whether the tiled candidates stand in for the tail
    (``first``/``second`` are heads/relations) or the head (``first``/
    ``second`` are relations/tails).

    The output dtype follows what ``score_triples`` produces — a model scoring
    in float32 gets a float32 score grid back, never a silent float64 upcast.
    """
    n = int(n_entities)
    b = first.shape[0]
    candidates = np.arange(n, dtype=np.int64)
    out: Optional[np.ndarray] = None
    rows_per_block = max(1, int(chunk_size) // n)
    for start in range(0, b, rows_per_block):
        stop = min(b, start + rows_per_block)
        rows = stop - start
        expanded_first = np.repeat(first[start:stop], n)
        expanded_second = np.repeat(second[start:stop], n)
        tiled = np.tile(candidates, rows)
        if position == "tail":
            triples = np.column_stack([expanded_first, expanded_second, tiled])
        else:
            triples = np.column_stack([tiled, expanded_first, expanded_second])
        block = score_triples(triples, chunk_size=chunk_size).reshape(rows, n)
        if out is None:
            out = np.empty((b, n), dtype=block.dtype)
        out[start:stop] = block
    if out is None:
        out = np.empty((b, n), dtype=np.float64)
    return out


def nearest_rows(query: np.ndarray,
                 blocks: Iterable[Tuple[int, np.ndarray]],
                 k: int,
                 exclude: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Blocked embedding-space kNN: the ``k`` rows closest to ``query``.

    ``blocks`` yields ``(start_row, block)`` pairs (the
    :meth:`~repro.nn.table.EmbeddingTable.iter_blocks` contract), so the full
    table is never materialised — each block contributes its local top-k and
    the running candidate set is re-selected, keeping memory O(block + k).
    Returns ``(indices, distances)`` ascending; ``exclude`` drops one row id
    (the query itself).

    The distance dtype follows NumPy promotion of the query and block dtypes
    (the :func:`l2_distance_matrix` contract): an fp16 query against fp16
    blocks yields fp16 distances, never a silent float64 upcast.  Non-float
    queries (e.g. integer test fixtures) are cast to float64.
    """
    best_idx = np.empty(0, dtype=np.int64)
    best_dist: Optional[np.ndarray] = None
    q = np.asarray(query)
    if not np.issubdtype(q.dtype, np.floating):
        q = np.asarray(q, dtype=np.float64)
    q = q[None, :]
    for start, block in blocks:
        dist = l2_distance_matrix(q, block)[0]
        if best_dist is None:
            best_dist = np.empty(0, dtype=dist.dtype)
        idx = np.arange(start, start + block.shape[0], dtype=np.int64)
        if exclude is not None and start <= exclude < start + block.shape[0]:
            dist[exclude - start] = np.inf
        merged_idx = np.concatenate([best_idx, idx])
        merged_dist = np.concatenate([best_dist, dist])
        keep = top_k(merged_dist, k)
        best_idx, best_dist = merged_idx[keep], merged_dist[keep]
    if best_dist is None:
        best_dist = np.empty(0, dtype=np.float64)
    finite = np.isfinite(best_dist)
    return best_idx[finite], best_dist[finite]
