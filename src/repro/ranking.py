"""Blocked ranking and top-k selection shared by models and serving.

The pieces of ranking logic that models, evaluation, serving and the ANN
index all need live here, once, and every caller imports them directly:

* :func:`walk_table` — the one walk of an entity table for ranking, into
  one *sink* per consumer: evaluation's
  :class:`~repro.evaluation.ranks.RankCounter`, :class:`KeepKeys` (every
  key: ``score_all_*``) and :class:`TopK` (each row's running top-k by
  ``(score, id)``: serving, ``predict_*``, ``nearest_entities`` and the IVF
  ground truth);
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
  Evaluation calls neither function: its walk counts both directions' ranks
  on squared keys, tile by tile, and squares each candidate block it walks
  itself;
* :func:`candidate_expansion_scores` — the generic "expand every entity as a
  candidate and score the grid in chunks" ranking fallback.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd.function import OpCounters, count_flops, flop_tally
from repro.autograd.sanitizer import sanitize, sanitize_enabled
from repro.autograd.tensor import no_grad
from repro.sparse.kernels import blas_threads, split_rows, split_shares

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
#: query has always been given.  A single served query, ``nearest_entities``
#: and the IVF probe and rescore are B = 1 calls whose distances go to
#: clients, so they keep the call shape (and with it the rounding) they had
#: before the batched tile above was narrowed; the scratch this costs is one
#: ``(n,)`` row beside an ``(n, d)`` table.
SINGLE_QUERY_COLUMNS = 1 << 21


def _tile_columns(b: int) -> int:
    """Target columns per GEMM of a ``b``-query :func:`l2_distance_matrix` call."""
    return SINGLE_QUERY_COLUMNS if b == 1 else max(RANK_TILE_ELEMENTS // max(1, b), b)


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
    distance dtype when it is wider (narrow rows scored by wider queries are
    squared in the wider dtype, as the kernel does).  Rows are squared a
    block at a time into one :data:`RANK_TILE_ELEMENTS` scratch buffer, never
    into an ``(N, d)`` copy of the table.
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
    shared by the served walk of every translational model
    (:func:`walk_table` with ``distances``: one call per column tile of each
    block and relation group), the IVF probe and rescore, and k-means.

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
    ``float64``).  Mixed precision promotes to the wider dtype one tile at a
    time: narrower target rows are widened per tile, never as a whole
    table.
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
    tile = max(1, min(n, _tile_columns(b)))
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


def walk_table(blocks: Iterable[Tuple[int, np.ndarray]], groups, sink,
               project=None, residual=None, distances: bool = False) -> None:
    """Every ranking key of ``groups``' queries against a table, one tile at a time.

    ``blocks`` yields ``(start_row, block)`` pairs (a model's
    ``iter_entity_embedding_blocks``, the IVF ground truth's ``exact_rows``
    ranges); each is read once and projected once per relation (``project(block,
    relation)``).  ``groups`` are ``(rows, relation, direction, queries)`` as
    ``TranslationalModel._query_groups`` builds them.  ``sink`` is a
    :class:`~repro.evaluation.ranks.RankCounter` or a callable ``sink(tile,
    rows, start)`` taking the keys of candidates ``start .. start + w − 1``
    for the queries ``rows``: ``residual(queries, cand, direction)`` when
    given (any dissimilarity but L2); with ``distances`` (what is served), L2
    distances in the column tiles of one :func:`l2_distance_matrix` call over
    the block; otherwise (evaluation) the squared key ``‖c‖² − 2q·c``, one
    GEMM of the pre-scaled ``−2q`` per block.  A counter of float64 keys gets
    certified fp32 tiles instead (one sgemm of ``[−2q, 1]`` and ``[c,
    ‖c‖²]``), each query with the block's rigorous bound
    (:func:`_fp32_key_margin`) from every fp32 key to its fp64 key; the
    counter settles the few the bound leaves undecided from the float64
    block in hand (:func:`_fp64_keys`).

    **Every core.**  A sink with ``fork()``/``merge(part)`` (the counter;
    :class:`KeepKeys`, whose shares write disjoint columns and which forks
    to itself) is walked on W workers
    (:func:`~repro.sparse.kernels.split_rows`, one pinned per CPU) when the
    table has two blocks or more: the calling thread pulls the blocks a
    round of W at a time, so bucket faults, LRU moves and ``exact_rows``
    reads happen on it, in the inline walk's order, with at most W blocks in
    flight; share ``k`` runs the per-block body on the round's ``k``-th
    block, at the same block and tile shapes, into part ``k``, with scratch
    (key tile, fp32 block, the counter's mask) the caller allocated; the
    parts are merged into ``sink`` at the end.  Everything merged is an
    integer count or a value one tile wrote, so the result equals the inline
    walk's bit for bit at any worker count.  A sink without ``fork``
    (:class:`TopK`: every served walk and the IVF ground truth), one CPU
    (``taskset -c 0``), a one-block table or a BLAS that runs more than one
    thread per call, or whose count cannot be read
    (:func:`~repro.sparse.kernels.blas_threads`: such a BLAS already puts
    every core under the sgemm, and pinned workers calling it stall) walks
    inline.  A share runs under ``no_grad``, the caller's numpy error
    state and sanitizer mode, and counts its FLOPs into a tally of its own
    (:func:`~repro.autograd.function.flop_tally`), which the caller adds to
    its counters, so FLOP totals are the inline walk's.  A residual tile's
    ``(nb, w, k)`` temporaries are the dissimilarity's own: a split residual
    walk holds W of them at once.
    """
    from repro.evaluation.ranks import RankCounter

    b = sum(queries.shape[0] for *_, queries in groups)
    if not b:
        return
    counted = isinstance(sink, RankCounter)
    squared = residual is None and not distances
    if squared:
        groups = [(rows, relation, side, -2.0 * queries)
                  for rows, relation, side, queries in groups]
    certified = (squared and counted
                 and all(q.dtype == np.float64 for *_, q in groups))
    fp32 = [_fp32_queries(queries) for *_, queries in groups] if certified else None

    def walk(start: int, block: np.ndarray, part, scratch: _Scratch) -> None:
        """One block's tiles, every group, into ``part``."""
        count = part.count if counted else part
        cand, projected = block, None
        for group, (rows, relation, direction, queries) in enumerate(groups):
            if relation is not None and relation != projected:
                cand = project(block, relation)
                projected = relation
            nb, w = queries.shape[0], cand.shape[0]
            if residual is not None:
                count(residual(queries, cand, direction), rows, start)
                continue
            if distances:
                # One norms pass and one result tile per block: per-tile
                # buffers would fault fresh pages in on every tile.
                dtype = _floating(np.result_type(queries.dtype, cand.dtype))
                norms = squared_norms(cand, dtype)
                tile = max(1, min(w, _tile_columns(nb)))
                out = np.empty((nb, tile), dtype=dtype)
                for at in range(0, w, tile):
                    stop = min(w, at + tile)
                    count(l2_distance_matrix(queries, cand[at:stop], norms[at:stop],
                                             out[:, :stop - at]), rows, start + at)
                continue
            dtype = np.float32 if certified else np.result_type(queries.dtype, cand.dtype)
            buffer = scratch.keys(dtype, max(b, 2) * w)
            keys = buffer[:nb * w].reshape(nb, w)
            if certified:
                margin = _fp32_tile(*fp32[group], cand,
                                    scratch.cand32(w * (cand.shape[1] + 1)), keys)
                count(keys, rows, start, margin,
                      functools.partial(_fp64_keys, queries, cand))
                continue
            cand = cand.astype(dtype, copy=False)
            queries = queries.astype(dtype, copy=False)
            if nb == 1:
                # One row would take BLAS's GEMV path, which rounds
                # differently from the GEMM of any wider tile: the row goes in
                # twice, and the buffer's first row is ``keys``.
                np.matmul(np.repeat(queries, 2, axis=0), cand.T,
                          out=buffer[:2 * w].reshape(2, -1))
            else:
                np.matmul(queries, cand.T, out=keys)
            keys += np.einsum("ij,ij->i", cand, cand)
            count(keys, rows, start)

    fork = getattr(sink, "fork", None)
    shares = split_shares() if fork is not None and blas_threads() == 1 else 1
    blocks = iter(blocks)
    pulled = list(itertools.islice(blocks, shares))
    if len(pulled) < 2:
        scratch = _Scratch()
        for start, block in itertools.chain(pulled, blocks):
            walk(start, block, sink, scratch)
        return
    parts = [fork() for _ in range(shares)]
    scratches = [_Scratch() for _ in range(shares)]
    tallies = [OpCounters() for _ in range(shares)]
    width = max(queries.shape[1] for *_, queries in groups)
    dtype = np.float32 if certified else np.result_type(groups[0][3].dtype,
                                                         pulled[0][1].dtype)

    # A worker starts from the defaults of numpy's error state and of the
    # sanitizer, both per thread: each share takes the caller's.
    errors, sanitizing = np.geterr(), sanitize_enabled()

    def share(first: int, stop: int, k: int, _: int) -> None:
        with np.errstate(**errors), sanitize(sanitizing), no_grad(), \
                flop_tally(tallies[k]):
            for start, block in pulled[first:stop]:
                walk(start, block, parts[k], scratches[k])

    while pulled:
        w = max(block.shape[0] for _, block in pulled)
        for part, scratch in zip(parts, scratches):
            if squared:
                scratch.keys(dtype, max(b, 2) * w)
            if certified:
                scratch.cand32(w * (width + 1))
            if counted:
                part.reserve(b, w)
        split_rows(len(pulled), 1, share)
        pulled = list(itertools.islice(blocks, shares))
    for part, tally in zip(parts, tallies):
        sink.merge(part)
        for op, flops in tally.per_op.items():
            count_flops(op, flops)


class _Scratch:
    """One share's buffers for :func:`walk_table`: the key tile and the fp32
    candidate block.  Each grows only when a tile needs more; a split walk
    grows every share's on the calling thread before each round."""

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.float64)
        self._cand32 = np.empty(0, dtype=np.float32)

    def keys(self, dtype, size: int) -> np.ndarray:
        if self._keys.dtype != dtype or self._keys.size < size:
            self._keys = np.empty(size, dtype=dtype)
        return self._keys

    def cand32(self, size: int) -> np.ndarray:
        if self._cand32.size < size:
            self._cand32 = np.empty(size, dtype=np.float32)
        return self._cand32


class KeepKeys:
    """Walk sink keeping every key, the ``(B, N)`` block: ``score_all_*`` and
    ``rank_triples``' re-walk of the queries no count decided."""

    def __init__(self, n_rows: int, n_cols: int, dtype=np.float64) -> None:
        self.keys = np.empty((int(n_rows), int(n_cols)), dtype=dtype)

    def __call__(self, tile: np.ndarray, rows, start: int) -> None:
        self.keys[rows, start:start + tile.shape[1]] = tile

    def fork(self) -> "KeepKeys":
        """Itself: the shares of a split walk write disjoint columns."""
        return self

    def merge(self, part: "KeepKeys") -> None:
        """Nothing to add: every share wrote into :attr:`keys` itself."""


class TopK:
    """Walk sink keeping each row's ``k`` best candidates by ``(score, id)``.

    Flat ``(rows, cols)`` ``exclusions`` never enter, nor does a NaN score.
    Memory is the kept ``(rows, k)`` plus one tile's mask: a candidate enters
    at or below its row's ``k``-th score, or its tile's while the row is short,
    and only the rows of the tile are merged.
    """

    def __init__(self, n_rows: int, k: int, exclusions=None) -> None:
        self.k = max(0, int(k))
        none = np.empty(0, dtype=np.int64)
        rows, cols = ((none, none) if exclusions is None else
                      (np.asarray(part, dtype=np.int64).reshape(-1)
                       for part in exclusions))
        order = np.argsort(cols, kind="stable")
        self._ex_rows, self._ex_cols = rows[order], cols[order]
        self._queries = np.arange(int(n_rows), dtype=np.int64)
        # Each row's first ``_count`` entries are its kept (score, id), ascending.
        self._count = np.zeros(int(n_rows), dtype=np.int64)
        self._id = np.zeros((int(n_rows), self.k), dtype=np.int64)
        self._score = None

    def __call__(self, tile: np.ndarray, rows, start: int) -> None:
        if self._score is None:
            self._score = np.empty(self._id.shape, dtype=tile.dtype)
        if not self.k:
            return
        queries = self._queries[rows]
        w = tile.shape[1]
        count = self._count[queries]
        full = count == self.k
        bound = np.where(full, self._score[queries, -1], np.inf)
        # A later tile's id exceeds the k-th's: at the bound, it would lose.
        later = full & (self._id[queries, -1] < start)
        bound[later] = np.nextafter(bound[later], -np.inf)
        admit = tile <= bound[:, None]
        first, last = np.searchsorted(self._ex_cols, (start, start + w))
        local = np.full(self._queries.size, -1, dtype=np.int64)
        local[queries] = np.arange(queries.size, dtype=np.int64)
        at = local[self._ex_rows[first:last]]
        inside = at >= 0
        admit[at[inside], self._ex_cols[first:last][inside] - start] = False
        short = np.flatnonzero(~full)
        if short.size and w > self.k:
            sub = np.where(admit[short], tile[short], np.nan)
            kth = np.partition(sub, self.k - 1, axis=1)[:, self.k - 1]
            kth[np.isnan(kth)] = np.inf
            admit[short] = sub <= kth[:, None]
        r, c = np.divmod(np.flatnonzero(admit), w)  # flat: 10x a 2-D nonzero
        if not r.size:
            return
        # Keep the k best of each touched row's kept and admitted candidates.
        touched = np.unique(r)
        owners = queries[touched]
        held = np.arange(self.k, dtype=np.int64) < count[touched][:, None]
        place = np.concatenate([np.nonzero(held)[0], np.searchsorted(touched, r)])
        ids = np.concatenate([self._id[owners][held], start + c])
        scores = np.concatenate([self._score[owners][held], tile[r, c]])
        order = np.lexsort((ids, scores, place))
        place, ids, scores = place[order], ids[order], scores[order]
        rank = np.arange(place.size, dtype=np.int64) - np.searchsorted(place, place)
        keep = rank < self.k
        place, rank = place[keep], rank[keep]
        self._id[owners[place], rank] = ids[keep]
        self._score[owners[place], rank] = scores[keep]
        self._count[owners] = np.bincount(place, minlength=touched.size)

    def results(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(ids, scores)`` of each row, ascending by ``(score, id)``."""
        scores = (np.empty(self._id.shape, dtype=np.float64)
                  if self._score is None else self._score)
        return [(self._id[row, :n], scores[row, :n])
                for row, n in enumerate(self._count)]


# ---------------------------------------------------------------------- #
# Certified fp32 keys (the evaluation walk's first pass)
# ---------------------------------------------------------------------- #
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
#: Smallest normal fp32: more than the absolute error of one fp32 rounding
#: that underflows, even where subnormals flush to zero.
_ETA32 = 2.0 ** -126
#: Largest ``‖−2q‖`` or ``max ‖c‖`` the fp32 walk takes: every fp32 product,
#: sum and key then stays below ``2¹⁰¹``, far from overflow.
_FP32_SAFE = 2.0 ** 50


def _gamma(n: int, u: float) -> float:
    """Higham's ``γ_n = n u / (1 − n u)``: the relative error bound of an
    ``n``-term dot product rounded in any order at unit roundoff ``u``."""
    return n * u / (1 - n * u)


def _fp32_queries(queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(q32, q_norm)`` of fp64 queries ``−2q``: the fp32 operand with a
    column of ones (it meets the block norms), and ``‖−2q‖`` rounded up —
    infinite where it is not finite or exceeds :data:`_FP32_SAFE`."""
    n, k = queries.shape
    q32 = np.ones((n, k + 1), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        q32[:, :k] = queries
        q_norm = np.linalg.norm(queries, axis=1) * (1 + 2.0 ** -30)
    q_norm[~(q_norm <= _FP32_SAFE)] = np.inf
    return q32, q_norm


def _fp32_tile(q32: np.ndarray, q_norm: np.ndarray, cand: np.ndarray,
               cand32: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Write the fp32 keys ``‖c‖² − 2q·c`` of ``cand`` into ``keys``; return
    each query's :func:`_fp32_key_margin` for the block."""
    w, k = cand.shape
    block = cand32[:w * (k + 1)].reshape(w, k + 1)
    rows = block[:, :k]
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(rows, cand, casting="same_kind")
        np.einsum("ij,ij->i", rows, rows, out=block[:, k])
        np.matmul(q32, block.T, out=keys)
    return _fp32_key_margin(q_norm, float(block[:, k].max()) if w else 0.0, k)


def _fp32_key_margin(q_norm: np.ndarray, sq_max: float, k: int) -> np.ndarray:
    """Bound on ``|K32 − K64|`` for each query and any candidate of a block.

    ``K32`` is the walk's fp32 key, ``K64`` the fp64 key
    ``fl(fl(−2q·c) + fl(‖c‖²))``, both of the float64 operands ``a = −2q``
    and ``c`` whose exact key is ``K``.  With ``A ≥ ‖a‖`` (``q_norm``),
    ``C ≥ ‖c‖`` and ``u`` the fp32 unit roundoff:

    * the casts ``â``, ``ĉ`` move ``a·c + ‖c‖²`` by at most
      ``(2u + u²)(AC + C²)``;
    * the fp32 norm ``N̂`` of ``ĉ`` is within ``γ_k ‖ĉ‖²`` of it, and the
      ``(k + 1)``-term sgemm of ``[â, 1]·[ĉ, N̂]`` within
      ``γ_{k+1}(Σ|â ĉ| + N̂)``;
    * ``K64`` is within ``γ_{k+1}(AC + C²)`` of ``K`` at fp64.

    Summed, ``|K32 − K64| ≤ c₁·AC + c₂·C²`` (the norm's ``γ_k`` is in
    ``c₂`` only), plus an absolute term for every rounding that underflows.
    ``C`` is taken from the block's largest fp32 norm ``sq_max``, widened
    for that norm's own rounding.  Infinite where an operand is not finite
    or exceeds :data:`_FP32_SAFE`: the counter then leaves the query
    unresolved.
    """
    c1, c2, tiny, g = _fp32_margin_terms(k)
    c = (math.sqrt((sq_max + k * _ETA32) * (1 + 2 * g)) * (1 + 2 * _U32)
         + math.sqrt(k) * _ETA32)
    if not c <= _FP32_SAFE:
        return np.full(q_norm.shape, np.inf, dtype=np.float64)
    return q_norm * (c1 * c + tiny) + (c2 * c * c + tiny * (1 + c))


@functools.lru_cache(maxsize=None)
def _fp32_margin_terms(k: int) -> Tuple[float, float, float, float]:
    """``(c₁, c₂, absolute, γ_k)`` of :func:`_fp32_key_margin` at width ``k``,
    each rounded up by ``2⁻³⁰`` to cover the fp64 arithmetic of the bound."""
    u, g, g1 = _U32, _gamma(k, _U32), _gamma(k + 1, _U32)
    shared = 2 * u + u * u + _gamma(k + 1, _U64)  # the casts and K64
    up = 1 + 2.0 ** -30
    return (((1 + u) ** 2 * g1 + shared) * up,
            ((1 + u) ** 2 * (g1 * (1 + g) + g) + shared) * up,
            (4 * k + 8) * _ETA32 * up, g)


def _fp64_keys(queries: np.ndarray, cand: np.ndarray, j: np.ndarray,
               c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(key, margin)`` of the pairs (query ``j[i]``, candidate ``c[i]``).

    ``key`` is ``c·(c − 2q)`` at fp64 from the rows, ``margin`` a bound on
    its distance to the GEMM tile's fp64 key: each is within ``γ_{k+1}
    Σ|c|(|c| + |2q|)`` of the exact key, whatever order either sums in, and
    ``2⁻¹⁰⁰⁰`` covers every rounding that underflows.
    """
    rows = np.asarray(cand[c], dtype=np.float64)
    a = queries[j]
    key = np.einsum("ij,ij->i", rows, rows + a)
    size = np.einsum("ij,ij->i", np.abs(rows, out=rows), rows + np.abs(a, out=a))
    return key, _gamma(rows.shape[1] + 1, _U64) * (2 + 2.0 ** -28) * size + 2.0 ** -1000
