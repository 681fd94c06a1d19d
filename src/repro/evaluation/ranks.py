"""Ranking utilities shared by the link-prediction evaluator."""

from __future__ import annotations

import copy
from enum import Enum
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np


class RankingProtocol(str, Enum):
    """Raw vs filtered ranking (Bordes et al., 2013 terminology).

    ``FILTERED`` removes every *other* known-positive candidate from the
    ranking before locating the true entity, so a model is not penalised for
    ranking another correct answer above the query answer.
    """

    RAW = "raw"
    FILTERED = "filtered"


def compute_ranks(
    candidate_scores: np.ndarray,
    true_indices: np.ndarray,
    filter_indices: Union[None, Tuple[np.ndarray, np.ndarray],
                          Iterable[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Rank of the true entity within each row of candidate scores.

    Parameters
    ----------
    candidate_scores:
        ``(B, N)`` dissimilarities — smaller is better.  Read, never written;
        floating inputs are compared in their own dtype.
    true_indices:
        ``(B,)`` index of the true entity per row.
    filter_indices:
        Candidates to exclude (other known positives), either as a *tuple*
        of flat ``(rows, cols)`` index arrays — what
        :meth:`repro.data.KnownTriples.exclusions` returns — or as any other
        iterable holding one index array (or ``None``) per row.  The true
        entity itself is never excluded; repeated entries count once.

    Returns
    -------
    ``(B,)`` integer ranks, 1-based (rank 1 = best).  Ties are resolved
    optimistically for candidates strictly better than the target and count
    ties at the target's score as half (the "realistic" convention), which
    avoids both over- and under-crediting degenerate constant scorers.  A
    non-finite target score (a diverged model) ranks last among the
    candidates left after filtering.
    """
    scores = np.asarray(candidate_scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    true_indices = np.asarray(true_indices, dtype=np.int64).reshape(-1)
    if scores.ndim != 2 or scores.shape[0] != true_indices.shape[0]:
        raise ValueError(
            f"candidate_scores must be (B, N) aligned with true_indices, got "
            f"{scores.shape} and {true_indices.shape}"
        )
    b, n = scores.shape
    if true_indices.size and (true_indices.min() < 0 or true_indices.max() >= n):
        raise IndexError("true index out of candidate range")
    # The whole block is one tile whose target scores are known exactly.
    target = scores[np.arange(b, dtype=np.int64), true_indices]
    counter = RankCounter(n, true_indices, filter_indices, target, target)
    counter.count(scores, slice(None), 0)
    return counter.ranks()[0]


class RankCounter:
    """Filtered ranks of ``B`` targets, counted one column tile at a time.

    The ``(B, N)`` block of candidate keys is never held: :meth:`count` takes
    any column tile of it for any subset of its rows, in any order, and keeps
    two counts per query — the candidates whose key is below ``lo`` and those
    at or below ``hi``, where ``[lo, hi]`` brackets the target's key.  The
    excluded candidates' keys are read back from the tile that counted them
    and taken out of both counts; so is the target's own key, which is kept.

    With ``lo == hi ==`` the target's key (:func:`compute_ranks`, which reads
    it from its block) the counts are exactly ``better`` and ``better +
    ties``.  A caller that can only bracket the key before it reaches the
    target's tile gets a rank wherever no other candidate falls inside the
    bracket (then ``better`` is the count below it); :meth:`ranks` names the
    queries where one does, or where the key read back lies outside, as
    unresolved.

    A tile may also hold *approximate* keys, each within a known ``margin``
    of the exact key it stands for (the fp32 tiles of
    :meth:`~repro.models.base.TranslationalModel.rank_triples`).  Its counts
    are then taken against ``lo − margin`` and ``hi + margin``, so a
    candidate counted below (or left above) is below ``lo`` (above ``hi``)
    for certain, and each candidate left in between — the *band* — is
    settled one by one from its exact key and that key's own margin, which
    ``settle`` returns.  A query whose band holds a candidate no margin
    decides or more than :data:`SETTLE_LIMIT` candidates in one tile, whose
    bound is not finite (a NaN key fails both compares and would count as
    worse), or whose target key is not inside its bracket for certain is
    unresolved, exactly as a candidate inside the bracket makes it in the
    exact count.

    A walk split over workers (:func:`repro.ranking.walk_table`) counts each
    share's tiles into its own :meth:`fork` and adds the parts back with
    :meth:`merge`: the counts and ``settled`` are integers, which add in any
    order, a doubt is ORed, and each target's key is written by the one tile
    that holds it, so the merged counter equals one that counted every tile.
    """

    def __init__(self, n_candidates: int,
                 true_indices: np.ndarray,
                 filter_indices: Union[None, Tuple[np.ndarray, np.ndarray],
                                       Iterable[Optional[np.ndarray]]],
                 lo: np.ndarray, hi: np.ndarray) -> None:
        n = int(n_candidates)
        true = np.asarray(true_indices, dtype=np.int64).reshape(-1)
        b = true.shape[0]
        if true.size and (true.min() < 0 or true.max() >= n):
            raise IndexError("true index out of candidate range")
        if filter_indices is None:
            rows = cols = np.empty(0, dtype=np.int64)
        else:
            rows, cols = _flat_exclusions(filter_indices, b, n)
            others = cols != true[rows]
            rows, cols = rows[others], cols[others]
        self.n_candidates, self.true = n, true
        self.lo, self.hi = np.asarray(lo), np.asarray(hi)
        self._excluded = rows, cols
        self._n_excluded = np.bincount(rows, minlength=b)
        # The target's own column is taken back like an exclusion; its key is
        # kept.  Sorted by column, each tile reads one contiguous run.
        rows = np.concatenate([rows, np.arange(b, dtype=np.int64)])
        cols = np.concatenate([cols, true])
        order = np.argsort(cols, kind="stable")
        self._rows, self._cols = rows[order], cols[order]
        self.target = np.full(b, np.nan, dtype=self.lo.dtype)
        self._below = np.zeros(b, dtype=np.int64)
        self._upto = np.zeros(b, dtype=np.int64)
        #: Queries an approximate tile could not decide (see :meth:`count`).
        self._doubt = np.zeros(b, dtype=bool)
        #: Keys settled exactly per query, the target's included.
        self.settled = np.zeros(b, dtype=np.int64)
        self._mask = np.empty(0, dtype=bool)

    def fork(self) -> "RankCounter":
        """An empty part of this counter: the same queries, brackets and
        exclusions (shared, read-only), its own counts and scratch."""
        part = copy.copy(self)
        part.target = np.full_like(self.target, np.nan)
        part._below = np.zeros_like(self._below)
        part._upto = np.zeros_like(self._upto)
        part._doubt = np.zeros_like(self._doubt)
        part.settled = np.zeros_like(self.settled)
        part._mask = np.empty(0, dtype=bool)
        return part

    def merge(self, part: "RankCounter") -> None:
        """Add a :meth:`fork`'s counts into this counter.

        A part's target keys keep the NaN :meth:`fork` filled them with
        except where one of its tiles held the target, so any other bits (a
        NaN the tile computed included) are taken, each from the one share
        whose tile held it.
        """
        self._below += part._below
        self._upto += part._upto
        self.settled += part.settled
        self._doubt |= part._doubt
        fill = np.full(1, np.nan, dtype=part.target.dtype).view(np.uint8)
        bits = part.target.view(np.uint8).reshape(-1, fill.size)
        held = (bits != fill).any(axis=1)
        self.target[held] = part.target[held]

    def reserve(self, rows: int, cols: int) -> None:
        """Size the count's mask scratch for tiles up to ``rows × cols``.

        A split walk calls it on the calling thread before each round, so a
        share never allocates the mask (:func:`repro.sparse.kernels.split_rows`).
        """
        if self._mask.size < 2 * rows * cols:
            self._mask = np.empty(2 * rows * cols, dtype=bool)

    def count(self, keys: np.ndarray, rows, start: int,
              margin: Optional[np.ndarray] = None,
              settle: Optional[Callable[[np.ndarray, np.ndarray],
                                        Tuple[np.ndarray, np.ndarray]]] = None
              ) -> None:
        """Count one tile: ``keys[j, c]`` is candidate ``start + c``'s key for
        query ``rows[j]`` (``rows`` an index array, or ``slice(None)``).

        An approximate tile comes with ``margin[j]``, a bound on how far any
        of query ``rows[j]``'s keys lies from its exact key, and
        ``settle(j, c)``, which returns the exact keys of the pairs ``(j[i],
        c[i])`` (tile row, tile column) with bounds on their own rounding.
        """
        b = self.true.shape[0]
        nb, w = keys.shape
        lo, hi = self.lo[rows], self.hi[rows]
        if margin is not None:
            lo, hi = _widened(lo, hi, margin, keys.dtype)
        # Settling locates the band from both masks; otherwise one is reused.
        masks = 1 if settle is None else 2
        if self._mask.size < masks * nb * w:
            self._mask = np.empty(masks * nb * w, dtype=bool)
        mask = self._mask[:masks * nb * w].reshape(masks, nb, w)
        np.less(keys, lo[:, None], out=mask[0])
        below = _row_counts(mask[0])
        np.less_equal(keys, hi[:, None], out=mask[-1])
        upto = _row_counts(mask[-1])
        self._below[rows] += below
        self._upto[rows] += upto

        first, last = np.searchsorted(self._cols, (start, start + w))
        at, cols = self._rows[first:last], self._cols[first:last]
        local = at if isinstance(rows, slice) else self._local(rows)[at]
        inside = local >= 0
        at, cols, local = at[inside], cols[inside], local[inside]
        key = keys[local, cols - start]
        lower, upper = key < lo[local], key <= hi[local]
        self._below -= np.bincount(at[lower], minlength=b)
        self._upto -= np.bincount(at[upper], minlength=b)
        own = cols == self.true[at]
        if settle is None:
            self.target[at[own]] = key[own]
            return
        # The band of each row: up to hi, not below lo, and neither an
        # exclusion nor the target, which leave both masks.
        mask[:, local, cols - start] = False
        band = (upto.astype(np.int64) - below
                - np.bincount(local[upper & ~lower], minlength=nb))
        self._settle(mask, band, np.arange(b, dtype=np.int64)[rows],
                     ~(np.isfinite(lo) & np.isfinite(hi)), local[own],
                     cols[own] - start, settle)

    def _settle(self, mask: np.ndarray, band: np.ndarray, queries: np.ndarray,
                unbounded: np.ndarray, target_rows: np.ndarray,
                target_cols: np.ndarray, settle) -> None:
        """Settle an approximate tile's band and targets from exact keys.

        ``mask`` holds the tile's two masks (below ``lo``, up to ``hi``) and
        ``band`` each row's count between them; ``queries`` are the rows'
        queries, and the tile holds targets at ``(target_rows,
        target_cols)``.  A band candidate found below ``lo`` or above ``hi``
        for certain leaves the band.  Any other stays in it, and so does
        every candidate of a row with more than :data:`SETTLE_LIMIT`, which
        is not settled: either leaves the query unresolved.  So do a target
        not inside its bracket for certain and an unbounded row.
        """
        self._doubt[queries[unbounded]] = True
        busy = np.flatnonzero((band > 0) & (band <= SETTLE_LIMIT))
        # A band candidate is up to ``hi`` but not below ``lo`` (below ⊆ up
        # to): the masks of the busy rows differ exactly there.
        row, col = np.divmod(np.flatnonzero(mask[0, busy] != mask[1, busy]),
                             mask.shape[2])
        rows = np.concatenate([target_rows, busy[row]])
        key, slack = settle(rows, np.concatenate([target_cols, col]))
        at = queries[rows]
        self.settled += np.bincount(at, minlength=self.settled.size)
        lo, hi = self.lo[at], self.hi[at]
        n = target_rows.size
        self.target[at[:n]] = key[:n]
        certain = (lo[:n] <= key[:n] - slack[:n]) & (key[:n] + slack[:n] <= hi[:n])
        self._doubt[at[:n][~certain]] = True
        at, key, slack = at[n:], key[n:], slack[n:]
        self._below += np.bincount(at[key + slack < lo[n:]], minlength=self._below.size)
        self._upto -= np.bincount(at[key - slack > hi[n:]], minlength=self._upto.size)

    def ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ranks, unresolved)``: ``(B,)`` float64 ranks and a boolean mask.

        A non-finite target key ranks last among the candidates left after
        filtering.  An unresolved query's rank is not valid: some other
        candidate's key lies inside its bracket, or its own key lies outside,
        or an approximate tile left either in doubt.
        """
        inside = self._upto - self._below
        ranks = self._below + inside / 2.0 + 1
        key, lo, hi = self.target, self.lo, self.hi
        finite = np.isfinite(key)
        ranks[~finite] = (self.n_candidates - self._n_excluded)[~finite]
        exact = (lo == key) & (hi == key)
        bracketed = (inside == 0) & (lo <= key) & (key <= hi)
        return ranks, (finite & ~(exact | bracketed)) | self._doubt

    def exclusions(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(rows, cols)`` exclusions of the queries ``rows`` (ascending),
        renumbered ``0 .. len(rows) − 1``."""
        at, cols = self._excluded
        local = self._local(rows)[at]
        keep = local >= 0
        return local[keep], cols[keep]

    def _local(self, rows: np.ndarray) -> np.ndarray:
        """Position of each query in ``rows``; ``−1`` for the others."""
        local = np.full(self.true.shape[0], -1, dtype=np.int64)
        local[rows] = np.arange(len(rows), dtype=np.int64)
        return local


#: The most band candidates one query settles from one tile; a query with
#: more (a table of ties) is left unresolved, which bounds what a tile's
#: settling gathers.
SETTLE_LIMIT = 16


def _widened(lo: np.ndarray, hi: np.ndarray, margin: np.ndarray, dtype
             ) -> Tuple[np.ndarray, np.ndarray]:
    """``lo − margin`` and ``hi + margin`` rounded outward into ``dtype``.

    The nearest ``dtype`` value, stepped one ulp outward, lies strictly
    outside the float64 bound and further from it than the float64
    subtraction's rounding.  Non-finite where a bound overflows ``dtype``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.nextafter((lo - margin).astype(dtype), dtype.type(-np.inf)),
                np.nextafter((hi + margin).astype(dtype), dtype.type(np.inf)))


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """``True`` entries per row of a C-contiguous boolean tile.

    Sums the bytes into the narrowest accumulator that holds a row's count:
    ``uint16`` for rows shorter than 65 536, several times faster than
    ``np.count_nonzero(mask, axis=1)``, which widens every entry to ``intp``.
    """
    dtype = np.uint16 if mask.shape[1] < 1 << 16 else np.int64
    return mask.view(np.uint8).sum(axis=1, dtype=dtype)


def stack_exclusions(filter_sets, b: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(rows, cols)`` of query blocks of ``b`` rows stacked in order:
    block ``k``'s rows offset by ``k·b``; a ``None`` block excludes nothing."""
    none = np.empty(0, dtype=np.int64)
    flat = [(none, none) if part is None else _flat_exclusions(part, b, n)
            for part in filter_sets]
    return (np.concatenate([rows + k * b for k, (rows, _) in enumerate(flat)]),
            np.concatenate([cols for _, cols in flat]))


def _flat_exclusions(filter_indices, b: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Either ``filter_indices`` form as checked, duplicate-free ``(rows, cols)``."""
    if isinstance(filter_indices, tuple):
        if len(filter_indices) != 2:
            raise ValueError("flat filter_indices must be a (rows, cols) pair")
        rows, cols = (np.asarray(part, dtype=np.int64).reshape(-1)
                      for part in filter_indices)
        if rows.shape != cols.shape:
            raise ValueError(
                f"flat filter_indices must align, got {rows.shape} and {cols.shape}")
    else:
        per_row = [np.asarray([] if part is None else part, dtype=np.int64).reshape(-1)
                   for part in filter_indices]
        if len(per_row) != b:
            raise ValueError("filter_indices must provide one array per row")
        rows = np.repeat(np.arange(b, dtype=np.int64),
                         np.array([part.size for part in per_row], dtype=np.int64))
        cols = (np.concatenate(per_row) if per_row
                else np.empty(0, dtype=np.int64))
    if rows.size and (rows.min() < 0 or rows.max() >= b
                      or cols.min() < 0 or cols.max() >= n):
        raise IndexError("filter index out of candidate range")
    flat = rows * n + cols  # < b * n, the size of the score block
    if flat.size > 1 and not (flat[1:] > flat[:-1]).all():
        rows, cols = np.divmod(np.unique(flat), n)
    return rows, cols


def hits_at_k(ranks: np.ndarray, k: int) -> float:
    """Fraction of ranks that are <= k."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if ranks.size == 0:
        return float("nan")
    return float((ranks <= k).mean())


def mean_rank(ranks: np.ndarray) -> float:
    """Arithmetic mean of the ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    return float(ranks.mean()) if ranks.size else float("nan")


def mean_reciprocal_rank(ranks: np.ndarray) -> float:
    """Mean of 1/rank."""
    ranks = np.asarray(ranks, dtype=np.float64)
    return float((1.0 / ranks).mean()) if ranks.size else float("nan")
