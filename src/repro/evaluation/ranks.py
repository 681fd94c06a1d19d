"""Ranking utilities shared by the link-prediction evaluator."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Tuple, Union

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
        self._mask = np.empty(0, dtype=bool)

    def count(self, keys: np.ndarray, rows, start: int) -> None:
        """Count one tile: ``keys[j, c]`` is candidate ``start + c``'s key for
        query ``rows[j]`` (``rows`` an index array, or ``slice(None)``)."""
        b = self.true.shape[0]
        nb, w = keys.shape
        if self._mask.size < nb * w:
            self._mask = np.empty(nb * w, dtype=bool)
        mask = self._mask[:nb * w].reshape(nb, w)
        np.less(keys, self.lo[rows, None], out=mask)
        self._below[rows] += _row_counts(mask)
        np.less_equal(keys, self.hi[rows, None], out=mask)
        self._upto[rows] += _row_counts(mask)

        first, last = np.searchsorted(self._cols, (start, start + w))
        at, cols = self._rows[first:last], self._cols[first:last]
        local = at if isinstance(rows, slice) else self._local(rows)[at]
        inside = local >= 0
        at, cols, local = at[inside], cols[inside], local[inside]
        key = keys[local, cols - start]
        self._below -= np.bincount(at[key < self.lo[at]], minlength=b)
        self._upto -= np.bincount(at[key <= self.hi[at]], minlength=b)
        own = cols == self.true[at]
        self.target[at[own]] = key[own]

    def ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ranks, unresolved)``: ``(B,)`` float64 ranks and a boolean mask.

        A non-finite target key ranks last among the candidates left after
        filtering.  An unresolved query's rank is not valid: some other
        candidate's key lies inside its bracket, or its own key lies outside.
        """
        inside = self._upto - self._below
        ranks = self._below + inside / 2.0 + 1
        key, lo, hi = self.target, self.lo, self.hi
        finite = np.isfinite(key)
        ranks[~finite] = (self.n_candidates - self._n_excluded)[~finite]
        exact = (lo == key) & (hi == key)
        bracketed = (inside == 0) & (lo <= key) & (key <= hi)
        return ranks, finite & ~(exact | bracketed)

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


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """``True`` entries per row of a C-contiguous boolean tile.

    Sums the bytes into the narrowest accumulator that holds a row's count:
    ``uint16`` for rows shorter than 65 536, several times faster than
    ``np.count_nonzero(mask, axis=1)``, which widens every entry to ``intp``.
    """
    dtype = np.uint16 if mask.shape[1] < 1 << 16 else np.int64
    return mask.view(np.uint8).sum(axis=1, dtype=dtype)


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
