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
    avoids both over- and under-crediting degenerate constant scorers.
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

    # Count over the whole block, then take the excluded entries back out:
    # the block is never copied or masked.
    target = scores[np.arange(b, dtype=np.int64), true_indices]
    better = np.count_nonzero(scores < target[:, None], axis=1)
    ties = np.count_nonzero(scores == target[:, None], axis=1) - 1  # exclude the target itself
    if filter_indices is not None:
        rows, cols = _flat_exclusions(filter_indices, b, n)
        others = cols != true_indices[rows]
        rows, cols = rows[others], cols[others]
        excluded, at = scores[rows, cols], target[rows]
        better -= np.bincount(rows[excluded < at], minlength=b)
        ties -= np.bincount(rows[excluded == at], minlength=b)
    return (better + ties / 2.0 + 1).astype(np.float64)


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
