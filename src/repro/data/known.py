"""The known-positives index: one immutable, array-backed set of triples.

Filtered ranking (evaluation), filtered serving and filtered negative sampling
all ask the same two questions of a graph's positives — *which entities
complete this ``(anchor, relation)`` pair?* and *is this triple known?* —
and :class:`KnownTriples` answers both from sorted arrays built once:

* ``triples`` — the unique ``(h, r, t)`` rows, sorted lexicographically;
* two sides, ``"tail"`` (anchor = head, values = tails) and ``"head"``
  (anchor = tail, values = heads), each a CSR nested twice: the distinct
  anchors, a pointer into the relations seen with each anchor, and an
  ``indptr`` from every distinct ``(anchor, relation)`` pair into its values,
  sorted and unique.

A pair is found by binary search on the anchors and then on the relations
inside that anchor's slice, so nothing is ever packed into a composite
integer key that large ids could overflow.  The object is a
:class:`collections.abc.Set` of ``(h, r, t)`` tuples of Python ints — ``in``,
``len``, iteration and ``==`` against a plain ``set`` all work — so code
written against the old ``set`` of tuples keeps running unchanged.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator, NamedTuple, Tuple

import numpy as np

from repro.utils.validation import check_triples


class _Side(NamedTuple):
    """One lookup direction, a CSR nested twice: anchor → relations → values."""

    anchors: np.ndarray     # (U,) distinct anchors, ascending
    anchor_ptr: np.ndarray  # (U + 1,) anchor u owns relations[anchor_ptr[u]:anchor_ptr[u + 1]]
    relations: np.ndarray   # (K,) one per distinct pair, ascending inside an anchor
    indptr: np.ndarray      # (K + 1,) pair k owns values[indptr[k]:indptr[k + 1]]
    values: np.ndarray      # (M,) ascending and unique inside each pair's slice


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where any of the (jointly sorted) columns changes value."""
    first = np.zeros(columns[0].shape[0], dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(first)


def _build_side(anchors: np.ndarray, relations: np.ndarray,
                values: np.ndarray) -> _Side:
    """Side from columns already sorted by ``(anchor, relation, value)``."""
    pair_starts = _run_starts(anchors, relations)
    pair_anchors = anchors[pair_starts]
    anchor_starts = _run_starts(pair_anchors)
    side = _Side(
        pair_anchors[anchor_starts],
        np.append(anchor_starts, pair_starts.shape[0]).astype(np.int64, copy=False),
        relations[pair_starts],
        np.append(pair_starts, anchors.shape[0]).astype(np.int64, copy=False),
        np.ascontiguousarray(values),
    )
    for arr in side:
        arr.setflags(write=False)
    return side


def _lower_bound(sorted_values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Per element: first ``p`` in ``[lo, hi)`` with ``sorted_values[p] >= target``.

    ``hi`` where no such position exists.  One vectorised bisection over all
    slices at once; the step count is the bit length of the widest slice.
    """
    last = sorted_values.shape[0] - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        active = lo < hi
        mid = (lo + hi) >> 1
        right = active & (sorted_values[np.minimum(mid, last)] < targets)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
    return lo


def _found(keys: np.ndarray, pos: np.ndarray, hi, targets: np.ndarray) -> np.ndarray:
    """Whether each target sits at its lower bound ``pos`` in a run ending at ``hi``."""
    hit = pos < hi
    hit[hit] = keys[pos[hit]] == targets[hit]
    return hit


def _child_slices(keys: np.ndarray, ptr: np.ndarray, pos: np.ndarray, hi,
                  targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``[start, stop)`` each target's key owns through ``ptr``; empty if absent."""
    start = ptr[pos]  # pos <= len(keys), so always a valid ptr position
    stop = np.where(_found(keys, pos, hi, targets),
                    ptr[np.minimum(pos + 1, keys.shape[0])], start)
    return start, stop


class KnownTriples(Set):
    """Immutable set of known ``(h, r, t)`` positives with vectorised lookups.

    Parameters
    ----------
    triples:
        ``(M, 3)`` integer array, or any iterable of ``(h, r, t)`` triples
        (a ``set`` of tuples, a list).  Duplicates collapse; ids must be
        non-negative.
    """

    def __init__(self, triples: Iterable[Tuple[int, int, int]] = ()) -> None:
        if not isinstance(triples, np.ndarray):
            triples = np.array(list(triples), dtype=np.int64).reshape(-1, 3)
        rows = check_triples(triples, name="known triples")
        rows = rows[np.lexsort(rows.T[::-1])]  # by h, then r, then t
        rows = rows[_run_starts(*rows.T)]
        rows.setflags(write=False)
        #: Unique ``(h, r, t)`` rows in lexicographic order (read-only).
        self.triples = rows
        h, r, t = rows.T
        # Rows are in h order and lexsort is stable: (t, r) keys give (t, r, h).
        by_tail = np.lexsort((r, t))
        self._sides = {
            "tail": _build_side(h, r, t),
            "head": _build_side(t[by_tail], r[by_tail], h[by_tail]),
        }

    @classmethod
    def coerce(cls, known) -> "KnownTriples":
        """``known`` itself when it already is an index, else one built from it."""
        return known if isinstance(known, cls) else cls(known)

    # ------------------------------------------------------------------ #
    # Set protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.triples.shape[0]

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        return map(tuple, self.triples.tolist())

    def __contains__(self, triple) -> bool:
        try:
            h, r, t = triple
            values = self.values("tail", h, r)
            pos = int(np.searchsorted(values, t))
            return pos < values.shape[0] and bool(values[pos] == t)
        except (TypeError, ValueError, OverflowError):
            return False  # not an integer triple: not a member

    def __eq__(self, other) -> bool:
        if isinstance(other, KnownTriples):
            return np.array_equal(self.triples, other.triples)
        return super().__eq__(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnownTriples(n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Bytes held by the rows and both sides."""
        return self.triples.nbytes + sum(
            arr.nbytes for side in self._sides.values() for arr in side)

    # ------------------------------------------------------------------ #
    # Vectorised reads
    # ------------------------------------------------------------------ #
    def values(self, side: str, anchor: int, relation: int) -> np.ndarray:
        """Known completions of one ``(anchor, relation)`` pair.

        ``side="tail"``: the tails ``t`` with ``(anchor, relation, t)`` known;
        ``side="head"``: the heads ``h`` with ``(h, relation, anchor)`` known.
        A sorted, unique, read-only view — empty for a pair with no positives.
        """
        s = self._side(side)
        a = int(np.searchsorted(s.anchors, anchor))
        if a == s.anchors.shape[0] or s.anchors[a] != anchor:
            return s.values[:0]
        lo, hi = s.anchor_ptr[a], s.anchor_ptr[a + 1]
        key = lo + int(np.searchsorted(s.relations[lo:hi], relation))
        if key == hi or s.relations[key] != relation:
            return s.values[:0]
        return s.values[s.indptr[key]:s.indptr[key + 1]]

    def exclusions(self, side: str, anchors: np.ndarray,
                   relations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(rows, cols)`` of every known completion of a query batch.

        For query ``i`` = ``(anchors[i], relations[i])``, each entity of
        ``values(side, anchors[i], relations[i])`` appears once as
        ``(rows == i, cols == entity)`` — the entries the filtered protocol
        removes from row ``i`` of a ``(B, n_entities)`` score block.  ``rows``
        ascends and ``cols`` ascends within a row.
        """
        s = self._side(side)
        start, stop = self._slices(s, anchors, relations)
        counts = stop - start
        rows = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        # Entry j of row i reads values[start[i] + j]: shift a flat arange by
        # each row's (start - entries before it).
        shift = np.repeat(start - (np.cumsum(counts) - counts), counts)
        cols = s.values[np.arange(rows.shape[0], dtype=np.int64) + shift]
        return rows, cols

    def contains(self, triples: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of an ``(B, 3)`` integer array are known."""
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        s = self._sides["tail"]
        start, stop = self._slices(s, triples[:, 0], triples[:, 1])
        tails = triples[:, 2]
        return _found(s.values, _lower_bound(s.values, start, stop, tails), stop, tails)

    # ------------------------------------------------------------------ #
    def _side(self, side: str) -> _Side:
        try:
            return self._sides[side]
        except KeyError:
            raise ValueError(
                f"side must be one of {tuple(self._sides)}, got {side!r}") from None

    @staticmethod
    def _slices(s: _Side, anchors: np.ndarray,
                relations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``[start, stop)`` into ``s.values`` per query (empty if unknown)."""
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        if anchors.shape != relations.shape:
            raise ValueError(
                f"anchors and relations must align, got {anchors.shape} and "
                f"{relations.shape}")
        pos = np.searchsorted(s.anchors, anchors)
        lo, hi = _child_slices(s.anchors, s.anchor_ptr, pos,
                               s.anchors.shape[0], anchors)
        pos = _lower_bound(s.relations, lo, hi, relations)
        return _child_slices(s.relations, s.indptr, pos, hi, relations)
