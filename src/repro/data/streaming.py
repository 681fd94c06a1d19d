"""Streaming minibatch iteration backed by a triple store.

The paper's dataloader module streams minibatches out of an SQLite
representation when the triple list is too large for memory.  This module
provides that path end to end: a :class:`StreamingBatchIterator` pulls
positive blocks from any object implementing the small :class:`TripleStore`
protocol (the on-disk :class:`~repro.data.sqlite_store.SQLiteKGStore`),
shuffles them with a seeded per-epoch block shuffle, corrupts them on the
fly with any negative sampler, and yields the same
:class:`~repro.data.batching.TripletBatch` objects the in-memory
:class:`~repro.data.batching.BatchIterator` produces — so the trainer does
not care which side it is fed from.

Shuffling works out of core: each epoch draws a fresh permutation of the
fixed-size row *blocks* and a fresh permutation of the rows inside each
fetched block, so peak memory is one block (``batch_size * block_batches``
rows), never the whole split.  The order is a deterministic function of
``(seed, epoch)``, which is what lets a resumed run replay the epochs it
skips without storing any of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Tuple

import numpy as np

from repro.data.batching import TripletBatch
from repro.data.negative_sampling import NegativeSampler, UniformNegativeSampler
from repro.utils.seeding import new_rng


def block_bounds_of(n_rows: int, block_size: int) -> List[Tuple[int, int]]:
    """Inclusive ``(lo, hi)`` position ranges of ``block_size`` rows covering
    ``n_rows`` rows (the last range may be shorter)."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    return [(lo, min(lo + block_size, n_rows) - 1)
            for lo in range(0, n_rows, block_size)]


def pair_run_bounds(head_buckets: np.ndarray, tail_buckets: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open ``[start, stop)`` row ranges of constant ``(head_bucket,
    tail_bucket)`` key, found where the key differs from the previous row's."""
    changed = np.flatnonzero((head_buckets[1:] != head_buckets[:-1])
                             | (tail_buckets[1:] != tail_buckets[:-1])) + 1
    if not head_buckets.size:
        return changed, changed
    return (np.concatenate(([0], changed)),
            np.concatenate((changed, [head_buckets.size])))


def pair_runs_of(chunks: Iterable[np.ndarray], bucket_size: int
                 ) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Contiguous position runs per ``(head_bucket, tail_bucket)`` pair.

    ``chunks`` are consecutive ``(M, 3)`` pieces of one split; a run that
    crosses a chunk boundary stays one run.  Key changes are found per chunk
    with :func:`pair_run_bounds`; Python touches each run, not each row.
    """
    if bucket_size <= 0:
        raise ValueError(f"bucket_size must be positive, got {bucket_size}")
    runs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    offset = 0
    for rows in chunks:
        heads, tails = rows[:, 0] // bucket_size, rows[:, 2] // bucket_size
        starts, stops = pair_run_bounds(heads, tails)
        for head, tail, lo, hi in zip(heads[starts].tolist(), tails[starts].tolist(),
                                      (starts + offset).tolist(),
                                      (stops + offset - 1).tolist()):
            pair_list = runs.setdefault((head, tail), [])
            if pair_list and pair_list[-1][1] == lo - 1:
                pair_list[-1] = (pair_list[-1][0], hi)
            else:
                pair_list.append((lo, hi))
        offset += rows.shape[0]
    return runs


class TripleStore(Protocol):
    """What a batch source must expose to be streamed from."""

    @property
    def n_entities(self) -> int: ...

    def n_triples(self, split: Optional[str] = "train") -> int: ...

    def block_bounds(self, block_size: int, split: str = "train"
                     ) -> List[Tuple[int, int]]: ...

    def fetch_block(self, lo: int, hi: int, split: str = "train") -> np.ndarray: ...


class StreamingBatchIterator:
    """Iterate positive/negative batches straight out of a triple store.

    Parameters
    ----------
    store:
        Any :class:`TripleStore`.
    batch_size:
        Positives per batch (the final batch of an epoch may be smaller).
    sampler:
        Negative sampler; a uniform sampler over the store's entity count is
        created when omitted.
    split:
        Which split to stream (``"train"`` by default).
    drop_last:
        Drop a trailing partial batch; ``__len__`` counts exactly the batches
        ``__iter__`` yields either way.
    rng:
        Seed or generator for the default sampler; when an integer it also
        seeds the epoch shuffle (unless ``seed`` overrides it).
    shuffle:
        Draw a fresh seeded block-shuffled order every epoch.  Without it the
        iterator replays SQLite insert order each epoch — the silent SGD
        degradation this flag exists to prevent.
    block_batches:
        Shuffle granularity: blocks of ``batch_size * block_batches`` rows are
        visited in a random order and shuffled internally, bounding shuffle
        memory to one block.
    seed:
        Explicit shuffle seed; the per-epoch order is
        ``default_rng([seed, epoch])`` so it is reproducible across processes
        and epochs are mutually distinct.
    num_negatives:
        Negatives contrasted per positive: each fetched block is tiled this
        many times before the intra-block shuffle, every copy drawing its own
        corruption — mirroring the in-memory protocol (dataset tiled ``K``
        times), so batch row counts and steps per epoch match the memory
        storage path for the same ``batch_size``.
    """

    def __init__(self, store: TripleStore, batch_size: int,
                 sampler: Optional[NegativeSampler] = None, split: str = "train",
                 drop_last: bool = False, rng=None, shuffle: bool = True,
                 block_batches: int = 16, seed: Optional[int] = None,
                 num_negatives: int = 1) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if block_batches <= 0:
            raise ValueError(f"block_batches must be positive, got {block_batches}")
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
        self.store = store
        self.batch_size = int(batch_size)
        self.split = split
        self.drop_last = bool(drop_last)
        self.shuffle = bool(shuffle)
        self.block_batches = int(block_batches)
        self.num_negatives = int(num_negatives)
        if seed is not None:
            self.seed = int(seed)
        elif isinstance(rng, (int, np.integer)):
            self.seed = int(rng)
        else:
            self.seed = 0
        self.epoch = 0
        self.sampler = sampler if sampler is not None else UniformNegativeSampler(
            max(store.n_entities, 2), rng=new_rng(rng)
        )
        self._bounds: Optional[List[Tuple[int, int]]] = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of batches per epoch (matches what ``__iter__`` yields)."""
        n = self.store.n_triples(self.split) * self.num_negatives
        if self.drop_last:
            return n // self.batch_size
        return int(np.ceil(n / self.batch_size))

    def _block_bounds(self) -> List[Tuple[int, int]]:
        if self._bounds is None:
            self._bounds = self.store.block_bounds(
                self.batch_size * self.block_batches, split=self.split
            )
        return self._bounds

    def _iter_positives(self, epoch: int) -> Iterator[np.ndarray]:
        """Yield exact ``batch_size`` positive rows (trailing partial last)."""
        bounds = self._block_bounds()
        order = np.arange(len(bounds))
        epoch_rng = None
        if self.shuffle:
            epoch_rng = np.random.default_rng([self.seed, epoch])
            order = epoch_rng.permutation(len(bounds))
        carry: Optional[np.ndarray] = None
        for block_index in order:
            lo, hi = bounds[block_index]
            block = self.store.fetch_block(lo, hi, split=self.split)
            if self.num_negatives > 1:
                block = np.repeat(block, self.num_negatives, axis=0)
            if epoch_rng is not None:
                block = block[epoch_rng.permutation(block.shape[0])]
            if carry is not None and carry.size:
                block = np.concatenate([carry, block], axis=0)
                carry = None
            full = (block.shape[0] // self.batch_size) * self.batch_size
            for start in range(0, full, self.batch_size):
                yield block[start:start + self.batch_size]
            if block.shape[0] > full:
                carry = block[full:]
        if carry is not None and carry.size:
            yield carry

    def __iter__(self) -> Iterator[TripletBatch]:
        epoch, self.epoch = self.epoch, self.epoch + 1
        for positives in self._iter_positives(epoch):
            if self.drop_last and positives.shape[0] < self.batch_size:
                continue
            yield TripletBatch(positives=positives,
                               negatives=self.sampler.corrupt(positives))
