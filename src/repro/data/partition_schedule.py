"""PBG-style bucket-pair batch schedule for partitioned entity tables.

A step of plain shuffled SGD touches entities from every bucket, which forces
a partitioned table (:class:`~repro.nn.partitioned.PartitionedEmbedding`) to
thrash its resident set.  The Parti­tioned­StreamingIterator instead visits the
training split as **bucket-pair episodes**: an epoch is a seeded permutation
of the populated ``(head_bucket, tail_bucket)`` pairs, and every batch inside
an episode — positives *and* their corruptions — draws its entities from at
most those two buckets, so a training step faults at most two buckets
(``max_resident=2`` suffices, whatever ``P`` is).

Episodes stream out of the triple store through the contiguous position
runs :meth:`~repro.data.sqlite_store.SQLiteKGStore.pair_runs` returns.  After
:meth:`~repro.data.sqlite_store.SQLiteKGStore.cluster_by_partition` that is
one run per pair, found by one chunk-by-chunk scan per iterator, and an
episode is a handful of whole chunks read with one ``np.frombuffer`` per
shuffle block; peak memory stays one shuffle block, exactly like
:class:`~repro.data.streaming.StreamingBatchIterator`.

Negative corruption is bucket-local (the PBG recipe): a corrupted head is
redrawn uniformly from the *head* bucket of the episode and a corrupted tail
from the *tail* bucket.  That changes the corruption distribution relative to
global uniform sampling — it is the documented semantics of the partitioned
schedule, not a drop-in replacement — which is why trajectory-parity tests
run the standard schedule and this iterator has its own coverage tests.

Everything an epoch does is a deterministic function of ``(seed, epoch)``:
rebuilding the iterator from the same description replays the identical
batch stream.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.batching import TripletBatch
from repro.partition import EntityPartition

#: Redraw attempts for corruptions that accidentally reproduce the positive.
_MAX_RETRIES = 10


class PartitionedStreamingIterator:
    """Stream bucket-pair episodes of positive/negative batches from a store.

    Parameters
    ----------
    store:
        Triple store exposing ``pair_runs``/``fetch_block``/``n_triples``
        (:class:`~repro.data.sqlite_store.SQLiteKGStore` or the in-memory
        twin).
    batch_size:
        Positives per batch; a trailing partial batch is emitted at the end
        of each episode (batches never straddle episodes — that would break
        the two-bucket guarantee).
    partition:
        The entity partition the embedding table uses; episode keys and
        bucket-local corruption ranges both derive from it.
    split:
        Which split to stream.
    seed:
        Epoch randomness seed: pair order, intra-block shuffles, and
        corruption draws are all drawn from ``default_rng([seed, epoch])``.
    num_negatives:
        Negatives contrasted per positive (positives are tiled, every copy
        drawing its own corruption, mirroring the dense protocol).
    block_batches:
        Shuffle granularity in batches (peak memory is one block).
    """

    def __init__(self, store, batch_size: int, partition: EntityPartition,
                 split: str = "train", seed: int = 0, num_negatives: int = 1,
                 block_batches: int = 16) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
        if block_batches <= 0:
            raise ValueError(f"block_batches must be positive, got {block_batches}")
        self.store = store
        self.batch_size = int(batch_size)
        self.partition = partition
        self.split = split
        self.seed = int(seed)
        self.num_negatives = int(num_negatives)
        self.block_batches = int(block_batches)
        self.epoch = 0
        self._runs: Optional[Dict[Tuple[int, int], List[Tuple[int, int]]]] = None
        self._pair_keys: Optional[List[Tuple[int, int]]] = None

    # ------------------------------------------------------------------ #
    def _pair_runs(self) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        if self._runs is None:
            self._runs = self.store.pair_runs(self.partition.bucket_size,
                                              split=self.split)
            self._pair_keys = sorted(self._runs)
        return self._runs

    @property
    def n_episodes(self) -> int:
        """Number of populated bucket pairs (episodes per epoch)."""
        self._pair_runs()
        return len(self._pair_keys)

    def __len__(self) -> int:
        """Batches per epoch (episode-partial batches included)."""
        runs = self._pair_runs()
        total = 0
        for pair_runs in runs.values():
            count = sum(hi - lo + 1 for lo, hi in pair_runs) * self.num_negatives
            total += -(-count // self.batch_size)
        return total

    def set_epoch(self, epoch: int) -> None:
        """Pin the epoch counter: the next pass draws that epoch's order."""
        self.epoch = int(epoch)

    # ------------------------------------------------------------------ #
    def _iter_episode_positives(self, pair: Tuple[int, int],
                                rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield shuffled positive batches for one bucket-pair episode."""
        block_size = self.batch_size * self.block_batches
        carry: Optional[np.ndarray] = None
        for lo, hi in self._pair_runs()[pair]:
            for start in range(lo, hi + 1, block_size):
                stop = min(hi, start + block_size - 1)
                block = self.store.fetch_block(start, stop, split=self.split)
                if self.num_negatives > 1:
                    block = np.repeat(block, self.num_negatives, axis=0)
                block = block[rng.permutation(block.shape[0])]
                if carry is not None and carry.size:
                    block = np.concatenate([carry, block], axis=0)
                    carry = None
                full = (block.shape[0] // self.batch_size) * self.batch_size
                for batch_start in range(0, full, self.batch_size):
                    yield block[batch_start:batch_start + self.batch_size]
                if block.shape[0] > full:
                    carry = block[full:]
        if carry is not None and carry.size:
            # Flush inside the episode: a batch must never mix bucket pairs.
            yield carry

    def _corrupt(self, positives: np.ndarray, pair: Tuple[int, int],
                 rng: np.random.Generator) -> np.ndarray:
        """Bucket-local corruption: heads stay in ``pair[0]``, tails in ``pair[1]``."""
        head_lo, head_hi = self.partition.bucket_range(pair[0])
        tail_lo, tail_hi = self.partition.bucket_range(pair[1])
        m = positives.shape[0]
        corrupted = positives.copy()
        corrupt_head = rng.random(m) < 0.5
        head_draws = rng.integers(head_lo, head_hi, size=m)
        tail_draws = rng.integers(tail_lo, tail_hi, size=m)
        corrupted[corrupt_head, 0] = head_draws[corrupt_head]
        corrupted[~corrupt_head, 2] = tail_draws[~corrupt_head]
        for _ in range(_MAX_RETRIES):
            same = np.all(corrupted == positives, axis=1)
            if not same.any():
                break
            rows = np.flatnonzero(same)
            heads = corrupt_head[rows]
            corrupted[rows[heads], 0] = rng.integers(head_lo, head_hi,
                                                     size=int(heads.sum()))
            corrupted[rows[~heads], 2] = rng.integers(tail_lo, tail_hi,
                                                      size=int((~heads).sum()))
        return corrupted

    def __iter__(self) -> Iterator[TripletBatch]:
        epoch, self.epoch = self.epoch, self.epoch + 1
        self._pair_runs()
        rng = np.random.default_rng([self.seed, epoch])
        order = rng.permutation(len(self._pair_keys))
        for pair_index in order:
            pair = self._pair_keys[int(pair_index)]
            for positives in self._iter_episode_positives(pair, rng):
                yield TripletBatch(positives=positives,
                                   negatives=self._corrupt(positives, pair, rng))
