"""Bucket-pair batch schedule: coverage, the ≤2-bucket invariant, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    InMemoryTripleStore,
    PartitionedStreamingIterator,
    SQLiteKGStore,
    generate_synthetic_kg,
)
from repro.partition import EntityPartition


@pytest.fixture(scope="module")
def kg():
    return generate_synthetic_kg(60, 6, 400, rng=3, name="sched")


@pytest.fixture
def sqlite_store(kg):
    store = SQLiteKGStore(":memory:")
    store.ingest_dataset(kg)
    yield store
    store.close()


def _multiset(triples_list):
    stacked = np.concatenate(triples_list, axis=0)
    return sorted(map(tuple, stacked.tolist()))


class TestPairRuns:
    def test_runs_cover_every_row(self, sqlite_store, kg):
        runs = sqlite_store.pair_runs(bucket_size=15)
        total = sum(hi - lo + 1 for pair in runs.values() for lo, hi in pair)
        assert total == kg.split.train.shape[0]

    def test_runs_agree_with_in_memory_twin(self, sqlite_store, kg):
        """Same pair keys and the same number of rows per pair on both stores."""
        memory_runs = InMemoryTripleStore(kg).pair_runs(bucket_size=15)
        sqlite_runs = sqlite_store.pair_runs(bucket_size=15)
        assert set(memory_runs) == set(sqlite_runs)
        for pair in memory_runs:
            count = lambda runs: sum(hi - lo + 1 for lo, hi in runs)  # noqa: E731
            assert count(memory_runs[pair]) == count(sqlite_runs[pair])

    def test_cluster_by_partition_compacts_runs(self, sqlite_store, kg):
        before = sqlite_store.pair_runs(bucket_size=15)
        sqlite_store.cluster_by_partition(15)
        after = sqlite_store.pair_runs(bucket_size=15)
        assert set(before) == set(after)
        # clustered: exactly one contiguous run per populated pair
        assert all(len(runs) == 1 for runs in after.values())
        # content preserved
        assert sorted(map(tuple, sqlite_store.to_dataset().split.train.tolist())) \
            == sorted(map(tuple, kg.split.train.tolist()))

    def test_cluster_is_idempotent(self, sqlite_store):
        sqlite_store.cluster_by_partition(15)
        first = sqlite_store.pair_runs(bucket_size=15)
        sqlite_store.cluster_by_partition(15)
        assert sqlite_store.pair_runs(bucket_size=15) == first

    def test_cluster_recovers_from_interrupted_attempt(self, sqlite_store, kg):
        """Debris from a mid-clustering crash (a leftover chunks_clustering
        scratch table) must not wedge the store forever."""
        sqlite_store._conn.execute(
            "CREATE TABLE chunks_clustering (leftover INTEGER)")
        sqlite_store.cluster_by_partition(15)
        assert all(len(runs) == 1
                   for runs in sqlite_store.pair_runs(bucket_size=15).values())
        assert sqlite_store.n_triples("train") == kg.split.train.shape[0]


class TestPartitionedStreamingIterator:
    def _iterator(self, store, kg, partitions=4, batch_size=32, **kwargs):
        partition = EntityPartition(kg.n_entities, partitions)
        return PartitionedStreamingIterator(store, batch_size=batch_size,
                                            partition=partition, seed=5,
                                            **kwargs), partition

    def test_epoch_covers_every_positive_once(self, sqlite_store, kg):
        iterator, _ = self._iterator(sqlite_store, kg)
        positives = [batch.positives for batch in iterator]
        assert _multiset(positives) == sorted(map(tuple, kg.split.train.tolist()))

    def test_len_matches_yielded_batches(self, sqlite_store, kg):
        iterator, _ = self._iterator(sqlite_store, kg)
        assert len(iterator) == sum(1 for _ in iterator)

    def test_batches_touch_at_most_two_buckets(self, sqlite_store, kg):
        """The PBG invariant: positives AND negatives of one batch stay inside
        one (head_bucket, tail_bucket) pair."""
        iterator, partition = self._iterator(sqlite_store, kg)
        for batch in iterator:
            entities = np.concatenate([
                batch.positives[:, 0], batch.positives[:, 2],
                batch.negatives[:, 0], batch.negatives[:, 2]])
            buckets = set(partition.bucket_of(entities).tolist())
            assert len(buckets) <= 2, buckets

    def test_bucket_local_corruption_ranges(self, sqlite_store, kg):
        iterator, partition = self._iterator(sqlite_store, kg)
        for batch in iterator:
            head_buckets = partition.bucket_of(batch.positives[:, 0])
            tail_buckets = partition.bucket_of(batch.positives[:, 2])
            assert np.all(partition.bucket_of(batch.negatives[:, 0])
                          == head_buckets)
            assert np.all(partition.bucket_of(batch.negatives[:, 2])
                          == tail_buckets)

    def test_deterministic_across_recreations(self, kg):
        """Lockstep contract: two iterators built from the same description
        yield bit-identical batch streams, epoch after epoch."""
        def stream(epochs=2):
            store = SQLiteKGStore(":memory:")
            store.ingest_dataset(kg)
            iterator, _ = self._iterator(store, kg)
            out = []
            for _ in range(epochs):
                out.extend((b.positives.copy(), b.negatives.copy())
                           for b in iterator)
            store.close()
            return out

        first, second = stream(), stream()
        assert len(first) == len(second)
        for (p1, n1), (p2, n2) in zip(first, second):
            assert np.array_equal(p1, p2) and np.array_equal(n1, n2)

    def test_epochs_differ(self, sqlite_store, kg):
        iterator, _ = self._iterator(sqlite_store, kg)
        first = [b.positives.copy() for b in iterator]
        second = [b.positives.copy() for b in iterator]
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))

    def test_set_epoch_replays(self, sqlite_store, kg):
        iterator, _ = self._iterator(sqlite_store, kg)
        first = [b.positives.copy() for b in iterator]
        iterator.set_epoch(0)
        replay = [b.positives.copy() for b in iterator]
        assert all(np.array_equal(a, b) for a, b in zip(first, replay))

    def test_num_negatives_tiles_positives(self, sqlite_store, kg):
        iterator, _ = self._iterator(sqlite_store, kg, num_negatives=3)
        total = sum(b.positives.shape[0] for b in iterator)
        assert total == 3 * kg.split.train.shape[0]
        assert len(iterator) == sum(1 for _ in iterator) + 0  # second epoch count matches too

    def test_works_against_in_memory_store(self, kg):
        iterator, partition = self._iterator(InMemoryTripleStore(kg), kg)
        positives = [b.positives for b in iterator]
        assert _multiset(positives) == sorted(map(tuple, kg.split.train.tolist()))

    def test_trains_a_partitioned_model(self, sqlite_store, kg):
        """End to end: the schedule drives a partitioned model whose resident
        set stays at two buckets."""
        from repro.models.transe import SpTransE
        from repro.training.config import TrainingConfig
        from repro.training.trainer import Trainer

        sqlite_store.cluster_by_partition(EntityPartition(kg.n_entities, 4).bucket_size)
        iterator, _ = self._iterator(sqlite_store, kg)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=1, partitions=4)
        config = TrainingConfig(epochs=2, batch_size=32, sparse_grads=True,
                                learning_rate=0.01)
        result = Trainer(model, config=config, batches=iterator).train()
        assert len(result.losses) == 2
        assert model.embeddings.stats()["peak_resident"] <= 2
        model.embeddings.close()
