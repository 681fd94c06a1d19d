"""Tests for the SQLite-backed streaming batch iterator."""

import numpy as np
import pytest

from repro.data import (
    SQLiteKGStore,
    StreamingBatchIterator,
    UniformNegativeSampler,
    generate_synthetic_kg,
)
from repro.models import SpTransE
from repro.optim import Adam


@pytest.fixture
def kg():
    return generate_synthetic_kg(40, 4, 250, rng=0, valid_fraction=0.1)


@pytest.fixture
def store(kg):
    s = SQLiteKGStore()
    s.ingest_dataset(kg)
    yield s
    s.close()


class TestStreamingBatchIterator:
    def test_covers_every_training_triple(self, store):
        iterator = StreamingBatchIterator(store, batch_size=64, rng=0)
        total = sum(batch.size for batch in iterator)
        assert total == store.n_triples("train")
        assert len(iterator) == int(np.ceil(store.n_triples("train") / 64))

    def test_batches_are_aligned_and_in_range(self, store):
        iterator = StreamingBatchIterator(store, batch_size=32, rng=0)
        for batch in iterator:
            assert batch.positives.shape == batch.negatives.shape
            assert batch.negatives[:, [0, 2]].max() < store.n_entities

    def test_drop_last(self, store):
        iterator = StreamingBatchIterator(store, batch_size=64, drop_last=True, rng=0)
        sizes = [b.size for b in iterator]
        assert all(s == 64 for s in sizes)
        assert len(iterator) == store.n_triples("train") // 64

    def test_split_selection(self, store):
        iterator = StreamingBatchIterator(store, batch_size=16, split="valid", rng=0)
        assert sum(b.size for b in iterator) == store.n_triples("valid")

    def test_custom_sampler(self, store):
        sampler = UniformNegativeSampler(store.n_entities, rng=7)
        iterator = StreamingBatchIterator(store, batch_size=50, sampler=sampler)
        batch = next(iter(iterator))
        assert not np.array_equal(batch.positives, batch.negatives)

    def test_batch_size_validation(self, store):
        with pytest.raises(ValueError):
            StreamingBatchIterator(store, batch_size=0)

    def test_drop_last_len_matches_yielded_batches(self, store):
        """``__len__`` counts exactly what ``__iter__`` yields, both modes."""
        for drop_last in (False, True):
            iterator = StreamingBatchIterator(store, batch_size=48,
                                              drop_last=drop_last, rng=0)
            assert sum(1 for _ in iterator) == len(iterator)

    def test_epochs_are_shuffled_and_distinct(self, store):
        """Each epoch sees a fresh order — not SQLite insert order replayed."""
        iterator = StreamingBatchIterator(store, batch_size=64, rng=0, seed=7)
        insert_order = store.fetch_block(0, store.n_triples("train") - 1)
        epoch1 = np.concatenate([b.positives for b in iterator], axis=0)
        epoch2 = np.concatenate([b.positives for b in iterator], axis=0)
        assert not np.array_equal(epoch1, insert_order)
        assert not np.array_equal(epoch1, epoch2)
        # Same multiset of triples every epoch.
        assert np.array_equal(np.sort(epoch1.view("i8,i8,i8"), axis=0),
                              np.sort(epoch2.view("i8,i8,i8"), axis=0))

    def test_shuffle_is_deterministic_per_seed_and_epoch(self, store):
        a = StreamingBatchIterator(store, batch_size=64, rng=0, seed=3)
        b = StreamingBatchIterator(store, batch_size=64, rng=0, seed=3)
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a.positives, batch_b.positives)
            np.testing.assert_array_equal(batch_a.negatives, batch_b.negatives)
        c = StreamingBatchIterator(store, batch_size=64, rng=0, seed=4)
        first_a = next(iter(StreamingBatchIterator(store, batch_size=64,
                                                   rng=0, seed=3)))
        assert not np.array_equal(first_a.positives, next(iter(c)).positives)

    def test_shuffle_disabled_replays_insert_order(self, store):
        iterator = StreamingBatchIterator(store, batch_size=64, rng=0,
                                          shuffle=False)
        streamed = np.concatenate([b.positives for b in iterator], axis=0)
        insert_order = store.fetch_block(0, store.n_triples("train") - 1)
        np.testing.assert_array_equal(streamed, insert_order)

    def test_num_negatives_tiles_the_epoch_not_the_batch(self, store):
        """K>1 multiplies steps per epoch (memory-path semantics): batches
        stay batch_size rows and every positive appears exactly K times."""
        iterator = StreamingBatchIterator(store, batch_size=32, rng=0,
                                          num_negatives=3)
        batches = list(iterator)
        assert len(batches) == len(iterator)
        positives = np.concatenate([b.positives for b in batches], axis=0)
        assert positives.shape[0] == 3 * store.n_triples("train")
        assert batches[0].size == 32
        _, counts = np.unique(positives, axis=0, return_counts=True)
        assert (counts % 3 == 0).all()  # every distinct triple tiled 3x

    def test_streaming_training_loop_reduces_loss(self, store):
        """The streaming iterator plugs into a manual training loop unchanged."""
        model = SpTransE(store.n_entities, store.n_relations, 16, rng=0)
        optimizer = Adam(model.parameters(), lr=0.02)
        iterator = StreamingBatchIterator(store, batch_size=64, rng=0)
        losses = []
        for _ in range(3):
            epoch = []
            for batch in iterator:
                model.zero_grad()
                loss = model.loss(batch)
                loss.backward()
                optimizer.step()
                epoch.append(loss.item())
            losses.append(float(np.mean(epoch)))
        assert losses[-1] < losses[0]
