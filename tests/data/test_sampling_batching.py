"""Tests for negative samplers and the batch iterator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    BatchIterator,
    BernoulliNegativeSampler,
    TripletBatch,
    UniformNegativeSampler,
    generate_synthetic_kg,
)


@pytest.fixture
def kg():
    return generate_synthetic_kg(40, 4, 300, rng=0)


class TestUniformSampler:
    def test_corrupts_exactly_one_slot(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=0)
        positives = kg.split.train[:100]
        negatives = sampler.corrupt(positives)
        head_changed = negatives[:, 0] != positives[:, 0]
        tail_changed = negatives[:, 2] != positives[:, 2]
        relation_changed = negatives[:, 1] != positives[:, 1]
        assert not relation_changed.any()
        assert np.all(head_changed ^ tail_changed)

    def test_roughly_balanced_head_tail_corruption(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=1)
        positives = np.repeat(kg.split.train[:10], 100, axis=0)
        negatives = sampler.corrupt(positives)
        head_fraction = (negatives[:, 0] != positives[:, 0]).mean()
        assert 0.4 < head_fraction < 0.6

    def test_never_returns_the_original_triple(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=2)
        positives = kg.split.train
        negatives = sampler.corrupt(positives)
        assert not np.any(np.all(negatives == positives, axis=1))

    def test_indices_stay_in_range(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=3)
        negatives = sampler.corrupt(kg.split.train)
        assert negatives[:, [0, 2]].max() < kg.n_entities

    def test_empty_batch(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=0)
        out = sampler.corrupt(np.empty((0, 3), dtype=np.int64))
        assert out.shape == (0, 3)

    def test_filtered_mode_avoids_known_positives(self, kg):
        known = kg.known_triples()
        sampler = UniformNegativeSampler(kg.n_entities, rng=4, filtered=True,
                                         known_triples=known)
        negatives = sampler.corrupt(kg.split.train)
        collisions = sum(tuple(row) in known for row in negatives.tolist())
        # Best-effort filtering: collisions should be essentially eliminated.
        assert collisions <= 1

    def test_filtered_requires_known_triples(self, kg):
        with pytest.raises(ValueError):
            UniformNegativeSampler(kg.n_entities, filtered=True)

    def test_needs_two_entities(self):
        with pytest.raises(ValueError):
            UniformNegativeSampler(1)

    def test_corrupt_many_shape(self, kg):
        sampler = UniformNegativeSampler(kg.n_entities, rng=5)
        out = sampler.corrupt_many(kg.split.train[:10], num_negatives=4)
        assert out.shape == (10, 4, 3)
        with pytest.raises(ValueError):
            sampler.corrupt_many(kg.split.train[:10], num_negatives=0)


class TestBernoulliSampler:
    def test_probabilities_in_unit_interval(self, kg):
        sampler = BernoulliNegativeSampler(kg, rng=0)
        assert np.all(sampler.head_probabilities >= 0)
        assert np.all(sampler.head_probabilities <= 1)
        assert sampler.head_probabilities.shape == (kg.n_relations,)

    def test_one_to_many_relation_prefers_head_corruption(self):
        # Relation 0: one head fans out to many tails -> tph high -> corrupt head more.
        triples = np.array([[0, 0, t] for t in range(1, 11)] + [[5, 1, 6]])
        from repro.data import KGDataset

        kg = KGDataset(triples=triples, n_entities=12, n_relations=2)
        sampler = BernoulliNegativeSampler(kg, rng=0)
        assert sampler.head_probabilities[0] > 0.8

    def test_corruption_respects_relation_statistics(self):
        triples = np.array([[0, 0, t] for t in range(1, 11)])
        from repro.data import KGDataset

        kg = KGDataset(triples=triples, n_entities=12, n_relations=1)
        sampler = BernoulliNegativeSampler(kg, rng=1)
        positives = np.repeat(triples, 50, axis=0)
        negatives = sampler.corrupt(positives)
        head_fraction = (negatives[:, 0] != positives[:, 0]).mean()
        assert head_fraction > 0.8


class TestFilteredSamplingUsesTheIndex:
    """``_filter_known`` asks ``KnownTriples.contains``; the draws must not move."""

    @staticmethod
    def _set_form(sampler_cls, plain):
        """The sampler as it filtered before: a tuple-in-set test per row."""

        class SetFiltered(sampler_cls):
            def _filter_known(self, corrupted, corrupt_head):
                for _ in range(self.MAX_RETRIES):
                    collisions = np.array(
                        [tuple(row) in plain for row in corrupted.tolist()], dtype=bool)
                    if not collisions.any():
                        return
                    rows = np.flatnonzero(collisions)
                    redraw = self.rng.integers(0, self.n_entities, size=rows.size)
                    heads = corrupt_head[rows]
                    corrupted[rows[heads], 0] = redraw[heads]
                    corrupted[rows[~heads], 2] = redraw[~heads]

        return SetFiltered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["uniform", "bernoulli"])
    def test_seeded_output_equals_the_set_form(self, strategy, seed):
        # 90 of the 264 possible triples are known: a third of all draws collide.
        kg = generate_synthetic_kg(12, 2, 90, rng=seed)
        known = kg.known_triples()
        plain = set(known)
        cls = UniformNegativeSampler if strategy == "uniform" else BernoulliNegativeSampler
        first = kg.n_entities if strategy == "uniform" else kg
        # A plain set is indexed once by the sampler; the index passes through.
        for known_triples in (known, plain):
            sampler = cls(first, rng=seed, filtered=True, known_triples=known_triples)
            reference = self._set_form(cls, plain)(first, rng=seed, filtered=True,
                                                    known_triples=plain)
            for _ in range(3):
                np.testing.assert_array_equal(sampler.corrupt(kg.split.train),
                                              reference.corrupt(kg.split.train))
            # Same number of draws taken from the generator on both sides.
            assert sampler.rng.integers(0, 2**62) == reference.rng.integers(0, 2**62)
        assert cls(first, rng=0, filtered=True, known_triples=known).known_triples is known


class TestBatchIterator:
    def test_covers_every_triple_once(self, kg):
        iterator = BatchIterator(kg, batch_size=64, rng=0)
        seen = sum(batch.size for batch in iterator)
        assert seen == kg.n_triples
        assert len(iterator) == int(np.ceil(kg.n_triples / 64))

    def test_drop_last(self, kg):
        iterator = BatchIterator(kg, batch_size=64, drop_last=True, rng=0)
        sizes = [batch.size for batch in iterator]
        assert all(s == 64 for s in sizes)
        assert len(iterator) == kg.n_triples // 64

    def test_batches_align_positives_and_negatives(self, kg):
        iterator = BatchIterator(kg, batch_size=32, rng=0)
        for batch in iterator:
            assert batch.positives.shape == batch.negatives.shape

    def test_pregenerated_negatives_are_stable_across_epochs(self, kg):
        iterator = BatchIterator(kg, batch_size=kg.n_triples, shuffle=False, rng=0)
        first = next(iter(iterator)).negatives
        second = next(iter(iterator)).negatives
        np.testing.assert_array_equal(first, second)

    def test_regenerated_negatives_change_across_epochs(self, kg):
        iterator = BatchIterator(kg, batch_size=kg.n_triples, shuffle=False,
                                 regenerate_negatives=True, rng=0)
        first = next(iter(iterator)).negatives
        second = next(iter(iterator)).negatives
        assert not np.array_equal(first, second)

    def test_shuffle_changes_order_but_not_content(self, kg):
        iterator = BatchIterator(kg, batch_size=kg.n_triples, shuffle=True, rng=0)
        batch = next(iter(iterator))
        assert not np.array_equal(batch.positives, kg.split.train)
        assert {tuple(t) for t in batch.positives.tolist()} == \
               {tuple(t) for t in kg.split.train.tolist()}

    def test_invalid_batch_size(self, kg):
        with pytest.raises(ValueError):
            BatchIterator(kg, batch_size=0)

    def test_triplet_batch_validation(self):
        with pytest.raises(ValueError):
            TripletBatch(positives=np.zeros((3, 3), dtype=np.int64),
                         negatives=np.zeros((2, 3), dtype=np.int64))


class TestSamplerProperties:
    @given(seed=st.integers(min_value=0, max_value=500),
           n_entities=st.integers(min_value=3, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_corruption_always_changes_exactly_one_entity(self, seed, n_entities):
        rng = np.random.default_rng(seed)
        m = 20
        positives = np.column_stack([
            rng.integers(0, n_entities, m),
            rng.integers(0, 3, m),
            rng.integers(0, n_entities, m),
        ])
        sampler = UniformNegativeSampler(n_entities, rng=seed)
        negatives = sampler.corrupt(positives)
        changed = (negatives != positives).sum(axis=1)
        assert np.all(changed <= 1)
        assert negatives[:, [0, 2]].max() < n_entities
