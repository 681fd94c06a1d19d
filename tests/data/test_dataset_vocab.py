"""Tests for Vocabulary, KGDataset, and TripleSplit."""

import numpy as np
import pytest

from repro.data import KGDataset, TripleSplit, Vocabulary


class TestVocabulary:
    def test_add_and_lookup(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("a") == 0
        assert vocab.index("b") == 1
        assert vocab.label(0) == "a"
        assert len(vocab) == 2
        assert "a" in vocab and "z" not in vocab

    def test_initial_labels_and_iteration(self):
        vocab = Vocabulary(["x", "y", "z"])
        assert list(vocab) == ["x", "y", "z"]

    def test_frozen_rejects_new_labels(self):
        vocab = Vocabulary(["a"]).freeze()
        assert vocab.add("a") == 0
        with pytest.raises(KeyError):
            vocab.add("b")

    def test_non_string_labels_coerced(self):
        vocab = Vocabulary()
        vocab.add(42)
        assert vocab.index("42") == 0

    def test_round_trip_dict(self):
        vocab = Vocabulary(["a", "b", "c"])
        rebuilt = Vocabulary.from_dict(vocab.to_dict())
        assert rebuilt == vocab

    def test_from_dict_requires_contiguous_indices(self):
        with pytest.raises(ValueError):
            Vocabulary.from_dict({"a": 0, "b": 2})

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().index("missing")


class TestTripleSplit:
    def test_counts_and_concat(self):
        split = TripleSplit(
            train=np.array([[0, 0, 1], [1, 0, 2]]),
            valid=np.array([[2, 0, 0]]),
            test=np.empty((0, 3), dtype=np.int64),
        )
        assert (split.n_train, split.n_valid, split.n_test) == (2, 1, 0)
        assert split.all_triples().shape == (3, 3)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            TripleSplit(train=np.zeros((2, 2)), valid=np.empty((0, 3)), test=np.empty((0, 3)))


class TestKGDataset:
    def test_infers_sizes(self):
        triples = np.array([[0, 0, 1], [3, 2, 0]])
        kg = KGDataset(triples=triples)
        assert kg.n_entities == 4
        assert kg.n_relations == 3
        assert kg.n_triples == 2
        assert len(kg) == 2

    def test_explicit_sizes_validated(self):
        triples = np.array([[0, 0, 5]])
        with pytest.raises(ValueError):
            KGDataset(triples=triples, n_entities=3)
        with pytest.raises(ValueError):
            KGDataset(triples=np.array([[0, 4, 1]]), n_relations=2)

    def test_requires_triples_or_split(self):
        with pytest.raises(ValueError):
            KGDataset()

    def test_from_labeled_triples(self):
        kg = KGDataset.from_labeled_triples(
            [("alice", "knows", "bob"), ("bob", "knows", "carol"), ("alice", "likes", "carol")]
        )
        assert kg.n_entities == 3
        assert kg.n_relations == 2
        assert kg.entity_vocab.index("carol") == 2
        assert kg.relation_vocab.index("likes") == 1

    def test_vocab_size_mismatch(self):
        vocab = Vocabulary(["only-one"])
        with pytest.raises(ValueError):
            KGDataset(triples=np.array([[0, 0, 1]]), entity_vocab=vocab)

    def test_split_train_valid_test_partitions(self):
        triples = np.column_stack([
            np.arange(100) % 20,
            np.zeros(100, dtype=int),
            (np.arange(100) + 7) % 20,
        ])
        kg = KGDataset(triples=triples, n_entities=20, n_relations=1)
        split = kg.split_train_valid_test(0.1, 0.2, rng=0)
        assert split.split.n_valid == 10
        assert split.split.n_test == 20
        assert split.split.n_train == 70
        total = {tuple(t) for t in split.split.all_triples().tolist()}
        assert len(total) <= 100

    def test_split_fraction_validation(self):
        kg = KGDataset(triples=np.array([[0, 0, 1]]))
        with pytest.raises(ValueError):
            kg.split_train_valid_test(0.6, 0.5)

    def test_known_triples_and_maps(self):
        triples = np.array([[0, 0, 1], [0, 0, 2], [2, 1, 0]])
        kg = KGDataset(triples=triples)
        known = kg.known_triples()
        assert known == {(0, 0, 1), (0, 0, 2), (2, 1, 0)}
        np.testing.assert_array_equal(known.values("tail", 0, 0), [1, 2])
        np.testing.assert_array_equal(known.values("head", 0, 1), [2])

    def test_statistics(self):
        triples = np.array([[0, 0, 1], [1, 0, 2], [2, 1, 0]])
        stats = KGDataset(triples=triples).statistics()
        assert stats["n_train"] == 3
        assert stats["mean_degree"] == pytest.approx(2.0)

    def test_relation_frequencies_and_degrees(self):
        triples = np.array([[0, 0, 1], [1, 0, 2], [2, 1, 0]])
        kg = KGDataset(triples=triples)
        np.testing.assert_array_equal(kg.relation_frequencies(), [2, 1])
        np.testing.assert_array_equal(kg.entity_degrees(), [2, 2, 2])
