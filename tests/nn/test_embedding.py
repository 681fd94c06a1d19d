"""Tests for Embedding and StackedEmbedding."""

import numpy as np
import pytest

from repro.nn import Embedding, StackedEmbedding


class TestEmbedding:
    def test_lookup_shape_and_values(self):
        emb = Embedding(10, 4, rng=0)
        idx = np.array([1, 1, 7])
        out = emb(idx)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data, emb.weight.data[idx])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Embedding(0, 4)
        with pytest.raises(ValueError):
            Embedding(4, 0)

    def test_deterministic_init_with_seed(self):
        a, b = Embedding(10, 4, rng=3), Embedding(10, 4, rng=3)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_gradient_flows_to_weight(self):
        emb = Embedding(5, 3, rng=0)
        emb(np.array([0, 0, 2])).sum().backward()
        assert emb.weight.grad is not None
        np.testing.assert_allclose(emb.weight.grad[0], np.full(3, 2.0))

    def test_renormalize_l2(self):
        emb = Embedding(5, 3, rng=0)
        emb.weight.data *= 10.0
        emb.renormalize_(max_norm=1.0, p=2)
        norms = np.linalg.norm(emb.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_renormalize_does_not_upscale_small_rows(self):
        emb = Embedding(5, 3, rng=0)
        emb.weight.data[:] = 0.01
        before = emb.weight.data.copy()
        emb.renormalize_(max_norm=1.0, p=2)
        np.testing.assert_allclose(emb.weight.data, before)

    def test_renormalize_l1_and_invalid_p(self):
        emb = Embedding(5, 3, rng=0)
        emb.weight.data *= 10.0
        emb.renormalize_(max_norm=1.0, p=1)
        assert np.all(np.abs(emb.weight.data).sum(axis=1) <= 1.0 + 1e-9)
        with pytest.raises(ValueError):
            emb.renormalize_(p=3)


class TestStackedEmbedding:
    def test_block_views(self):
        emb = StackedEmbedding(6, 3, 4, rng=0)
        assert emb.entity_embeddings().shape == (6, 4)
        assert emb.relation_embeddings().shape == (3, 4)
        assert emb.num_rows == 9
        np.testing.assert_allclose(
            np.vstack([emb.entity_embeddings(), emb.relation_embeddings()]),
            emb.weight.data,
        )

    def test_gather_entities_and_relations(self):
        emb = StackedEmbedding(6, 3, 4, rng=1)
        ents = emb.gather_entities(np.array([0, 5]))
        rels = emb.gather_relations(np.array([0, 2]))
        np.testing.assert_allclose(ents.data, emb.weight.data[[0, 5]])
        np.testing.assert_allclose(rels.data, emb.weight.data[[6, 8]])

    def test_gather_bounds(self):
        emb = StackedEmbedding(6, 3, 4, rng=1)
        with pytest.raises(IndexError):
            emb.gather_entities(np.array([6]))
        with pytest.raises(IndexError):
            emb.gather_relations(np.array([3]))

    def test_renormalize_entities_leaves_relations(self):
        emb = StackedEmbedding(6, 3, 4, rng=2)
        emb.weight.data *= 10.0
        rel_before = emb.relation_embeddings().copy()
        emb.entity_table().renormalize_(max_norm=1.0)
        assert np.all(np.linalg.norm(emb.entity_embeddings(), axis=1) <= 1.0 + 1e-9)
        np.testing.assert_allclose(emb.relation_embeddings(), rel_before)

    def test_load_pretrained(self):
        emb = StackedEmbedding(4, 2, 3, rng=0)
        ents = np.full((4, 3), 2.0)
        rels = np.full((2, 3), -1.0)
        emb.load_pretrained(entity_matrix=ents, relation_matrix=rels)
        np.testing.assert_allclose(emb.entity_embeddings(), ents)
        np.testing.assert_allclose(emb.relation_embeddings(), rels)

    def test_load_pretrained_shape_check(self):
        emb = StackedEmbedding(4, 2, 3, rng=0)
        with pytest.raises(ValueError):
            emb.load_pretrained(entity_matrix=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            emb.load_pretrained(relation_matrix=np.zeros((2, 4)))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            StackedEmbedding(0, 2, 3)
