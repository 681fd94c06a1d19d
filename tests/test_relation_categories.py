"""Tests for the relation-category (1-1 / 1-N / N-1 / N-N) analysis."""

import numpy as np
import pytest

from repro.data import KGDataset, generate_learnable_kg
from repro.evaluation import classify_relations, evaluate_by_relation_category
from repro.evaluation.relation_categories import CATEGORIES
from repro.models import SpTransE


def _dataset_with_known_categories() -> KGDataset:
    """Hand-built graph where each relation's category is known by construction."""
    triples = []
    # relation 0: 1-to-1 — a bijection between entity blocks.
    for i in range(5):
        triples.append((i, 0, 10 + i))
    # relation 1: 1-to-N — one head fans out to many tails.
    for t in range(10, 18):
        triples.append((0, 1, t))
    # relation 2: N-to-1 — many heads point at one tail.
    for h in range(1, 9):
        triples.append((h, 2, 19))
    # relation 3: N-to-N — every pairing of two small blocks.
    for h in range(3):
        for t in range(15, 18):
            triples.append((h, 3, t))
    return KGDataset(triples=np.array(triples), n_entities=20, n_relations=4)


class TestClassifyRelations:
    def test_hand_built_categories(self):
        kg = _dataset_with_known_categories()
        categories = classify_relations(kg)
        assert categories[0] == "1-1"
        assert categories[1] == "1-N"
        assert categories[2] == "N-1"
        assert categories[3] == "N-N"

    def test_unused_relation_defaults_to_one_to_one(self):
        kg = KGDataset(triples=np.array([[0, 0, 1]]), n_entities=3, n_relations=2)
        assert classify_relations(kg)[1] == "1-1"

    def test_every_relation_classified(self):
        kg = generate_learnable_kg(80, 6, 600, rng=0)
        categories = classify_relations(kg)
        assert set(categories) == set(range(kg.n_relations))
        assert set(categories.values()) <= set(CATEGORIES)

    def test_threshold_controls_strictness(self):
        kg = _dataset_with_known_categories()
        # With an absurdly high threshold everything collapses to 1-1.
        loose = classify_relations(kg, threshold=100.0)
        assert set(loose.values()) == {"1-1"}


class TestEvaluateByCategory:
    @pytest.fixture
    def setup(self):
        kg = generate_learnable_kg(100, 8, 1000, latent_dim=12, rng=0, test_fraction=0.1)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        return kg, model

    def test_breakdown_structure(self, setup):
        kg, model = setup
        breakdown = evaluate_by_relation_category(model, kg, ks=(1, 10))
        assert sum(breakdown.counts.values()) == kg.split.n_test
        for metrics in breakdown.per_category.values():
            assert set(metrics) == {"mean_rank", "mrr", "hits@1", "hits@10"}
            assert 0 <= metrics["mrr"] <= 1
        assert "hits@10" in breakdown.overall
        assert "per_category" in breakdown.to_dict()

    def test_only_populated_categories_reported(self, setup):
        kg, model = setup
        breakdown = evaluate_by_relation_category(model, kg)
        for category, metrics in breakdown.per_category.items():
            assert breakdown.counts[category] > 0

    def test_requires_evaluation_triples(self, setup):
        kg, model = setup
        with pytest.raises(ValueError):
            evaluate_by_relation_category(model, kg, triples=np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_non_positive_batch_size_is_rejected(self, setup, batch_size):
        kg, model = setup
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_by_relation_category(model, kg, batch_size=batch_size)

    def test_explicit_triples_and_filter(self, setup):
        kg, model = setup
        triples = kg.split.test[:20]
        breakdown = evaluate_by_relation_category(model, kg, triples=triples,
                                                  known_triples=kg.known_triples())
        assert sum(breakdown.counts.values()) == 20
