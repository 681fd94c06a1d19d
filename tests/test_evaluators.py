"""Tests for the common Evaluator protocol over the three evaluation tasks."""

import json

import pytest

from repro.data import generate_learnable_kg
from repro.evaluation import (
    EVALUATOR_PROTOCOLS,
    EvalReport,
    LinkPredictionEvaluator,
    RelationCategoryEvaluator,
    TripleClassificationEvaluator,
    build_evaluator,
)
from repro.models import SpTransE


@pytest.fixture(scope="module")
def setup():
    kg = generate_learnable_kg(60, 4, 500, rng=0, valid_fraction=0.2,
                               test_fraction=0.2)
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
    return kg, model


class TestBuildEvaluator:
    def test_registry_contains_three_protocols(self):
        assert set(EVALUATOR_PROTOCOLS) == {"link_prediction", "classification",
                                            "relation_categories"}

    def test_dispatch(self):
        assert isinstance(build_evaluator("link_prediction"), LinkPredictionEvaluator)
        assert isinstance(build_evaluator("classification"), TripleClassificationEvaluator)
        assert isinstance(build_evaluator("relation_categories"), RelationCategoryEvaluator)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown evaluation protocol"):
            build_evaluator("auc")

    def test_kwargs_forwarded(self):
        evaluator = build_evaluator("link_prediction", ks=(5,), filtered=False)
        assert evaluator.ks == (5,) and evaluator.filtered is False


class TestBatchSizeIsValidated:
    @pytest.mark.parametrize("batch_size", [0, -4])
    @pytest.mark.parametrize("protocol", ["link_prediction", "relation_categories"])
    def test_forwarded_batch_size_raises_instead_of_nan_metrics(self, setup, protocol,
                                                                batch_size):
        kg, model = setup
        evaluator = build_evaluator(protocol, batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            evaluator.run(model, kg)


class TestReports:
    def test_reports_are_uniform_and_json_ready(self, setup):
        kg, model = setup
        for protocol in EVALUATOR_PROTOCOLS:
            report = build_evaluator(protocol).run(model, kg)
            assert isinstance(report, EvalReport)
            assert report.protocol == protocol
            payload = report.to_dict()
            assert set(payload) == {"protocol", "split", "metrics"}
            json.dumps(payload)  # must serialise without a custom encoder

    def test_link_prediction_metrics_shape(self, setup):
        kg, model = setup
        report = LinkPredictionEvaluator(ks=(1, 10)).run(model, kg)
        assert report.split == "test"
        assert report.metrics["task"] == "link_prediction"
        assert report.metrics["protocol"] == "filtered"
        assert 0.0 <= report.metrics["hits@10"] <= 1.0

    def test_link_prediction_raw_protocol(self, setup):
        kg, model = setup
        report = LinkPredictionEvaluator(filtered=False).run(model, kg)
        assert report.metrics["protocol"] == "raw"

    def test_classification_deterministic_for_fixed_seed(self, setup):
        kg, model = setup
        a = TripleClassificationEvaluator(seed=5).run(model, kg)
        b = TripleClassificationEvaluator(seed=5).run(model, kg)
        assert a.metrics == b.metrics
        assert a.split == "valid+test"
        assert a.metrics["task"] == "triple_classification"
        assert isinstance(a.metrics["thresholds"], dict)
        assert all(isinstance(k, str) for k in a.metrics["thresholds"])

    def test_relation_categories_metrics_shape(self, setup):
        kg, model = setup
        report = RelationCategoryEvaluator(ks=(10,)).run(model, kg)
        assert report.metrics["task"] == "relation_categories"
        assert set(report.metrics["counts"]) == {"1-1", "1-N", "N-1", "N-N"}


class TestSplitGuards:
    def test_link_prediction_requires_split(self, setup):
        kg, model = setup
        evaluator = LinkPredictionEvaluator(split="valid")
        empty = kg.split_train_valid_test(0.0, 0.2, rng=0)
        with pytest.raises(ValueError, match="non-empty 'valid' split"):
            evaluator.run(model, empty)

    def test_classification_requires_valid(self, setup):
        kg, model = setup
        empty = kg.split_train_valid_test(0.0, 0.2, rng=0)
        with pytest.raises(ValueError, match="non-empty 'valid' split"):
            TripleClassificationEvaluator().check_dataset(empty)

    def test_invalid_split_name(self):
        with pytest.raises(ValueError, match="split must be"):
            LinkPredictionEvaluator(split="dev")
