"""Tests for DataSpec / EvalSpec / ExperimentSpec serialisation and validation."""

import dataclasses
import json

import pytest

from repro.data import BernoulliNegativeSampler, UniformNegativeSampler
from repro.experiment import (
    CURRENT_SPEC_VERSION,
    DataSpec,
    EvalSpec,
    ExperimentSpec,
)
from repro.registry import ModelSpec
from repro.training import TrainingConfig


def tiny_spec(**overrides) -> ExperimentSpec:
    data = DataSpec(dataset="WN18RR", scale=0.001, valid_fraction=0.2,
                    test_fraction=0.2)
    n_entities, n_relations = data.vocab_sizes()
    base = dict(
        name="tiny",
        data=data,
        model=ModelSpec(model="transe", formulation="sparse",
                        n_entities=n_entities, n_relations=n_relations,
                        embedding_dim=8),
        training=TrainingConfig(epochs=2, batch_size=64, learning_rate=0.01),
        eval=EvalSpec(ks=(1, 10)),
        tags=("unit",),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestDataSpec:
    def test_round_trip(self):
        spec = DataSpec(dataset="FB15K", scale=0.05, generator="learnable",
                        negative_sampler="bernoulli", num_negatives=4,
                        valid_fraction=0.1, test_fraction=0.1, seed=7)
        assert DataSpec.from_dict(spec.to_dict()) == spec

    def test_triples_file_round_trip_and_unknown_sizes(self):
        spec = DataSpec(triples_file="kg.csv", test_fraction=0.1)
        assert "triples_file" in spec.to_dict()
        assert DataSpec.from_dict(spec.to_dict()) == spec
        assert spec.vocab_sizes() is None

    def test_vocab_sizes_match_materialized_dataset(self):
        spec = DataSpec(dataset="WN18RR", scale=0.001, test_fraction=0.1)
        kg = spec.materialize()
        assert spec.vocab_sizes() == (kg.n_entities, kg.n_relations)

    def test_materialize_is_deterministic(self):
        spec = DataSpec(dataset="WN18RR", scale=0.001, seed=3, test_fraction=0.1)
        a, b = spec.materialize(), spec.materialize()
        assert (a.split.train == b.split.train).all()
        assert (a.split.test == b.split.test).all()

    def test_learnable_generator(self):
        kg = DataSpec(dataset="WN18RR", scale=0.001, generator="learnable").materialize()
        assert kg.n_triples > 0

    def test_build_sampler_dispatch(self):
        spec = DataSpec(dataset="WN18RR", scale=0.001)
        kg = spec.materialize()
        assert isinstance(spec.build_sampler(kg), UniformNegativeSampler)
        bern = dataclasses.replace(spec, negative_sampler="bernoulli")
        assert isinstance(bern.build_sampler(kg), BernoulliNegativeSampler)

    def test_validation(self):
        with pytest.raises(ValueError):
            DataSpec(scale=0.0)
        with pytest.raises(ValueError):
            DataSpec(generator="weird")
        with pytest.raises(ValueError):
            DataSpec(negative_sampler="nce")
        with pytest.raises(ValueError):
            DataSpec(num_negatives=0)
        with pytest.raises(ValueError):
            DataSpec(valid_fraction=0.6, test_fraction=0.5)

    def test_unknown_key_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'scale'"):
            DataSpec.from_dict({"scal": 0.01})


class TestEvalSpec:
    def test_round_trip(self):
        spec = EvalSpec(protocols=("link_prediction", "classification"),
                        filtered=False, ks=(1, 5), batch_size=32, split="valid")
        assert EvalSpec.from_dict(spec.to_dict()) == spec

    def test_empty_protocols_allowed(self):
        assert EvalSpec(protocols=()).build_evaluators() == []

    @pytest.mark.parametrize("key, value", [
        ("filtered", "false"), ("filtered", 0), ("filtered", None),
        ("batch_size", 12.7), ("batch_size", "64"), ("batch_size", True),
        ("ks", [10.9]), ("ks", [1, True]), ("ks", 10),
    ])
    def test_wrong_json_type_rejected_naming_the_key(self, key, value):
        # "false" used to evaluate filtered, 12.7 to truncate to 12 and
        # [10.9] to (10,).
        with pytest.raises(ValueError, match=f"eval section key '{key}'"):
            EvalSpec.from_dict({key: value})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation protocol"):
            EvalSpec(protocols=("mrr",))

    def test_duplicate_protocols_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EvalSpec(protocols=("link_prediction", "link_prediction"))

    def test_build_evaluators_order_matches_protocols(self):
        spec = EvalSpec(protocols=("relation_categories", "link_prediction"))
        built = spec.build_evaluators(seed=3)
        assert [e.protocol for e in built] == ["relation_categories", "link_prediction"]


class TestExperimentSpec:
    def test_dict_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_through_file(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "spec.json")
        spec.to_file(path)
        loaded = ExperimentSpec.from_file(path)
        assert loaded == spec
        # the serialised form is itself stable
        with open(path) as handle:
            assert loaded.to_dict() == json.load(handle)

    def test_model_vocab_sizes_filled_from_catalog(self):
        payload = tiny_spec().to_dict()
        payload["model"].pop("n_entities")
        payload["model"].pop("n_relations")
        assert ExperimentSpec.from_dict(payload) == tiny_spec()

    def test_file_data_requires_explicit_model_sizes(self):
        payload = tiny_spec().to_dict()
        payload["data"] = {"triples_file": "kg.csv"}
        payload["model"].pop("n_entities")
        payload["model"].pop("n_relations")
        with pytest.raises(ValueError, match="triples file"):
            ExperimentSpec.from_dict(payload)

    def test_missing_model_section_rejected(self):
        with pytest.raises(ValueError, match="'model' section"):
            ExperimentSpec.from_dict({"name": "x"})

    def test_unknown_top_level_key_rejected(self):
        payload = tiny_spec().to_dict()
        payload["trainnig"] = {}
        with pytest.raises(ValueError, match="did you mean 'training'"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_training_key_rejected(self):
        payload = tiny_spec().to_dict()
        payload["training"]["lr"] = 0.1
        with pytest.raises(ValueError, match="lr"):
            ExperimentSpec.from_dict(payload)

    def test_future_version_rejected(self):
        payload = tiny_spec().to_dict()
        payload["spec_version"] = CURRENT_SPEC_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            ExperimentSpec.from_dict(payload)

    def test_future_version_wins_over_its_unknown_fields(self):
        """A future spec's new fields must produce the 'upgrade' error, not
        a misleading unknown-key complaint."""
        payload = tiny_spec().to_dict()
        payload["spec_version"] = CURRENT_SPEC_VERSION + 1
        payload["data"]["some_future_field"] = 1
        with pytest.raises(ValueError, match="upgrade the library"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_model_key_rejected(self):
        payload = tiny_spec().to_dict()
        payload["model"]["sparse_grad"] = True
        with pytest.raises(ValueError, match="did you mean 'sparse_grads'"):
            ExperimentSpec.from_dict(payload)

    def test_legacy_model_sparse_grads_moves_to_training(self):
        """Older specs also set the gradient switch in the model section; it
        loads as the training switch and is written back only there."""
        payload = tiny_spec().to_dict()
        payload["model"]["sparse_grads"] = True
        payload["training"]["sparse_grads"] = False
        spec = ExperimentSpec.from_dict(payload)
        assert spec.training.sparse_grads is True
        assert "sparse_grads" not in spec.to_dict()["model"]
        assert spec.to_dict()["training"]["sparse_grads"] is True

    def test_string_protocols_rejected_with_clear_error(self):
        payload = tiny_spec().to_dict()
        payload["eval"]["protocols"] = "link_prediction"
        with pytest.raises(ValueError, match="must be a list"):
            ExperimentSpec.from_dict(payload)

    def test_invalid_json_file_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            ExperimentSpec.from_file(str(path))

    def test_replace_sweep_primitive(self):
        spec = tiny_spec()
        swept = spec.replace(name="tiny-m2",
                             training=spec.training.replace(margin=2.0))
        assert swept.training.margin == 2.0
        assert swept.name == "tiny-m2"
        assert spec.training.margin == 0.5  # original untouched

    def test_resolved_model_spec_rejects_vocab_mismatch(self):
        spec = tiny_spec()
        kg = spec.data.materialize()
        bad = spec.replace(model=spec.model.replace(n_entities=kg.n_entities + 1))
        with pytest.raises(ValueError, match="does not match"):
            bad.resolved_model_spec(kg)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(seed=-1)

    def test_experiment_spec_rejects_string_booleans(self):
        payload = tiny_spec().to_dict()
        payload["training"]["sparse_grads"] = "false"
        with pytest.raises(ValueError, match="training section key 'sparse_grads'"):
            ExperimentSpec.from_dict(payload)
        payload = tiny_spec().to_dict()
        payload["model"]["sparse_grads"] = "false"  # the legacy location
        with pytest.raises(ValueError, match="model section key 'sparse_grads'"):
            ExperimentSpec.from_dict(payload)
        payload = tiny_spec().to_dict()
        payload["data"]["num_negatives"] = 2.9
        with pytest.raises(ValueError, match="data section key 'num_negatives'"):
            ExperimentSpec.from_dict(payload)
        payload = tiny_spec().to_dict()
        payload["data"]["scale"] = "0.5"
        with pytest.raises(ValueError, match="data section key 'scale'"):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("spec_version", "1")])
    def test_experiment_ints_are_not_truncated(self, key, value):
        payload = tiny_spec().to_dict()
        payload[key] = value
        with pytest.raises(ValueError, match=f"experiment section key '{key}'"):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("key, value", [
        ("embedding_dim", 16.7), ("n_entities", "40"), ("partitions", 2.5),
        ("nprobe", True),
    ])
    def test_model_section_ints_are_not_truncated(self, key, value):
        payload = tiny_spec().to_dict()
        payload["model"][key] = value
        with pytest.raises(ValueError, match=f"model section key '{key}'"):
            ExperimentSpec.from_dict(payload)


class TestTrainingConfigFromDict:
    def test_round_trip(self):
        cfg = TrainingConfig(epochs=7, margin=0.25, optimizer="sgd")
        assert TrainingConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'learning_rate'"):
            TrainingConfig.from_dict({"learning_rte": 0.1})

    def test_unknown_key_without_close_match(self):
        with pytest.raises(ValueError, match="unknown training config key"):
            TrainingConfig.from_dict({"zzz_not_a_field": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            TrainingConfig.from_dict([("epochs", 3)])

    def test_field_validation_still_applies(self):
        with pytest.raises(ValueError):
            TrainingConfig.from_dict({"epochs": 0})

    @pytest.mark.parametrize("key, value", [
        ("sparse_grads", "false"), ("shuffle", 1), ("sanitize", "true"),
        ("epochs", "3"), ("epochs", 2.5), ("epochs", True), ("epochs", None),
        ("batch_size", 64.0), ("normalize_every", "2"), ("seed", 1.5),
        ("learning_rate", "0.01"), ("margin", True),
    ])
    def test_wrong_json_type_rejected_naming_the_key(self, key, value):
        # "false" used to switch the row-sparse path on and "3" to raise a
        # bare TypeError.
        with pytest.raises(ValueError, match=f"training section key '{key}'"):
            TrainingConfig.from_dict({key: value})

    def test_single_worker_key_of_older_payloads_is_dropped(self):
        assert (TrainingConfig.from_dict({"num_workers": 1, "epochs": 3})
                == TrainingConfig(epochs=3))

    @pytest.mark.parametrize("value", [2, 0, "1", True, 1.0])
    def test_any_other_worker_count_is_refused_naming_the_key(self, value):
        with pytest.raises(ValueError, match="'num_workers'.*data-parallel "
                                             "training was removed"):
            TrainingConfig.from_dict({"num_workers": value})

    def test_null_seed_and_json_types_accepted(self):
        cfg = TrainingConfig.from_dict({"seed": None, "sparse_grads": False,
                                        "epochs": 3, "learning_rate": 1})
        assert (cfg.seed, cfg.sparse_grads, cfg.epochs) == (None, False, 3)
