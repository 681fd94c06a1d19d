"""Tests for the spec-driven model registry."""

import inspect

import numpy as np
import pytest

from repro.nn.partitioned import partitioned_tables
from repro.registry import (
    KEYWORD_FIELDS,
    ModelSpec,
    UnknownModelError,
    build_model,
    get_entry,
    iter_entries,
    models_by_formulation,
    register_model,
    registry_summary,
    spec_from_model,
)

ENTRIES = list(iter_entries())

#: A non-default value for every optional spec field a constructor can name.
FIELD_VALUES = {"relation_dim": 6, "backend": "numpy", "dissimilarity": "L1",
                "partitions": 3}

#: The refusal ``build_model`` gives for each field a constructor does not name.
REFUSALS = {
    "relation_dim": "does not accept relation_dim, but the spec sets relation_dim=6",
    "backend": "does not accept a backend, but the spec sets backend='numpy'",
    "dissimilarity": ("does not accept a dissimilarity, but the spec sets "
                      "dissimilarity='L1'"),
    "partitions": ("does not support partitioned entity tables, but the spec "
                   "sets partitions=3"),
}


def field_values(entry):
    """:data:`FIELD_VALUES`, with a toroidal distance for TorusE."""
    values = dict(FIELD_VALUES)
    if entry.name == "toruse":
        values["dissimilarity"] = "torus_L1"
    return values


def constructor_fields(entry):
    """The optional spec fields the registered constructor names."""
    parameters = inspect.signature(entry.cls).parameters
    return [name for name in FIELD_VALUES if name in parameters]


def spec_for_entry(entry, **fields):
    return ModelSpec(model=entry.name, formulation=entry.formulation,
                     n_entities=25, n_relations=4, embedding_dim=8, **fields)


def full_spec(entry):
    """A spec setting every optional field the constructor names."""
    values = field_values(entry)
    return spec_for_entry(entry, **{name: values[name]
                                    for name in constructor_fields(entry)})


def close(model):
    for table in partitioned_tables(model):
        table.close()


class TestRegistryContents:
    def test_every_paper_model_registered(self):
        assert set(models_by_formulation("sparse")) >= {
            "transe", "transr", "transh", "toruse", "distmult", "complex", "rotate"}
        assert set(models_by_formulation("dense")) >= {
            "transe", "transr", "transh", "toruse", "transd"}

    def test_unknown_model_raises_with_alternatives(self):
        with pytest.raises(UnknownModelError, match="transe"):
            get_entry("kg2e", "sparse")

    def test_registration_name_is_case_normalised(self):
        @register_model("CaseTestModelXYZ", "sparse")
        class CaseTestModel:
            pass

        assert get_entry("casetestmodelxyz", "sparse").cls is CaseTestModel
        assert get_entry("CaseTestModelXYZ", "sparse").cls is CaseTestModel

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_model("transe", "sparse")
            class Impostor:  # noqa: F811 — intentionally clashing
                pass

    def test_summary_lists_constructor_keywords(self):
        import json

        summary = registry_summary()
        assert summary["transe/sparse"]["class"] == "SpTransE"
        assert "backend" in summary["transe/sparse"]["keywords"]
        assert "backend" not in summary["transe/dense"]["keywords"]
        json.dumps(summary)  # must serialise without a custom encoder


class TestConstructorIsTheCapabilityList:
    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=lambda e: f"{e.name}-{e.formulation}")
    def test_named_fields_round_trip_and_others_are_refused(self, entry):
        spec = full_spec(entry)
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        model = build_model(spec, rng=0)
        try:
            assert isinstance(model, entry.cls)
            assert spec_from_model(model) == spec
        finally:
            close(model)

        for name in set(FIELD_VALUES) - set(constructor_fields(entry)):
            refused = spec_for_entry(entry, **{name: FIELD_VALUES[name]})
            message = (f"model {entry.name!r} ({entry.formulation}) "
                       f"{REFUSALS[name]}")
            with pytest.raises(ValueError) as excinfo:
                build_model(refused)
            assert str(excinfo.value) == message

    def test_every_field_is_named_by_one_constructor_and_refused_by_another(self):
        assert set(FIELD_VALUES) == set(KEYWORD_FIELDS)
        for name in FIELD_VALUES:
            naming = [e for e in ENTRIES if name in constructor_fields(e)]
            assert 0 < len(naming) < len(ENTRIES), name


class TestSpecRoundTrip:
    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=lambda e: f"{e.name}-{e.formulation}")
    def test_built_model_scores(self, entry):
        model = build_model(full_spec(entry), rng=0)
        try:
            triples = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int64)
            scores = model.score_triples(triples)
        finally:
            close(model)
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))

    def test_legacy_sparse_grads_key_is_ignored(self):
        spec = ModelSpec.from_dict({
            "model": "transe", "formulation": "sparse", "n_entities": 5,
            "n_relations": 2, "embedding_dim": 4, "sparse_grads": True,
        })
        assert "sparse_grads" not in spec.to_dict()
        assert build_model(spec).sparse_grads is False

    def test_ann_fields_round_trip(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8, partitions=4,
                         ann="ivf", nprobe=8)
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["ann"] == "ivf"
        assert spec.to_dict()["nprobe"] == 8

    def test_ann_defaults_omitted_from_dict(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8)
        payload = spec.to_dict()
        assert "ann" not in payload and "nprobe" not in payload


class TestSpecValidation:
    def test_rejects_unknown_formulation(self):
        with pytest.raises(ValueError, match="formulation"):
            ModelSpec(model="transe", formulation="quantum",
                      n_entities=5, n_relations=2, embedding_dim=4)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="n_entities"):
            ModelSpec(model="transe", formulation="sparse",
                      n_entities=0, n_relations=2, embedding_dim=4)

    def test_from_dict_requires_core_keys(self):
        with pytest.raises(ValueError, match="missing required keys"):
            ModelSpec.from_dict({"model": "transe", "formulation": "sparse"})

    def test_nprobe_without_ann_rejected(self):
        with pytest.raises(ValueError, match="nprobe requires an ann"):
            ModelSpec(model="transe", formulation="sparse", n_entities=5,
                      n_relations=2, embedding_dim=4, nprobe=4)

    def test_nonpositive_nprobe_rejected(self):
        with pytest.raises(ValueError, match="nprobe"):
            ModelSpec(model="transe", formulation="sparse", n_entities=5,
                      n_relations=2, embedding_dim=4, ann="ivf", nprobe=0)

    def test_from_dict_ignores_unknown_keys(self):
        spec = ModelSpec.from_dict({
            "model": "transe", "formulation": "sparse", "n_entities": 5,
            "n_relations": 2, "embedding_dim": 4, "future_field": "ignored",
        })
        assert spec.model == "transe"

    def test_build_rejects_unsupported_relation_dim(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=5,
                         n_relations=2, embedding_dim=4, relation_dim=3)
        with pytest.raises(ValueError, match="relation_dim"):
            build_model(spec)

    def test_build_rejects_unsupported_backend(self):
        spec = ModelSpec(model="transe", formulation="dense", n_entities=5,
                         n_relations=2, embedding_dim=4, backend="scipy")
        with pytest.raises(ValueError, match="backend"):
            build_model(spec)

    @pytest.mark.parametrize("backend", ["fused", "compiled", "scpiy"])
    def test_build_rejects_unknown_backend_listing_registered(self, backend):
        # A typo, or a backend removed since the spec/checkpoint was written,
        # fails while building, not inside the first train_step.
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=5,
                         n_relations=2, embedding_dim=4, backend=backend)
        with pytest.raises(ValueError, match=r"unknown SpMM backend.*numpy.*scipy"):
            build_model(spec)

    def test_build_rejects_unsupported_dissimilarity(self):
        spec = ModelSpec(model="distmult", formulation="sparse", n_entities=5,
                         n_relations=2, embedding_dim=4, dissimilarity="L1")
        with pytest.raises(ValueError, match="dissimilarity"):
            build_model(spec)

    def test_unknown_model_error_message_is_unquoted(self):
        try:
            get_entry("kg2e", "sparse")
        except UnknownModelError as exc:
            assert not str(exc).startswith('"')

    def test_spec_from_unregistered_model_raises(self):
        with pytest.raises(UnknownModelError, match="not a registered"):
            spec_from_model(object())


class TestCheckpointIntegration:
    def test_checkpoint_preserves_backend_and_dissimilarity(self, tmp_path):
        from repro.training.checkpoint import load_model, save_checkpoint

        spec = ModelSpec(model="transr", formulation="sparse", n_entities=30,
                         n_relations=5, embedding_dim=8, relation_dim=6,
                         backend="numpy", dissimilarity="L1")
        model = build_model(spec, rng=3)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, epoch=1)

        restored = load_model(path)
        assert type(restored).__name__ == "SpTransR"
        assert restored.backend == "numpy"
        assert restored.dissimilarity_name == "L1"
        assert restored.relation_dim == 6
        np.testing.assert_allclose(restored.entity_embeddings.weight.data,
                                   model.entity_embeddings.weight.data)

    def test_checkpoint_without_a_spec_names_the_class(self, tmp_path):
        """An unregistered model saves ``model_spec: null``; loading it says
        which class to register."""
        import json

        from repro.training.checkpoint import load_model, save_checkpoint

        model = build_model(ModelSpec(model="transe", formulation="sparse",
                                      n_entities=20, n_relations=3,
                                      embedding_dim=8), rng=0)
        path = str(tmp_path / "broken.npz")
        save_checkpoint(path, model)

        data = dict(np.load(path, allow_pickle=False))
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        metadata["model_spec"] = None
        metadata["model_class"] = "MysteryNet"
        data["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                         dtype=np.uint8)
        np.savez(path, **data)

        with pytest.raises(ValueError, match="'MysteryNet'.*@register_model"):
            load_model(path)

    def test_older_checkpoint_without_a_spec_names_the_class(self, tmp_path):
        """Checkpoints written before ``model_class`` name the class inside a
        ``model_config`` summary; a spec-less one still says which it was."""
        import json

        from repro.training.checkpoint import load_model, save_checkpoint

        model = build_model(ModelSpec(model="transe", formulation="sparse",
                                      n_entities=20, n_relations=3,
                                      embedding_dim=8), rng=0)
        path = str(tmp_path / "old.npz")
        save_checkpoint(path, model)

        data = dict(np.load(path, allow_pickle=False))
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        metadata["model_spec"] = None
        del metadata["model_class"]
        metadata["model_config"] = {"model": "MysteryNet", "n_entities": 20}
        data["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                         dtype=np.uint8)
        np.savez(path, **data)

        with pytest.raises(ValueError, match="'MysteryNet'.*@register_model"):
            load_model(path)
