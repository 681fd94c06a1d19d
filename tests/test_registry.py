"""Tests for the spec-driven model registry."""

import numpy as np
import pytest

from repro.baselines import DENSE_MODELS
from repro.models import SPARSE_MODELS
from repro.registry import (
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


def spec_for_entry(entry, n_entities=25, n_relations=4, embedding_dim=8):
    """A minimal valid spec exercising every capability the entry declares."""
    caps = entry.capabilities
    return ModelSpec(
        model=entry.name,
        formulation=entry.formulation,
        n_entities=n_entities,
        n_relations=n_relations,
        embedding_dim=embedding_dim,
        relation_dim=6 if caps.accepts_relation_dim else None,
        backend="numpy" if caps.accepts_backend else None,
        dissimilarity=caps.default_dissimilarity if caps.accepts_dissimilarity else None,
        sparse_grads=caps.supports_sparse_grads,
    )


class TestRegistryContents:
    def test_legacy_views_match_registry(self):
        assert SPARSE_MODELS == models_by_formulation("sparse")
        assert DENSE_MODELS == models_by_formulation("dense")

    def test_every_paper_model_registered(self):
        assert set(SPARSE_MODELS) >= {"transe", "transr", "transh", "toruse",
                                      "distmult", "complex", "rotate"}
        assert set(DENSE_MODELS) >= {"transe", "transr", "transh", "toruse", "transd"}

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

    def test_summary_is_json_friendly(self):
        import json

        summary = registry_summary()
        assert "transe/sparse" in summary
        assert summary["transe/sparse"]["accepts_backend"] is True
        assert summary["transe/dense"]["accepts_backend"] is False
        json.dumps(summary)  # must serialise without a custom encoder


class TestSpecRoundTrip:
    @pytest.mark.parametrize("entry", list(iter_entries()),
                             ids=lambda e: f"{e.name}-{e.formulation}")
    def test_every_model_builds_from_round_tripped_spec(self, entry):
        spec = spec_for_entry(entry)
        rebuilt_spec = ModelSpec.from_dict(spec.to_dict())
        assert rebuilt_spec == spec

        model = build_model(rebuilt_spec, rng=0)
        assert isinstance(model, entry.cls)
        assert model.n_entities == spec.n_entities
        assert model.n_relations == spec.n_relations
        assert model.embedding_dim == spec.embedding_dim

        recovered = spec_from_model(model)
        assert recovered == rebuilt_spec

    @pytest.mark.parametrize("entry", list(iter_entries()),
                             ids=lambda e: f"{e.name}-{e.formulation}")
    def test_built_model_scores(self, entry):
        model = build_model(spec_for_entry(entry), rng=0)
        triples = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int64)
        scores = model.score_triples(triples)
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))

    def test_sparse_dense_capability_parity(self):
        """Models in both formulations agree on formulation-independent flags."""
        sparse = {e.name: e for e in iter_entries() if e.formulation == "sparse"}
        dense = {e.name: e for e in iter_entries() if e.formulation == "dense"}
        for name in set(sparse) & set(dense):
            s_caps, d_caps = sparse[name].capabilities, dense[name].capabilities
            assert s_caps.accepts_relation_dim == d_caps.accepts_relation_dim, name
            assert s_caps.default_dissimilarity == d_caps.default_dissimilarity, name
            # The backend knob is what distinguishes the formulations.
            assert s_caps.accepts_backend or not d_caps.accepts_backend, name

    def test_sparse_grads_flag_applied_on_build(self):
        spec = spec_for_entry(get_entry("transe", "sparse"))
        assert spec.sparse_grads
        model = build_model(spec, rng=0)
        assert model.sparse_grads is True

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

    def test_build_rejects_unsupported_sparse_grads(self):
        spec = ModelSpec(model="rotate", formulation="sparse", n_entities=5,
                         n_relations=2, embedding_dim=4, sparse_grads=True)
        with pytest.raises(ValueError, match="sparse_grads"):
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
        np.testing.assert_allclose(restored.entity_embeddings.data,
                                   model.entity_embeddings.data)

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
        metadata["model_config"]["model"] = "MysteryNet"
        data["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                         dtype=np.uint8)
        np.savez(path, **data)

        with pytest.raises(ValueError, match="'MysteryNet'.*@register_model"):
            load_model(path)
