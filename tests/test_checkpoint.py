"""Tests for checkpoint save / load / restore."""

import os

import numpy as np
import pytest

from repro.baselines import DenseTransE
from repro.data import generate_synthetic_kg
from repro.models import SpTransE, SpTransR
from repro.optim import Adam
from repro.serving import InferenceEngine
from repro.training import (
    Trainer,
    TrainingConfig,
    load_checkpoint,
    load_model,
    restore_into,
    save_checkpoint,
)
from repro.training.trainer import build_optimizer


@pytest.fixture
def kg():
    return generate_synthetic_kg(40, 4, 200, rng=0)


@pytest.fixture
def trained(kg, tmp_path):
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    trainer = Trainer(model, kg, TrainingConfig(epochs=3, batch_size=64, seed=0),
                      optimizer=optimizer)
    result = trainer.train()
    path = save_checkpoint(str(tmp_path / "ckpt.npz"), model, optimizer,
                           epoch=3, losses=result.losses)
    return model, optimizer, result, path


class TestSaveLoad:
    def test_round_trip_model_state(self, kg, trained):
        model, _, result, path = trained
        checkpoint = load_checkpoint(path)
        assert checkpoint.epoch == 3
        assert checkpoint.losses == pytest.approx(result.losses)
        fresh = SpTransE(kg.n_entities, kg.n_relations, 16, rng=99)
        restore_into(checkpoint, fresh)
        np.testing.assert_allclose(fresh.embeddings.weight.data,
                                   model.embeddings.weight.data)

    def test_optimizer_state_restored(self, kg, trained):
        model, optimizer, _, path = trained
        checkpoint = load_checkpoint(path)
        fresh_model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=99)
        fresh_opt = Adam(fresh_model.parameters(), lr=0.5)
        restore_into(checkpoint, fresh_model, fresh_opt)
        assert fresh_opt.lr == pytest.approx(0.01)
        # The Adam moment buffers for the stacked embedding must match.
        original_state = optimizer.state[id(model.embeddings.weight)]
        restored_state = fresh_opt.state[id(fresh_model.embeddings.weight)]
        np.testing.assert_allclose(restored_state["m"], original_state["m"])
        np.testing.assert_allclose(restored_state["v"], original_state["v"])

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_checkpoint("/nonexistent/checkpoint.npz")

    def test_extension_added_automatically(self, kg, tmp_path):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        save_checkpoint(str(tmp_path / "bare"), model)
        checkpoint = load_checkpoint(str(tmp_path / "bare"))
        assert checkpoint.source_path == str(tmp_path / "bare.npz")
        assert (tmp_path / "weights" / "embeddings.weight.npy").exists()

    def test_strict_mismatch_detected(self, kg, trained):
        _, _, _, path = trained
        checkpoint = load_checkpoint(path)
        wrong_dim = SpTransE(kg.n_entities, kg.n_relations, 32, rng=0)
        with pytest.raises(ValueError):
            restore_into(checkpoint, wrong_dim)
        wrong_class = SpTransR(kg.n_entities, kg.n_relations, 16, rng=0)
        with pytest.raises(ValueError):
            restore_into(checkpoint, wrong_class)

    def test_resumed_training_continues_from_checkpoint(self, kg, trained):
        """Training resumed from a checkpoint matches uninterrupted training."""
        _, _, _, path = trained
        cfg = TrainingConfig(epochs=2, batch_size=64, seed=1, shuffle=False,
                             normalize_every=0, optimizer="sgd", learning_rate=0.01)

        # Continuous run: 3 (already done in fixture, but with different config) —
        # here we just check resuming produces identical results across two restores.
        def resume_and_train():
            checkpoint = load_checkpoint(path)
            model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=123)
            optimizer = build_optimizer("sgd", model, 0.01)
            restore_into(checkpoint, model, optimizer)
            Trainer(model, kg, cfg, optimizer=optimizer).train()
            return model.embeddings.weight.data.copy()

        np.testing.assert_allclose(resume_and_train(), resume_and_train())


class TestArtifactAndMetadata:
    def test_load_checkpoint_resolves_artifact_directory(self, tmp_path, kg):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        save_checkpoint(str(tmp_path / "checkpoint.npz"), model)
        checkpoint = load_checkpoint(str(tmp_path))
        assert checkpoint.weights_dir == str(tmp_path / "weights")

    def test_directory_without_checkpoint_fails_clearly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="checkpoint.npz"):
            load_checkpoint(str(tmp_path))

    def test_extra_metadata_round_trips(self, tmp_path, kg):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model,
                        extra_metadata={"experiment": "demo",
                                        "training_config": {"epochs": 3}})
        metadata = load_checkpoint(path).metadata
        assert metadata["experiment"] == "demo"
        assert metadata["training_config"] == {"epochs": 3}

    def test_extra_metadata_cannot_shadow_reserved_keys(self, tmp_path, kg):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model, epoch=7, extra_metadata={"epoch": 99})
        assert load_checkpoint(path).epoch == 7


def _train(kg, model, **config):
    """Train ``model`` for one epoch with Adam; returns its optimiser."""
    optimizer = Adam(model.parameters(), lr=0.01)
    Trainer(model, kg, TrainingConfig(epochs=1, batch_size=64, seed=0, **config),
            optimizer=optimizer).train()
    return optimizer


MODELS = {
    "dense": lambda kg: (SpTransE(kg.n_entities, kg.n_relations, 8, rng=0), {}),
    "partitioned": lambda kg: (SpTransE(kg.n_entities, kg.n_relations, 8, rng=0,
                                        partitions=3),
                               {"sparse_grads": True}),
    "dense-baseline": lambda kg: (DenseTransE(kg.n_entities, kg.n_relations, 8,
                                              rng=0), {}),
}


class TestOneCopyOfEachParameter:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_npz_holds_metadata_and_optimizer_state_only(self, kg, tmp_path, kind):
        model, config = MODELS[kind](kg)
        optimizer = _train(kg, model, **config)
        path = save_checkpoint(str(tmp_path / "checkpoint.npz"), model, optimizer)
        with np.load(path, allow_pickle=False) as data:
            members = set(data.files)
        assert "metadata" in members
        optim = members - {"metadata"}
        assert optim and all(name.startswith("optim::") for name in optim)
        weights = sorted(os.listdir(tmp_path / "weights"))
        names = [name for name, _ in model.named_parameters()]
        if kind == "partitioned":
            buckets = [f"entities.bucket{k}.npy" for k in range(3)]
            assert [w for w in weights if w in buckets] == buckets
            assert "partition.json" in weights
            names = [n for n in names if ".bucket" not in n]
        for name in names:
            assert weights.count(f"{name}.npy") == 1, (name, weights)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_loaded_model_answers_bit_identically(self, kg, tmp_path, kind):
        model, config = MODELS[kind](kg)
        _train(kg, model, **config)
        save_checkpoint(str(tmp_path / "checkpoint.npz"), model)
        loaded = load_model(str(tmp_path / "checkpoint.npz"))
        trained, served = InferenceEngine(model), InferenceEngine(loaded)
        for head, relation in [(0, 0), (5, 1), (17, 3)]:
            assert (served.top_k_tails(head, relation, k=10)
                    == trained.top_k_tails(head, relation, k=10))
            assert (served.top_k_heads(relation, head, k=10)
                    == trained.top_k_heads(relation, head, k=10))
        if kind != "partitioned":
            assert all(isinstance(p.data, np.memmap) for p in loaded.parameters())

    def test_checkpoint_without_weights_names_the_directory(self, kg, tmp_path):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        save_checkpoint(str(tmp_path / "checkpoint.npz"), model)
        import shutil

        shutil.rmtree(tmp_path / "weights")
        with pytest.raises(FileNotFoundError, match=str(tmp_path / "weights")):
            load_model(str(tmp_path))

    def test_dense_save_over_partitioned_leaves_no_buckets(self, kg, tmp_path):
        path = str(tmp_path / "checkpoint.npz")
        partitioned = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0, partitions=3)
        save_checkpoint(path, partitioned)
        dense = SpTransE(kg.n_entities, kg.n_relations, 8, rng=1)
        save_checkpoint(path, dense)
        weights = os.listdir(tmp_path / "weights")
        assert "partition.json" not in weights
        assert not [w for w in weights if w.startswith("entities.bucket")]
        loaded = load_model(path)
        assert loaded.n_partitions == 1
        np.testing.assert_array_equal(loaded.entity_embedding_matrix(),
                                      dense.entity_embedding_matrix())

    def test_loaded_model_saves_back_into_its_own_directory(self, kg, tmp_path):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        path = save_checkpoint(str(tmp_path / "checkpoint.npz"), model)
        loaded = load_model(path)
        save_checkpoint(path, loaded, epoch=4)
        again = load_model(path)
        assert load_checkpoint(path).epoch == 4
        np.testing.assert_array_equal(again.entity_embedding_matrix(),
                                      model.entity_embedding_matrix())
        # The first load still reads whole, unchanged files.
        np.testing.assert_array_equal(loaded.entity_embedding_matrix(),
                                      model.entity_embedding_matrix())

    def test_restore_into_copies_into_a_writable_model(self, kg, tmp_path):
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0, partitions=3)
        _train(kg, model, sparse_grads=True)
        path = save_checkpoint(str(tmp_path / "checkpoint.npz"), model)
        fresh = SpTransE(kg.n_entities, kg.n_relations, 8, rng=9, partitions=3)
        restore_into(load_checkpoint(path), fresh)
        np.testing.assert_array_equal(fresh.entity_embedding_matrix(),
                                      model.entity_embedding_matrix())
        np.testing.assert_array_equal(fresh.relation_embedding_matrix(),
                                      model.relation_embedding_matrix())
        assert not fresh.embeddings.read_only
        fresh.embeddings.renormalize_()  # writes go to its own storage
        np.testing.assert_array_equal(load_model(path).entity_embedding_matrix(),
                                      model.entity_embedding_matrix())
