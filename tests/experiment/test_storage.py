"""Tests for the out-of-core storage path: parity, artifacts, mmap serving,
and checkpoint-resume trajectory equality."""

import json
import os

import numpy as np
import pytest

from repro.data import (
    SQLiteKGStore,
    StreamingBatchIterator,
    UniformNegativeSampler,
    generate_synthetic_kg,
)
from repro.data.streaming import block_bounds_of
from repro.experiment import (
    DataSpec,
    EvalSpec,
    Experiment,
    ExperimentSpec,
    load_artifact,
)
from repro.models import SpTransE
from repro.registry import ModelSpec
from repro.serving import InferenceEngine
from repro.training import Trainer, TrainingConfig
from repro.utils.seeding import new_rng


def make_spec(storage="memory", epochs=2, **data_overrides):
    data = DataSpec(dataset="WN18RR", scale=0.003, test_fraction=0.05,
                    storage=storage, **data_overrides)
    n_entities, n_relations = data.vocab_sizes()
    return ExperimentSpec(
        name=f"storage-{storage}",
        data=data,
        model=ModelSpec(model="transe", formulation="sparse",
                        n_entities=n_entities, n_relations=n_relations,
                        embedding_dim=16),
        training=TrainingConfig(epochs=epochs, batch_size=256,
                                learning_rate=0.01, sparse_grads=True),
        eval=EvalSpec(protocols=()),
    )


class _ArrayStore:
    """The triple-store protocol over a dataset's arrays: the RAM oracle the
    SQLite byte source is compared against."""

    def __init__(self, kg):
        self.n_entities = kg.n_entities
        self._train = kg.split.train

    def n_triples(self, split="train"):
        return self._train.shape[0]

    def block_bounds(self, block_size, split="train"):
        return block_bounds_of(self._train.shape[0], block_size)

    def fetch_block(self, lo, hi, split="train"):
        return self._train[lo:hi + 1]


class TestStorageParity:
    def test_sqlite_and_memory_streams_produce_identical_loss_curves(self):
        """The same streaming pipeline over SQLite vs RAM differs only in the
        byte source, so the loss curves must be identical floats."""
        kg = generate_synthetic_kg(50, 5, 400, rng=0)
        cfg = TrainingConfig(epochs=3, batch_size=64, learning_rate=0.01,
                             sparse_grads=True, seed=0)

        def run(store):
            model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=1)
            batches = StreamingBatchIterator(
                store, batch_size=cfg.batch_size,
                sampler=UniformNegativeSampler(kg.n_entities, rng=new_rng(4)),
                seed=0)
            return Trainer(model, config=cfg, batches=batches).train(), model

        sqlite_store = SQLiteKGStore()
        sqlite_store.ingest_dataset(kg)
        sqlite_result, sqlite_model = run(sqlite_store)
        memory_result, memory_model = run(_ArrayStore(kg))
        assert sqlite_result.losses == memory_result.losses
        np.testing.assert_array_equal(sqlite_model.embeddings.weight.data,
                                      memory_model.embeddings.weight.data)

    def test_experiment_sqlite_storage_end_to_end(self, tmp_path):
        artifact_dir = str(tmp_path / "artifact")
        spec = make_spec(storage="sqlite", epochs=3)
        result = Experiment(spec, artifact_dir=artifact_dir).run()
        assert len(result.training.losses) == 3
        assert result.training.losses[-1] < result.training.losses[0]
        assert os.path.exists(os.path.join(artifact_dir, "data.sqlite"))
        # Out-of-core mode released the materialised triples before training.
        assert result.dataset is None
        assert result.dataset_name.startswith("WN18RR")

    def test_stale_store_with_same_count_is_rejected(self, tmp_path):
        """Reusing a storage_path across different datasets must fail even
        when the triple counts coincide (content fingerprint, not count)."""
        db = str(tmp_path / "shared.sqlite")
        spec_a = make_spec(storage="sqlite", epochs=1, storage_path=db, seed=0)
        Experiment(spec_a).run()
        # Same generator/scale, different generation seed: identical counts,
        # different triples.
        spec_b = make_spec(storage="sqlite", epochs=1, storage_path=db, seed=1)
        with pytest.raises(ValueError, match="different dataset"):
            Experiment(spec_b).run()
        # The matching spec still reuses the store without re-spooling.
        result = Experiment(spec_a).run()
        assert len(result.training.losses) == 1

    def test_sqlite_storage_keeps_dataset_when_evaluating(self, tmp_path):
        spec = make_spec(storage="sqlite", epochs=1)
        spec = spec.replace(
            eval=EvalSpec(protocols=("link_prediction",), ks=(1, 10)))
        result = Experiment(spec, artifact_dir=str(tmp_path / "a")).run()
        assert result.dataset is not None
        assert result.report("link_prediction").metrics


class TestMmapArtifacts:
    def test_run_then_serve_memory_mapped(self, tmp_path):
        """run → from_artifact → query with embeddings left on disk."""
        artifact_dir = str(tmp_path / "artifact")
        Experiment(make_spec(epochs=1), artifact_dir=artifact_dir).run()
        assert os.path.isdir(os.path.join(artifact_dir, "weights"))

        engine = InferenceEngine.from_artifact(artifact_dir)
        for name, param in engine.model.named_parameters():
            assert isinstance(param.data, np.memmap), name
        result = engine.top_k_tails(3, 1, k=5)
        assert len(result.entities) == 5
        assert list(result.scores) == sorted(result.scores)

    def test_mmap_answers_match_trained_answers(self, tmp_path):
        artifact_dir = str(tmp_path / "artifact")
        result = Experiment(make_spec(epochs=1), artifact_dir=artifact_dir).run()
        mapped = InferenceEngine.from_artifact(artifact_dir)
        trained = InferenceEngine(result.model)
        assert not any(isinstance(p.data, np.memmap)
                       for p in trained.model.parameters())
        for head in range(5):
            assert mapped.top_k_tails(head, 1, k=7) == trained.top_k_tails(head, 1, k=7)

    def test_mmap_requires_weight_files(self, tmp_path):
        artifact_dir = str(tmp_path / "artifact")
        Experiment(make_spec(epochs=1), artifact_dir=artifact_dir).run()
        import shutil

        shutil.rmtree(os.path.join(artifact_dir, "weights"))
        with pytest.raises(FileNotFoundError, match="weights"):
            InferenceEngine.from_artifact(artifact_dir)


class TestSparseResumeRegression:
    """Satellite regression: lazy sparse optimiser state + the data pipeline
    must both survive save → load → resume and continue the identical
    trajectory of an uninterrupted run."""

    @pytest.mark.parametrize("optimizer", ["adam", "adagrad"])
    def test_resume_continues_identical_trajectory(self, tmp_path, optimizer):
        spec = make_spec(epochs=6)
        spec = spec.replace(
            name=f"resume-{optimizer}",
            training=spec.training.replace(optimizer=optimizer))

        uninterrupted = Experiment(spec).run()

        half = spec.replace(training=spec.training.replace(epochs=3))
        checkpoint = str(tmp_path / "half")
        Experiment(half, artifact_dir=checkpoint).run()
        resumed = Experiment(spec, resume=checkpoint).run()

        assert len(resumed.training.losses) == 3
        np.testing.assert_array_equal(
            uninterrupted.training.losses[3:], resumed.training.losses)
        for (name, a), (_, b) in zip(
                uninterrupted.model.named_parameters(),
                resumed.model.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    @pytest.mark.parametrize("sampler", ["uniform", "bernoulli"])
    def test_sqlite_resume_continues_identical_trajectory(self, tmp_path, sampler):
        """A resumed out-of-core run replays the skipped epochs of its SQLite
        stream, so it continues where the uninterrupted stream would be."""
        spec = make_spec(storage="sqlite", epochs=4, negative_sampler=sampler)
        uninterrupted = Experiment(spec).run()

        checkpoint = str(tmp_path / "half")
        Experiment(spec.replace(training=spec.training.replace(epochs=2)),
                   artifact_dir=checkpoint).run()
        resumed = Experiment(spec, resume=checkpoint).run()

        np.testing.assert_array_equal(uninterrupted.training.losses[2:],
                                      resumed.training.losses)
        np.testing.assert_array_equal(uninterrupted.model.entity_embedding_matrix(),
                                      resumed.model.entity_embedding_matrix())

    def test_resume_restores_optimizer_step_count(self, tmp_path):
        spec = make_spec(epochs=2)
        checkpoint = str(tmp_path / "ck")
        Experiment(spec, artifact_dir=checkpoint).run()
        from repro.training import load_checkpoint

        metadata = load_checkpoint(checkpoint).metadata
        assert metadata["optimizer_step_count"] > 0


class TestArtifactsWithNumWorkers:
    """Every ``spec.json`` and checkpoint written while data-parallel training
    existed carries ``training.num_workers``; a 1 there still loads."""

    @staticmethod
    def write_num_workers(artifact_dir, value):
        spec_path = os.path.join(artifact_dir, "spec.json")
        with open(spec_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["training"]["num_workers"] = value
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        checkpoint_path = os.path.join(artifact_dir, "checkpoint.npz")
        with np.load(checkpoint_path) as data:
            arrays = dict(data)
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["training_config"]["num_workers"] = value
        arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                           dtype=np.uint8)
        np.savez(checkpoint_path, **arrays)

    def test_spec_loads_through_load_artifact(self, tmp_path):
        spec = make_spec(epochs=1)
        artifact_dir = str(tmp_path / "artifact")
        Experiment(spec, artifact_dir=artifact_dir).run()
        self.write_num_workers(artifact_dir, 1)
        assert load_artifact(artifact_dir).spec.training == spec.training

    def test_checkpoint_resumes_the_same_trajectory(self, tmp_path):
        spec = make_spec(epochs=4)
        uninterrupted = Experiment(spec).run()
        checkpoint = str(tmp_path / "half")
        Experiment(spec.replace(training=spec.training.replace(epochs=2)),
                   artifact_dir=checkpoint).run()
        self.write_num_workers(checkpoint, 1)
        resumed = Experiment(spec, resume=checkpoint).run()
        np.testing.assert_array_equal(uninterrupted.training.losses[2:],
                                      resumed.training.losses)

    def test_more_than_one_worker_is_refused_naming_the_key(self, tmp_path):
        spec = make_spec(epochs=2)
        artifact_dir = str(tmp_path / "artifact")
        Experiment(spec.replace(training=spec.training.replace(epochs=1)),
                   artifact_dir=artifact_dir).run()
        self.write_num_workers(artifact_dir, 2)
        refusal = "'num_workers' is 2: data-parallel training was removed"
        with pytest.raises(ValueError, match=refusal):
            load_artifact(artifact_dir)
        with pytest.raises(ValueError, match=refusal):
            Experiment(spec, resume=artifact_dir).run()
