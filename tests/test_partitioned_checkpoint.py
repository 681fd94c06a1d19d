"""Partitioned checkpoints/artifacts: bucket files, manifest, serve hand-off."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.data.synthetic import make_dataset_like
from repro.evaluation.link_prediction import evaluate_link_prediction
from repro.experiment import DataSpec, EvalSpec, Experiment, ExperimentSpec, load_artifact
from repro.models.transe import SpTransE
from repro.models.transh import SpTransH
from repro.models.transr import SpTransR
from repro.nn.partitioned import PARTITION_MANIFEST, partitioned_tables
from repro.registry import ModelSpec, build_model, spec_from_model
from repro.serving import InferenceEngine, TopKQuery
from repro.training.checkpoint import (
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def kg():
    return make_dataset_like("FB15K", scale=0.003, rng=1)


@pytest.fixture(scope="module")
def trained(kg, tmp_path_factory):
    """A trained partitioned model checkpointed into an artifact-shaped dir."""
    directory = tmp_path_factory.mktemp("part-ckpt")
    model = SpTransE(kg.n_entities, kg.n_relations, 12, rng=3, partitions=3)
    config = TrainingConfig(epochs=2, batch_size=256, sparse_grads=True,
                            learning_rate=0.01, seed=0)
    trainer = Trainer(model, kg, config)
    trainer.train()
    path = save_checkpoint(str(directory / "checkpoint.npz"), model,
                           trainer.optimizer, epoch=2)
    return model, path, directory


class TestModelSpecPartitions:
    def test_spec_roundtrip(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8, partitions=4)
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["partitions"] == 4

    def test_partitions_one_normalises_to_none(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8, partitions=1)
        assert spec.partitions is None
        assert "partitions" not in spec.to_dict()

    def test_build_and_recover(self):
        spec = ModelSpec(model="transe", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8, partitions=4)
        model = build_model(spec, rng=0)
        assert model.n_partitions == 4
        recovered = spec_from_model(model)
        assert recovered.partitions == 4
        model.embeddings.close()

    def test_unsupported_model_rejects_partitions(self):
        spec = ModelSpec(model="distmult", formulation="sparse", n_entities=50,
                         n_relations=4, embedding_dim=8, partitions=4)
        with pytest.raises(ValueError, match="partition"):
            build_model(spec)


class TestPartitionedCheckpointLayout:
    def test_npz_excludes_buckets_and_manifest_recorded(self, trained):
        model, path, directory = trained
        with np.load(path, allow_pickle=False) as data:
            assert not [k for k in data.files if k.startswith("model::")]
        assert os.path.exists(os.path.join(directory, "weights",
                                           "embeddings.relations.npy"))
        checkpoint = load_checkpoint(path)
        assert checkpoint.partition_manifest is not None
        assert checkpoint.partition_manifest["partitions"] == 3

    def test_bucket_files_and_manifest_written(self, trained):
        _, _, directory = trained
        weights = directory / "weights"
        names = sorted(os.listdir(weights))
        assert [f"entities.bucket{k}.npy" for k in range(3)] == \
            [n for n in names if n.startswith("entities.") and n.endswith(".npy")
             and ".state." not in n]
        manifest = json.loads((weights / PARTITION_MANIFEST).read_text())
        assert manifest["partitions"] == 3
        assert sum(b["rows"] for b in manifest["buckets"]) == manifest["n_entities"]

    def test_reload_reproduces_scores(self, trained, kg):
        model, path, _ = trained
        reloaded = load_model(path)
        triples = kg.split.train[:64]
        assert np.array_equal(model.score_triples(triples),
                              reloaded.score_triples(triples))
        assert reloaded.n_partitions == 3
        assert reloaded.embeddings.read_only

    def test_load_model_faults_buckets_lazily(self, trained, kg):
        """load_model attaches the bucket files; nothing faults until used."""
        model, path, _ = trained
        lazy = load_model(path)
        assert lazy.embeddings.stats()["faults"] == 0  # nothing faulted yet
        triples = kg.split.train[:16]
        assert np.array_equal(model.score_triples(triples),
                              lazy.score_triples(triples))
        assert lazy.embeddings.stats()["faults"] > 0

    def test_resave_leaves_a_served_table_its_old_rows(self, tmp_path):
        """Re-saving an artifact renames new bucket files in; a table serving
        the old ones keeps its map of them, whole and unchanged."""
        path = str(tmp_path / "checkpoint.npz")
        save_checkpoint(path, SpTransE(40, 3, 6, rng=1, partitions=3))
        served = load_model(path).entity_table()
        everything = np.arange(40)
        old = served.exact_rows(everything)  # maps every bucket file
        newer = SpTransE(40, 3, 6, rng=2, partitions=3)
        save_checkpoint(path, newer)
        assert not np.array_equal(newer.entity_table().to_matrix(), old)
        assert np.array_equal(served.exact_rows(everything), old)
        assert np.array_equal(load_model(path).entity_table().exact_rows(everything),
                              newer.entity_table().to_matrix())
        assert not [name for name in os.listdir(tmp_path / "weights")
                    if name.endswith(".partial")]


class TestHtModelArtifacts:
    """TransH and TransR page their entity table like TransE: a P = 3 artifact
    serves and evaluates exactly as the model that was trained."""

    @pytest.fixture(scope="class", params=[SpTransH, SpTransR],
                    ids=lambda cls: cls.__name__)
    def trained_ht(self, request, kg, tmp_path_factory):
        directory = tmp_path_factory.mktemp(f"ht-{request.param.__name__}")
        model = request.param(kg.n_entities, kg.n_relations, 12, rng=3,
                              partitions=3)
        trainer = Trainer(model, kg, TrainingConfig(
            epochs=2, batch_size=256, sparse_grads=True, learning_rate=0.01,
            seed=0))
        trainer.train()
        path = save_checkpoint(str(directory / "checkpoint.npz"), model,
                               trainer.optimizer, epoch=2)
        yield model, path
        for table in partitioned_tables(model):
            table.close()

    def test_entity_only_buckets_written(self, trained_ht):
        _, path = trained_ht
        weights = os.path.join(os.path.dirname(path), "weights")
        with open(os.path.join(weights, PARTITION_MANIFEST), encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["partitions"] == 3
        assert manifest["n_relations"] == 0
        assert not os.path.exists(os.path.join(
            weights, "entity_embeddings.relations.npy"))

    def test_engine_and_evaluation_match_trained_model(self, trained_ht, kg):
        model, path = trained_ht
        loaded = load_model(path)
        assert loaded.n_partitions == 3
        assert loaded.entity_embeddings.read_only
        engine, direct = InferenceEngine(loaded), InferenceEngine(model)
        for anchor, relation in ((1, 0), (5, 2), (9, 1)):
            for query in ("top_k_tails_batch", "top_k_heads_batch"):
                batch = [TopKQuery(anchor, relation, 10)]
                a = getattr(engine, query)(batch)[0]
                b = getattr(direct, query)(batch)[0]
                assert a.entities == b.entities
                assert np.array_equal(a.scores, b.scores)
        known = kg.known_triples()
        triples = kg.split.train[:40]
        served = evaluate_link_prediction(loaded, triples, known)
        trained = evaluate_link_prediction(model, triples, known)
        assert served.mrr > 0
        assert served.to_dict() == trained.to_dict()
        assert np.array_equal(served.head_ranks, trained.head_ranks)
        assert np.array_equal(served.tail_ranks, trained.tail_ranks)


class TestPartitionedExperimentArtifact:
    @pytest.fixture(scope="class")
    def artifact(self, kg, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("part-artifact"))
        data = DataSpec(dataset="FB15K", scale=0.003, seed=1,
                        test_fraction=0.05, storage="sqlite")
        spec = ExperimentSpec(
            name="part-artifact", data=data,
            model=ModelSpec(model="transe", formulation="sparse",
                            n_entities=kg.n_entities, n_relations=kg.n_relations,
                            embedding_dim=12, partitions=4),
            training=TrainingConfig(epochs=2, batch_size=256, sparse_grads=True),
            eval=EvalSpec(protocols=()),
        )
        result = Experiment(spec, artifact_dir=directory, dataset=kg).run()
        return directory, result

    def test_spec_json_roundtrips_partitions(self, artifact):
        directory, _ = artifact
        spec = ExperimentSpec.from_file(os.path.join(directory, "spec.json"))
        assert spec.model.partitions == 4

    def test_engine_serves_partitioned_artifact_lazily(self, artifact):
        directory, result = artifact
        engine = InferenceEngine.from_artifact(directory)
        assert engine.model.n_partitions == 4
        answer = engine.top_k_tails(1, 0, k=5)
        assert len(answer.entities) == 5
        direct = InferenceEngine(result.model).top_k_tails(1, 0, k=5)
        assert answer.entities == direct.entities
        # the serving table is LRU-bounded, not densified
        assert engine.model.embeddings.stats()["max_resident"] == 2
        nearest = engine.nearest_entities(2, k=3)
        assert len(nearest.entities) == 3

    def test_artifact_reload_via_load_artifact(self, artifact, kg):
        directory, result = artifact
        reloaded = load_artifact(directory).load_model()
        triples = kg.split.train[:32]
        assert np.array_equal(result.model.score_triples(triples),
                              reloaded.score_triples(triples))

    def test_resume_of_partitioned_run_is_rejected(self, artifact):
        directory, result = artifact
        spec = ExperimentSpec.from_file(os.path.join(directory, "spec.json"))
        with pytest.raises(ValueError, match="partitioned"):
            Experiment(spec.replace(name="resumed"), resume=directory).run()


class TestDenseLayout:
    def test_unpartitioned_artifact_loads(self, kg, tmp_path):
        """No partition.json → every parameter is one mapped ``.npy`` file."""
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        Trainer(model, kg, TrainingConfig(epochs=1, batch_size=256)).train()
        path = save_checkpoint(str(tmp_path / "dense.npz"), model)
        assert not os.path.exists(tmp_path / "weights" / PARTITION_MANIFEST)
        lazy = load_model(path)
        triples = kg.split.train[:16]
        assert np.array_equal(model.score_triples(triples),
                              lazy.score_triples(triples))

