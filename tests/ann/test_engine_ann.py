"""run -> export -> from_artifact(ann=...) -> query: the ANN serving path."""

from __future__ import annotations

import os
from contextlib import closing

import numpy as np
import pytest

from repro.ann import load_index
from repro.data.synthetic import make_dataset_like
from repro.experiment import DataSpec, EvalSpec, Experiment, ExperimentSpec
from repro.models.transe import SpTransE
from repro.registry import ModelSpec
from repro.serving import InferenceEngine, TopKQuery
from repro.training.config import TrainingConfig


@pytest.fixture(scope="module")
def kg():
    return make_dataset_like("FB15K", scale=0.003, rng=1)


#: The model spec fields of each entity-table layout (``conftest.TABLES``).
SPEC_LAYOUTS = {
    "sparse-p3": {"formulation": "sparse", "partitions": 3},
    "sparse-p1": {"formulation": "sparse"},
    "dense": {"formulation": "dense"},
}


@pytest.fixture(scope="module")
def ann_artifact(kg, layout, tmp_path_factory):
    """An `sptransx run`-shaped artifact trained with model.ann='ivf'."""
    directory = str(tmp_path_factory.mktemp("ann-run"))
    spec = ExperimentSpec(
        name="ann-run",
        data=DataSpec(dataset="FB15K", scale=0.003, seed=1, test_fraction=0.05),
        model=ModelSpec(model="transe", n_entities=kg.n_entities,
                        n_relations=kg.n_relations, embedding_dim=12,
                        ann="ivf", **SPEC_LAYOUTS[layout]),
        training=TrainingConfig(epochs=2, batch_size=256, sparse_grads=True),
        eval=EvalSpec(protocols=()),
    )
    Experiment(spec, artifact_dir=directory, dataset=kg).run()
    return directory


@pytest.fixture(scope="module")
def plain_artifact(kg, tmp_path_factory):
    """The same run without ANN: partitioned weights, no index/ directory."""
    directory = str(tmp_path_factory.mktemp("plain-run"))
    spec = ExperimentSpec(
        name="plain-run",
        data=DataSpec(dataset="FB15K", scale=0.003, seed=1, test_fraction=0.05),
        model=ModelSpec(model="transe", formulation="sparse",
                        n_entities=kg.n_entities, n_relations=kg.n_relations,
                        embedding_dim=12, partitions=3),
        training=TrainingConfig(epochs=1, batch_size=256, sparse_grads=True),
        eval=EvalSpec(protocols=()),
    )
    Experiment(spec, artifact_dir=directory, dataset=kg).run()
    return directory


@pytest.fixture(scope="module")
def engines(ann_artifact):
    """(ann engine, exact engine) over the same artifact, filtered-capable."""
    ann = InferenceEngine.from_artifact(ann_artifact, filtered=True)
    exact = InferenceEngine.from_artifact(ann_artifact, filtered=True, ann="off")
    yield ann, exact
    ann.close()
    exact.close()


def full_probe(engine):
    return engine.ann_index.n_clusters


class TestArtifactWiring:
    def test_runner_builds_index_next_to_weights(self, ann_artifact):
        assert os.path.isdir(os.path.join(ann_artifact, "index"))
        assert os.path.exists(os.path.join(ann_artifact, "index", "index.json"))

    def test_spec_json_roundtrips_ann(self, ann_artifact):
        spec = ExperimentSpec.from_file(os.path.join(ann_artifact, "spec.json"))
        assert spec.model.ann == "ivf"

    def test_auto_loads_index(self, engines):
        ann, exact = engines
        assert ann.ann_index is not None
        assert exact.ann_index is None

    def test_auto_without_index_is_exact(self, plain_artifact):
        with InferenceEngine.from_artifact(plain_artifact) as engine:
            assert engine.ann_index is None

    def test_pinned_kind_without_index_rejected(self, plain_artifact):
        with pytest.raises(FileNotFoundError):
            InferenceEngine.from_artifact(plain_artifact, ann="ivf")

    def test_vocabulary_mismatch_rejected(self, ann_artifact):
        with closing(load_index(os.path.join(ann_artifact, "index"))) as index:
            small = SpTransE(index.n_entities // 2, 3, 12, rng=0)
            with pytest.raises(ValueError, match="entities"):
                InferenceEngine(small, ann_index=index)


class TestQueryParity:
    def test_full_probe_filtered_queries_match_exact(self, engines, kg):
        ann, exact = engines
        nprobe = full_probe(ann)
        known = set(map(tuple, kg.known_triples()))
        pairs = [(h, r) for h, r, _ in kg.split.train[:5]]
        for h, r in pairs:
            a = ann.top_k_tails(h, r, k=8, filtered=True, nprobe=nprobe)
            e = exact.top_k_tails(h, r, k=8, filtered=True)
            assert a.entities == e.entities
            assert a.scores == e.scores
            assert not any((h, r, t) in known for t in a.entities)
        for h, r in pairs[:2]:
            a = ann.top_k_heads_batch([TopKQuery(h, r, k=8, filtered=True, nprobe=nprobe)])[0]
            e = exact.top_k_heads_batch([TopKQuery(h, r, k=8, filtered=True)])[0]
            assert a.entities == e.entities

    def test_default_nprobe_recall_on_served_queries(self, engines, kg):
        ann, exact = engines
        hits = total = 0
        for h, r, _ in kg.split.train[:12]:
            a = set(ann.top_k_tails(int(h), int(r), k=10).entities)
            e = set(exact.top_k_tails(int(h), int(r), k=10).entities)
            hits += len(a & e)
            total += len(e)
        assert hits / total >= 0.85

    def test_per_query_ann_false_forces_exact(self, engines, kg):
        ann, exact = engines
        h, r, _ = map(int, kg.split.train[10])
        before = ann.stats()["ann_queries"]
        a = ann.top_k_tails(h, r, k=6, ann=False)
        assert a.entities == exact.top_k_tails(h, r, k=6).entities
        assert a.scores == exact.top_k_tails(h, r, k=6).scores
        assert ann.stats()["ann_queries"] == before

    def test_nearest_entities_full_probe_matches_exact(self, ann_artifact):
        with InferenceEngine.from_artifact(ann_artifact, cache_size=0) as ann, \
                InferenceEngine.from_artifact(ann_artifact, cache_size=0,
                                              ann="off") as exact:
            ann.ann_nprobe = full_probe(ann)
            for entity in (0, 17, 93):
                a = ann.nearest_entities(entity, k=6)
                e = exact.nearest_entities(entity, k=6)
                assert a.entities == e.entities
                assert entity not in a.entities
            assert ann.stats()["ann_queries"] == 3


class TestAnnServingFaultsNoBucket:
    @pytest.mark.parametrize("layout", ["sparse-p3"], indirect=True)
    def test_ann_misses_read_rows_without_faulting(self, ann_artifact, kg):
        # The anchor row, the candidates and the nearest-entity query all
        # come through the table's exact_rows, which never faults a bucket.
        with InferenceEngine.from_artifact(ann_artifact, cache_size=0) as engine:
            for h, r, _ in kg.split.train[:12]:
                engine.top_k_tails(int(h), int(r), k=5)
            engine.nearest_entities(17, k=5)
            stats = engine.stats()
            assert stats["ann_queries"] == 13
            assert stats["fallback_queries"] == 0
            table = engine.model.entity_table().stats()
            assert table["faults"] == 0
            assert table["resident"] == 0


class TestStatsAndFallback:
    def test_ann_counters_flow_to_stats(self, ann_artifact, kg):
        with InferenceEngine.from_artifact(ann_artifact, cache_size=0) as engine:
            h, r, _ = map(int, kg.split.train[0])
            engine.top_k_tails(h, r, k=5)
            stats = engine.stats()
            assert stats["ann_queries"] == 1
            assert stats["fallback_queries"] == 0
            assert 0.0 < stats["probed_fraction"] <= 1.0
            assert stats["ann"]["kind"] == "ivf"
            assert stats["ann"]["nprobe"] >= 1

    def test_non_l2_model_falls_back_to_exact(self, ann_artifact, kg):
        # An L1 model has no closed-form L2 query vector: the engine must
        # answer exactly and count the fallback instead of mis-ranking.
        with closing(load_index(os.path.join(ann_artifact, "index"))) as index:
            model = SpTransE(kg.n_entities, kg.n_relations, 12, rng=3,
                             dissimilarity="L1", partitions=3)
            engine = InferenceEngine(model, cache_size=0, ann_index=index)
            plain = InferenceEngine(model, cache_size=0)
            h, r, _ = map(int, kg.split.train[0])
            assert engine.top_k_tails(h, r, k=5).entities == \
                plain.top_k_tails(h, r, k=5).entities
            stats = engine.stats()
            assert stats["fallback_queries"] == 1
            assert stats["ann_queries"] == 0
            model.embeddings.close()
            plain.model.embeddings.close()



class TestEngineLifecycle:
    def test_repeated_query_is_a_cache_hit_with_the_same_answer(self, ann_artifact, kg):
        with InferenceEngine.from_artifact(ann_artifact) as engine:
            assert engine.ann_index is not None
            h, r, _ = map(int, kg.split.train[3])
            first = engine.top_k_tails(h, r, k=5)
            hits, queries = engine.cache.hits, engine.ann_queries
            again = engine.top_k_tails(h, r, k=5)
            assert engine.cache.hits == hits + 1
            assert engine.ann_queries == queries  # answered without a probe
            assert again.entities == first.entities
            assert again.scores == first.scores

    def test_engines_over_one_artifact_answer_alike(self, ann_artifact, kg):
        with InferenceEngine.from_artifact(ann_artifact) as one, \
                InferenceEngine.from_artifact(ann_artifact) as other:
            for h, r, _ in kg.split.train[:6].tolist():
                a, b = one.top_k_tails(h, r, k=6), other.top_k_tails(h, r, k=6)
                assert a.entities == b.entities and a.scores == b.scores
                heads = [e.top_k_heads_batch([TopKQuery(h, r, k=6)])[0]
                         for e in (one, other)]
                assert heads[0].entities == heads[1].entities
                assert one.nearest_entities(h, k=4).entities == \
                    other.nearest_entities(h, k=4).entities

    def test_close_releases_the_index_list_handles(self, ann_artifact, kg):
        engine = InferenceEngine.from_artifact(ann_artifact)
        lists = list(engine.ann_index._lists)
        assert lists
        h, r, _ = map(int, kg.split.train[0])
        engine.top_k_tails(h, r, k=5)
        engine.close()
        assert all(handle.closed for handle, _ in lists)
        assert engine.ann_index is None
        engine.close()  # a second close does nothing
