"""Tests for the inference engine: correctness vs brute force, filters, cache."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.ann import build_index_files, load_index
from repro.data import KnownTriples, generate_synthetic_kg
from repro.models.toruse import SpTorusE
from repro.models.transe import SpTransE
from repro.models.transh import SpTransH
from repro.models.transr import SpTransR
from repro.experiment import ExperimentSpec
from repro.registry import ModelSpec, build_model, spec_from_model
from repro.serving import InferenceEngine, TopKQuery
from repro.profiling import peak_traced_bytes
from repro.training.checkpoint import load_model, save_checkpoint


def make_model(name="transe", formulation="sparse", n_entities=40, n_relations=6,
               dim=8, rng=0):
    return build_model(ModelSpec(model=name, formulation=formulation,
                                 n_entities=n_entities, n_relations=n_relations,
                                 embedding_dim=dim), rng=rng)


@pytest.fixture
def engine():
    return InferenceEngine(make_model(), cache_size=64)


class TestTopKCorrectness:
    @pytest.mark.parametrize("name,formulation", [
        ("transe", "sparse"), ("transh", "sparse"), ("distmult", "sparse"),
        ("rotate", "sparse"), ("transe", "dense"), ("transd", "dense"),
    ])
    def test_matches_brute_force_argsort(self, name, formulation):
        model = make_model(name, formulation)
        engine = InferenceEngine(model, cache_size=0)
        result = engine.top_k_tails(3, 1, k=7)
        scores = model.score_all_tails(np.array([3]), np.array([1]))[0]
        expected = np.argsort(scores, kind="stable")[:7]
        assert list(result.entities) == [int(i) for i in expected]
        np.testing.assert_allclose(result.scores, scores[expected])

    def test_matches_predict_tails(self, engine):
        direct = engine.model.predict_tails(5, 2, k=9)
        served = engine.top_k_tails(5, 2, k=9)
        assert list(served.entities) == [int(i) for i in direct]

    def test_heads_direction(self, engine):
        result = engine.top_k_heads_batch([TopKQuery(7, 2, k=5)])[0]
        scores = engine.model.score_all_heads(np.array([2]), np.array([7]))[0]
        expected = np.argsort(scores, kind="stable")[:5]
        assert list(result.entities) == [int(i) for i in expected]

    def test_k_larger_than_vocabulary(self, engine):
        result = engine.top_k_tails(0, 0, k=10_000)
        assert len(result.entities) == engine.model.n_entities
        assert list(result.scores) == sorted(result.scores)

    def test_scores_are_ascending(self, engine):
        result = engine.top_k_tails(1, 1, k=10)
        assert list(result.scores) == sorted(result.scores)


class TestFilteredMasks:
    def test_known_tails_excluded(self):
        model = make_model()
        known = [(0, 1, 2), (0, 1, 3), (9, 0, 4)]
        engine = InferenceEngine(model, known_triples=known)
        raw = engine.top_k_tails(0, 1, k=model.n_entities)
        filtered = engine.top_k_tails(0, 1, k=model.n_entities, filtered=True)
        assert {2, 3} <= set(raw.entities)
        assert {2, 3}.isdisjoint(set(filtered.entities))
        # Other queries are unaffected by (0, 1)'s filter list.
        other = engine.top_k_tails(9, 1, k=model.n_entities, filtered=True)
        assert len(other.entities) == model.n_entities

    def test_known_heads_excluded(self):
        engine = InferenceEngine(make_model(), known_triples=[(6, 2, 7)])
        filtered = engine.top_k_heads_batch([TopKQuery(7, 2, k=100, filtered=True)])[0]
        assert 6 not in filtered.entities

    def test_filtered_without_known_triples_is_raw(self, engine):
        raw = engine.top_k_tails(4, 1, k=6)
        filtered = engine.top_k_tails(4, 1, k=6, filtered=True)
        assert raw.entities == filtered.entities


class TestFilteredAnswersUseTheIndex:
    """One ``KnownTriples`` behind every filtered path; answers as before it."""

    N_ENTITIES, N_RELATIONS = 120, 5

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        """One model saved with an IVF index."""
        model = SpTransE(self.N_ENTITIES, self.N_RELATIONS, 12, partitions=3, rng=7,
                         max_resident=2)
        path = str(tmp_path_factory.mktemp("filtered-indexed"))
        save_checkpoint(os.path.join(path, "checkpoint.npz"), model)
        build_index_files(path, kind="ivf")
        return path

    @pytest.fixture(scope="class")
    def kg(self):
        # 120 entities, 1500 triples: a (head, relation) pair has ~2.5 tails.
        return generate_synthetic_kg(self.N_ENTITIES, self.N_RELATIONS, 1500, rng=5,
                                     test_fraction=0.1)

    def _engine(self, path, route, known):
        index = load_index(os.path.join(path, "index")) if route == "ann" else None
        return InferenceEngine(load_model(path), known_triples=known,
                               cache_size=0, ann_index=index)

    @staticmethod
    def _two_dicts(engine, triples):
        """Swap in the lookup the engine used to build: one dict per direction."""
        tails, heads = {}, {}
        for h, r, t in triples:
            tails.setdefault((int(h), int(r)), []).append(int(t))
            heads.setdefault((int(r), int(t)), []).append(int(h))
        tails = {k: np.asarray(v, dtype=np.int64) for k, v in tails.items()}
        heads = {k: np.asarray(v, dtype=np.int64) for k, v in heads.items()}
        engine._exclusions = lambda direction, q: (
            tails.get((q.anchor, q.relation)) if direction == "tail"
            else heads.get((q.relation, q.anchor)))
        return engine

    @pytest.mark.parametrize("route", ["exact", "ann"])
    def test_filtered_top_k_identical_to_the_dict_lookup(self, artifact, kg, route):
        known = kg.known_triples()
        # Each engine owns its index's posting-list handles: close all three.
        with self._engine(artifact, route, known) as engine, \
                self._engine(artifact, route, set(known)) as from_set, \
                self._engine(artifact, route, None) as unfiltered:
            assert engine._known is known  # held as is, not re-indexed
            reference = self._two_dicts(unfiltered, set(known))
            queries = [(int(h), int(r), int(t)) for h, r, t in kg.split.test[:25]]
            queries += [(0, 0, 0), (self.N_ENTITIES - 1, self.N_RELATIONS - 1, 3)]
            excluded = 0
            for h, r, t in queries:
                for k in (1, 10, self.N_ENTITIES):
                    want = reference.top_k_tails(h, r, k=k, filtered=True)
                    for candidate in (engine, from_set):
                        assert candidate.top_k_tails(h, r, k=k, filtered=True) == want
                    want = reference.top_k_heads_batch([TopKQuery(t, r, k=k, filtered=True)])[0]
                    for candidate in (engine, from_set):
                        assert candidate.top_k_heads_batch([TopKQuery(t, r, k=k, filtered=True)])[0] == want
                full = engine.top_k_tails(h, r, k=self.N_ENTITIES, filtered=True, ann=False)
                assert not any((h, r, e) in known for e in full.entities)
                excluded += self.N_ENTITIES - len(full.entities)
            assert excluded > 25  # the filter really removed candidates
            stats = engine.stats()
            if route == "ann":
                assert stats["ann_queries"] > 0

    def test_replacing_the_set_invalidates_the_cache(self, kg):
        model = make_model(n_entities=self.N_ENTITIES, n_relations=self.N_RELATIONS)
        known = kg.known_triples()
        engine = InferenceEngine(model, known_triples=known, cache_size=64)
        h, r, _ = map(int, kg.split.train[0])
        first = engine.top_k_tails(h, r, k=5, filtered=True)
        engine.top_k_heads_batch([TopKQuery(h, r, k=5, filtered=True)])[0]
        assert len(engine.cache) == 2
        assert engine.top_k_tails(h, r, k=5, filtered=True) is first  # served from cache
        engine.set_known_triples(KnownTriples([(h, r, first.entities[0])]))
        assert len(engine.cache) == 0
        assert engine.top_k_tails(h, r, k=5, filtered=True).entities[0] != first.entities[0]
        engine.set_known_triples([])  # an empty set filters nothing
        assert len(engine.cache) == 0
        assert (engine.top_k_tails(h, r, k=5, filtered=True).entities
                == engine.top_k_tails(h, r, k=5).entities)

    def test_known_entity_outside_the_vocabulary_raises_on_query(self):
        model = make_model()
        engine = InferenceEngine(model, known_triples=[(0, 1, model.n_entities + 5)])
        with pytest.raises(IndexError):
            engine.top_k_tails(0, 1, k=3, filtered=True)
        assert len(engine.top_k_tails(1, 1, k=3, filtered=True).entities) == 3


class TestBatching:
    def test_batch_matches_singles(self):
        model = make_model()
        batch_engine = InferenceEngine(model, cache_size=0)
        single_engine = InferenceEngine(model, cache_size=0)
        queries = [TopKQuery(h, r, 5) for h in range(4) for r in range(3)]
        batched = batch_engine.top_k_tails_batch(queries)
        singles = [single_engine.top_k_tails(q.anchor, q.relation, q.k)
                   for q in queries]
        for b, s in zip(batched, singles):
            assert b.entities == s.entities

    def test_batch_coalesces_into_one_scoring_call(self):
        engine = InferenceEngine(make_model(), cache_size=0)
        queries = [TopKQuery(h, 0, 3) for h in range(8)]
        engine.top_k_tails_batch(queries)
        assert engine.stats()["scoring_calls"] == 1

    def test_batch_deduplicates_repeated_pairs(self):
        engine = InferenceEngine(make_model(), cache_size=0)
        queries = [TopKQuery(1, 1, 4)] * 10
        results = engine.top_k_tails_batch(queries)
        stats = engine.stats()
        assert stats["rows_scored"] == 1
        assert all(r.entities == results[0].entities for r in results)

    def test_mixed_k_within_batch(self):
        engine = InferenceEngine(make_model(), cache_size=0)
        results = engine.top_k_tails_batch([TopKQuery(0, 0, 3), TopKQuery(0, 0, 8)])
        assert len(results[0].entities) == 3
        assert len(results[1].entities) == 8
        assert results[1].entities[:3] == results[0].entities


class TestCacheBehaviour:
    def test_repeat_query_hits_cache(self, engine):
        engine.top_k_tails(2, 2, k=5)
        calls_before = engine.stats()["scoring_calls"]
        engine.top_k_tails(2, 2, k=5)
        assert engine.stats()["scoring_calls"] == calls_before
        assert engine.cache.stats()["hits"] >= 1

    def test_different_k_is_a_different_entry(self, engine):
        engine.top_k_tails(2, 2, k=5)
        calls_before = engine.stats()["scoring_calls"]
        engine.top_k_tails(2, 2, k=6)
        assert engine.stats()["scoring_calls"] == calls_before + 1

    def test_set_known_triples_invalidates_cache(self, engine):
        engine.top_k_tails(0, 1, k=5, filtered=True)
        engine.set_known_triples([(0, 1, int(engine.top_k_tails(0, 1, k=1).entities[0]))])
        top = engine.top_k_tails(0, 1, k=5, filtered=True)
        best_raw = engine.top_k_tails(0, 1, k=1).entities[0]
        assert best_raw not in top.entities


    @staticmethod
    def _artifact(path, model):
        """A servable artifact directory: spec, metrics and checkpoint."""
        ExperimentSpec(model=spec_from_model(model), name="served").to_file(
            os.path.join(path, "spec.json"))
        with open(os.path.join(path, "metrics.json"), "w") as handle:
            handle.write("{}\n")
        save_checkpoint(os.path.join(path, "checkpoint.npz"), model)
        return path

    def test_dense_artifact_is_served_memory_mapped(self, tmp_path):
        path = self._artifact(str(tmp_path), make_model(rng=3))
        engine = InferenceEngine.from_artifact(path)
        for name, param in engine.model.named_parameters():
            assert isinstance(param.data, np.memmap), name


class TestClose:
    @pytest.fixture
    def indexed(self, tmp_path):
        """An artifact with a P = 4 table and an IVF index over it."""
        path = TestCacheBehaviour._artifact(
            str(tmp_path), SpTransE(120, 5, 12, partitions=4, rng=7, max_resident=2))
        build_index_files(path, kind="ivf")
        return path

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors through /proc (Linux)")
    def test_close_releases_every_descriptor(self, indexed):
        before = sorted(os.listdir("/proc/self/fd"))
        engines = []  # held, so the collector closes nothing on close()'s behalf
        for cycle in range(20):
            engine = InferenceEngine.from_artifact(indexed, cache_size=0)
            engines.append(engine)
            # Both probe the index: its list files and the anchor row's
            # bucket map are open now.
            assert engine.top_k_tails(cycle, 1, k=5).entities
            assert engine.nearest_entities(cycle, k=5).entities
            assert engine.stats()["ann_queries"] == 2
            assert engine.model.entity_table().stats()["faults"] == 0
            if cycle % 2:
                engine.close()
            else:
                with engine:
                    pass
        assert sorted(os.listdir("/proc/self/fd")) == before
        engines[0].close()  # idempotent
        assert engines[0].model is None and engines[0].ann_index is None

    def test_close_empties_the_cache(self, indexed):
        with InferenceEngine.from_artifact(indexed) as engine:
            engine.top_k_tails(3, 1, k=5)
            assert len(engine.cache) == 1
        assert len(engine.cache) == 0


class TestLeftoverPrecisionEntry:
    @pytest.mark.parametrize("model_cls", [SpTransE, SpTorusE, SpTransH, SpTransR],
                             ids=lambda cls: cls.__name__)
    def test_every_partitioned_model_serves_its_float64_rows(self, tmp_path, model_cls):
        """A ``"quantized"`` entry left in ``partition.json`` changes no answer,
        for models with an L2 query vector and without one."""
        model = model_cls(120, 5, 12, partitions=3, rng=7)
        plain = str(tmp_path / "plain")
        os.makedirs(plain)
        TestCacheBehaviour._artifact(plain, model)
        leftover = str(tmp_path / "leftover")
        shutil.copytree(plain, leftover)
        manifest_path = os.path.join(leftover, "weights", "partition.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["quantized"] = {"mode": "int8", "buckets": [
            {"files": [f"entities.bucket{k}.i8.npy", f"entities.bucket{k}.i8.scale.npy"]}
            for k in range(3)]}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        reference = InferenceEngine(model, cache_size=0)
        with InferenceEngine.from_artifact(leftover, cache_size=0) as engine:
            assert engine.model.entity_table().read_rows(np.arange(120)).dtype == np.float64
            for anchor, relation in [(0, 0), (17, 2), (119, 4)]:
                assert (engine.top_k_tails(anchor, relation, k=10)
                        == reference.top_k_tails(anchor, relation, k=10))
                assert (engine.top_k_heads_batch([TopKQuery(anchor, relation, k=10)])[0]
                        == reference.top_k_heads_batch([TopKQuery(anchor, relation, k=10)])[0])
                assert (engine.nearest_entities(anchor, k=10)
                        == reference.nearest_entities(anchor, k=10))


class TestExactRouteMemory:
    def test_a_batch_never_holds_a_score_block(self):
        # The exact route walks the table into a running top-k per query, as
        # evaluation counts ranks: no (B, N) block of scores, whose float64
        # bytes are B·N·8 (51.2 MB here).
        b, n = 64, 100_000
        model = SpTransE(n, 4, 64, rng=0)
        rng = np.random.default_rng(0)
        anchors = rng.choice(n, b, replace=False)
        relations = rng.integers(0, 4, b)
        known = [(int(h), int(r), int(t)) for h, r in zip(anchors, relations)
                 for t in rng.integers(0, n, 5)]
        engine = InferenceEngine(model, known_triples=known, cache_size=0)
        queries = [TopKQuery(int(h), int(r), 10, filtered=True)
                   for h, r in zip(anchors, relations)]
        engine.top_k_tails_batch(queries[:2])  # imports, first-call state
        peak = peak_traced_bytes(lambda: engine.top_k_tails_batch(queries))
        assert engine.stats()["rows_scored"] == 2 + b
        assert peak < b * n * 8 // 2


class TestConstruction:
    @pytest.mark.parametrize("nprobe", [0, -5])
    def test_nprobe_below_one_rejected(self, nprobe):
        with pytest.raises(ValueError, match=f"nprobe must be >= 1, got {nprobe}"):
            InferenceEngine(make_model(), nprobe=nprobe)


class TestNearestEntities:
    def test_matches_brute_force_and_excludes_self(self):
        engine = InferenceEngine(make_model(), cache_size=0)
        result = engine.nearest_entities(7, k=5)
        ent = engine.model.entity_embedding_matrix()
        distances = np.linalg.norm(ent - ent[7], axis=1)
        distances[7] = np.inf
        expected = np.argsort(distances, kind="stable")[:5]
        assert 7 not in result.entities
        assert list(result.entities) == [int(i) for i in expected]
        np.testing.assert_allclose(result.scores, distances[expected], atol=1e-9)

    def test_cached(self):
        engine = InferenceEngine(make_model(rng=0), cache_size=16)
        first = engine.nearest_entities(3, k=4)
        assert engine.nearest_entities(3, k=4) == first
        assert engine.cache.stats()["hits"] >= 1

    @pytest.mark.parametrize("name", ["transe", "distmult"])
    def test_overflowing_row_is_no_neighbour(self, name):
        # Table walk (transe) and dense snapshot (distmult): a row whose
        # distance overflows to inf is dropped, not served.
        model = make_model(name)
        model.embeddings.weight.data[5] = 1e200
        engine = InferenceEngine(model, cache_size=0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = engine.nearest_entities(7, k=40)
        assert sorted(result.entities) == sorted(set(range(40)) - {5, 7})
        assert np.isfinite(result.scores).all()

    def test_out_of_range_entity_raises(self):
        engine = InferenceEngine(make_model(), cache_size=0)
        with pytest.raises(IndexError, match="out of range"):
            engine.nearest_entities(10_000)


class TestScoringAPI:
    def test_score_matches_model(self, engine):
        expected = float(engine.model.score_triples(np.array([[1, 2, 3]]))[0])
        assert engine.score(1, 2, 3) == pytest.approx(expected)

    def test_classify_threshold(self, engine):
        scores = engine.score_triples([(0, 0, 1), (2, 1, 3)])
        threshold = float(scores.mean())
        labels = engine.classify([(0, 0, 1), (2, 1, 3)], threshold)
        assert labels == [bool(s <= threshold) for s in scores]

    def test_checkpoint_round_trip(self, tmp_path):
        model = make_model(rng=7)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        engine = InferenceEngine(load_model(path))
        assert engine.spec().model == "transe"
        direct = model.predict_tails(2, 1, k=4)
        assert list(engine.top_k_tails(2, 1, k=4).entities) == [int(i) for i in direct]
