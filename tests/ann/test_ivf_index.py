"""IVFIndex: build/load roundtrip, full-probe parity, recall, LRU residency."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import ranking
from repro.ann import (
    INDEX_MANIFEST,
    INDEX_MANIFEST_VERSION,
    build_index_files,
    get_index_class,
    index_kinds,
    ivf,
    load_index,
)
from repro.models.transe import SpTransE
from repro.training.checkpoint import save_checkpoint


class TestRegistry:
    def test_ivf_is_registered(self):
        assert "ivf" in index_kinds()
        assert get_index_class("ivf").kind == "ivf"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ANN index kind"):
            get_index_class("flann")


class TestBuildAndLoad:
    def test_manifest_written_and_versioned(self, indexed_artifact):
        directory, _, manifest = indexed_artifact
        on_disk = json.loads(
            open(os.path.join(directory, "index", INDEX_MANIFEST)).read())
        assert on_disk["version"] == INDEX_MANIFEST_VERSION
        assert on_disk["kind"] == "ivf"
        assert on_disk == json.loads(json.dumps(manifest))
        assert sum(b["rows"] for b in on_disk["buckets"]) == on_disk["n_entities"]
        for entry in on_disk["buckets"]:
            assert os.path.exists(os.path.join(directory, "index",
                                               entry["centroids"]))
            assert os.path.exists(os.path.join(directory, "index",
                                               entry["assign"]))

    def test_one_index_range_per_table_range(self, indexed_artifact):
        _, model, manifest = indexed_artifact
        table = model.entity_table()
        assert [(b["start"], b["start"] + b["rows"])
                for b in manifest["buckets"]] == table.row_ranges()
        assert manifest["partitions"] == table.n_partitions
        assert manifest["n_entities"] == table.n_rows

    def test_build_is_deterministic(self, indexed_artifact, tmp_path):
        directory, model, manifest = indexed_artifact
        other = str(tmp_path / "again")
        save_checkpoint(os.path.join(other, "checkpoint.npz"), model)
        again = build_index_files(other, kind="ivf", seed=0)
        for a, b in zip(manifest["buckets"], again["buckets"]):
            assert np.array_equal(
                np.load(os.path.join(directory, "index", a["centroids"])),
                np.load(os.path.join(other, "index", b["centroids"])))
            assert np.array_equal(
                np.load(os.path.join(directory, "index", a["assign"])),
                np.load(os.path.join(other, "index", b["assign"])))
        assert manifest["nprobe"] == again["nprobe"]

    def test_version_mismatch_rejected(self, indexed_artifact, tmp_path):
        directory, _, _ = indexed_artifact
        stale = tmp_path / "stale-index"
        stale.mkdir()
        manifest = json.loads(
            open(os.path.join(directory, "index", INDEX_MANIFEST)).read())
        manifest["version"] = INDEX_MANIFEST_VERSION + 1
        (stale / INDEX_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported index manifest version"):
            load_index(str(stale))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=INDEX_MANIFEST):
            load_index(str(tmp_path))

    def test_table_of_another_shape_rejected(self, indexed_artifact):
        directory, _, _ = indexed_artifact
        other = SpTransE(40, 3, 12, rng=0).entity_table()
        with pytest.raises(ValueError, match="index covers"):
            load_index(os.path.join(directory, "index"), table=other)


class TestFullProbeParity:
    def test_full_probe_candidates_are_every_entity(self, index, full_table):
        q = full_table[7]
        cand = index.candidate_ids(q, nprobe=index.n_clusters)
        assert np.array_equal(cand, np.arange(index.n_entities, dtype=np.int64))

    def test_full_probe_matches_exact_bit_for_bit(self, index, full_table):
        for row in (0, 57, 211):
            q = full_table[row]
            dist = ranking.l2_distance_matrix(q[None, :], full_table)[0]
            expected = ranking.top_k(dist, 10)
            ids, got_dist = index.search(q, 10, nprobe=index.n_clusters)
            assert np.array_equal(ids, expected)
            assert np.array_equal(got_dist, dist[expected])

    def test_full_probe_ties_at_kth_score(self, tmp_path, make_model):
        # Property (satellite): with nprobe == n_clusters the IVF result is
        # bit-identical to ranking.top_k even when the k-th score ties —
        # duplicate rows force exact distance ties, and both paths must break
        # them the same way (top_k's stable index order).
        directory = str(tmp_path / "ties")
        model = make_model(n_entities=90, dim=6)
        distinct = np.linspace(-1.0, 1.0, 5 * 6).reshape(5, 6)
        table = np.tile(distinct, (18, 1))  # every distance 18-way tied
        model.entity_table().write_rows(np.arange(90), table)
        save_checkpoint(os.path.join(directory, "checkpoint.npz"), model)
        build_index_files(directory, kind="ivf", seed=0, nprobe=1)
        index = load_index(os.path.join(directory, "index"))
        full = index.table.exact_rows(np.arange(90, dtype=np.int64))
        assert np.array_equal(full, table)
        for row in (0, 4, 44):
            dist = ranking.l2_distance_matrix(table[row][None, :], table)[0]
            k = 7  # 7 < 18 duplicates: the k-th score is mid-tie
            expected = ranking.top_k(dist, k)
            ids, got = index.search(table[row], k, nprobe=index.n_clusters)
            assert np.array_equal(ids, expected)
            assert np.array_equal(got, dist[expected])

    def test_exclude_drops_the_query_row(self, index, full_table):
        q = full_table[12]
        ids, _ = index.search(q, 5, nprobe=index.n_clusters, exclude=12)
        assert 12 not in ids.tolist()


class TestExactTruth:
    @pytest.mark.parametrize("n_queries", [1, 5, 32])
    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("block_rows", [16384, 37])
    def test_batched_truth_equals_per_query_whole_table_sort(
            self, index, full_table, monkeypatch, n_queries, k, block_rows):
        # block_rows=37 splits every row range (300 rows, or 100 per bucket)
        # into several blocks, the last one partial.
        monkeypatch.setattr(ivf, "EXACT_BLOCK_ROWS", block_rows)
        queries = full_table[::7][:n_queries] + 0.01
        truth = index._ground_truth(queries, k)
        assert len(truth) == n_queries
        ids = np.arange(full_table.shape[0])
        for q, got in zip(queries, truth):
            dist = ranking.l2_distance_matrix(q[None, :], full_table)[0]
            assert got.dtype == np.int64
            assert np.array_equal(got, np.lexsort((ids, dist))[:k])

    def test_full_probe_recall_is_one_on_a_batch(self, index):
        queries = index._sample_queries(32, seed=5)
        assert index.recall_probe(queries, k=10,
                                  nprobe=index.n_clusters) == pytest.approx(1.0)


class TestRecall:
    def test_full_probe_recall_is_one(self, index, full_table):
        queries = full_table[::40]
        assert index.recall_probe(queries, k=10,
                                  nprobe=index.n_clusters) == pytest.approx(1.0)

    def test_default_nprobe_meets_build_target(self, index):
        # The build auto-chose the manifest nprobe for recall@10 >= 0.95 on a
        # deterministic sample; a fresh sample must land in the same regime.
        queries = index._sample_queries(16, seed=99)
        assert index.recall_probe(queries, k=10) >= 0.85

    def test_choose_nprobe_meets_target(self, index, full_table):
        queries = full_table[::60]
        nprobe = index.choose_nprobe(queries, k=5, target_recall=0.9)
        assert 1 <= nprobe <= index.n_clusters
        assert index.recall_probe(queries, k=5, nprobe=nprobe) >= 0.9

    def test_wider_probe_never_hurts_on_sample(self, index, full_table):
        queries = full_table[::75]
        narrow = index.recall_probe(queries, k=10, nprobe=1)
        wide = index.recall_probe(queries, k=10, nprobe=index.n_clusters)
        assert wide >= narrow


class TestResidency:
    # One row range per bucket: only a partitioned table has several blocks.
    @pytest.mark.parametrize("layout", ["sparse-p3"], indirect=True)
    def test_assignment_blocks_page_under_lru(self, indexed_artifact, full_table):
        directory, _, _ = indexed_artifact
        index = load_index(os.path.join(directory, "index"), max_resident=1)
        for row in range(0, index.n_entities, 30):
            index.search(full_table[row], 5, nprobe=index.n_clusters)
        stats = index.stats()
        assert stats["resident_blocks"] == 1
        assert stats["index_evictions"] > 0
        assert stats["index_faults"] > index.n_buckets
        assert stats["index_bytes_loaded"] > 0

    def test_unbounded_residency_faults_each_bucket_once(self, indexed_artifact,
                                                         full_table):
        directory, _, _ = indexed_artifact
        index = load_index(os.path.join(directory, "index"))
        for row in range(0, index.n_entities, 30):
            index.search(full_table[row], 5, nprobe=index.n_clusters)
        stats = index.stats()
        assert stats["index_faults"] == index.n_buckets
        assert stats["index_evictions"] == 0
