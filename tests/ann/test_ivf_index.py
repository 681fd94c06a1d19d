"""IVFIndex: build/load roundtrip, probe parity, recall, LRU residency, list files."""

from __future__ import annotations

import json
import mmap
import os
import shutil

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
from repro.serving import InferenceEngine
from repro.training.checkpoint import load_model, save_checkpoint

linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads /proc/self")


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _tie_artifact(directory, make_model):
    """A 90-row artifact of 5 distinct rows repeated 18 times (every distance
    18-way tied), indexed at nprobe 1; returns the table."""
    model = make_model(n_entities=90, dim=6)
    distinct = np.linspace(-1.0, 1.0, 5 * 6).reshape(5, 6)
    table = np.tile(distinct, (18, 1))
    model.entity_table().write_rows(np.arange(90), table)
    save_checkpoint(os.path.join(directory, "checkpoint.npz"), model)
    build_index_files(directory, kind="ivf", seed=0, nprobe=1)
    return table


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
        with open(os.path.join(directory, "index", INDEX_MANIFEST)) as handle:
            on_disk = json.load(handle)
        assert on_disk["version"] == INDEX_MANIFEST_VERSION
        assert on_disk["kind"] == "ivf"
        assert on_disk == json.loads(json.dumps(manifest))
        assert sum(b["rows"] for b in on_disk["buckets"]) == on_disk["n_entities"]
        for entry in on_disk["buckets"]:
            assert os.path.exists(os.path.join(directory, "index",
                                               entry["centroids"]))
            assert os.path.exists(os.path.join(directory, "index",
                                               entry["assign"]))
            assert entry["lists"] == ivf.lists_filename(
                on_disk["buckets"].index(entry))

    def test_lists_hold_each_cluster_contiguously(self, indexed_artifact):
        directory, model, manifest = indexed_artifact
        table = model.entity_table()
        for entry in manifest["buckets"]:
            lists = np.load(os.path.join(directory, "index", entry["lists"]))
            assign = np.load(os.path.join(directory, "index", entry["assign"]))
            assert lists.dtype == np.float64 and lists.flags.c_contiguous
            assert lists.shape == (entry["rows"], table.embedding_dim + 1)
            ids = entry["start"] + np.argsort(assign, kind="stable")
            rows = table.exact_rows(ids)
            assert np.array_equal(lists[:, :-1], rows)
            assert np.array_equal(lists[:, -1], ranking.squared_norms(rows))

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

    @pytest.mark.parametrize("damage", ["truncated", "narrow", "float32"])
    def test_damaged_list_file_named_at_load(self, indexed_artifact, tmp_path,
                                             damage):
        directory, _, manifest = indexed_artifact
        copy = tmp_path / "copy"
        shutil.copytree(directory, copy)
        entry = manifest["buckets"][-1]
        path = os.path.join(copy, "index", entry["lists"])
        lists = np.load(path)
        if damage == "truncated":
            os.truncate(path, os.path.getsize(path) - 8)
        elif damage == "narrow":
            np.save(path, np.ascontiguousarray(lists[:, :-1]))
        else:
            np.save(path, lists.astype(np.float32))
        with pytest.raises(ValueError, match=entry["lists"]):
            load_index(os.path.join(copy, "index"))

    # Version 1 indexes carry no posting lists: they must be rebuilt.
    @pytest.mark.parametrize("version", [1, INDEX_MANIFEST_VERSION + 1])
    def test_version_mismatch_rejected(self, indexed_artifact, tmp_path, version):
        directory, _, _ = indexed_artifact
        stale = tmp_path / "stale-index"
        stale.mkdir()
        with open(os.path.join(directory, "index", INDEX_MANIFEST)) as handle:
            manifest = json.load(handle)
        manifest["version"] = version
        (stale / INDEX_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported index manifest "
                           "version .* rebuild the index"):
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
        table = _tie_artifact(directory, make_model)
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


def _assert_probe_is_exact_rows_rescore(index, queries):
    """``probe`` at every nprobe equals an id-sorted ``exact_rows`` rescore of
    its candidates, bit for bit: the distance call of a table read."""
    for q in queries:
        for nprobe in range(1, index.n_clusters + 1):
            ids, dist = index.probe(q, nprobe)
            expected = index.candidate_ids(q, nprobe)
            assert np.array_equal(ids, expected)
            oracle = ranking.l2_distance_matrix(
                q[None, :], index.table.exact_rows(expected))[0]
            assert dist.dtype == oracle.dtype
            assert dist.tobytes() == oracle.tobytes()


class TestProbeReadsLists:
    # P = 3 and P = 1 (and the dense table) through the layout fixture.
    def test_probe_equals_exact_rows_rescore(self, index, full_table):
        queries = np.concatenate([full_table[[0, 57, 211]],
                                  full_table[[3, 100]] + 0.05])
        _assert_probe_is_exact_rows_rescore(index, queries)

    def test_probe_equals_exact_rows_rescore_on_ties(self, tmp_path, make_model):
        directory = str(tmp_path / "ties")
        table = _tie_artifact(directory, make_model)
        index = load_index(os.path.join(directory, "index"))
        _assert_probe_is_exact_rows_rescore(index, table[[0, 4, 44]])
        index.close()

    def test_probe_reads_neither_the_table_nor_a_map(self, index, full_table,
                                                     monkeypatch):
        calls = []

        def spy(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"probe called {name}")
            return refuse
        monkeypatch.setattr(type(index.table), "exact_rows", spy("exact_rows"))
        monkeypatch.setattr(mmap, "mmap", spy("mmap.mmap"))
        for row in (1, 150, 299):
            ids, dist = index.probe(full_table[row], index.n_clusters)
            assert ids.size == index.n_entities
        assert calls == []
        assert index.stats()["list_bytes_read"] == (
            3 * index.n_entities * (index.embedding_dim + 1) * 8)


@linux_only
class TestListHandles:
    def test_close_releases_one_handle_per_list(self, indexed_artifact):
        directory, _, manifest = indexed_artifact
        table = load_model(directory).entity_table()
        before = _open_fds()
        index = load_index(os.path.join(directory, "index"), table=table)
        assert _open_fds() == before + len(manifest["buckets"])
        index.close()
        assert _open_fds() == before
        with pytest.raises(ValueError, match="closed file"):
            index.probe(table.exact_rows(np.array([0]))[0], index.n_clusters)

    def test_reloads_close_the_index_they_drop(self, indexed_artifact):
        # The dropped indexes' list handles stay referenced here, as they
        # would by a caller still holding an old index, so only the engine's
        # close, not garbage collection, can release their descriptors.
        directory, _, _ = indexed_artifact
        model = load_model(directory)
        engine = InferenceEngine(model, ann_index=load_index(
            os.path.join(directory, "index"), table=model.entity_table()))
        del model
        dropped = []
        before = None
        for step in range(21):
            if step:
                dropped.append(list(engine.ann_index._lists))
                engine.reload(directory)
            engine.nearest_entities(step, k=5)
            engine.top_k_tails(step, 1, k=5)
            if before is None:
                before = _open_fds()
        assert engine.ann_queries == 42  # both routes took the index
        assert _open_fds() == before
        assert all(handle.closed for lists in dropped for handle, _ in lists)


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
