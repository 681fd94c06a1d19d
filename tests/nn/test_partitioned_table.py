"""PartitionedEmbedding mechanics: residency, write-back, storage lifecycle."""

from __future__ import annotations

import io
import json
import mmap
import os

import numpy as np
import pytest

from repro.nn import (
    DenseSliceTable,
    Embedding,
    PartitionedEmbedding,
    StackedEmbedding,
    partitioned_tables,
)
from repro.nn.partitioned import PARTITION_MANIFEST, bucket_filename, save_in_place
from repro.optim import Adagrad, Adam
from repro.partition import EntityPartition
from repro.sparse.rowsparse import RowSparseGrad


N, R, D = 103, 7, 12

linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads /proc/self")


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _mapped_rss_kb(path: str):
    """``(found, kB)``: whether ``path`` is mapped in this process, and the
    resident kB of its mappings, from ``/proc/self/smaps``."""
    real = os.path.realpath(path)
    found, rss, current = False, 0, False
    with open("/proc/self/smaps", "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split(None, 5)
            if not fields[0].endswith(":"):  # a mapping's header line
                current = len(fields) == 6 and fields[5].strip() == real
                found = found or current
            elif current and fields[0] == "Rss:":
                rss += int(fields[1])
    return found, rss


@pytest.fixture
def table(tmp_path):
    t = PartitionedEmbedding(N, R, D, partitions=4, rng=42,
                             directory=str(tmp_path / "buckets"), max_resident=2)
    yield t
    t.close()


class TestEntityPartition:
    def test_ranges_cover_all_rows(self):
        part = EntityPartition(N, 4)
        ranges = part.ranges()
        assert ranges[0][0] == 0 and ranges[-1][1] == N
        assert all(hi == lo_next for (_, hi), (lo_next, _) in zip(ranges, ranges[1:]))

    def test_bucket_of_matches_ranges(self):
        part = EntityPartition(N, 4)
        ids = np.arange(N)
        buckets = part.bucket_of(ids)
        for k, (lo, hi) in enumerate(part.ranges()):
            assert np.all(buckets[lo:hi] == k)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            EntityPartition(10, 0)
        with pytest.raises(ValueError):
            EntityPartition(10, 11)

    def test_layouts_with_empty_trailing_buckets_rejected(self):
        """n=5, P=4 would give ceil-sized buckets (2,2,1,<empty>) — rejected
        with a usable suggestion instead of a negative-size crash downstream."""
        with pytest.raises(ValueError, match="at most 3 partitions"):
            EntityPartition(5, 4)
        # the suggested count is valid and covers every row
        part = EntityPartition(5, 3)
        assert [part.bucket_rows(k) for k in range(3)] == [2, 2, 1]

    def test_uneven_final_bucket_supported(self):
        from repro.nn import PartitionedEmbedding

        table = PartitionedEmbedding(7, 2, 4, partitions=4, rng=0)
        assert [p.shape[0] for p in table.bucket_parameters()] == [2, 2, 2, 1]
        assert table.to_matrix().shape == (7, 4)
        table.close()


class TestInitParity:
    def test_matches_stacked_embedding_bitwise(self, table):
        """The partitioned init consumes the same Xavier stream as a stacked
        table of the same (N + R, d) shape, bucket by bucket."""
        stacked = StackedEmbedding(N, R, D, rng=42)
        assert np.array_equal(table.to_matrix(), stacked.entity_embeddings())
        assert np.array_equal(table.relations.data, stacked.relation_embeddings())


class TestResidency:
    def test_lru_bound_holds(self, table):
        for k in (0, 1, 2, 3, 0, 2):
            table._fault(k)
            assert len(table.resident_buckets()) <= 2
        assert table.stats()["peak_resident"] <= 2

    def test_read_rows_across_buckets(self, table):
        stacked = StackedEmbedding(N, R, D, rng=42)
        ids = np.array([0, 101, 30, 77, 0])
        assert np.array_equal(table.read_rows(ids),
                              stacked.entity_embeddings()[ids])

    def test_writes_survive_eviction(self, table):
        table.write_rows(np.array([0, 102]), np.full((2, D), 3.5))
        for k in range(4):  # churn every bucket through the 2-slot LRU
            table._fault(k)
        assert np.array_equal(table.read_rows(np.array([0, 102])),
                              np.full((2, D), 3.5))
        assert table.stats()["writebacks"] >= 1

    def test_iter_blocks_covers_every_row_in_order(self, table):
        starts, total = [], 0
        for start, block in table.iter_blocks(block_rows=10):
            starts.append(start)
            total += block.shape[0]
        assert total == N
        assert starts == sorted(starts)

    def test_bucket_parameter_metadata_without_fault(self, table):
        param = table.bucket_parameters()[3]
        faults_before = table.stats()["faults"]
        assert param.shape == (table.partition.bucket_rows(3), D)
        assert param.nbytes == param.size * 8
        assert table.stats()["faults"] == faults_before

    def test_data_access_faults_bucket_in(self, table):
        param = table.bucket_parameters()[1]
        assert not param.resident
        _ = param.data
        assert param.resident


class TestExactRows:
    """``exact_rows`` reads float64 rows without faulting or evicting."""

    def test_dirty_resident_bucket_wins_over_its_stale_file(self, table):
        lo, _ = table.partition.bucket_range(1)
        fresh = np.full((2, D), 3.5)
        table.write_rows(np.array([lo, lo + 1]), fresh)  # bucket 1: dirty
        on_disk = np.load(os.path.join(table.directory, bucket_filename(1)))
        assert not np.array_equal(on_disk[:2], fresh)  # the file is stale
        got = table.exact_rows(np.array([lo + 1, 0, lo, N - 1]))
        assert np.array_equal(got[[2, 0]], fresh)
        assert got.dtype == np.float64

    def test_reads_evicted_buckets_without_faulting(self, table):
        stacked = StackedEmbedding(N, R, D, rng=42)
        table._fault(2)
        table._fault(0)
        before = table.stats()
        ids = np.array([101, 5, 60, 30, 5])
        assert np.array_equal(table.exact_rows(ids),
                              stacked.entity_embeddings()[ids])
        after = table.stats()
        assert after["faults"] == before["faults"]
        assert after["evictions"] == before["evictions"]
        assert table.resident_buckets() == (2, 0)  # LRU order untouched
        assert after["exact_row_reads"] == before["exact_row_reads"] + ids.size

    def test_dense_tables_read_their_rows(self):
        emb = Embedding(20, 6, rng=1)
        assert np.array_equal(emb.exact_rows(np.array([3, 5])),
                              emb.read_rows(np.array([3, 5])))
        assert emb.row_ranges() == [(0, 20)]

    def test_row_ranges_are_the_buckets(self, table):
        assert table.row_ranges() == table.partition.ranges()

    @staticmethod
    def _spy_maps(monkeypatch):
        """Record the inode of every file mapped from now on."""
        mapped, real = [], mmap.mmap

        def spy(fileno, *args, **kwargs):
            mapped.append(os.fstat(fileno).st_ino)
            return real(fileno, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", spy)
        return mapped

    def test_each_bucket_file_is_mapped_once(self, table, monkeypatch):
        mapped = self._spy_maps(monkeypatch)
        rng = np.random.default_rng(0)
        for _ in range(200):
            table.exact_rows(rng.integers(0, N, size=40))
        inodes = {os.stat(os.path.join(table.directory, bucket_filename(k))).st_ino
                  for k in range(4)}
        assert sorted(mapped) == sorted(inodes)

    @linux_only
    def test_reads_hold_no_more_descriptors(self, table):
        everything = np.arange(N)
        table.exact_rows(everything)
        before = _open_fds()
        rng = np.random.default_rng(1)
        for _ in range(1000):
            table.exact_rows(rng.integers(0, N, size=8))
        assert _open_fds() == before

    @linux_only
    def test_reloads_hold_no_more_descriptors(self, tmp_path):
        from repro.ann import build_index_files, load_index
        from repro.models.transe import SpTransE
        from repro.serving import InferenceEngine
        from repro.training.checkpoint import load_model, save_checkpoint

        directory = str(tmp_path)
        save_checkpoint(os.path.join(directory, "checkpoint.npz"),
                        SpTransE(120, 4, 8, rng=5, partitions=3))
        build_index_files(directory, kind="ivf", seed=0)
        model = load_model(directory)
        engine = InferenceEngine(model, ann_index=load_index(
            os.path.join(directory, "index"), table=model.entity_table()))
        del model
        before = None
        with engine:
            for step in range(21):
                if step:
                    engine.reload(directory)
                engine.nearest_entities(step, k=5)  # maps every probed bucket
                engine.top_k_tails(step, 1, k=5)
                if before is None:
                    before = _open_fds()
            assert engine.ann_queries == 42  # both routes took the index
            assert _open_fds() == before

    def test_bucket_written_back_in_place_reads_its_new_rows(self, table,
                                                             monkeypatch):
        lo, _ = table.partition.bucket_range(1)
        table.exact_rows(np.array([lo]))  # bucket 1's file is mapped
        mapped = self._spy_maps(monkeypatch)
        fresh = np.full((2, D), -4.25)
        table.write_rows(np.array([lo, lo + 1]), fresh)
        table._fault(0)
        table._fault(2)  # evicts dirty bucket 1: in-place write-back
        assert 1 not in table.resident_buckets()
        assert np.array_equal(table.exact_rows(np.array([lo + 1, lo])),
                              fresh[::-1])
        assert mapped == []  # read through the map it already held

    def test_bucket_rewritten_by_np_save_is_mapped_anew(self, table):
        lo, _ = table.partition.bucket_range(1)
        table.exact_rows(np.array([lo]))
        held = table._maps[1][0]
        fresh = np.full((1, D), 2.5)
        table.write_rows(np.array([lo]), fresh)
        with open(os.path.join(table.directory, bucket_filename(1)), "wb") as handle:
            handle.write(b"foreign")  # not a bucket file: write-back np.saves
        table._fault(0)
        table._fault(2)
        assert held.closed
        assert np.array_equal(table.exact_rows(np.array([lo])), fresh)

    def test_attach_and_close_drop_every_map(self, table):
        everything = np.arange(N)
        expected = table.exact_rows(everything)
        table.flush()
        table.write_manifest()
        other = PartitionedEmbedding(N, R, D, partitions=4, rng=0)
        other.exact_rows(everything)
        held = [mapping for mapping, _ in other._maps.values()]
        other.attach_storage(table.directory)
        assert other._maps == {} and all(m.closed for m in held)
        assert np.array_equal(other.exact_rows(everything), expected)
        held = [mapping for mapping, _ in other._maps.values()]
        other.close()
        assert other._maps == {} and all(m.closed for m in held)

    @linux_only
    def test_map_pages_are_released_after_a_read(self, tmp_path):
        big = PartitionedEmbedding(8000, 0, 16, partitions=4, rng=0,
                                   directory=str(tmp_path))
        lo, hi = big.partition.bucket_range(2)
        try:
            big.exact_rows(np.arange(lo, hi))  # a whole 256 kB bucket
            found, rss_kb = _mapped_rss_kb(
                os.path.join(str(tmp_path), bucket_filename(2)))
        finally:
            big.close()
        assert found
        assert rss_kb <= mmap.PAGESIZE // 1024


class TestStorageLifecycle:
    def test_manifest_roundtrip_and_attach(self, table, tmp_path):
        target = tmp_path / "exported"
        target.mkdir()
        table.flush()
        import shutil

        for k in range(4):
            shutil.copyfile(os.path.join(table.directory, bucket_filename(k)),
                            target / bucket_filename(k))
        table.write_manifest(str(target))
        assert (target / PARTITION_MANIFEST).exists()

        before = table.to_matrix()
        other = PartitionedEmbedding(N, R, D, partitions=4, rng=0,
                                     max_resident=2)
        other.attach_storage(str(target))
        assert np.array_equal(other.to_matrix(), before)
        with pytest.raises(RuntimeError):
            other.write_rows(np.array([0]), np.zeros((1, D)))
        with pytest.raises(RuntimeError):
            other.renormalize_()
        other.close()
        # read-only attach must not have mutated the exported files
        again = PartitionedEmbedding(N, R, D, partitions=4, rng=0)
        again.attach_storage(str(target))
        assert np.array_equal(again.to_matrix(), before)
        again.close()

    def test_attach_rejects_mismatched_geometry(self, table, tmp_path):
        other = PartitionedEmbedding(N, R, D, partitions=2, rng=0)
        table.write_manifest(table.directory)
        with pytest.raises(ValueError):
            other.attach_storage(table.directory)
        other.close()

    def test_renormalize_matches_stacked(self, table):
        stacked = StackedEmbedding(N, R, D, rng=42)
        stacked.entity_table().renormalize_(max_norm=0.25, p=2)
        table.renormalize_(max_norm=0.25, p=2)
        assert np.array_equal(table.to_matrix(), stacked.entity_embeddings())


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _np_save_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestSaveInPlace:
    def test_overwrites_a_matching_file_without_rewriting_it(self, tmp_path,
                                                             monkeypatch):
        path = str(tmp_path / "slab.npy")
        first = np.arange(60, dtype=np.float64).reshape(5, 12)
        assert save_in_place(path, first) is False  # missing file: plain np.save
        assert _file_bytes(path) == _np_save_bytes(first)
        reader = np.load(path, mmap_mode="r")  # a concurrent reader's mapping
        second = first * -2.0
        with monkeypatch.context() as patch:
            patch.delattr(np, "save")  # np.save would truncate under the mapping
            assert save_in_place(path, second) is True
        assert _file_bytes(path) == _np_save_bytes(second)
        assert np.array_equal(np.load(path), second)
        assert np.array_equal(reader, second)

    @pytest.mark.parametrize("replacement", [
        np.zeros((6, 12), dtype=np.float64),                 # resized bucket
        np.zeros((5, 12), dtype=np.float32),                 # another dtype
        np.zeros((12, 5), dtype=np.float64).T,               # not C-ordered
        np.zeros(60, dtype=np.float64),                      # same bytes, other shape
        np.arange(5, dtype=np.int64),                        # row_t-like
        np.zeros((0, 12), dtype=np.float64),                 # empty
    ])
    def test_falls_back_to_np_save_on_any_mismatch(self, tmp_path, replacement):
        path = str(tmp_path / "slab.npy")
        np.save(path, np.ones((5, 12), dtype=np.float64))
        assert save_in_place(path, replacement) is False
        assert _file_bytes(path) == _np_save_bytes(replacement)
        loaded = np.load(path)
        assert loaded.dtype == replacement.dtype
        assert np.array_equal(loaded, replacement)

    @pytest.mark.parametrize("damage", ["truncated", "padded", "garbage", "empty"])
    def test_never_leaves_a_short_or_foreign_file(self, tmp_path, damage):
        path = str(tmp_path / "slab.npy")
        array = np.arange(60, dtype=np.float64).reshape(5, 12)
        whole = _np_save_bytes(array)
        content = {"truncated": whole[:-8], "padded": whole + b"\0" * 8,
                   "garbage": b"not an npy file", "empty": b""}[damage]
        with open(path, "wb") as handle:
            handle.write(content)
        save_in_place(path, array)
        assert _file_bytes(path) == whole

    def test_fortran_ordered_file_is_rewritten(self, tmp_path):
        path = str(tmp_path / "slab.npy")
        np.save(path, np.asfortranarray(np.ones((5, 12))))
        array = np.arange(60, dtype=np.float64).reshape(5, 12)
        save_in_place(path, array)
        assert _file_bytes(path) == _np_save_bytes(array)


class TestInPlacePageOut:
    def _train_bucket(self, table, optimizer, bucket, value=1.0):
        param = table.bucket_parameters()[bucket]
        rows = np.arange(min(3, param.shape[0]))
        param.accumulate_grad(RowSparseGrad(rows, np.full((rows.size, D), value),
                                            param.shape))
        optimizer.step()
        optimizer.zero_grad()

    def test_evicted_and_flushed_files_are_what_np_save_writes(self, table):
        optimizer = Adam(list(table.parameters()), lr=0.1)
        table.attach_optimizer(optimizer)
        for round_ in range(2):  # second round overwrites in place
            for bucket in range(4):
                self._train_bucket(table, optimizer, bucket, 1.0 + round_)
        resident = table.resident_buckets()
        assert len(resident) == 2
        slabs = {k: table.bucket_parameters()[k]._slab.copy() for k in resident}
        states = {k: {name: np.copy(value) for name, value in
                      optimizer.state[id(table.bucket_parameters()[k])].items()}
                  for k in resident}
        table.flush()
        evicted = [k for k in range(4) if k not in resident]
        for k in range(4):
            path = os.path.join(table.directory, bucket_filename(k))
            if k in resident:
                assert _file_bytes(path) == _np_save_bytes(slabs[k])
            for name in ("m", "v", "row_t"):
                state_path = f"{path}.state.{name}.npy"
                loaded = np.load(state_path)
                assert _file_bytes(state_path) == _np_save_bytes(loaded)
                if k in resident:
                    assert np.array_equal(loaded, states[k][name])
        # evicted buckets: the file holds the updated slab and round-trips
        for k in evicted:
            path = os.path.join(table.directory, bucket_filename(k))
            loaded = np.load(path)
            assert _file_bytes(path) == _np_save_bytes(loaded)
            assert np.array_equal(loaded, table.bucket_parameters()[k].data)

    def test_steady_state_page_out_never_calls_np_save(self, table, monkeypatch):
        """Once every bucket and state file exists, evictions and ``flush``
        only overwrite payloads: nothing is truncated and rewritten."""
        optimizer = Adam(list(table.parameters()), lr=0.1)
        table.attach_optimizer(optimizer)
        for bucket in range(4):
            self._train_bucket(table, optimizer, bucket)
        table.flush()  # every state file has been written once

        def forbidden(*args, **kwargs):
            raise AssertionError("np.save called in steady state")
        monkeypatch.setattr(np, "save", forbidden)
        before = table.stats()
        for bucket in range(4):
            self._train_bucket(table, optimizer, bucket, 2.0)
        table.flush()
        after = table.stats()
        assert after["writebacks"] - before["writebacks"] == 4
        assert after["state_bytes_written"] > before["state_bytes_written"]


class TestOptimizerStatePaging:
    def test_reused_directory_starts_from_fresh_state(self, tmp_path):
        """A new table + new optimizer in a directory an earlier run paged
        state into takes the same steps as in an empty directory."""
        def five_steps(directory):
            table = PartitionedEmbedding(N, R, D, partitions=4, rng=42,
                                         directory=directory, max_resident=1)
            optimizer = Adam(list(table.parameters()), lr=0.1)
            table.attach_optimizer(optimizer)
            for step in range(5):
                for bucket in (0, 1):
                    param = table.bucket_parameters()[bucket]
                    param.accumulate_grad(RowSparseGrad(
                        np.array([0, 2]), np.full((2, D), 1.0 + step), param.shape))
                    optimizer.step()
                    optimizer.zero_grad()
            table.flush()
            weights = table.to_matrix()
            names = sorted(os.listdir(directory))
            table.close()
            return weights, names

        used, fresh = str(tmp_path / "used"), str(tmp_path / "fresh")
        five_steps(used)
        assert any(".state." in name for name in os.listdir(used))
        second, names_used = five_steps(used)
        reference, names_fresh = five_steps(fresh)
        assert np.array_equal(second, reference)
        assert names_used == names_fresh

    def test_restore_loads_exactly_the_recorded_buffers(self, table):
        """``.state.json`` names the buffers it was written with: a foreign
        slab next to them (an Adam run's ``m`` beside an Adagrad's ``sum_sq``)
        is not handed to the optimizer."""
        param = table.bucket_parameters()[0]
        optimizer = Adagrad([param, table.relations], lr=0.1)
        table.attach_optimizer(optimizer)
        param.accumulate_grad(RowSparseGrad(np.array([0, 1]), np.ones((2, D)),
                                            param.shape))
        optimizer.step()
        sum_sq = optimizer.state[id(param)]["sum_sq"].copy()
        path = os.path.join(table.directory, bucket_filename(0))
        np.save(f"{path}.state.m.npy", np.ones(param.shape))
        for k in (1, 2, 3):
            table._fault(k)
        with open(f"{path}.state.json", encoding="utf-8") as handle:
            assert json.load(handle) == {"scalars": {}, "buffers": ["sum_sq"]}
        restored = optimizer._param_state(param)
        assert sorted(restored) == ["sum_sq"]
        assert np.array_equal(restored["sum_sq"], sum_sq)

    def test_state_paging_is_counted_apart_from_the_slab(self, table):
        param = table.bucket_parameters()[0]
        optimizer = Adam([param, table.relations], lr=0.1)
        table.attach_optimizer(optimizer)
        param.accumulate_grad(RowSparseGrad(np.array([0, 1]), np.ones((2, D)),
                                            param.shape))
        optimizer.step()
        before = table.stats()
        for k in (1, 2, 3):
            table._fault(k)
        optimizer._param_state(param)
        after = table.stats()
        rows = param.shape[0]
        state_bytes = 2 * rows * D * 8 + rows * 8  # m, v, row_t
        assert after["state_bytes_written"] - before["state_bytes_written"] == state_bytes
        assert after["state_bytes_loaded"] - before["state_bytes_loaded"] == state_bytes
        assert after["state_writeback_seconds"] > before["state_writeback_seconds"]
        assert after["state_fault_seconds"] > before["state_fault_seconds"]
        # the slab's own counters keep their definition
        assert after["bytes_written"] - before["bytes_written"] == rows * D * 8
        assert after["bytes_loaded"] - before["bytes_loaded"] == sum(
            table.bucket_parameters()[k].nbytes for k in (1, 2, 3))

    def test_adam_state_pages_with_bucket(self, table):
        param = table.bucket_parameters()[0]
        optimizer = Adam([param, table.relations], lr=0.1)
        table.attach_optimizer(optimizer)
        grad = RowSparseGrad(np.array([0, 1]), np.ones((2, D)), param.shape)
        param.accumulate_grad(grad)
        optimizer.step()
        m_before = optimizer.state[id(param)]["m"].copy()
        # churn bucket 0 out of the resident set: its state must page out
        for k in (1, 2, 3):
            table._fault(k)
        assert id(param) not in optimizer.state
        # touching the state again restores the persisted buffers
        restored = optimizer._param_state(param)
        assert np.array_equal(restored["m"], m_before)
        assert "row_t" in restored and "t" in restored


class TestDenseTableConformance:
    def test_embedding_implements_table(self):
        emb = Embedding(20, 6, rng=1)
        assert emb.n_rows == 20 and emb.n_partitions == 1
        block_rows = [b.shape[0] for _, b in emb.iter_blocks(block_rows=7)]
        assert sum(block_rows) == 20
        ref = emb.weight.data[[3, 5]].copy()
        assert np.array_equal(emb.read_rows(np.array([3, 5])), ref)
        emb.write_rows(np.array([0]), np.zeros((1, 6)))
        assert np.array_equal(emb.weight.data[0], np.zeros(6))

    def test_stacked_exposes_slice_tables(self):
        stacked = StackedEmbedding(10, 4, 6, rng=1)
        ent, rel = stacked.entity_table(), stacked.relation_table()
        assert isinstance(ent, DenseSliceTable)
        assert ent.n_rows == 10 and rel.n_rows == 4
        assert np.array_equal(rel.read_rows(np.array([0])),
                              stacked.relation_embeddings()[[0]])
        # writes go through to the parameter
        ent.write_rows(np.array([1]), np.zeros((1, 6)))
        assert np.array_equal(stacked.entity_embeddings()[1], np.zeros(6))

    def test_partitioned_tables_finder(self, table):
        class Holder:
            def modules(self):
                yield self
                yield table

        assert partitioned_tables(Holder()) == [table]
