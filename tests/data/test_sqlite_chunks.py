"""The chunked SQLite layout: positions, chunk boundaries, clustering, ingest."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.data import (
    KGDataset,
    PartitionedStreamingIterator,
    SQLiteKGStore,
    generate_synthetic_kg,
)
from repro.data import sqlite_store
from repro.data.dataset import TripleSplit
from repro.data.streaming import block_bounds_of, pair_runs_of
from repro.partition import EntityPartition

SPLITS = ("train", "valid", "test")
BUCKET = 15


@pytest.fixture(scope="module")
def kg():
    return generate_synthetic_kg(60, 6, 400, rng=11, name="chunks",
                                 valid_fraction=0.2, test_fraction=0.1)


@pytest.fixture(params=[16, sqlite_store.CHUNK_ROWS], ids=["chunk16", "chunk4096"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(sqlite_store, "CHUNK_ROWS", request.param)
    return request.param


def clustered_twin(kg: KGDataset, bucket_size: int) -> KGDataset:
    """``kg`` with each split in ``ORDER BY head / b, tail / b, position`` order."""
    def order(triples):
        keys = (triples[:, 2] // bucket_size, triples[:, 0] // bucket_size)
        return triples[np.lexsort(keys)]

    return KGDataset(n_entities=kg.n_entities, n_relations=kg.n_relations,
                     name=kg.name, split=TripleSplit(*(order(getattr(kg.split, s))
                                                      for s in SPLITS)))


def reference_pair_runs(triples: np.ndarray, bucket_size: int):
    """The per-row loop the vectorised run detector replaces."""
    runs = {}
    for row in range(triples.shape[0]):
        pair = (int(triples[row, 0] // bucket_size), int(triples[row, 2] // bucket_size))
        pair_list = runs.setdefault(pair, [])
        if pair_list and pair_list[-1][1] == row - 1:
            pair_list[-1] = (pair_list[-1][0], row)
        else:
            pair_list.append((row, row))
    return runs


def ranges(n: int, chunk: int):
    """Ranges that start, end and straddle chunk boundaries, plus the whole split."""
    out = {(0, n - 1), (0, 0), (n - 1, n - 1)}
    for edge in range(chunk, n, chunk):
        out |= {(edge, min(edge + 4, n - 1)), (max(edge - 3, 0), edge - 1),
                (max(edge - 3, 0), min(edge + 2, n - 1)),
                (max(edge - chunk - 1, 0), min(edge + chunk, n - 1))}
    return sorted(out)


@pytest.mark.parametrize("clustered", [False, True], ids=["unclustered", "clustered"])
def test_fetch_block_and_block_bounds_match_the_split_arrays(kg, chunk_rows, clustered):
    with SQLiteKGStore() as store:
        store.ingest_dataset(kg)
        expected = kg
        if clustered:
            store.cluster_by_partition(BUCKET)
            expected = clustered_twin(kg, BUCKET)
        for split in SPLITS:
            triples = getattr(expected.split, split)
            n = triples.shape[0]
            assert store.n_triples(split) == n
            for block_size in (5, chunk_rows, chunk_rows + 3):
                bounds = store.block_bounds(block_size, split=split)
                assert bounds == block_bounds_of(n, block_size)
            for lo, hi in ranges(n, chunk_rows):
                np.testing.assert_array_equal(
                    store.fetch_block(lo, hi, split=split), triples[lo:hi + 1])


@pytest.mark.parametrize("clustered", [False, True], ids=["unclustered", "clustered"])
def test_pair_runs_agree_between_stores(kg, chunk_rows, clustered):
    with SQLiteKGStore() as store:
        store.ingest_dataset(kg)
        expected = kg
        if clustered:
            store.cluster_by_partition(BUCKET)
            expected = clustered_twin(kg, BUCKET)
        for split in SPLITS:
            triples = getattr(expected.split, split)
            reference = reference_pair_runs(triples, BUCKET)
            assert store.pair_runs(BUCKET, split=split) == reference
            assert pair_runs_of([triples], BUCKET) == reference


def test_ingest_appends_across_a_partial_chunk(chunk_rows):
    blocks = [np.arange(3 * m, dtype=np.int64).reshape(-1, 3) + 1000 * i
              for i, m in enumerate((5, chunk_rows - 2, 1, 2 * chunk_rows + 1))]
    with SQLiteKGStore() as store:
        for block in blocks:
            store.ingest_dataset(KGDataset(block))
        expected = np.concatenate(blocks)
        assert store.n_triples("train") == expected.shape[0]
        np.testing.assert_array_equal(
            store.fetch_block(0, expected.shape[0] - 1), expected)
        np.testing.assert_array_equal(
            np.concatenate([store.fetch_block(lo, hi)
                            for lo, hi in store.block_bounds(7)]), expected)
        lengths = [n for (n,) in store._conn.execute(
            "SELECT n_rows FROM chunks ORDER BY idx")]
        assert lengths[:-1] == [chunk_rows] * (len(lengths) - 1)


def test_later_ingest_is_reclustered(chunk_rows):
    """Ingest -> cluster -> ingest -> cluster leaves one run per pair, and
    an epoch of the bucket-pair schedule covers every positive once."""
    first = generate_synthetic_kg(60, 6, 400, rng=3)
    second = generate_synthetic_kg(60, 6, 400, rng=4).split.train
    partition = EntityPartition(60, 4)
    with SQLiteKGStore() as store:
        store.ingest_dataset(first)
        store.cluster_by_partition(partition.bucket_size)
        store.ingest_dataset(KGDataset(second[:150], n_entities=60, n_relations=6))
        store.ingest_dataset(KGDataset(second[150:], n_entities=60, n_relations=6))
        assert store.get_meta("clustered_bucket_size") is None
        store.cluster_by_partition(partition.bucket_size)
        runs = store.pair_runs(partition.bucket_size)
        assert all(len(pair) == 1 for pair in runs.values())
        iterator = PartitionedStreamingIterator(store, batch_size=32,
                                                partition=partition, seed=1)
        seen = np.concatenate([batch.positives for batch in iterator])
        everything = np.concatenate([first.split.train, second])
        assert sorted(map(tuple, seen.tolist())) == sorted(map(tuple, everything.tolist()))


def test_old_row_layout_is_refused(tmp_path):
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE triples (rowid INTEGER PRIMARY KEY AUTOINCREMENT, "
                 "head INTEGER, relation INTEGER, tail INTEGER, split TEXT)")
    conn.execute("INSERT INTO triples (head, relation, tail, split) "
                 "VALUES (0, 0, 1, 'train')")
    conn.commit()
    conn.close()
    with pytest.raises(ValueError, match="re-spool"):
        SQLiteKGStore(path)
