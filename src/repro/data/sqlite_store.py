"""SQLite-backed knowledge-graph store.

The paper's streaming dataloader converts large KG files into an SQLite
database holding the entity/relation index mapping plus the triplets, then
streams minibatches out of it.  This class provides that store: ingest a
:class:`~repro.data.dataset.KGDataset` (or labelled triples), query counts,
and iterate triples in fixed-size batches without materialising the whole
table in memory.

Each split's triples are a sequence of **chunks**: packed little-endian int64
``(rows, 3)`` blobs of :data:`CHUNK_ROWS` rows each (the split's last chunk
may hold fewer).  A triple is addressed by its 0-based *position* in its
split, so position ``p`` lives in chunk ``p // CHUNK_ROWS``; reading a
position range is one indexed query for the chunks that cover it and one
``np.frombuffer`` over their bytes.  Ingest appends whole chunks, and
:meth:`SQLiteKGStore.cluster_by_partition` rewrites them in bucket-pair order
a chunk at a time.  Stores written in the earlier one-row-per-triple layout
are refused with a request to re-spool.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import KGDataset
from repro.data.streaming import block_bounds_of, pair_run_bounds, pair_runs_of
from repro.data.vocab import Vocabulary

#: Triples per chunk blob (96 KiB): a fetch reads at most one partial chunk
#: beyond each end of its range, and clustering holds about two chunks.
CHUNK_ROWS = 4096

_ROW_DTYPE = np.dtype("<i8")

#: Meta key recording the bucket size the chunks were last clustered by.
_CLUSTERED = "clustered_bucket_size"

#: Scratch table of an in-progress clustering pass (dropped when it ends).
_CLUSTERING_TABLE = "chunks_clustering"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entities (
    id INTEGER PRIMARY KEY,
    label TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS relations (
    id INTEGER PRIMARY KEY,
    label TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    split TEXT NOT NULL,
    idx INTEGER NOT NULL,
    n_rows INTEGER NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (split, idx)
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _rows(blobs: List[bytes]) -> np.ndarray:
    """The ``(M, 3)`` int64 rows packed in ``blobs``, as one writable array."""
    return np.frombuffer(bytearray().join(blobs), dtype=_ROW_DTYPE).reshape(-1, 3)


class SQLiteKGStore:
    """Persistent triple store with streaming batch iteration.

    Parameters
    ----------
    path:
        Database file; ``":memory:"`` keeps everything in RAM (tests).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        if self._conn.execute("SELECT 1 FROM sqlite_master WHERE type = 'table' "
                              "AND name = 'triples'").fetchone() is not None:
            self._conn.close()
            raise ValueError(
                f"{path} stores one row per triple, a layout this version no "
                "longer reads; re-spool it (delete the file and ingest the "
                "dataset again)")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest_dataset(self, dataset: KGDataset) -> None:
        """Store every split of ``dataset`` (labels fall back to index strings)."""
        ent_labels = (
            list(dataset.entity_vocab)
            if dataset.entity_vocab is not None
            else [f"entity_{i}" for i in range(dataset.n_entities)]
        )
        rel_labels = (
            list(dataset.relation_vocab)
            if dataset.relation_vocab is not None
            else [f"relation_{i}" for i in range(dataset.n_relations)]
        )
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO entities (id, label) VALUES (?, ?)",
                list(enumerate(ent_labels)),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO relations (id, label) VALUES (?, ?)",
                list(enumerate(rel_labels)),
            )
            for split_name, triples in (
                ("train", dataset.split.train),
                ("valid", dataset.split.valid),
                ("test", dataset.split.test),
            ):
                self._append(split_name, [triples])

    def _append(self, split: str, blocks: Iterable[np.ndarray]) -> int:
        """Append ``(M, 3)`` blocks to ``split``'s chunks; returns rows written.

        Runs inside the caller's transaction.  The split's partial last chunk
        is topped up first, so every chunk but the last stays full; memory is
        one block plus one chunk.  Writing any row forgets the clustering
        record, so the next :meth:`cluster_by_partition` call re-clusters.
        """
        tail = self._conn.execute(
            "SELECT idx, n_rows, data FROM chunks WHERE split = ? "
            "ORDER BY idx DESC LIMIT 1", (split,)).fetchone()
        idx, pending, filled = 0, [], 0
        if tail is not None:
            idx, filled = int(tail[0]), int(tail[1])
            if filled == CHUNK_ROWS:
                idx, filled = idx + 1, 0
            else:
                pending = [_rows([tail[2]])]
        written = 0

        def flush() -> None:
            rows = pending[0] if len(pending) == 1 else np.concatenate(pending)
            self._conn.execute(
                "INSERT OR REPLACE INTO chunks (split, idx, n_rows, data) "
                "VALUES (?, ?, ?, ?)",
                (split, idx, filled, rows.astype(_ROW_DTYPE, copy=False).tobytes()))

        for block in blocks:
            block = np.asarray(block).reshape(-1, 3)
            written += block.shape[0]
            while block.shape[0]:
                take = CHUNK_ROWS - filled
                pending.append(block[:take])
                filled += min(take, block.shape[0])
                block = block[take:]
                if filled == CHUNK_ROWS:
                    flush()
                    idx, pending, filled = idx + 1, [], 0
        if written:
            if filled:
                flush()
            self._conn.execute("DELETE FROM meta WHERE key = ?", (_CLUSTERED,))
        return written

    def ingest_triple_batches(self, batches: Iterable[np.ndarray],
                              split: str = "train") -> int:
        """Stream ``(M, 3)`` integer arrays into the store; returns rows written.

        The out-of-core ingestion path: a generator of triple blocks (e.g. a
        chunked synthetic generator or a file reader) is appended block by
        block so peak memory is one block, never the whole graph.  Entity and
        relation tables are not touched — register vocabularies separately
        with :meth:`register_vocab_sizes` or :meth:`ingest_dataset`.
        """
        with self._conn:
            return self._append(split, batches)

    def register_vocab_sizes(self, n_entities: int, n_relations: int) -> None:
        """Create index-label rows for integer-only graphs (no label source)."""
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO entities (id, label) VALUES (?, ?)",
                ((i, f"entity_{i}") for i in range(int(n_entities))),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO relations (id, label) VALUES (?, ?)",
                ((i, f"relation_{i}") for i in range(int(n_relations))),
            )

    def ingest_labeled_triples(self, labeled: Iterable[Tuple[str, str, str]],
                               split: str = "train") -> None:
        """Insert labelled triples, growing the entity/relation tables as needed."""
        def blocks() -> Iterator[np.ndarray]:
            ids: List[Tuple[int, int, int]] = []
            for head, relation, tail in labeled:
                ids.append((self._get_or_create("entities", head),
                            self._get_or_create("relations", relation),
                            self._get_or_create("entities", tail)))
                if len(ids) == CHUNK_ROWS:
                    yield np.array(ids, dtype=np.int64)
                    ids = []
            yield np.array(ids, dtype=np.int64)

        with self._conn:
            self._append(split, blocks())

    def _get_or_create(self, table: str, label: str) -> int:
        row = self._conn.execute(
            f"SELECT id FROM {table} WHERE label = ?", (label,)
        ).fetchone()
        if row is not None:
            return int(row[0])
        count = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        self._conn.execute(f"INSERT INTO {table} (id, label) VALUES (?, ?)", (count, label))
        return int(count)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def n_entities(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM entities").fetchone()[0])

    @property
    def n_relations(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM relations").fetchone()[0])

    def n_triples(self, split: Optional[str] = "train") -> int:
        if split is None:
            return int(self._conn.execute(
                "SELECT COALESCE(SUM(n_rows), 0) FROM chunks").fetchone()[0])
        return int(self._conn.execute(
            "SELECT COALESCE(SUM(n_rows), 0) FROM chunks WHERE split = ?",
            (split,)).fetchone()[0])

    def entity_vocabulary(self) -> Vocabulary:
        rows = self._conn.execute("SELECT label FROM entities ORDER BY id").fetchall()
        return Vocabulary(label for (label,) in rows)

    def relation_vocabulary(self) -> Vocabulary:
        rows = self._conn.execute("SELECT label FROM relations ORDER BY id").fetchall()
        return Vocabulary(label for (label,) in rows)

    def _read_chunks(self, split: str, first: int, last: int) -> np.ndarray:
        """Rows of chunks ``first..last`` (inclusive) of ``split``, in order."""
        blobs = self._conn.execute(
            "SELECT data FROM chunks WHERE split = ? AND idx BETWEEN ? AND ? "
            "ORDER BY idx", (split, int(first), int(last))).fetchall()
        return _rows([data for (data,) in blobs])

    def _iter_chunks(self, split: str) -> Iterator[np.ndarray]:
        """``split``'s chunks in position order, one at a time."""
        n_chunks = self._conn.execute(
            "SELECT COUNT(*) FROM chunks WHERE split = ?", (split,)).fetchone()[0]
        for idx in range(n_chunks):
            yield self._read_chunks(split, idx, idx)

    def iter_batches(self, batch_size: int, split: str = "train") -> Iterator[np.ndarray]:
        """Stream ``(batch, 3)`` triple arrays without loading the whole table."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for lo, hi in self.block_bounds(batch_size, split):
            yield self.fetch_block(lo, hi, split)

    def set_meta(self, key: str, value: str) -> None:
        """Store a small key/value annotation (dataset fingerprints etc.)."""
        with self._conn:
            self._set_meta(key, value)

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (str(key), str(value)),
        )

    def get_meta(self, key: str) -> Optional[str]:
        """Read an annotation written by :meth:`set_meta` (``None`` if absent)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (str(key),)
        ).fetchone()
        return str(row[0]) if row is not None else None

    def block_bounds(self, block_size: int, split: str = "train") -> List[Tuple[int, int]]:
        """Split a split's positions into inclusive ranges of ``block_size``.

        ``[(lo, hi), ...]`` covers every position of the split, each range
        holding ``block_size`` rows (the final one may be smaller).  It is
        arithmetic on the split's row count: random-access epoch shuffles
        fetch the ranges in any order with :meth:`fetch_block`.
        """
        return block_bounds_of(self.n_triples(split), block_size)

    def cluster_by_partition(self, bucket_size: int) -> None:
        """Reorder every split's chunks by ``(head bucket, tail bucket)``.

        The PBG-style bucket-pair schedule wants each ``(head_bucket,
        tail_bucket)`` episode to be one contiguous position range.  This pass
        produces the order ``ORDER BY split, head / bucket_size, tail /
        bucket_size, position`` a chunk at a time: each chunk's rows are
        stably sorted by pair and stored as one piece per pair in a scratch
        table, then the pieces are read back in ``(pair, chunk)`` order and
        re-packed into chunks.  Memory stays about two chunks; afterwards
        :meth:`pair_runs` finds exactly one run per populated pair.

        Idempotent per ``bucket_size``: the applied size is recorded in the
        meta table and re-clustering with the same size is a no-op.  Any
        later ingest clears the record, so the next call re-clusters.  The
        rewrite of the chunks is one transaction; the scratch table an
        interrupted pass leaves behind is dropped by the next.
        """
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        if self.get_meta(_CLUSTERED) == str(int(bucket_size)):
            return
        size = int(bucket_size)
        with self._conn:
            self._conn.execute(f"DROP TABLE IF EXISTS {_CLUSTERING_TABLE}")
            self._conn.execute(f"""
                CREATE TABLE {_CLUSTERING_TABLE} (
                    split TEXT NOT NULL,
                    head_bucket INTEGER NOT NULL,
                    tail_bucket INTEGER NOT NULL,
                    chunk INTEGER NOT NULL,
                    data BLOB NOT NULL,
                    PRIMARY KEY (split, head_bucket, tail_bucket, chunk)
                )
            """)
            splits = [split for (split,) in self._conn.execute(
                "SELECT DISTINCT split FROM chunks ORDER BY split").fetchall()]
            for split in splits:
                for chunk, rows in enumerate(self._iter_chunks(split)):
                    heads, tails = rows[:, 0] // size, rows[:, 2] // size
                    order = np.lexsort((tails, heads))  # stable: position order
                    heads, tails, rows = heads[order], tails[order], rows[order]
                    starts, stops = pair_run_bounds(heads, tails)
                    self._conn.executemany(
                        f"INSERT INTO {_CLUSTERING_TABLE} VALUES (?, ?, ?, ?, ?)",
                        ((split, int(heads[lo]), int(tails[lo]), chunk,
                          rows[lo:hi].tobytes())
                         for lo, hi in zip(starts.tolist(), stops.tolist())))
            self._conn.execute("DELETE FROM chunks")
            for split in splits:
                self._append(split, (_rows([data]) for (data,) in self._conn.execute(
                    f"SELECT data FROM {_CLUSTERING_TABLE} WHERE split = ? "
                    "ORDER BY head_bucket, tail_bucket, chunk", (split,))))
            self._conn.execute(f"DROP TABLE {_CLUSTERING_TABLE}")
            self._set_meta(_CLUSTERED, str(size))

    def pair_runs(self, bucket_size: int, split: str = "train"
                  ) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        """Contiguous position runs per ``(head_bucket, tail_bucket)`` pair.

        For every populated bucket pair, the list of inclusive ``(lo, hi)``
        position runs holding its triples, found by one chunk-by-chunk scan.
        On a store clustered with :meth:`cluster_by_partition` at this
        ``bucket_size`` each pair has exactly one run; otherwise the runs
        fragment (correct, just more per-episode fetches).
        """
        return pair_runs_of(self._iter_chunks(split), bucket_size)

    def fetch_block(self, lo: int, hi: int, split: str = "train") -> np.ndarray:
        """The ``(head, relation, tail)`` rows at positions ``lo..hi`` (inclusive)."""
        first = int(lo) // CHUNK_ROWS
        rows = self._read_chunks(split, first, int(hi) // CHUNK_ROWS)
        start = int(lo) - first * CHUNK_ROWS
        return rows[start:start + max(int(hi) - int(lo) + 1, 0)]

    def to_dataset(self, name: Optional[str] = None) -> KGDataset:
        """Materialise the store back into an in-memory :class:`KGDataset`."""
        from repro.data.dataset import TripleSplit

        def fetch(split: str) -> np.ndarray:
            return self._read_chunks(split, 0, self.n_triples(split) // CHUNK_ROWS)

        return KGDataset(
            n_entities=self.n_entities,
            n_relations=self.n_relations,
            entity_vocab=self.entity_vocabulary().freeze(),
            relation_vocab=self.relation_vocabulary().freeze(),
            name=name or (os.path.basename(self.path) if self.path != ":memory:" else "sqlite"),
            split=TripleSplit(train=fetch("train"), valid=fetch("valid"), test=fetch("test")),
        )

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "SQLiteKGStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
