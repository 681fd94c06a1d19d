"""Partitioned embedding tables: entity parameters in P independently paged buckets.

The scale ceiling after out-of-core *data* (PR 4) is the dense entity table:
the trainer and the serving engine still materialised all
``(n_entities, d)`` rows.  :class:`PartitionedEmbedding` removes that ceiling
by range-partitioning the entity rows into ``P`` buckets, each backed by its
own ``entities.bucket<k>.npy`` file:

* a bucket is **faulted in** (one ``np.load``) the first time anything touches
  its rows and **evicted** (written back over its own file when dirty, see
  :func:`save_in_place`) once the LRU-bounded resident set overflows
  ``max_resident`` buckets — peak RAM is ``max_resident`` bucket slabs, never
  the full table;
* each bucket is its own :class:`BucketParameter`, so row-sparse gradients
  and optimiser state (Adam/Adagrad moment slabs) are naturally
  bucket-granular: optimiser state pages out *with* its bucket (see
  :meth:`attach_optimizer`);
* relations stay a small always-resident dense parameter; the entity-only
  table of the ``ht`` models (``n_relations=0``) has none.

Initialisation draws the same Xavier stream a
:class:`~repro.nn.embedding.StackedEmbedding` of the stacked ``(N + R, d)``
shape would draw — bucket by bucket, entities first, relations last — so a
partitioned model starts from bit-identical weights and (with the compacted
lookup of :meth:`PartitionedEmbedding.spmm`) follows the bit-identical
training trajectory of its unpartitioned twin.  :func:`spmm_table` is the one
place a model chooses between the two tables.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import shutil
import tempfile
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib import format as npy_format

from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.embedding import StackedEmbedding
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.table import (
    DEFAULT_BLOCK_ROWS,
    DenseSliceTable,
    EmbeddingTable,
    block_rows_for,
)
from repro.partition import EntityPartition
from repro.sparse.backends import get_backend
from repro.sparse.incidence import (
    IncidenceBuilder,
    build_hrt_incidence,
    build_ht_incidence,
)
from repro.sparse.rowsparse import RowSparseGrad
from repro.sparse.spmm import rowsparse_backward_for
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples

#: Manifest filename written next to the bucket files.
PARTITION_MANIFEST = "partition.json"

#: Directory of a checkpoint's parameter files, next to its ``.npz``: the
#: bucket files with their manifest, and one ``<name>.npy`` per other
#: parameter (see :func:`repro.training.checkpoint.save_checkpoint`).
ARTIFACT_WEIGHTS = "weights"

#: Current manifest schema version.
PARTITION_MANIFEST_VERSION = 1


def bucket_filename(bucket: int) -> str:
    """On-disk name of entity bucket ``bucket`` (``entities.bucket<k>.npy``)."""
    return f"entities.bucket{int(bucket)}.npy"


def _holds_payload(handle, shape: Tuple[int, ...], dtype: np.dtype) -> bool:
    """Whether the open ``.npy`` ``handle`` is a C-ordered file of exactly
    ``shape`` and ``dtype``; leaves the position at the payload."""
    try:
        version = npy_format.read_magic(handle)
        if version == (1, 0):
            header = npy_format.read_array_header_1_0(handle)
        elif version == (2, 0):
            header = npy_format.read_array_header_2_0(handle)
        else:
            return False
    except ValueError:  # not an .npy file, or a header numpy cannot parse
        return False
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    # ``header`` is ``(shape, fortran_order, dtype)``.
    return (header == (tuple(shape), False, dtype)
            and os.fstat(handle.fileno()).st_size == handle.tell() + nbytes)


def save_in_place(path: str, array: np.ndarray) -> bool:
    """``np.save(path, array)`` that overwrites a matching file's payload.

    Buckets and their optimiser-state slabs are rewritten at the same shape
    and dtype on every eviction.  When ``path`` already is such a file only
    the payload bytes are written over it: the bytes on disk are the ones
    ``np.save`` produces, but the file keeps its inode and is never
    truncated — a reader holding it mapped keeps a whole, coherent mapping —
    and no page-cache page or disk block is freed and reallocated.  A missing
    file or one of another shape, dtype, order or length takes plain
    ``np.save``.  Returns whether the payload was written in place.
    """
    if array.flags.c_contiguous and not array.dtype.hasobject:
        try:
            with open(path, "r+b") as handle:
                if _holds_payload(handle, array.shape, array.dtype):
                    handle.write(array.data)
                    return True
        except FileNotFoundError:
            pass
    np.save(path, array)
    return False


class BucketParameter(Parameter):
    """One bucket of entity rows, resident only while its slab is loaded.

    ``.data`` is a faulting property: reading it while the bucket is evicted
    makes the owning :class:`PartitionedEmbedding` load the slab from disk
    (possibly evicting another bucket), so optimizers and autograd code that
    were written for plain dense parameters keep working unchanged.  Shape
    metadata (``shape``/``size``/``nbytes``) is answered without faulting.
    """

    def __init__(self, owner: "PartitionedEmbedding", bucket: int,
                 rows: int, dim: int, name: str) -> None:
        # A proxy, not a reference: the table and its buckets form no cycle,
        # so dropping the table's last holder closes its maps and fds at once.
        self._owner = weakref.proxy(owner)
        self._bucket = int(bucket)
        self._bucket_shape = (int(rows), int(dim))
        self._slab: Optional[np.ndarray] = None
        super().__init__(np.empty((0, int(dim)), dtype=np.float64),
                         requires_grad=True, name=name)
        self._slab = None  # constructed evicted; the owner faults on demand

    # ``data`` shadows the Tensor slot with a faulting property.
    @property
    def data(self) -> np.ndarray:  # type: ignore[override]
        if self._slab is None:
            self._owner._fault(self._bucket)
        self._owner._touch(self._bucket)
        return self._slab

    @data.setter
    def data(self, value) -> None:
        self._slab = value

    @property
    def resident(self) -> bool:
        """Whether the bucket's slab is currently in memory."""
        return self._slab is not None

    @property
    def bucket(self) -> int:
        return self._bucket

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._bucket_shape

    @property
    def ndim(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self._bucket_shape[0] * self._bucket_shape[1]

    @property
    def dtype(self):
        return np.dtype(np.float64)

    @property
    def nbytes(self) -> int:
        return self.size * np.dtype(np.float64).itemsize

    def restore_opt_state(self, optimizer, state: Dict[str, object]) -> None:
        """Hook called by ``Optimizer._param_state`` on first (re-)use.

        Refills ``state`` with this bucket's paged-out buffers, so a bucket
        whose optimiser state was evicted to disk resumes mid-decay instead of
        silently restarting from fresh zeros.
        """
        self._owner._load_optimizer_state(self._bucket, state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "resident" if self.resident else "evicted"
        return (f"BucketParameter(bucket={self._bucket}, "
                f"shape={self._bucket_shape}, {status})")


def _rank_distinct(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``keys`` (all in ``[0, span)``) and each
    key's index among them, by marking and numbering instead of sorting."""
    seen = np.zeros(span, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(span, dtype=np.int64)
    rank[distinct] = np.arange(distinct.size, dtype=np.int64)
    return distinct, rank[keys]


def compact_ids(triples: np.ndarray, partition: EntityPartition, n_relations: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch's sorted unique entity and relation ids, and the triples on them.

    Returns ``(entity_ids, relation_ids, compact)`` where ``compact`` holds
    each triple's head and tail as an index into ``entity_ids`` and its
    relation as an index into ``relation_ids``: the ``np.unique`` +
    ``np.searchsorted`` map, computed by counting.  Entities are marked in a
    scratch that lays the touched buckets end to end, so it is bounded by
    their rows: at most two buckets under the bucket-pair schedule, but all
    ``n_entities`` rows when a uniform batch touches every bucket (9 bytes a
    row per call).  Relations are marked over ``n_relations``.
    ``n_relations=0`` is an entity-only table: ``relation_ids`` is empty and
    the relation column is 0.  Ids are validated as the resident table's
    incidence builder validates them.
    """
    triples = check_triples(triples, n_entities=partition.n_entities,
                            n_relations=n_relations or None)
    compact = np.zeros_like(triples)
    if not triples.size:
        return triples[:0, 0], triples[:0, 1], compact
    entities = triples[:, 0::2]
    size = partition.bucket_size
    buckets = partition.bucket_of(entities)
    touched = np.zeros(partition.n_partitions, dtype=bool)
    touched[buckets] = True
    hit = np.flatnonzero(touched)
    place = np.cumsum(touched, dtype=np.int64) - 1  # bucket -> index in ``hit``
    # The touched buckets laid end to end: slot = id + (place - bucket) * size.
    slots, compact[:, 0::2] = _rank_distinct(
        entities + (place[buckets] - buckets) * size, hit.size * size)
    entity_ids = slots + (hit[slots // size] - slots // size) * size
    if not n_relations:
        return entity_ids, triples[:0, 1], compact
    relation_ids, compact[:, 1] = _rank_distinct(triples[:, 1], n_relations)
    return entity_ids, relation_ids, compact


class PartitionedEmbedding(Module, EmbeddingTable):
    """Entity/relation embeddings with the entity table in ``P`` paged buckets.

    Parameters
    ----------
    n_entities, n_relations, embedding_dim:
        Table geometry (entity rows are partitioned; relations stay dense).
        ``n_relations=0`` is the entity-only table, with no relation rows.
    partitions:
        Number of entity buckets ``P``.
    rng:
        Seed or generator; the draw order matches a
        :class:`~repro.nn.embedding.StackedEmbedding` of the same stacked
        shape bit for bit.
    directory:
        Where the bucket files live; a private temporary directory (removed on
        :meth:`close`) is created when omitted.  Under
        :func:`repro.nn.init.skip_init` no files are created — call
        :meth:`attach_storage` to bind existing bucket files instead.
    max_resident:
        LRU bound on simultaneously resident buckets (``None`` keeps every
        bucket resident once touched).  ``2`` — the default — is exactly what
        the bucket-pair batch schedule needs.
    read_only:
        Serving mode: evictions never write back and mutation raises.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 partitions: int, rng=None, directory: Optional[str] = None,
                 max_resident: Optional[int] = 2, read_only: bool = False) -> None:
        super().__init__()
        if n_entities <= 0 or n_relations < 0 or embedding_dim <= 0:
            raise ValueError("n_entities and embedding_dim must be positive and "
                             "n_relations non-negative")
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self._embedding_dim = int(embedding_dim)
        self.partition = EntityPartition(self.n_entities, int(partitions))
        if max_resident is None:
            max_resident = self.partition.n_partitions
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = int(max_resident)
        self.read_only = bool(read_only)

        self._optimizer = None
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._dirty: set = set()
        self._attached = False
        self._owns_dir = False
        self._directory: Optional[str] = None
        # bucket -> (read-only map of its float64 file, payload offset): the
        # exact_rows reader (the ANN anchor row, the IVF build; not IVF
        # probes, which read the index's own list files), opened on first use
        # and held until the table points at other files.
        self._maps: Dict[int, Tuple[mmap.mmap, int]] = {}
        self._resident_bytes = 0
        self.counters: Dict[str, float] = {
            "faults": 0, "evictions": 0, "writebacks": 0,
            "bytes_loaded": 0, "bytes_written": 0,
            "fault_seconds": 0.0, "writeback_seconds": 0.0,
            # Optimiser-state slabs page with their bucket, counted apart:
            # the four keys above cover the bucket slab only.
            "state_bytes_loaded": 0, "state_bytes_written": 0,
            "state_fault_seconds": 0.0, "state_writeback_seconds": 0.0,
            "peak_resident": 0, "peak_resident_bytes": 0,
            "exact_row_reads": 0,
        }

        # Relations: small, dense, always resident (absent when entity-only).
        self.relations: Optional[Parameter] = None
        if self.n_relations:
            self.relations = Parameter(
                np.empty((self.n_relations, self._embedding_dim), dtype=np.float64),
                name="relations")
        # Bucket parameters (attribute registration keeps them in
        # named_parameters for optimizers and checkpoints).
        self._buckets: List[BucketParameter] = []
        for k in range(self.partition.n_partitions):
            param = BucketParameter(self, k, self.partition.bucket_rows(k),
                                    self._embedding_dim, name=f"bucket{k}")
            setattr(self, f"bucket{k}", param)
            self._buckets.append(param)

        if init.skipping_init():
            # Attach-to-existing-storage path: no allocation, no files.
            return
        self._directory = directory if directory is not None else tempfile.mkdtemp(
            prefix="sptransx-partitioned-")
        os.makedirs(self._directory, exist_ok=True)
        self._owns_dir = directory is None
        self._initialize(new_rng(rng))
        self._attached = True

    # ------------------------------------------------------------------ #
    # Construction / storage lifecycle
    # ------------------------------------------------------------------ #
    def _initialize(self, rng: np.random.Generator) -> None:
        """Xavier init drawn in StackedEmbedding order (entities, then relations).

        The bound comes from the *stacked* ``(N + R, d)`` shape and the
        uniform stream is consumed bucket by bucket in row order, so every row
        receives exactly the floats the equivalent
        :class:`~repro.nn.embedding.StackedEmbedding` would give it.
        """
        stacked_rows = self.n_entities + self.n_relations
        bound = math.sqrt(6.0 / (self._embedding_dim + stacked_rows))
        for k, param in enumerate(self._buckets):
            rows = self.partition.bucket_rows(k)
            slab = rng.uniform(-bound, bound, size=(rows, self._embedding_dim))
            np.save(self._bucket_path(k), slab)
        if self.relations is not None:
            self.relations.data[...] = rng.uniform(
                -bound, bound, size=(self.n_relations, self._embedding_dim))
        # Fresh weights start from fresh optimiser state: a reused directory
        # must not hand an earlier run's paged-out moments to this one.
        stale = tuple(bucket_filename(k) + ".state."
                      for k in range(self.partition.n_partitions))
        for name in os.listdir(self._directory):
            if name.startswith(stale):
                os.remove(os.path.join(self._directory, name))

    def _bucket_path(self, bucket: int) -> str:
        if self._directory is None:
            raise RuntimeError(
                "partitioned embedding has no storage attached; construct it "
                "outside skip_init() or call attach_storage(directory)"
            )
        return os.path.join(self._directory, bucket_filename(bucket))

    def _state_path(self, bucket: int, buffer: str) -> str:
        return self._bucket_path(bucket) + f".state.{buffer}.npy"

    def _state_meta_path(self, bucket: int) -> str:
        return self._bucket_path(bucket) + ".state.json"

    def manifest(self) -> Dict[str, object]:
        """The ``partition.json`` payload describing the bucket layout."""
        return {
            "version": PARTITION_MANIFEST_VERSION,
            "n_entities": self.n_entities,
            "n_relations": self.n_relations,
            "embedding_dim": self._embedding_dim,
            "partitions": self.partition.n_partitions,
            "bucket_size": self.partition.bucket_size,
            "buckets": [
                {"file": bucket_filename(k), "start": lo, "rows": hi - lo}
                for k, (lo, hi) in enumerate(self.partition.ranges())
            ],
            "entity_param_prefix": "bucket",
            "relations_param": "relations" if self.relations is not None else None,
        }

    def write_manifest(self, directory: Optional[str] = None) -> str:
        """Write ``partition.json`` into ``directory`` (default: own storage)."""
        directory = directory if directory is not None else self._directory
        path = os.path.join(directory, PARTITION_MANIFEST)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.manifest(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def attach_storage(self, directory: str) -> None:
        """Bind this table, read-only, to existing bucket files (the load path).

        The directory must carry a compatible ``partition.json``; any resident
        slabs are dropped (not written back) so subsequent faults read the
        attached files.  Only the float64 bucket files the manifest lists are
        read; any other key or file in the directory is ignored.
        """
        manifest_path = os.path.join(directory, PARTITION_MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(
                f"no {PARTITION_MANIFEST} in {directory}; not a partitioned "
                "weights directory"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        for key, expected in (("n_entities", self.n_entities),
                              ("embedding_dim", self._embedding_dim),
                              ("partitions", self.partition.n_partitions)):
            if int(manifest.get(key, -1)) != expected:
                raise ValueError(
                    f"partition manifest mismatch for {key!r}: manifest has "
                    f"{manifest.get(key)!r}, table expects {expected}"
                )
        for entry in manifest["buckets"]:
            path = os.path.join(directory, entry["file"])
            if not os.path.exists(path):
                raise FileNotFoundError(f"bucket file missing: {path}")
        self._drop_resident()
        self._close_maps()
        if self._owns_dir and self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
        self._directory = directory
        self._owns_dir = False
        self._attached = True
        self.read_only = True

    def close(self) -> None:
        """Drop resident slabs and held maps, and delete owned storage."""
        self._drop_resident()
        self._close_maps()
        if self._owns_dir and self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None
            self._owns_dir = False

    def __del__(self) -> None:  # pragma: no cover - best effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def _drop_resident(self) -> None:
        for param in self._buckets:
            param._slab = None
        self._resident.clear()
        self._dirty.clear()
        self._resident_bytes = 0

    def _close_maps(self, *buckets: int) -> None:
        """Close the held maps of ``buckets`` (every bucket when none given)."""
        for bucket in buckets or tuple(self._maps):
            held = self._maps.pop(bucket, None)
            if held is not None:
                held[0].close()

    # ------------------------------------------------------------------ #
    # Residency management
    # ------------------------------------------------------------------ #
    def _touch(self, bucket: int) -> None:
        if bucket in self._resident:
            self._resident.move_to_end(bucket)
            if not self.read_only:
                # ``.data`` is the only doorway to in-place mutation
                # (optimizer scatter updates), so a touch in training mode
                # conservatively marks the bucket dirty.
                self._dirty.add(bucket)

    def _fault(self, bucket: int) -> None:
        """Load ``bucket``'s slab, evicting LRU buckets beyond the bound."""
        param = self._buckets[bucket]
        if param.resident:
            self._resident.move_to_end(bucket)
            return
        while len(self._resident) >= self.max_resident:
            victim, _ = self._resident.popitem(last=False)
            self._evict(victim)
        t0 = time.perf_counter()
        slab = np.load(self._bucket_path(bucket))
        param._slab = slab
        self._resident[bucket] = None
        self._resident_bytes += slab.nbytes
        self.counters["faults"] += 1
        self.counters["bytes_loaded"] += slab.nbytes
        self.counters["fault_seconds"] += time.perf_counter() - t0
        self.counters["peak_resident"] = max(self.counters["peak_resident"],
                                             len(self._resident))
        self.counters["peak_resident_bytes"] = max(
            self.counters["peak_resident_bytes"], self._resident_bytes)

    def _write_back(self, bucket: int) -> None:
        """Write ``bucket``'s resident slab over its file if it is dirty."""
        if bucket not in self._dirty:
            return
        self._dirty.discard(bucket)
        if self.read_only:
            return
        slab = self._buckets[bucket]._slab
        t0 = time.perf_counter()
        if not save_in_place(self._bucket_path(bucket), slab):
            self._close_maps(bucket)  # a new file: a held map shows the old one
        self.counters["writebacks"] += 1
        self.counters["bytes_written"] += slab.nbytes
        self.counters["writeback_seconds"] += time.perf_counter() - t0

    def _evict(self, bucket: int) -> None:
        param = self._buckets[bucket]
        if not param.resident:
            return
        self._write_back(bucket)
        self._page_out_optimizer_state(bucket)
        self._resident_bytes -= param._slab.nbytes
        param._slab = None
        self._resident.pop(bucket, None)
        self.counters["evictions"] += 1

    def flush(self) -> None:
        """Write every dirty resident bucket (and its optimiser state) to disk.

        Leaves residency untouched; used before checkpointing and before the
        bucket files are copied into an artifact directory.
        """
        if self.read_only:
            return
        for bucket in list(self._resident):
            self._write_back(bucket)
            self._save_optimizer_state(bucket, pop=False)

    # ------------------------------------------------------------------ #
    # Optimizer-state paging (per-bucket slabs page with their bucket)
    # ------------------------------------------------------------------ #
    def attach_optimizer(self, optimizer) -> None:
        """Let bucket evictions page this optimiser's per-bucket state slabs.

        Adam/Adagrad keep ``(bucket_rows, d)`` moment slabs per bucket
        parameter; once attached, those slabs are written next to their bucket
        file on eviction and restored (through
        :meth:`BucketParameter.restore_opt_state`) when the optimiser next
        touches the bucket — resident-set memory covers parameters *and*
        optimiser state.
        """
        self._optimizer = optimizer

    def _page_out_optimizer_state(self, bucket: int) -> None:
        if self._optimizer is None:
            return
        self._save_optimizer_state(bucket, pop=True)

    def _save_optimizer_state(self, bucket: int, pop: bool) -> None:
        if self._optimizer is None or self.read_only:
            return
        param = self._buckets[bucket]
        state = self._optimizer.state.get(id(param))
        if not state:
            return
        t0 = time.perf_counter()
        scalars: Dict[str, object] = {}
        buffers: List[str] = []
        for buffer, value in state.items():
            if isinstance(value, np.ndarray):
                save_in_place(self._state_path(bucket, buffer), value)
                buffers.append(buffer)
                self.counters["state_bytes_written"] += value.nbytes
            else:
                scalars[buffer] = value
        # The names are recorded so a restore loads exactly what this
        # optimiser wrote, whatever else sits in the directory.
        with open(self._state_meta_path(bucket), "w", encoding="utf-8") as handle:
            json.dump({"scalars": scalars, "buffers": buffers}, handle)
        self.counters["state_writeback_seconds"] += time.perf_counter() - t0
        if pop:
            self._optimizer.state.pop(id(param), None)

    def _load_optimizer_state(self, bucket: int, state: Dict[str, object]) -> None:
        meta_path = self._state_meta_path(bucket)
        if not os.path.exists(meta_path):
            return  # never paged out: genuinely fresh state
        t0 = time.perf_counter()
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        state.update(meta["scalars"])
        for buffer in meta["buffers"]:
            state[buffer] = np.load(self._state_path(bucket, buffer))
            self.counters["state_bytes_loaded"] += state[buffer].nbytes
        self.counters["state_fault_seconds"] += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # EmbeddingTable interface (entity rows)
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self.n_entities

    @property
    def embedding_dim(self) -> int:
        return self._embedding_dim

    @property
    def n_partitions(self) -> int:
        return self.partition.n_partitions

    def row_ranges(self) -> List[Tuple[int, int]]:
        return self.partition.ranges()

    def _bucket_slices(self, sorted_ids: np.ndarray) -> Iterator[Tuple[int, slice, np.ndarray]]:
        """Yield ``(bucket, slice_into_sorted_ids, local_rows)`` per touched bucket."""
        buckets = self.partition.bucket_of(sorted_ids)
        # No ids, no bucket: the leading flag is False on an empty array.
        boundaries = np.flatnonzero(
            np.concatenate(([buckets.size > 0], buckets[1:] != buckets[:-1])))
        for i, start in enumerate(boundaries):
            stop = boundaries[i + 1] if i + 1 < boundaries.size else sorted_ids.size
            bucket = int(buckets[start])
            lo, _ = self.partition.bucket_range(bucket)
            yield bucket, slice(int(start), int(stop)), sorted_ids[start:stop] - lo

    def read_rows(self, indices: np.ndarray) -> np.ndarray:
        """Float64 copy of arbitrary entity rows (faulting buckets as needed)."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_entities):
            raise IndexError("entity index out of range")
        out = np.empty((idx.size, self._embedding_dim), dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        sorted_ids = idx[order]
        for bucket, sl, local in self._bucket_slices(sorted_ids):
            self._fault(bucket)
            out[order[sl]] = self._buckets[bucket]._slab[local]
            self._resident.move_to_end(bucket)
        return out

    def exact_rows(self, indices: np.ndarray) -> np.ndarray:
        """Float64 entity rows, read without faulting or evicting a bucket.

        A resident bucket is read from memory, so a dirty bucket of a
        writable table gives its current rows, not its stale file.  An
        evicted bucket is read from its ``entities.bucket<k>.npy`` file
        through a read-only memory map the table opens on the bucket's first
        such read and holds (:meth:`_exact_map`): only the requested rows are
        copied, then the map's pages are released, so nothing enters the
        resident set, the process RSS does not grow and the LRU order is
        untouched.  An in-place write-back keeps the file's inode, so a held
        map reads the rows written last.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_entities):
            raise IndexError("entity index out of range")
        out = np.empty((idx.size, self._embedding_dim), dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        sorted_ids = idx[order]
        for bucket, sl, local in self._bucket_slices(sorted_ids):
            slab = self._buckets[bucket]._slab
            if slab is not None:
                out[order[sl]] = slab[local]
                continue
            mapping, offset = self._exact_map(bucket)
            exact = np.ndarray(self._buckets[bucket].shape, dtype=np.float64,
                               buffer=mapping, offset=offset)
            out[order[sl]] = exact[local]
            del exact  # the view pins the map's buffer
            mapping.madvise(mmap.MADV_DONTNEED)
        self.counters["exact_row_reads"] += int(idx.size)
        return out

    def _exact_map(self, bucket: int) -> Tuple[mmap.mmap, int]:
        """``bucket``'s float64 file mapped read-only, and its payload offset.

        Opened once and held: the ``.npy`` header is parsed and checked
        against the bucket's shape when the map is made, not on every read.
        """
        held = self._maps.get(bucket)
        if held is not None:
            return held
        path = self._bucket_path(bucket)
        with open(path, "rb") as handle:
            if not _holds_payload(handle, self._buckets[bucket].shape,
                                  np.dtype(np.float64)):
                raise ValueError(
                    f"{path} is not a C-ordered float64 "
                    f"{self._buckets[bucket].shape} .npy file")
            offset = handle.tell()
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._maps[bucket] = (mapping, offset)
        return mapping, offset

    def iter_blocks(self, block_rows: int = DEFAULT_BLOCK_ROWS
                    ) -> Iterator[Tuple[int, np.ndarray]]:
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        for k in range(self.partition.n_partitions):
            lo, hi = self.partition.bucket_range(k)
            self._fault(k)
            slab = self._buckets[k]._slab
            for start in range(0, hi - lo, block_rows):
                stop = min(hi - lo, start + block_rows)
                yield lo + start, slab[start:stop]

    def write_rows(self, indices: np.ndarray, values: np.ndarray) -> None:
        if self.read_only:
            raise RuntimeError("cannot write rows of a read-only partitioned table")
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(idx.size, -1)
        order = np.argsort(idx, kind="stable")
        sorted_ids = idx[order]
        for bucket, sl, local in self._bucket_slices(sorted_ids):
            self._fault(bucket)
            self._buckets[bucket]._slab[local] = values[order[sl]]
            self._dirty.add(bucket)
            self._resident.move_to_end(bucket)

    def apply_rows_(self, fn: Callable[[np.ndarray], None],
                    block_rows: Optional[int] = None) -> None:
        """Run ``fn`` in place over the entity rows, one bucket at a time."""
        if self.read_only:
            raise RuntimeError("cannot modify a read-only partitioned table")
        if block_rows is None:
            block_rows = block_rows_for(self._embedding_dim)
        for k in range(self.partition.n_partitions):
            self._fault(k)
            slab = self._buckets[k]._slab
            for start in range(0, slab.shape[0], block_rows):
                fn(slab[start:start + block_rows])
            self._dirty.add(k)
            self._resident.move_to_end(k)

    def entity_table(self) -> "PartitionedEmbedding":
        """The entity rows as an :class:`~repro.nn.table.EmbeddingTable` (this table)."""
        return self

    def relation_table(self) -> DenseSliceTable:
        """:class:`~repro.nn.table.EmbeddingTable` view of the resident relation rows."""
        return DenseSliceTable(self.relations.data)

    # ------------------------------------------------------------------ #
    # The compacted SpMM lookup (the training hot path)
    # ------------------------------------------------------------------ #
    def spmm(self, triples: np.ndarray, builder: IncidenceBuilder,
             backend: str) -> Tensor:
        """The batch's lookup as one SpMM over only the rows it touches.

        An incidence matrix is a stack of signed one-hot rows, so multiplying
        it by a table looks rows up; restricted to the columns a batch touches
        it is the **compacted sub-incidence matrix**.  The batch's unique
        entity (and, when the table holds relation rows, relation) ids are
        remapped onto ``[0, U_e)`` / ``[0, U_r)`` by :func:`compact_ids`, which
        counts rather than sorts, and only those rows are gathered from the
        resident buckets.  Both maps are monotone, so the compacted matrix's
        per-row column order — and with it every floating-point accumulation
        in the kernel and in the row-sparse backward — matches
        :meth:`StackedEmbedding.spmm <repro.nn.embedding.StackedEmbedding.spmm>`
        with row-sparse gradients on the same backend: a ``P``-way
        partitioned run reproduces the unpartitioned trajectory bit for bit
        while never holding more than ``max_resident`` buckets in memory.
        The backward splits the compact gradient onto the touched bucket
        parameters (bucket-local rows, bucket marked dirty) and the relation
        parameter.  Only ``builder.fmt`` is read: the compact matrix has its
        own shape.
        """
        entity_ids, relation_ids, compact = compact_ids(
            triples, self.partition, self.n_relations)
        n_ent = int(entity_ids.size)
        if self.n_relations:
            A = build_hrt_incidence(compact, n_ent, int(relation_ids.size),
                                    fmt=builder.fmt)
        else:
            A = build_ht_incidence(compact, n_ent, fmt=builder.fmt)

        rows = np.empty((n_ent + relation_ids.size, self._embedding_dim),
                        dtype=np.float64)
        parents: List[Parameter] = []
        for bucket, sl, local in self._bucket_slices(entity_ids):
            self._fault(bucket)
            rows[sl] = self._buckets[bucket]._slab[local]
            self._resident.move_to_end(bucket)
            parents.append(self._buckets[bucket])
        if relation_ids.size:
            rows[n_ent:] = self.relations.data[relation_ids]
            parents.append(self.relations)
        n_rows = rows.shape[0]  # the backward must not keep ``rows`` alive
        rowsparse_backward = rowsparse_backward_for(backend)

        def backward(grad: np.ndarray) -> None:
            packed = rowsparse_backward(A, grad, n_rows)
            split = int(np.searchsorted(packed.indices, n_ent))
            ent_vals = packed.values[:split]
            for bucket, sl, local in self._bucket_slices(
                    entity_ids[packed.indices[:split]]):
                param = self._buckets[bucket]
                param.accumulate_grad(RowSparseGrad(local, ent_vals[sl], param.shape))
                self._dirty.add(bucket)
            if split < packed.indices.size:
                self.relations.accumulate_grad(RowSparseGrad(
                    relation_ids[packed.indices[split:] - n_ent],
                    packed.values[split:], self.relations.shape))

        return Tensor._make(get_backend(backend)(A, rows), tuple(parents),
                            backward, "spmm[partitioned]")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Optional[str]:
        """Directory holding the bucket files."""
        return self._directory

    def bucket_parameters(self) -> Sequence[BucketParameter]:
        """The bucket parameters, in bucket order."""
        return tuple(self._buckets)

    def resident_buckets(self) -> Tuple[int, ...]:
        """Currently resident bucket ids (LRU order, oldest first)."""
        return tuple(self._resident)

    def stats(self) -> Dict[str, float]:
        """Fault/eviction/write-back counters plus current residency."""
        out = dict(self.counters)
        out["resident"] = len(self._resident)
        out["resident_bytes"] = self._resident_bytes
        out["max_resident"] = self.max_resident
        out["partitions"] = self.partition.n_partitions
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PartitionedEmbedding(entities={self.n_entities}, "
                f"relations={self.n_relations}, dim={self._embedding_dim}, "
                f"partitions={self.partition.n_partitions}, "
                f"max_resident={self.max_resident})")


def partitioned_tables(module: Module) -> List[PartitionedEmbedding]:
    """Every :class:`PartitionedEmbedding` inside ``module`` (may be empty)."""
    return [m for m in module.modules() if isinstance(m, PartitionedEmbedding)]


def spmm_table(n_entities: int, n_relations: int, embedding_dim: int, rng=None,
               partitions: int = 1, partition_dir: Optional[str] = None,
               max_resident: Optional[int] = 2):
    """The table an SpMM model multiplies: resident at one partition, paged beyond.

    ``partitions == 1`` builds a :class:`~repro.nn.embedding.StackedEmbedding`;
    more builds a :class:`PartitionedEmbedding` of that many buckets under
    ``partition_dir`` with at most ``max_resident`` of them in memory.  Both
    draw the same floats from ``rng`` and answer the same ``spmm`` lookup, so a
    model is written once for either.  ``n_relations=0`` is the entity-only
    table of the ``ht`` models.
    """
    partitions = int(partitions)
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    if partitions == 1:
        return StackedEmbedding(n_entities, n_relations, embedding_dim, rng=rng)
    return PartitionedEmbedding(n_entities, n_relations, embedding_dim,
                                partitions=partitions, rng=rng,
                                directory=partition_dir, max_resident=max_resident)
