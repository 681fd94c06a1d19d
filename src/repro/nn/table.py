"""The :class:`EmbeddingTable` interface: one contract for every entity table.

Every layer that used to assume "the entity embeddings are one dense
``(n_entities, d)`` array" — model scoring, per-epoch renormalisation, the
serving engine's nearest-neighbour scan — now talks to this interface instead:

* :meth:`EmbeddingTable.read_rows` — random-access row reads (always a copy);
* :meth:`EmbeddingTable.exact_rows` — float64 row reads that leave residency
  alone (what ANN probes and exact rescoring read);
* :meth:`EmbeddingTable.iter_blocks` — bounded-memory sequential sweeps, the
  primitive behind blocked ranking and block-wise renormalisation;
* :meth:`EmbeddingTable.write_rows` — row-granular writes (pre-trained
  loads);
* :meth:`EmbeddingTable.apply_rows_` — block-wise in-place maintenance
  (renormalisation, TorusE's wrap onto the torus);
* :attr:`EmbeddingTable.n_partitions` — ``1`` for dense tables, ``P`` for
  :class:`~repro.nn.partitioned.PartitionedEmbedding`, and
  :meth:`EmbeddingTable.row_ranges`, the row range each one holds.

Two concrete families implement it: the dense in-memory tables
(:class:`~repro.nn.embedding.Embedding` and the
:class:`DenseSliceTable` views :class:`~repro.nn.embedding.StackedEmbedding`
exposes), and the bucketed, disk-backed
:class:`~repro.nn.partitioned.PartitionedEmbedding`.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

#: Default rows per block for table sweeps; small enough that one float64
#: block stays a few MB at typical dims, large enough to amortise call
#: overhead.
DEFAULT_BLOCK_ROWS = 65536

#: Cap on *elements* per block for memory-bounded sweeps (~16 MB of float64).
#: Row counts alone are the wrong unit — at dim 2304 a 65536-row "block" is
#: 1.2 GB — so sweeps that must stay within a memory budget size their blocks
#: as ``block_rows_for(dim)``.
BLOCK_ELEMENTS = 1 << 21


def block_rows_for(embedding_dim: int, block_elements: int = BLOCK_ELEMENTS) -> int:
    """Rows per block so one float64 block stays within ``block_elements``."""
    return max(1, int(block_elements) // max(1, int(embedding_dim)))


def renormalize_block_(block: np.ndarray, max_norm: float, p: int) -> None:
    """Project the rows of ``block`` onto the L_p ball of radius ``max_norm``.

    In-place and purely per-row, so applying it block by block produces the
    exact floats a whole-matrix projection would — that is what lets the
    block-wise ``normalize_parameters`` paths stay bit-identical to the dense
    code they replaced.
    """
    if p == 2:
        norms = np.linalg.norm(block, axis=1, keepdims=True)
    elif p == 1:
        norms = np.abs(block).sum(axis=1, keepdims=True)
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    scale = np.where(norms > max_norm, max_norm / np.maximum(norms, 1e-12), 1.0)
    block *= scale


class EmbeddingTable:
    """Row-table contract of shape ``(n_rows, embedding_dim)``.

    A duck-typed base rather than a strict ABC: implementors expose
    ``n_rows`` and ``embedding_dim`` as either attributes or properties
    (``Embedding`` keeps its historical ``embedding_dim`` instance attribute)
    and override the four access primitives below.
    """

    @property
    def n_rows(self) -> int:
        """Number of rows in the table."""
        raise NotImplementedError(f"{type(self).__name__} must define n_rows")

    @property
    def n_partitions(self) -> int:
        """Number of independently loadable buckets (dense tables: 1)."""
        return 1

    def row_ranges(self) -> List[Tuple[int, int]]:
        """``(lo, hi)`` row range of each partition, in order (dense: one)."""
        return [(0, self.n_rows)]

    def read_rows(self, indices: np.ndarray) -> np.ndarray:
        """Copy of the rows at ``indices`` (shape ``(k, d)``)."""
        raise NotImplementedError(f"{type(self).__name__} must define read_rows")

    def exact_rows(self, indices: np.ndarray) -> np.ndarray:
        """Float64 copy of the rows at ``indices`` that leaves residency alone
        (ANN probes and exact rescoring read through it); dense: :meth:`read_rows`."""
        return self.read_rows(indices)

    def iter_blocks(self, block_rows: int = DEFAULT_BLOCK_ROWS
                    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, block)`` pairs covering every row in order.

        Blocks are read-only snapshots (or read-only views for in-memory
        tables); at most one block is materialised at a time, which is the
        memory bound the blocked scoring and normalisation paths rely on.
        """
        raise NotImplementedError(f"{type(self).__name__} must define iter_blocks")

    def write_rows(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Overwrite the rows at ``indices`` with ``values``."""
        raise NotImplementedError(f"{type(self).__name__} must define write_rows")

    @property
    def quantized(self) -> Optional[str]:
        """Quantization mode the rows are served from (dense tables: ``None``)."""
        return None

    def as_array(self) -> Optional[np.ndarray]:
        """The whole table as one in-memory array view; ``None`` when paged."""
        return None

    def apply_rows_(self, fn: Callable[[np.ndarray], None],
                    block_rows: Optional[int] = None) -> None:
        """Run the in-place ``fn(block)`` over every row, block by block.

        ``fn`` must act row by row (or element by element), so the result is
        bit-identical to applying it to the whole matrix at once.
        ``block_rows`` defaults to the element-bounded :func:`block_rows_for`
        size, so ``fn``'s temporaries stay a few MB however wide the rows are.
        """
        raise NotImplementedError(f"{type(self).__name__} must define apply_rows_")

    def renormalize_(self, max_norm: float = 1.0, p: int = 2,
                     block_rows: Optional[int] = None) -> None:
        """Block-wise L_p row projection (bounded memory, exact per row)."""
        self.apply_rows_(lambda block: renormalize_block_(block, max_norm, p),
                         block_rows)

    def to_matrix(self) -> np.ndarray:
        """Densify the whole table (debugging / small-scale use only)."""
        out = np.empty((self.n_rows, self.embedding_dim), dtype=np.float64)
        for start, block in self.iter_blocks():
            out[start:start + block.shape[0]] = block
        return out


class DenseSliceTable(EmbeddingTable):
    """:class:`EmbeddingTable` view over a slice of an in-memory array.

    Adapts the dense parameters — a whole :class:`~repro.nn.embedding.Embedding`
    weight, or the entity/relation block of a
    :class:`~repro.nn.embedding.StackedEmbedding` — to the table interface.
    ``write_rows`` writes through to the underlying parameter, so in-place
    maintenance (renormalisation) behaves exactly like the direct-array code
    it replaces.
    """

    def __init__(self, array: np.ndarray, start: int = 0,
                 stop: int | None = None) -> None:
        self._array = array
        self._start = int(start)
        self._stop = int(stop) if stop is not None else array.shape[0]
        if not 0 <= self._start <= self._stop <= array.shape[0]:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for {array.shape[0]} rows"
            )

    @property
    def n_rows(self) -> int:
        return self._stop - self._start

    @property
    def embedding_dim(self) -> int:
        return int(self._array.shape[1])

    def read_rows(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        return np.array(self._array[self._start + idx], copy=True)

    def iter_blocks(self, block_rows: int = DEFAULT_BLOCK_ROWS
                    ) -> Iterator[Tuple[int, np.ndarray]]:
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        for start in range(0, self.n_rows, block_rows):
            stop = min(self.n_rows, start + block_rows)
            yield start, self._array[self._start + start:self._start + stop]

    def write_rows(self, indices: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        self._array[self._start + idx] = values

    def as_array(self) -> np.ndarray:
        return self._array[self._start:self._stop]

    def apply_rows_(self, fn: Callable[[np.ndarray], None],
                    block_rows: Optional[int] = None) -> None:
        # Directly in place on the view: no row copies at all.
        if block_rows is None:
            block_rows = block_rows_for(self.embedding_dim)
        for _, block in self.iter_blocks(block_rows):
            fn(block)
