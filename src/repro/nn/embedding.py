"""Embedding containers for both computational paths.

* :class:`Embedding` — the conventional lookup table: forward gathers rows,
  backward scatter-adds gradients.  This is what TorchKGE / PyG / DGL-KE do
  and is therefore the layer our dense baselines are built on.
* :class:`StackedEmbedding` — one ``(N + R) × d`` matrix holding entity rows
  followed by relation rows, consumed whole by the SpMM of the sparse path
  (paper Section 4.2.2).  Views over the entity / relation blocks are exposed
  for evaluation and for models that still need per-relation parameters.
  With ``R = 0`` it is the entity-only table the ``ht`` models multiply.

Tables too large for memory are the bucketed
:class:`~repro.nn.partitioned.PartitionedEmbedding`; both SpMM tables answer
the same :meth:`~StackedEmbedding.spmm` lookup.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.nn.table import DEFAULT_BLOCK_ROWS, DenseSliceTable, EmbeddingTable
from repro.sparse.incidence import IncidenceBuilder
from repro.sparse.spmm import spmm
from repro.utils.seeding import new_rng


class Embedding(Module, EmbeddingTable):
    """Dense lookup-table embedding (the fine-grained gather/scatter path).

    Parameters
    ----------
    num_embeddings:
        Number of rows (entities or relations).
    embedding_dim:
        Embedding width ``d``.
    rng:
        Seed or generator for the Xavier-uniform initialisation.
    sparse_grad:
        Emit row-sparse gradients from the lookup backward instead of a dense
        full-table scatter (see ``repro.sparse.rowsparse``).  Toggled by
        ``KGEModel.set_sparse_grads``.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None,
                 sparse_grad: bool = False) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"num_embeddings and embedding_dim must be positive, got "
                f"{num_embeddings} and {embedding_dim}"
            )
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        self.sparse_grad = bool(sparse_grad)
        weight = Parameter(np.empty((num_embeddings, embedding_dim),
                                    dtype=np.float64), name="weight")
        init.xavier_uniform_(weight, rng=new_rng(rng))
        self.weight = weight

    def forward(self, indices: np.ndarray) -> Tensor:
        """Gather the rows at ``indices`` (shape ``(B,) -> (B, d)``)."""
        return gather_rows(self.weight, np.asarray(indices, dtype=np.int64),
                           sparse_grad=self.sparse_grad)

    # ------------------------------------------------------------------ #
    # EmbeddingTable interface
    # ------------------------------------------------------------------ #
    def _table(self) -> DenseSliceTable:
        return DenseSliceTable(self.weight.data)

    @property
    def n_rows(self) -> int:
        return self.num_embeddings

    def read_rows(self, indices: np.ndarray) -> np.ndarray:
        return self._table().read_rows(indices)

    def iter_blocks(self, block_rows: int = DEFAULT_BLOCK_ROWS
                    ) -> Iterator[Tuple[int, np.ndarray]]:
        return self._table().iter_blocks(block_rows)

    def write_rows(self, indices: np.ndarray, values: np.ndarray) -> None:
        self._table().write_rows(indices, values)

    def as_array(self) -> np.ndarray:
        return self.weight.data

    def apply_rows_(self, fn: Callable[[np.ndarray], None],
                    block_rows: Optional[int] = None) -> None:
        self._table().apply_rows_(fn, block_rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class StackedEmbedding(Module):
    """Single ``(N + R) × d`` matrix: entity rows first, relation rows after.

    The sparse models multiply the whole matrix by the ``hrt`` incidence
    matrix, so entities and relations must live in one contiguous parameter.
    ``ht``-based models (TransR, TransH) multiply an entity-only table
    (``n_relations=0``) and keep their relation parameters apart.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes (``n_relations`` may be ``0``).
    embedding_dim:
        Shared embedding width ``d``.
    rng:
        Seed or generator for initialisation.
    sparse_grad:
        Emit row-sparse gradients from the gather helpers (the SpMM itself is
        controlled by the ``sparse_grad`` argument of ``repro.sparse.spmm``).
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None,
                 sparse_grad: bool = False) -> None:
        super().__init__()
        if n_entities <= 0 or n_relations < 0 or embedding_dim <= 0:
            raise ValueError("n_entities and embedding_dim must be positive and "
                             "n_relations non-negative")
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.embedding_dim = int(embedding_dim)
        self.sparse_grad = bool(sparse_grad)
        weight = Parameter(np.empty((n_entities + n_relations, embedding_dim),
                                    dtype=np.float64), name="stacked")
        init.xavier_uniform_(weight, rng=new_rng(rng))
        self.weight = weight

    @property
    def num_rows(self) -> int:
        return self.n_entities + self.n_relations

    def entity_embeddings(self) -> np.ndarray:
        """Read-only view of the entity block ``(N, d)``."""
        return self.weight.data[: self.n_entities]

    def relation_embeddings(self) -> np.ndarray:
        """Read-only view of the relation block ``(R, d)``."""
        return self.weight.data[self.n_entities:]

    def forward(self) -> Tensor:
        """Return the full stacked parameter (fed directly to ``spmm``)."""
        return self.weight

    def spmm(self, triples: np.ndarray, builder: IncidenceBuilder,
             backend: str) -> Tensor:
        """The batch's lookup: ``A @ weight`` for its incidence ``A``.

        ``A`` is the ``hrt`` incidence when the table holds relation rows and
        the ``ht`` one when it is entity-only.

        One full-matrix SpMM; see
        :meth:`~repro.nn.partitioned.PartitionedEmbedding.spmm` for the paged
        table's compacted form, which returns the same floats.  The row-sparse
        backward takes ``A`` and transposes it itself, so ``A^T`` is built
        only for the dense one.
        """
        build = builder.hrt if self.n_relations else builder.ht
        if self.sparse_grad:
            A, A_t = build(triples), None
        else:
            A, A_t = build(triples, with_transpose=True)
        return spmm(A, self.weight, backend=backend, A_t=A_t,
                    sparse_grad=self.sparse_grad)

    def gather_entities(self, indices: np.ndarray) -> Tensor:
        """Differentiable gather from the entity block."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.max() >= self.n_entities:
            raise IndexError("entity index out of range")
        return gather_rows(self.weight, idx, sparse_grad=self.sparse_grad)

    def gather_relations(self, indices: np.ndarray) -> Tensor:
        """Differentiable gather from the relation block."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.max() >= self.n_relations:
            raise IndexError("relation index out of range")
        return gather_rows(self.weight, idx + self.n_entities,
                           sparse_grad=self.sparse_grad)

    def entity_table(self) -> DenseSliceTable:
        """:class:`~repro.nn.table.EmbeddingTable` view of the entity block."""
        return DenseSliceTable(self.weight.data, 0, self.n_entities)

    def relation_table(self) -> DenseSliceTable:
        """:class:`~repro.nn.table.EmbeddingTable` view of the relation block."""
        return DenseSliceTable(self.weight.data, self.n_entities, self.num_rows)

    def load_pretrained(self, entity_matrix: Optional[np.ndarray] = None,
                        relation_matrix: Optional[np.ndarray] = None) -> None:
        """Overwrite blocks with pre-trained vectors (e.g. LLM embeddings)."""
        if entity_matrix is not None:
            ent = np.asarray(entity_matrix, dtype=np.float64)
            if ent.shape != (self.n_entities, self.embedding_dim):
                raise ValueError(
                    f"entity matrix must have shape {(self.n_entities, self.embedding_dim)}, "
                    f"got {ent.shape}"
                )
            self.weight.data[: self.n_entities] = ent
        if relation_matrix is not None:
            rel = np.asarray(relation_matrix, dtype=np.float64)
            if rel.shape != (self.n_relations, self.embedding_dim):
                raise ValueError(
                    f"relation matrix must have shape {(self.n_relations, self.embedding_dim)}, "
                    f"got {rel.shape}"
                )
            self.weight.data[self.n_entities:] = rel

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StackedEmbedding(entities={self.n_entities}, "
                f"relations={self.n_relations}, dim={self.embedding_dim})")
