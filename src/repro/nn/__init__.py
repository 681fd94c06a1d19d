"""Neural-network building blocks on top of the autograd engine.

Contains the :class:`Module` / :class:`Parameter` abstractions, the dense
:class:`Embedding` (fine-grained gather path used by the baselines), the
:class:`StackedEmbedding` (single ``[entities; relations]`` matrix consumed by
the SpMM path), the out-of-core :class:`PartitionedEmbedding` (entity rows in
paged on-disk buckets), initializers, and the dissimilarity functions shared
by every translational model.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module
from repro.nn.table import DenseSliceTable, EmbeddingTable
from repro.nn.embedding import Embedding, StackedEmbedding
from repro.nn.partitioned import (
    BucketParameter,
    PartitionedEmbedding,
    partitioned_tables,
)
from repro.nn import init
from repro.nn import functional

__all__ = [
    "Parameter",
    "Module",
    "EmbeddingTable",
    "DenseSliceTable",
    "Embedding",
    "StackedEmbedding",
    "PartitionedEmbedding",
    "BucketParameter",
    "partitioned_tables",
    "init",
    "functional",
]
