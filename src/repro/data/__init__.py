"""Knowledge-graph data layer.

Provides the dataset container, file/database loaders, synthetic generators
mirroring the paper's seven benchmark datasets, negative samplers, and batch
iterators.  Everything downstream (models, trainer, evaluators, benchmarks)
consumes :class:`KGDataset` and the ``(M, 3)`` integer triple convention
``(head, relation, tail)``.
"""

from repro.data.vocab import Vocabulary
from repro.data.known import KnownTriples
from repro.data.dataset import KGDataset, TripleSplit
from repro.data.loaders import load_csv, load_tsv, load_ttl, load_triples_file
from repro.data.sqlite_store import SQLiteKGStore
from repro.data.synthetic import (
    generate_learnable_kg,
    generate_synthetic_kg,
    make_dataset_like,
)
from repro.data.catalog import PAPER_DATASETS, DatasetSpec, get_dataset_spec
from repro.data.negative_sampling import (
    NegativeSampler,
    UniformNegativeSampler,
    BernoulliNegativeSampler,
    SAMPLER_STRATEGIES,
    make_negative_sampler,
)
from repro.data.batching import TripletBatch, BatchIterator
from repro.data.streaming import (
    InMemoryTripleStore,
    StreamingBatchIterator,
    TripleStore,
)
from repro.data.partition_schedule import PartitionedStreamingIterator

__all__ = [
    "Vocabulary",
    "KnownTriples",
    "KGDataset",
    "TripleSplit",
    "load_csv",
    "load_tsv",
    "load_ttl",
    "load_triples_file",
    "SQLiteKGStore",
    "generate_synthetic_kg",
    "generate_learnable_kg",
    "make_dataset_like",
    "PAPER_DATASETS",
    "DatasetSpec",
    "get_dataset_spec",
    "NegativeSampler",
    "UniformNegativeSampler",
    "BernoulliNegativeSampler",
    "SAMPLER_STRATEGIES",
    "make_negative_sampler",
    "TripletBatch",
    "BatchIterator",
    "StreamingBatchIterator",
    "PartitionedStreamingIterator",
    "InMemoryTripleStore",
    "TripleStore",
]
