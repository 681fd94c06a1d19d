"""Streaming embeddings from disk for tables too large for main memory.

Run with::

    python examples/streaming_embeddings.py

The paper's framework can initialise KG training from pre-trained LLM
embeddings that do not fit in CPU memory, streaming in only the rows each
batch touches.  This example runs that workflow on the repo's out-of-core
entity table:

1. build an ``SpTransE`` whose entity table is split into ``PARTITIONS``
   on-disk buckets (``partitions=``/``partition_dir=``), at most two of which
   are resident at a time;
2. overwrite part of it with "pre-trained" vectors (standing in for
   BERT/T5/GPT embeddings) through ``model.embeddings.write_rows``;
3. train it with the ordinary ``Trainer`` and row-sparse gradients: each
   batch faults in the buckets it touches, the optimiser updates only the
   touched rows, and dirty buckets are written back when they are evicted;
4. report the loss curve and how many buckets were ever resident at once.
"""

import tempfile

import numpy as np

from repro.data import make_dataset_like
from repro.models import SpTransE
from repro.training import Trainer, TrainingConfig

DIM = 64
PARTITIONS = 4
EPOCHS = 5


def main() -> None:
    kg = make_dataset_like("WN18RR", scale=0.01, rng=0)
    print(f"dataset: {kg}")
    with tempfile.TemporaryDirectory() as partition_dir:
        model = SpTransE(kg.n_entities, kg.n_relations, DIM, rng=0,
                         partitions=PARTITIONS, partition_dir=partition_dir)
        table = model.embeddings
        print(f"disk-backed entity table: {kg.n_entities} rows x {DIM} dims in "
              f"{PARTITIONS} buckets ({kg.n_entities * DIM * 8 / 1e6:.1f} MB "
              f"on disk at {partition_dir}), at most {table.max_resident} "
              "resident")

        # Stand-in for loading pre-trained LLM entity embeddings from disk.
        pretrained_rows = np.arange(min(100, kg.n_entities))
        table.write_rows(pretrained_rows, np.random.default_rng(1).normal(
            0.0, 0.1, size=(len(pretrained_rows), DIM)))

        config = TrainingConfig(epochs=EPOCHS, batch_size=1024,
                                learning_rate=0.01, sparse_grads=True, seed=0)
        result = Trainer(model, kg, config).train()
        for epoch, loss in enumerate(result.losses):
            print(f"epoch {epoch}: loss {loss:.4f}")

        stats = table.stats()
        print(f"peak resident buckets: {stats['peak_resident']} of {PARTITIONS} "
              f"({stats['faults']} faults, {stats['writebacks']} write-backs)")
        assert stats["peak_resident"] <= table.max_resident
        assert result.losses[-1] < result.losses[0]
        table.close()


if __name__ == "__main__":
    main()
