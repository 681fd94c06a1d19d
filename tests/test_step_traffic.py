"""The training step moves no bytes it does not need.

Two guards on the step ``Trainer.train_step`` runs: the trajectory is the one
the expression-form optimizers, copying ``accumulate_grad`` and sort-based
incidence builders produced (digests recorded from that commit), and its peak
allocation stays near one table-sized gradient (dense) or a few packed
gradients (row-sparse).
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.data.synthetic import make_dataset_like
from repro.models.transe import SpTransE
from repro.profiling import peak_traced_bytes
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer


def _endless(source):
    while True:
        yield from source


#: sha256 over the entity then relation matrices after 100 ``train_step``
#: calls of ``_trajectory`` below, recorded at the parent of the change that
#: made the step in-place (numpy 2.4, scipy 1.17, x86-64).  The lazy-Adam rows
#: were re-recorded when the row-sparse backward became the CSR kernel: it adds
#: in sequence where ``np.add.reduceat`` did not (~1e-15 per element).
RECORDED = {
    ("adam", False, 1): "54fd1f3cb90d09a0595fa990efd2fff62e845bca1a2de3e84e72893cb2dd8897",
    ("adam", True, 1): "ca6f42d78c21db386717b64f9cc431330258becdcc4e609b25fe26c2dfe2a789",
    ("adam", True, 4): "ca6f42d78c21db386717b64f9cc431330258becdcc4e609b25fe26c2dfe2a789",
    ("adagrad", False, 1): "07bb730a39afd0d59f038b8661068db2d55713f649b7c66e5b4da2b2063402a9",
    ("sgd", False, 1): "49e8520a73c1dc9027cb340e93c193e462f1a1e6296503f4783efeac73efacc3",
}
# The packed gradient is bit-identical to the touched rows of the dense one,
# and SGD and Adagrad leave a row whose gradient is zero unchanged: their
# sparse runs, partitioned or not, reproduce the dense weights.
for _optimizer in ("adagrad", "sgd"):
    for _partitions in (1, 4):
        RECORDED[_optimizer, True, _partitions] = RECORDED[_optimizer, False, 1]


def _trajectory(optimizer: str, sparse_grads: bool, partitions: int) -> str:
    kg = make_dataset_like("FB15K", scale=0.004, rng=0)
    config = TrainingConfig(batch_size=256, optimizer=optimizer, learning_rate=0.01,
                            sparse_grads=sparse_grads, seed=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7, partitions=partitions)
    trainer = Trainer(model, kg, config)
    for batch in itertools.islice(_endless(trainer.batches), 100):
        trainer.train_step(batch)
    digest = hashlib.sha256()
    for matrix in (model.entity_embedding_matrix(), model.relation_embedding_matrix()):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    if partitions > 1:
        model.embeddings.close()
    return digest.hexdigest()


@pytest.mark.parametrize("optimizer,sparse_grads,partitions", sorted(RECORDED))
def test_hundred_steps_reproduce_the_recorded_weights(optimizer, sparse_grads, partitions):
    assert _trajectory(optimizer, sparse_grads, partitions) == RECORDED[
        optimizer, sparse_grads, partitions]


def test_steady_state_step_allocates_about_one_table():
    """Peak traced memory over three warm steps, above the level before them,
    stays under twice the weight table: one gradient from the backward SpMM
    plus block- and batch-sized scratch.  The expression-form Adam alone held
    several table-sized temporaries at once (5.1x here)."""
    kg = make_dataset_like("FB15K", scale=0.02, rng=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 128, rng=0)
    config = TrainingConfig(batch_size=128, optimizer="adam", sparse_grads=False, seed=0)
    trainer = Trainer(model, kg, config)
    batches = _endless(trainer.batches)
    for _ in range(3):
        trainer.train_step(next(batches))
    table_bytes = model.embeddings.weight.nbytes

    def three_steps():
        for _ in range(3):
            trainer.train_step(next(batches))

    peak = peak_traced_bytes(three_steps)
    assert peak <= 2.0 * table_bytes, peak / table_bytes


def test_steady_state_rowsparse_step_allocates_a_few_packed_gradients():
    """The same guard for the row-sparse step: peak traced memory over three
    warm steps stays within four packed gradients (touched rows x d x 8) —
    the gradient itself, the compact forward block and block-sized optimizer
    scratch.  The expression-form lazy Adam held a dozen gradient-sized
    temporaries per step (9.1x here, against 3.4x)."""
    kg = make_dataset_like("FB15K", scale=0.1, rng=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 128, rng=0)
    config = TrainingConfig(batch_size=1024, optimizer="adam", sparse_grads=True, seed=0)
    trainer = Trainer(model, kg, config)
    batches = _endless(trainer.batches)
    for _ in range(3):
        trainer.train_step(next(batches))
    packed = []

    def three_steps():
        for _ in range(3):
            trainer.train_step(next(batches))
            packed.append(model.embeddings.weight.sparse_grad.values.nbytes)

    peak = peak_traced_bytes(three_steps)
    assert peak <= 4.0 * max(packed), peak / max(packed)
