"""Sparse-vs-dense equivalence tests.

The paper's central correctness claim (Section 6.2.5): the sparse formulation
"does not change the computational steps and thus does not affect the model
accuracy".  These tests verify the strongest form of that claim on our
implementations — given identical parameters, the sparse and dense models
produce identical scores, identical losses, and identical parameter gradients.
"""

import numpy as np
import pytest

from repro.baselines import (
    DenseComplEx,
    DenseDistMult,
    DenseTorusE,
    DenseTransE,
    DenseTransH,
    DenseTransR,
)
from repro.data import TripletBatch, UniformNegativeSampler
from repro.models import (
    SpComplEx,
    SpDistMult,
    SpTorusE,
    SpTransE,
    SpTransH,
    SpTransR,
)

DIM = 12


def _sync_transe_like(sparse, dense):
    """Copy the dense model's tables into the sparse stacked matrix."""
    sparse.embeddings.load_pretrained(
        entity_matrix=dense.entity_embeddings.weight.data,
        relation_matrix=dense.relation_embeddings.weight.data,
    )


def _sync_transr(sparse, dense):
    sparse.entity_embeddings.weight.data[...] = dense.entity_embeddings.weight.data
    sparse.relation_embeddings.weight.data[...] = dense.relation_embeddings.weight.data
    sparse.projections.data[...] = dense.projections.data


def _sync_transh(sparse, dense):
    sparse.entity_embeddings.weight.data[...] = dense.entity_embeddings.weight.data
    sparse.translations.weight.data[...] = dense.translations.weight.data
    sparse.normals.weight.data[...] = dense.normals.weight.data


def _sync_distmult(sparse, dense):
    sparse.embeddings.load_pretrained(
        entity_matrix=dense.entity_embeddings.weight.data,
        relation_matrix=dense.relation_embeddings.weight.data,
    )


def _sync_complex(sparse, dense):
    sparse.real.load_pretrained(dense.entity_real.weight.data,
                                dense.relation_real.weight.data)
    sparse.imag.load_pretrained(dense.entity_imag.weight.data,
                                dense.relation_imag.weight.data)


PAIRS = [
    (SpTransE, DenseTransE, _sync_transe_like, {}),
    (SpTorusE, DenseTorusE, _sync_transe_like, {}),
    (SpTransR, DenseTransR, _sync_transr, {"relation_dim": 8}),
    (SpTransH, DenseTransH, _sync_transh, {}),
    (SpDistMult, DenseDistMult, _sync_distmult, {}),
    (SpComplEx, DenseComplEx, _sync_complex, {}),
]


def build_pair(sparse_cls, dense_cls, sync, kwargs, kg):
    dense = dense_cls(kg.n_entities, kg.n_relations, DIM, rng=1, **kwargs)
    sparse = sparse_cls(kg.n_entities, kg.n_relations, DIM, rng=2, **kwargs)
    sync(sparse, dense)
    return sparse, dense


@pytest.mark.parametrize("sparse_cls,dense_cls,sync,kwargs", PAIRS)
class TestScoreEquivalence:
    def test_identical_scores(self, sparse_cls, dense_cls, sync, kwargs,
                              small_kg, random_triples):
        sparse, dense = build_pair(sparse_cls, dense_cls, sync, kwargs, small_kg)
        np.testing.assert_allclose(
            sparse.score_triples(random_triples),
            dense.score_triples(random_triples),
            rtol=1e-8, atol=1e-10,
        )

    def test_identical_losses(self, sparse_cls, dense_cls, sync, kwargs,
                              small_kg, small_batch):
        sparse, dense = build_pair(sparse_cls, dense_cls, sync, kwargs, small_kg)
        np.testing.assert_allclose(
            sparse.loss(small_batch).item(),
            dense.loss(small_batch).item(),
            rtol=1e-8,
        )


class TestGradientEquivalence:
    def test_transe_entity_gradients_match(self, small_kg, small_batch):
        sparse, dense = build_pair(SpTransE, DenseTransE, _sync_transe_like, {}, small_kg)
        sparse.loss(small_batch).backward()
        dense.loss(small_batch).backward()

        n = small_kg.n_entities
        sparse_grad = sparse.embeddings.weight.grad
        np.testing.assert_allclose(
            sparse_grad[:n], dense.entity_embeddings.weight.grad, rtol=1e-7, atol=1e-10
        )
        np.testing.assert_allclose(
            sparse_grad[n:], dense.relation_embeddings.weight.grad, rtol=1e-7, atol=1e-10
        )

    def test_transh_gradients_match(self, small_kg, small_batch):
        sparse, dense = build_pair(SpTransH, DenseTransH, _sync_transh, {}, small_kg)
        sparse.loss(small_batch).backward()
        dense.loss(small_batch).backward()
        np.testing.assert_allclose(
            sparse.entity_embeddings.weight.grad, dense.entity_embeddings.weight.grad,
            rtol=1e-7, atol=1e-10,
        )
        np.testing.assert_allclose(
            sparse.translations.weight.grad, dense.translations.weight.grad,
            rtol=1e-7, atol=1e-10,
        )
        np.testing.assert_allclose(
            sparse.normals.weight.grad, dense.normals.weight.grad,
            rtol=1e-7, atol=1e-10,
        )

    def test_distmult_gradients_match(self, small_kg, small_batch):
        sparse, dense = build_pair(SpDistMult, DenseDistMult, _sync_distmult, {}, small_kg)
        sparse.loss(small_batch).backward()
        dense.loss(small_batch).backward()
        n = small_kg.n_entities
        np.testing.assert_allclose(
            sparse.embeddings.weight.grad[:n], dense.entity_embeddings.weight.grad,
            rtol=1e-7, atol=1e-10,
        )


class TestTrainingTrajectoryEquivalence:
    def test_transe_sgd_trajectories_match(self, small_kg):
        """With identical init, batches, and optimiser, sparse and dense TransE
        follow the same parameter trajectory (the paper's accuracy-parity claim)."""
        from repro.optim import SGD

        sparse, dense = build_pair(SpTransE, DenseTransE, _sync_transe_like, {}, small_kg)
        sampler = UniformNegativeSampler(small_kg.n_entities, rng=9)
        positives = small_kg.split.train[:128]
        batch = TripletBatch(positives=positives, negatives=sampler.corrupt(positives))

        opt_sparse = SGD(sparse.parameters(), lr=0.05)
        opt_dense = SGD(dense.parameters(), lr=0.05)
        for _ in range(5):
            sparse.zero_grad()
            sparse.loss(batch).backward()
            opt_sparse.step()
            dense.zero_grad()
            dense.loss(batch).backward()
            opt_dense.step()

        n = small_kg.n_entities
        np.testing.assert_allclose(
            sparse.embeddings.weight.data[:n], dense.entity_embeddings.weight.data,
            rtol=1e-6, atol=1e-9,
        )
        np.testing.assert_allclose(
            sparse.embeddings.weight.data[n:], dense.relation_embeddings.weight.data,
            rtol=1e-6, atol=1e-9,
        )

    def test_transr_losses_track_each_other_during_training(self, small_kg):
        from repro.optim import Adam

        sparse, dense = build_pair(SpTransR, DenseTransR, _sync_transr,
                                   {"relation_dim": 8}, small_kg)
        sampler = UniformNegativeSampler(small_kg.n_entities, rng=5)
        positives = small_kg.split.train[:128]
        batch = TripletBatch(positives=positives, negatives=sampler.corrupt(positives))
        opt_s, opt_d = Adam(sparse.parameters(), lr=0.01), Adam(dense.parameters(), lr=0.01)
        for _ in range(3):
            sparse.zero_grad()
            ls = sparse.loss(batch)
            ls.backward()
            opt_s.step()
            dense.zero_grad()
            ld = dense.loss(batch)
            ld.backward()
            opt_d.step()
            np.testing.assert_allclose(ls.item(), ld.item(), rtol=1e-6)
