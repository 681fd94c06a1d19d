"""Tests for the extension models (TransM, TransC, TransA) built on the hrt SpMM."""

import numpy as np
import pytest

from repro.models import SpTransA, SpTransC, SpTransE, SpTransM
from repro.optim import SGD
from repro.registry import models_by_formulation

DIM = 12

EXTENSIONS = [SpTransM, SpTransC, SpTransA]


def make(cls, kg):
    return cls(kg.n_entities, kg.n_relations, DIM, rng=0)


class TestCommon:
    @pytest.mark.parametrize("cls", EXTENSIONS)
    def test_scores_shape_and_nonnegative(self, cls, small_kg, random_triples):
        model = make(cls, small_kg)
        out = model.scores(random_triples)
        assert out.shape == (len(random_triples),)
        assert np.all(out.data >= -1e-9)

    @pytest.mark.parametrize("cls", EXTENSIONS)
    def test_training_step_reduces_loss(self, cls, small_kg, small_batch):
        model = make(cls, small_kg)
        optimizer = SGD(model.parameters(), lr=0.05)
        before = model.loss(small_batch)
        value = before.item()
        before.backward()
        optimizer.step()
        from repro.autograd import no_grad

        with no_grad():
            after = model.loss(small_batch).item()
        assert after <= value + 1e-9

    @pytest.mark.parametrize("cls", EXTENSIONS)
    def test_registered_in_sparse_models(self, cls, small_kg):
        assert cls in models_by_formulation("sparse").values()

    @pytest.mark.parametrize("cls", EXTENSIONS)
    def test_trainable_end_to_end(self, cls, small_kg):
        from repro.training import Trainer, TrainingConfig

        model = make(cls, small_kg)
        result = Trainer(model, small_kg,
                         TrainingConfig(epochs=3, batch_size=128, learning_rate=0.02,
                                        seed=0)).train()
        assert result.final_loss < result.losses[0] + 1e-9


class TestSpTransM:
    def test_initial_weights_reduce_to_transe(self, small_kg, random_triples):
        transm = make(SpTransM, small_kg)
        transe = make(SpTransE, small_kg)
        transe.embeddings.weight.data[...] = transm.embeddings.weight.data
        np.testing.assert_allclose(
            transm.score_triples(random_triples),
            transe.score_triples(random_triples),
            rtol=1e-6,
        )

    def test_relation_weights_scale_scores(self, small_kg):
        model = make(SpTransM, small_kg)
        triples = small_kg.split.train[:8]
        base = model.score_triples(triples)
        # Raise the raw weight of every relation: softplus is monotone, so all
        # scores must increase proportionally per relation.
        model.relation_weights.data += 2.0
        boosted = model.score_triples(triples)
        assert np.all(boosted > base)

    def test_relation_weights_learnable(self, small_kg, small_batch):
        model = make(SpTransM, small_kg)
        model.loss(small_batch).backward()
        assert model.relation_weights.grad is not None
        assert np.any(model.relation_weights.grad != 0)

    def test_weight_values_positive(self, small_kg):
        model = make(SpTransM, small_kg)
        model.relation_weights.data[...] = -10.0
        assert np.all(model.relation_weight_values() > 0)


class TestSpTransC:
    def test_score_is_squared_transe_distance(self, small_kg, random_triples):
        transc = make(SpTransC, small_kg)
        transe = make(SpTransE, small_kg)
        transe.embeddings.weight.data[...] = transc.embeddings.weight.data
        np.testing.assert_allclose(
            transc.score_triples(random_triples),
            transe.score_triples(random_triples) ** 2,
            rtol=1e-6,
        )

    def test_score_all_tails_uses_squared_metric(self, small_kg):
        model = make(SpTransC, small_kg)
        scores = model.score_all_tails(np.array([0]), np.array([1]))
        triples = np.column_stack([
            np.zeros(small_kg.n_entities, dtype=int),
            np.ones(small_kg.n_entities, dtype=int),
            np.arange(small_kg.n_entities),
        ])
        np.testing.assert_allclose(scores[0], model.score_triples(triples), rtol=1e-8)


class TestSpTransA:
    def test_identity_metric_reduces_to_squared_l2(self, small_kg, random_triples):
        transa = make(SpTransA, small_kg)
        transe = make(SpTransE, small_kg)
        transe.embeddings.weight.data[...] = transa.embeddings.weight.data
        np.testing.assert_allclose(
            transa.score_triples(random_triples),
            transe.score_triples(random_triples) ** 2,
            rtol=1e-6,
        )

    def test_metric_matrices_are_symmetric_psd(self, small_kg, small_batch):
        model = make(SpTransA, small_kg)
        # Perturb the factors, then check W_r = M_r M_r^T stays symmetric PSD.
        model.metric_factors.data += 0.1 * np.random.default_rng(0).standard_normal(
            model.metric_factors.shape
        )
        metrics = model.metric_matrices()
        np.testing.assert_allclose(metrics, np.swapaxes(metrics, 1, 2), atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(metrics)
        assert eigenvalues.min() >= -1e-9

    def test_metric_gradients_flow(self, small_kg, small_batch):
        model = make(SpTransA, small_kg)
        model.loss(small_batch).backward()
        assert model.metric_factors.grad is not None
        assert np.any(model.metric_factors.grad != 0)
