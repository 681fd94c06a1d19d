"""Tests for the SpTransX model family."""

import json

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.data import TripletBatch, UniformNegativeSampler
from repro.losses import MarginRankingLoss
from repro.models import (
    SpComplEx,
    SpDistMult,
    SpRotatE,
    SpTorusE,
    SpTransE,
    SpTransH,
    SpTransR,
)
from repro.registry import ModelSpec, models_by_formulation, spec_from_model
from repro.sparse import available_backends

DIM = 16

ALL_SPARSE = [SpTransE, SpTransR, SpTransH, SpTorusE, SpDistMult, SpComplEx, SpRotatE]
TRANSLATIONAL = [SpTransE, SpTransR, SpTransH, SpTorusE]


def make(cls, kg, **kwargs):
    return cls(kg.n_entities, kg.n_relations, DIM, rng=0, **kwargs)


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_scores_shape_and_finiteness(self, cls, small_kg, random_triples):
        model = make(cls, small_kg)
        out = model.scores(random_triples)
        assert out.shape == (len(random_triples),)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_loss_is_scalar_and_differentiable(self, cls, small_kg, small_batch):
        model = make(cls, small_kg)
        loss = model.loss(small_batch)
        assert loss.size == 1
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "no gradients reached any parameter"
        assert any(np.any(g != 0) for g in grads)

    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_one_sgd_step_reduces_batch_loss(self, cls, small_kg, small_batch):
        from repro.optim import SGD

        model = make(cls, small_kg)
        optimizer = SGD(model.parameters(), lr=0.05)
        before = model.loss(small_batch)
        before_value = before.item()
        before.backward()
        optimizer.step()
        with no_grad():
            after_value = model.loss(small_batch).item()
        assert after_value <= before_value + 1e-9

    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_score_triples_matches_scores(self, cls, small_kg, random_triples):
        model = make(cls, small_kg)
        np.testing.assert_allclose(
            model.score_triples(random_triples),
            model.scores(random_triples).data,
            rtol=1e-10,
        )

    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_spec_is_serializable(self, cls, small_kg):
        spec = spec_from_model(make(cls, small_kg))
        assert spec.n_entities == small_kg.n_entities
        assert spec.formulation == "sparse"
        assert ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("cls", ALL_SPARSE)
    def test_rejects_out_of_range_triples(self, cls, small_kg):
        model = make(cls, small_kg)
        bad = np.array([[small_kg.n_entities, 0, 0]])
        with pytest.raises((ValueError, IndexError)):
            model.scores(bad)

    @pytest.mark.parametrize("cls", TRANSLATIONAL)
    def test_embedding_matrices_have_expected_shapes(self, cls, small_kg):
        model = make(cls, small_kg)
        assert model.entity_embedding_matrix().shape == (small_kg.n_entities, DIM)
        assert model.relation_embedding_matrix().shape[0] == small_kg.n_relations

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SpTransE(0, 3, 8)
        with pytest.raises(ValueError):
            SpTransE(3, 0, 8)
        with pytest.raises(ValueError):
            SpTransE(3, 3, 0)

    def test_registry_contains_all_models(self):
        assert set(models_by_formulation("sparse")) == {
            "transe", "transr", "transh", "toruse",
            "transm", "transc", "transa",
            "distmult", "complex", "rotate",
        }


class TestSpTransE:
    def test_residual_matches_manual_expression(self, small_kg, random_triples):
        model = make(SpTransE, small_kg)
        res = model.residuals(random_triples).data
        ent = model.embeddings.entity_embeddings()
        rel = model.embeddings.relation_embeddings()
        expected = (ent[random_triples[:, 0]] + rel[random_triples[:, 1]]
                    - ent[random_triples[:, 2]])
        np.testing.assert_allclose(res, expected, rtol=1e-10)

    def test_perfect_triple_scores_zero(self, small_kg):
        model = make(SpTransE, small_kg)
        ent = model.embeddings.weight.data
        # Force h + r = t for triple (0, 0, 1).
        ent[1] = ent[0] + ent[small_kg.n_entities + 0]
        score = model.score_triples(np.array([[0, 0, 1]]))
        assert score[0] < 1e-5

    def test_score_all_tails_matches_triple_scoring(self, small_kg):
        model = make(SpTransE, small_kg)
        heads = np.array([0, 3])
        rels = np.array([1, 2])
        full = model.score_all_tails(heads, rels)
        assert full.shape == (2, small_kg.n_entities)
        for i in range(2):
            triples = np.column_stack([
                np.full(small_kg.n_entities, heads[i]),
                np.full(small_kg.n_entities, rels[i]),
                np.arange(small_kg.n_entities),
            ])
            np.testing.assert_allclose(full[i], model.score_triples(triples), rtol=1e-8)

    def test_score_all_heads_matches_triple_scoring(self, small_kg):
        model = make(SpTransE, small_kg)
        rels = np.array([0])
        tails = np.array([5])
        full = model.score_all_heads(rels, tails)
        triples = np.column_stack([
            np.arange(small_kg.n_entities),
            np.zeros(small_kg.n_entities, dtype=int),
            np.full(small_kg.n_entities, 5),
        ])
        np.testing.assert_allclose(full[0], model.score_triples(triples), rtol=1e-8)

    def test_normalize_parameters_constrains_entities(self, small_kg):
        model = make(SpTransE, small_kg)
        model.embeddings.weight.data *= 10
        model.normalize_parameters()
        norms = np.linalg.norm(model.embeddings.entity_embeddings(), axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_l1_dissimilarity_option(self, small_kg, random_triples):
        model = SpTransE(small_kg.n_entities, small_kg.n_relations, DIM,
                         dissimilarity="L1", rng=0)
        scores = model.score_triples(random_triples)
        assert np.all(scores >= 0)

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_backends_agree(self, backend, small_kg, random_triples):
        reference = SpTransE(small_kg.n_entities, small_kg.n_relations, DIM,
                             backend="scipy", rng=0)
        other = SpTransE(small_kg.n_entities, small_kg.n_relations, DIM,
                         backend=backend, rng=0)
        np.testing.assert_allclose(
            reference.score_triples(random_triples),
            other.score_triples(random_triples),
            rtol=1e-10,
        )

    def test_predict_tails_prefers_constructed_answer(self, small_kg):
        model = make(SpTransE, small_kg)
        ent = model.embeddings.weight.data
        ent[7] = ent[2] + ent[small_kg.n_entities + 1]
        top = model.predict_tails(head=2, relation=1, k=3)
        assert 7 in top


class TestSpTorusE:
    def test_requires_torus_dissimilarity(self, small_kg):
        with pytest.raises(ValueError):
            SpTorusE(small_kg.n_entities, small_kg.n_relations, DIM, dissimilarity="L2")

    def test_scores_are_periodic_in_embeddings(self, small_kg, random_triples):
        model = make(SpTorusE, small_kg)
        before = model.score_triples(random_triples)
        model.embeddings.weight.data += 3.0   # integer shift should not matter
        after = model.score_triples(random_triples)
        np.testing.assert_allclose(before, after, rtol=1e-8)

    def test_normalize_wraps_to_unit_interval(self, small_kg):
        model = make(SpTorusE, small_kg)
        model.embeddings.weight.data += 5.4
        model.normalize_parameters()
        assert model.embeddings.weight.data.min() >= 0.0
        assert model.embeddings.weight.data.max() < 1.0

    def test_scores_bounded_by_dimension(self, small_kg, random_triples):
        # Each component contributes at most 0.25 to the squared torus distance.
        model = make(SpTorusE, small_kg)
        scores = model.score_triples(random_triples)
        assert np.all(scores <= 0.25 * DIM + 1e-9)


class TestSpTransR:
    def test_identity_projection_reduces_to_ht_plus_r(self, small_kg, random_triples):
        model = make(SpTransR, small_kg)
        ent = model.entity_embeddings.weight.data
        rel = model.relation_embeddings.weight.data
        expected = np.linalg.norm(
            ent[random_triples[:, 0]] - ent[random_triples[:, 2]]
            + rel[random_triples[:, 1]], axis=1
        )
        np.testing.assert_allclose(model.score_triples(random_triples), expected, rtol=1e-6)

    def test_separate_relation_dimension(self, small_kg, random_triples):
        model = SpTransR(small_kg.n_entities, small_kg.n_relations, DIM,
                         relation_dim=8, rng=0)
        assert model.relation_embeddings.weight.shape == (small_kg.n_relations, 8)
        assert model.projections.shape == (small_kg.n_relations, 8, DIM)
        assert model.scores(random_triples).shape == (len(random_triples),)

    def test_relation_dim_validation(self, small_kg):
        with pytest.raises(ValueError):
            SpTransR(small_kg.n_entities, small_kg.n_relations, DIM, relation_dim=0)

    def test_projection_gradients_flow(self, small_kg, small_batch):
        model = make(SpTransR, small_kg)
        model.loss(small_batch).backward()
        assert model.projections.grad is not None
        assert np.any(model.projections.grad != 0)

    def test_normalize_parameters(self, small_kg):
        model = make(SpTransR, small_kg)
        model.entity_embeddings.weight.data *= 10
        model.relation_embeddings.weight.data *= 10
        model.normalize_parameters()
        assert np.all(np.linalg.norm(model.entity_embeddings.weight.data, axis=1) <= 1 + 1e-9)
        assert np.all(np.linalg.norm(model.relation_embeddings.weight.data, axis=1) <= 1 + 1e-9)


class TestSpTransH:
    def test_projection_removes_normal_component(self, small_kg, random_triples):
        model = make(SpTransH, small_kg)
        residual = model.residuals(random_triples).data
        # Manual recomputation of the paper's rearranged expression.
        ent = model.entity_embeddings.weight.data
        w = model.normal_vectors()[random_triples[:, 1]]
        d = model.translations.weight.data[random_triples[:, 1]]
        ht = ent[random_triples[:, 0]] - ent[random_triples[:, 2]]
        expected = ht + d - (np.sum(w * ht, axis=1, keepdims=True)) * w
        np.testing.assert_allclose(residual, expected, rtol=1e-8)

    def test_residual_orthogonal_to_normal_when_translation_on_hyperplane(self, small_kg):
        model = make(SpTransH, small_kg)
        # Force translations onto their hyperplanes: d_r <- d_r - (w·d_r) w.
        w = model.normal_vectors()
        d = model.translations.weight.data
        model.translations.weight.data[...] = d - (np.sum(w * d, axis=1, keepdims=True)) * w
        triples = small_kg.split.train[:16]
        residual = model.residuals(triples).data
        w_batch = model.normal_vectors()[triples[:, 1]]
        dots = np.abs(np.sum(residual * w_batch, axis=1))
        assert np.all(dots < 1e-8)

    def test_normal_vectors_unit_norm(self, small_kg):
        model = make(SpTransH, small_kg)
        norms = np.linalg.norm(model.normal_vectors(), axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), rtol=1e-10)

    def test_normalize_parameters(self, small_kg):
        model = make(SpTransH, small_kg)
        model.entity_embeddings.weight.data *= 10
        model.normals.weight.data *= 3
        model.normalize_parameters()
        assert np.all(np.linalg.norm(model.entity_embeddings.weight.data, axis=1) <= 1 + 1e-9)
        np.testing.assert_allclose(
            np.linalg.norm(model.normals.weight.data, axis=1), 1.0, rtol=1e-9
        )


class TestSemiringModels:
    def test_distmult_score_matches_manual(self, small_kg, random_triples):
        model = make(SpDistMult, small_kg)
        ent = model.embeddings.entity_embeddings()
        rel = model.embeddings.relation_embeddings()
        expected = -(ent[random_triples[:, 0]] * rel[random_triples[:, 1]]
                     * ent[random_triples[:, 2]]).sum(axis=1)
        np.testing.assert_allclose(model.score_triples(random_triples), expected, rtol=1e-10)

    def test_distmult_symmetric_relation_scores(self, small_kg):
        model = make(SpDistMult, small_kg)
        forward = model.score_triples(np.array([[0, 1, 2]]))
        backward = model.score_triples(np.array([[2, 1, 0]]))
        np.testing.assert_allclose(forward, backward, rtol=1e-10)

    def test_complex_not_symmetric_in_general(self, small_kg):
        model = make(SpComplEx, small_kg)
        forward = model.score_triples(np.array([[0, 1, 2]]))
        backward = model.score_triples(np.array([[2, 1, 0]]))
        assert not np.allclose(forward, backward)

    def test_rotate_zero_phase_identity_rotation(self, small_kg):
        model = make(SpRotatE, small_kg)
        model.relation_phase.data[...] = 0.0
        # With r = 1 + 0i the residual is h − t, so score(h, r, h) = 0... but only
        # when the imaginary part also matches; use identical head and tail.
        score = model.score_triples(np.array([[4, 0, 4]]))
        # Only the sqrt-eps guard keeps this away from exactly zero.
        assert score[0] < 1e-4

    def test_rotate_gradients_reach_phase(self, small_kg, small_batch):
        model = make(SpRotatE, small_kg)
        model.loss(small_batch).backward()
        assert model.relation_phase.grad is not None
        assert np.any(model.relation_phase.grad != 0)

    def test_plausibility_and_scores_are_negatives(self, small_kg, random_triples):
        model = make(SpDistMult, small_kg)
        np.testing.assert_allclose(
            model.scores(random_triples).data,
            -model.plausibility(random_triples).data,
        )
