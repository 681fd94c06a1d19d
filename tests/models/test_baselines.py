"""Tests for the dense gather/scatter baselines."""

import numpy as np
import pytest

from repro.baselines import (
    DenseComplEx,
    DenseDistMult,
    DenseTorusE,
    DenseTransD,
    DenseTransE,
    DenseTransH,
    DenseTransR,
)
from repro.registry import models_by_formulation, spec_from_model

DIM = 12

ALL_DENSE = [DenseTransE, DenseTransR, DenseTransH, DenseTorusE, DenseTransD,
             DenseDistMult, DenseComplEx]


def make(cls, kg, **kwargs):
    return cls(kg.n_entities, kg.n_relations, DIM, rng=0, **kwargs)


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", ALL_DENSE)
    def test_scores_shape(self, cls, small_kg, random_triples):
        model = make(cls, small_kg)
        out = model.scores(random_triples)
        assert out.shape == (len(random_triples),)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("cls", ALL_DENSE)
    def test_gradients_reach_every_parameter_touched_by_the_batch(self, cls, small_kg,
                                                                  small_batch):
        model = make(cls, small_kg)
        model.loss(small_batch).backward()
        named = dict(model.named_parameters())
        assert any(p.grad is not None and np.any(p.grad != 0) for p in named.values())

    @pytest.mark.parametrize("cls", ALL_DENSE)
    def test_spec_formulation_is_dense(self, cls, small_kg):
        assert spec_from_model(make(cls, small_kg)).formulation == "dense"

    def test_registry(self):
        assert set(models_by_formulation("dense")) == {
            "transe", "transr", "transh", "toruse", "transd", "distmult", "complex"
        }


class TestDenseTransE:
    def test_residual_is_three_gathers(self, small_kg, random_triples):
        model = make(DenseTransE, small_kg)
        res = model.residuals(random_triples).data
        ent = model.entity_embeddings.weight.data
        rel = model.relation_embeddings.weight.data
        expected = (ent[random_triples[:, 0]] + rel[random_triples[:, 1]]
                    - ent[random_triples[:, 2]])
        np.testing.assert_allclose(res, expected)

    def test_score_all_tails_and_heads(self, small_kg):
        model = make(DenseTransE, small_kg)
        tails = model.score_all_tails(np.array([1]), np.array([0]))
        heads = model.score_all_heads(np.array([0]), np.array([1]))
        assert tails.shape == heads.shape == (1, small_kg.n_entities)

    def test_normalize_parameters(self, small_kg):
        model = make(DenseTransE, small_kg)
        model.entity_embeddings.weight.data *= 10
        model.normalize_parameters()
        assert np.all(np.linalg.norm(model.entity_embeddings.weight.data, axis=1) <= 1 + 1e-9)


class TestDenseTorusE:
    def test_requires_torus_dissimilarity(self, small_kg):
        with pytest.raises(ValueError):
            DenseTorusE(small_kg.n_entities, small_kg.n_relations, DIM, dissimilarity="L2")

    def test_normalize_wraps(self, small_kg):
        model = make(DenseTorusE, small_kg)
        model.entity_embeddings.weight.data += 2.7
        model.normalize_parameters()
        assert model.entity_embeddings.weight.data.max() < 1.0


class TestDenseTransD:
    def test_zero_projection_vectors_reduce_to_transe(self, small_kg, random_triples):
        model = make(DenseTransD, small_kg)
        model.entity_projections.weight.data[...] = 0.0
        model.relation_projections.weight.data[...] = 0.0
        ent = model.entity_embeddings.weight.data
        rel = model.relation_embeddings.weight.data
        expected = np.sqrt(((ent[random_triples[:, 0]] + rel[random_triples[:, 1]]
                             - ent[random_triples[:, 2]]) ** 2).sum(axis=1) + 1e-12)
        np.testing.assert_allclose(model.score_triples(random_triples), expected, rtol=1e-6)

    def test_four_parameter_tables(self, small_kg):
        model = make(DenseTransD, small_kg)
        assert len(list(model.parameters())) == 4


class TestDenseTransR:
    def test_relation_dim_and_projection_shapes(self, small_kg):
        model = DenseTransR(small_kg.n_entities, small_kg.n_relations, DIM,
                            relation_dim=6, rng=0)
        assert model.projections.shape == (small_kg.n_relations, 6, DIM)
        assert model.projection_matrices().shape == (small_kg.n_relations, 6, DIM)

    def test_relation_dim_validation(self, small_kg):
        with pytest.raises(ValueError):
            DenseTransR(small_kg.n_entities, small_kg.n_relations, DIM, relation_dim=-1)


class TestDenseTransH:
    def test_normal_vectors_unit_norm(self, small_kg):
        model = make(DenseTransH, small_kg)
        np.testing.assert_allclose(
            np.linalg.norm(model.normal_vectors(), axis=1), 1.0, rtol=1e-10
        )

    def test_projection_is_idempotent(self, small_kg):
        """Projecting an already-projected entity changes nothing: the residual of
        (h, r, h) with d_r = 0 is exactly zero."""
        model = make(DenseTransH, small_kg)
        model.translations.weight.data[...] = 0.0
        score = model.score_triples(np.array([[3, 1, 3]]))
        assert score[0] < 1e-5


class TestDenseBilinear:
    def test_distmult_symmetry(self, small_kg):
        model = make(DenseDistMult, small_kg)
        np.testing.assert_allclose(
            model.score_triples(np.array([[0, 1, 2]])),
            model.score_triples(np.array([[2, 1, 0]])),
        )

    def test_complex_conjugation_antisymmetry_structure(self, small_kg):
        """Swapping head and tail conjugates the relation product, so scores differ
        unless the relation is real — with a zeroed imaginary relation part the
        score becomes symmetric."""
        model = make(DenseComplEx, small_kg)
        model.relation_imag.weight.data[...] = 0.0
        np.testing.assert_allclose(
            model.score_triples(np.array([[0, 1, 2]])),
            model.score_triples(np.array([[2, 1, 0]])),
            rtol=1e-10,
        )
