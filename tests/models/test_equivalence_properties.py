"""Property-based sparse-vs-dense equivalence over random graph shapes.

Hypothesis drives the vocabulary sizes, embedding width, and triple batches;
for every draw the SpMM formulation and the gather/scatter formulation must
produce identical scores once their parameters are synchronised.  This is the
randomized generalisation of the fixed-seed equivalence tests.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import DenseTorusE, DenseTransE
from repro.models import SpTorusE, SpTransE
from repro.sparse import build_hrt_incidence


@st.composite
def kg_shapes(draw):
    n_entities = draw(st.integers(min_value=4, max_value=60))
    n_relations = draw(st.integers(min_value=1, max_value=8))
    dim = draw(st.integers(min_value=1, max_value=16))
    n_triples = draw(st.integers(min_value=1, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return n_entities, n_relations, dim, n_triples, seed


def _random_triples(rng, n_entities, n_relations, n_triples):
    return np.column_stack([
        rng.integers(0, n_entities, n_triples),
        rng.integers(0, n_relations, n_triples),
        rng.integers(0, n_entities, n_triples),
    ])


class TestRandomizedEquivalence:
    @given(kg_shapes())
    @settings(max_examples=25, deadline=None)
    def test_transe_scores_match_for_any_shape(self, shape):
        n_entities, n_relations, dim, n_triples, seed = shape
        rng = np.random.default_rng(seed)
        triples = _random_triples(rng, n_entities, n_relations, n_triples)
        dense = DenseTransE(n_entities, n_relations, dim, rng=seed)
        sparse = SpTransE(n_entities, n_relations, dim, rng=seed + 1)
        sparse.embeddings.load_pretrained(dense.entity_embeddings.weight.data,
                                          dense.relation_embeddings.weight.data)
        np.testing.assert_allclose(sparse.score_triples(triples),
                                   dense.score_triples(triples),
                                   rtol=1e-8, atol=1e-10)

    @given(kg_shapes())
    @settings(max_examples=15, deadline=None)
    def test_toruse_scores_match_for_any_shape(self, shape):
        n_entities, n_relations, dim, n_triples, seed = shape
        rng = np.random.default_rng(seed)
        triples = _random_triples(rng, n_entities, n_relations, n_triples)
        dense = DenseTorusE(n_entities, n_relations, dim, rng=seed)
        sparse = SpTorusE(n_entities, n_relations, dim, rng=seed + 1)
        sparse.embeddings.load_pretrained(dense.entity_embeddings.weight.data,
                                          dense.relation_embeddings.weight.data)
        np.testing.assert_allclose(sparse.score_triples(triples),
                                   dense.score_triples(triples),
                                   rtol=1e-8, atol=1e-10)

    @given(kg_shapes())
    @settings(max_examples=20, deadline=None)
    def test_transe_gradients_match_for_any_shape(self, shape):
        n_entities, n_relations, dim, n_triples, seed = shape
        rng = np.random.default_rng(seed)
        triples = _random_triples(rng, n_entities, n_relations, n_triples)
        dense = DenseTransE(n_entities, n_relations, dim, rng=seed)
        sparse = SpTransE(n_entities, n_relations, dim, rng=seed + 1)
        sparse.embeddings.load_pretrained(dense.entity_embeddings.weight.data,
                                          dense.relation_embeddings.weight.data)

        sparse.scores(triples).sum().backward()
        dense.scores(triples).sum().backward()
        stacked_grad = sparse.embeddings.weight.grad
        np.testing.assert_allclose(stacked_grad[:n_entities],
                                   dense.entity_embeddings.weight.grad,
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(stacked_grad[n_entities:],
                                   dense.relation_embeddings.weight.grad,
                                   rtol=1e-7, atol=1e-9)

    @given(kg_shapes())
    @settings(max_examples=25, deadline=None)
    def test_hrt_incidence_matches_gather_expression_for_any_shape(self, shape):
        n_entities, n_relations, dim, n_triples, seed = shape
        rng = np.random.default_rng(seed)
        triples = _random_triples(rng, n_entities, n_relations, n_triples)
        E = rng.standard_normal((n_entities + n_relations, dim))
        A = build_hrt_incidence(triples, n_entities, n_relations)
        expected = (E[triples[:, 0]] + E[n_entities + triples[:, 1]] - E[triples[:, 2]])
        np.testing.assert_allclose(A.to_scipy() @ E, expected, rtol=1e-10, atol=1e-12)
