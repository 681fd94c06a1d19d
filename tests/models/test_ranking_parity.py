"""Every registered model ranks by the score it trains on.

``score_all_tails`` / ``score_all_heads`` may take any closed form they like,
and the serving engine's ANN route may score a query's ``l2_query_vector``
against the exact entity rows, but each must equal the ``score_triples`` grid
of the same queries.  Parameters are perturbed first, so identity metrics and
unit relation weights cannot hide a closed form that ignores them.
"""

import inspect

import numpy as np
import pytest

from repro import ranking
from repro.registry import ModelSpec, build_model, iter_entries

N_ENTITIES, N_RELATIONS, DIM = 40, 5, 8
#: (head or tail, relation) queries; ``(0, 1)`` is TransC's squared-metric check.
ANCHORS = np.array([0, 3, 7, 39])
RELATIONS = np.array([1, 0, 4, 2])


def _inputs():
    for entry in iter_entries():
        yield pytest.param(entry, None, id=f"{entry.name}-{entry.formulation}")
        if "dissimilarity" in inspect.signature(entry.cls).parameters:
            l1 = "torus_L1" if entry.name == "toruse" else "L1"
            yield pytest.param(entry, l1, id=f"{entry.name}-{entry.formulation}-{l1}")


def _perturbed(entry, dissimilarity):
    fields = {} if dissimilarity is None else {"dissimilarity": dissimilarity}
    model = build_model(ModelSpec(model=entry.name, formulation=entry.formulation,
                                  n_entities=N_ENTITIES, n_relations=N_RELATIONS,
                                  embedding_dim=DIM, **fields), rng=0)
    rng = np.random.default_rng(1)
    for param in model.parameters():
        param.data += 0.3 * rng.standard_normal(param.shape)
    return model


def _grid(model, direction):
    """``score_triples`` of every (query, candidate) pair: ``(B, N)``."""
    candidates = np.arange(N_ENTITIES)
    rows = []
    for anchor, relation in zip(ANCHORS, RELATIONS):
        fixed = np.full(N_ENTITIES, anchor)
        heads, tails = (fixed, candidates) if direction == "tail" else (candidates, fixed)
        rows.append(model.score_triples(
            np.column_stack([heads, np.full(N_ENTITIES, relation), tails])))
    return np.stack(rows)


@pytest.mark.parametrize("entry,dissimilarity", list(_inputs()))
def test_ranking_equals_the_triple_scores(entry, dissimilarity):
    model = _perturbed(entry, dissimilarity)
    for direction in ("tail", "head"):
        grid = _grid(model, direction)
        ranked = (model.score_all_tails(ANCHORS, RELATIONS) if direction == "tail"
                  else model.score_all_heads(RELATIONS, ANCHORS))
        np.testing.assert_allclose(ranked, grid, rtol=1e-10, atol=1e-12,
                                   err_msg=f"score_all_{direction}s")
        for i, (anchor, relation) in enumerate(zip(ANCHORS, RELATIONS)):
            query = model.l2_query_vector(int(anchor), int(relation), direction)
            if query is None:
                continue
            exact = ranking.l2_distance_matrix(
                query[None, :], model.exact_entity_rows(np.arange(N_ENTITIES)))[0]
            np.testing.assert_allclose(exact, grid[i], rtol=1e-10, atol=1e-12,
                                       err_msg=f"l2_query_vector ({direction})")


@pytest.mark.parametrize("entry", list(iter_entries()),
                         ids=lambda e: f"{e.name}-{e.formulation}")
@pytest.mark.parametrize("direction", ["tail", "head"])
@pytest.mark.parametrize("anchor,relation", [(-1, 0), (0, -1),
                                             (N_ENTITIES, 0), (0, N_RELATIONS)])
def test_ranking_rejects_ids_outside_the_vocabulary(entry, direction, anchor, relation):
    """A negative id must not wrap around to the table's last rows."""
    model = _perturbed(entry, None)
    anchors, relations = np.array([3, anchor]), np.array([1, relation])
    with pytest.raises(IndexError, match="out of range"):
        if direction == "tail":
            model.score_all_tails(anchors, relations)
        else:
            model.score_all_heads(relations, anchors)
