"""``rank_targets`` against its oracle, ``compute_ranks(score_all_*)``.

The closed form counts filtered ranks tile by tile on squared L2 keys (or on
the model's own dissimilarity) and never builds the ``(B, N)`` block.  On
tables whose every key is exact in fp64 — small integers, or multiples of 1/8
for TorusE, whose distance reads only the fractional part — ties are real
ties, ``sqrt`` merges no two keys, and the ranks must equal the oracle's bit
for bit, whatever the tiling.  On random tables they may differ only where
two oracle scores lie within rounding of each other.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ranking
from repro.baselines import DenseTransE
from repro.evaluation import compute_ranks
from repro.models import SpTorusE, SpTransE, SpTransH, SpTransR

#: name -> (constructor, value scale): parameters are ``integers / scale``.
MODELS = {
    "SpTransE": (lambda n, r, d: SpTransE(n, r, d, rng=0), 1),
    "SpTransE-P3": (lambda n, r, d: SpTransE(n, r, d, rng=0, partitions=3), 1),
    "DenseTransE": (lambda n, r, d: DenseTransE(n, r, d, rng=0), 1),
    "SpTransH": (lambda n, r, d: SpTransH(n, r, d, rng=0), 1),
    "SpTransR": (lambda n, r, d: SpTransR(n, r, d, relation_dim=max(1, d - 1),
                                          rng=0), 1),
    "SpTorusE": (lambda n, r, d: SpTorusE(n, r, d, rng=0), 8),
    "SpTransE-L1": (lambda n, r, d: SpTransE(n, r, d, dissimilarity="L1", rng=0), 1),
}


def _close(model):
    close = getattr(getattr(model, "embeddings", None), "close", None)
    if close is not None:
        close()


def _set_tables(model, entities, rng, scale):
    """Write ``entities`` and integer-valued (``/ scale``) other parameters."""
    for name, param in model.named_parameters():
        if "bucket" not in name:
            param.data[...] = rng.integers(-2, 3, size=param.shape) / scale
    if isinstance(model, SpTransH):
        # Normals 128·e_j: ``w / sqrt(w·w + 1e-12)`` is e_j exactly, so the
        # projection only zeroes one coordinate.
        normals = np.zeros(model.normals.weight.data.shape)
        normals[np.arange(normals.shape[0]),
                rng.integers(0, normals.shape[1], normals.shape[0])] = 128.0
        model.normals.weight.data[...] = normals
    model.entity_table().write_rows(np.arange(model.n_entities), entities)


def _textbook(scores, targets, exclusions):
    """Masked copy of the block, one row at a time: the counter's own oracle."""
    ranks = []
    for row, (line, target) in enumerate(zip(scores.copy(), targets)):
        if exclusions is not None:
            others = np.setdiff1d(exclusions[row], [target])
            line[others] = np.inf
        better = np.count_nonzero(line < line[target])
        ties = np.count_nonzero(line == line[target]) - 1
        ranks.append(better + ties / 2.0 + 1)
    return np.array(ranks)


def _oracle(model, anchors, relations, targets, direction, exclusions):
    """``compute_ranks(score_all_*)``, checked against the textbook count."""
    scores = (model.score_all_tails(anchors, relations) if direction == "tail"
              else model.score_all_heads(relations, anchors))
    ranks = compute_ranks(scores, targets, exclusions)
    np.testing.assert_array_equal(ranks, _textbook(scores, targets, exclusions))
    return ranks


@st.composite
def _cases(draw):
    n = draw(st.integers(6, 24))
    d = draw(st.integers(1, 5))
    b = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "all_equal", "duplicates"]))
    return {
        "n": n, "r": draw(st.integers(1, 3)), "d": d, "b": b, "shape": shape,
        "seed": draw(st.integers(0, 2 ** 16)),
        # Tile width in candidates; targets are drawn on tile boundaries.
        "tile": draw(st.integers(1, n)),
        "filters": draw(st.sampled_from(["none", "empty", "random", "with_target"])),
        "direction": draw(st.sampled_from(["tail", "head"])),
    }


def _build(name, case):
    make, scale = MODELS[name]
    rng = np.random.default_rng(case["seed"])
    model = make(case["n"], case["r"], case["d"])
    n, d = case["n"], case["d"]
    entities = rng.integers(-2, 3, size=(n, d)) / scale
    if case["shape"] == "all_equal":
        entities[:] = entities[0]
    elif case["shape"] == "duplicates":
        entities[rng.integers(0, n, n // 2)] = entities[rng.integers(0, n, n // 2)]
    _set_tables(model, entities, rng, scale)
    b, tile = case["b"], case["tile"]
    anchors = rng.integers(0, n, b)
    relations = rng.integers(0, case["r"], b)
    # Half the targets sit on a tile's first column, half on its last.
    starts = np.arange(0, n, tile)
    edges = np.concatenate([starts, np.minimum(starts + tile, n) - 1])
    targets = rng.choice(edges, b)
    if case["filters"] == "none":
        exclusions = None
    elif case["filters"] == "empty":
        exclusions = [np.empty(0, dtype=np.int64)] * b
    else:
        exclusions = [rng.choice(n, rng.integers(0, n), replace=False) for _ in range(b)]
        if case["filters"] == "with_target":
            exclusions = [np.append(ex, t) for ex, t in zip(exclusions, targets)]
    return model, (anchors, relations, targets, case["direction"], exclusions)


def _tiled(model, tile, b, query):
    """``rank_targets`` with candidate blocks of exactly ``tile`` rows."""
    width = max(model.embedding_dim, getattr(model, "relation_dim", 0))
    with mock.patch.object(ranking, "RANK_TILE_ELEMENTS", tile * b), \
            mock.patch.object(type(model), "RANK_BLOCK_ELEMENTS", tile * b * width):
        return model.rank_targets(*query)


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cases())
def test_exact_tables_rank_as_the_oracle(name, case):
    model, query = _build(name, case)
    try:
        got = _tiled(model, case["tile"], case["b"], query)
        want = _oracle(model, *query)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64
    finally:
        _close(model)


def test_all_equal_table_re_walks_only_the_tied_queries():
    """Every candidate ties: each query is handed to the kept-keys walk."""
    model = SpTransE(30, 2, 4, rng=0)
    model.entity_table().write_rows(np.arange(30), np.ones((30, 4)))
    anchors, relations = np.arange(5), np.zeros(5, dtype=np.int64)
    walks = []
    real = model._walk_keys

    def spy(groups, direction, sink):
        walks.append(sum(queries.shape[0] for _, _, queries in groups))
        return real(groups, direction, sink)

    with mock.patch.object(model, "_walk_keys", spy):
        got = model.rank_targets(anchors, relations, np.arange(5, 10), "tail",
                                 [np.array([0, 1])] * 5)
    assert walks == [5, 5]
    np.testing.assert_array_equal(got, np.full(5, (28 + 1) / 2))


@pytest.mark.parametrize("name", list(MODELS))
def test_random_tables_differ_only_at_rounding_ties(name, record_property):
    """Random fp64 tables: a rank may differ from the oracle's only where
    another candidate's oracle score is within ``1e-9`` (relative) of the
    target's — ``sqrt`` or the rounding of a different expansion can order
    such a pair either way."""
    make, _ = MODELS[name]
    near_ties = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        model = make(300, 4, 16)
        try:
            for param in model.parameters():
                param.data += 0.3 * rng.standard_normal(param.shape)
            for direction in ("tail", "head"):
                anchors, relations = rng.integers(0, 300, 40), rng.integers(0, 4, 40)
                targets = rng.integers(0, 300, 40)
                exclusions = [rng.choice(300, 5, replace=False) for _ in range(40)]
                query = (anchors, relations, targets, direction, exclusions)
                got = model.rank_targets(*query)
                want = _oracle(model, *query)
                scores = (model.score_all_tails(anchors, relations) if direction == "tail"
                          else model.score_all_heads(relations, anchors))
                target = scores[np.arange(40), targets]
                for row in np.flatnonzero(got != want):
                    others = np.delete(scores[row], targets[row])
                    assert np.any(np.abs(others - target[row])
                                  <= 1e-9 * max(1.0, abs(target[row]))), (seed, row)
                    near_ties += 1
        finally:
            _close(model)
    record_property("near_tie_mismatches", near_ties)
    assert near_ties == 0  # none occur on these tables


def test_near_duplicate_of_the_target_is_ranked_from_its_kept_keys():
    """A twin of the target a few ulps away falls inside the target's
    bracket: the query is re-walked and ranked from the keys it computes, so
    the twin counts as better or worse, never as half a tie."""
    rng = np.random.default_rng(3)
    model = SpTransE(50, 1, 8, rng=0)
    entities = rng.standard_normal((50, 8))
    entities[7] = entities[6] * (1 + 3e-15)
    model.entity_table().write_rows(np.arange(50), entities)
    anchors, relations, targets = np.array([0, 1]), np.array([0, 0]), np.array([6, 6])
    keys = np.empty((2, 50))

    def keep(tile, rows, start):
        keys[rows, start:start + tile.shape[1]] = tile

    model._walk_keys(model._query_groups(anchors, relations, "tail"), "tail", keep)
    assert np.all(keys[:, 6] != keys[:, 7])  # the twin is not a tie
    got = model.rank_targets(anchors, relations, targets, "tail")
    np.testing.assert_array_equal(got, compute_ranks(keys, targets))
    assert np.all(got == np.round(got))
