"""``rank_triples`` against its oracle, ``compute_ranks(score_all_*)``.

The closed form counts both directions' filtered ranks in one walk of the
entity table, tile by tile on squared L2 keys (or on the model's own
dissimilarity), and never builds the ``(B, N)`` block.  On
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
    }


def _exclusions(rng, mode, n, targets):
    if mode == "none":
        return None
    if mode == "empty":
        return [np.empty(0, dtype=np.int64)] * len(targets)
    exclusions = [rng.choice(n, rng.integers(0, n), replace=False) for _ in targets]
    if mode == "with_target":
        exclusions = [np.append(ex, t) for ex, t in zip(exclusions, targets)]
    return exclusions


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
    relations = rng.integers(0, case["r"], b)
    # Half the targets of each direction sit on a tile's first column, half
    # on its last.
    starts = np.arange(0, n, tile)
    edges = np.concatenate([starts, np.minimum(starts + tile, n) - 1])
    heads, tails = rng.choice(edges, b), rng.choice(edges, b)
    return model, (heads, relations, tails,
                   _exclusions(rng, case["filters"], n, tails),
                   _exclusions(rng, case["filters"], n, heads))


def _tiled(model, tile, b, query):
    """``rank_triples`` with candidate blocks of exactly ``tile`` rows (the
    walk holds ``2b`` queries)."""
    width = max(model.embedding_dim, getattr(model, "relation_dim", 0))
    with mock.patch.object(ranking, "RANK_TILE_ELEMENTS", tile * 2 * b), \
            mock.patch.object(type(model), "RANK_BLOCK_ELEMENTS",
                              tile * 2 * b * width):
        return model.rank_triples(*query)


def _oracles(model, heads, relations, tails, tail_exclusions, head_exclusions):
    """``(tail_ranks, head_ranks)`` by :func:`_oracle`."""
    return (_oracle(model, heads, relations, tails, "tail", tail_exclusions),
            _oracle(model, tails, relations, heads, "head", head_exclusions))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_cases())
def test_exact_tables_rank_as_the_oracle(name, case):
    model, query = _build(name, case)
    try:
        got = _tiled(model, case["tile"], case["b"], query)
        for ranks, want in zip(got, _oracles(model, *query)):
            np.testing.assert_array_equal(ranks, want)
            assert ranks.dtype == np.float64
    finally:
        _close(model)


def test_all_equal_table_re_walks_only_the_tied_queries():
    """Every candidate ties: each query of both directions is handed to the
    kept-keys walk, and the two directions are re-walked together, once."""
    model = SpTransE(30, 2, 4, rng=0)
    model.entity_table().write_rows(np.arange(30), np.ones((30, 4)))
    heads, relations = np.arange(5), np.zeros(5, dtype=np.int64)
    walks = []
    real = model._walk_keys

    def spy(groups, sink):
        walks.append(sum(queries.shape[0] for *_, queries in groups))
        return real(groups, sink)

    with mock.patch.object(model, "_walk_keys", spy):
        got = model.rank_triples(heads, relations, np.arange(5, 10),
                                 [np.array([0, 1])] * 5, [np.array([10, 11])] * 5)
    assert walks == [10, 10]
    for ranks in got:
        np.testing.assert_array_equal(ranks, np.full(5, (28 + 1) / 2))


def test_one_tie_per_direction_is_re_walked_jointly():
    """One tail query and one head query each tie their target: the second
    walk holds exactly those two queries, and every rank is the oracle's."""
    rng = np.random.default_rng(5)
    model = SpTransE(40, 2, 6, rng=0)
    entities = rng.integers(-3, 4, size=(40, 6)).astype(float)
    entities[21] = entities[20]  # tail 20's twin
    entities[31] = entities[30]  # head 30's twin
    model.entity_table().write_rows(np.arange(40), entities)
    for name, param in model.named_parameters():
        if "bucket" not in name:
            param.data[model.n_entities:] = rng.integers(-2, 3, (2, 6))
    heads = np.array([30, 1, 2, 3])
    relations = np.array([0, 1, 0, 1])
    tails = np.array([20, 4, 5, 6])
    walks = []
    real = model._query_groups

    def spy(anchor_rows, relations, n_tail):
        walks.append((anchor_rows.tolist(), int(n_tail)))
        return real(anchor_rows, relations, n_tail)

    with mock.patch.object(model, "_query_groups", spy):
        got = model.rank_triples(heads, relations, tails)
    # The first walk's 2B queries, then the tail query of row 0 and the head
    # query of row 0 together.
    assert walks == [(entities[np.r_[heads, tails]].tolist(), 4),
                     (entities[[30, 20]].tolist(), 1)]
    for ranks, want in zip(got, _oracles(model, heads, relations, tails, None, None)):
        np.testing.assert_array_equal(ranks, want)
    assert got[0][0] % 1 == got[1][0] % 1 == 0.5  # each twin counts half


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
            heads, relations = rng.integers(0, 300, 40), rng.integers(0, 4, 40)
            tails = rng.integers(0, 300, 40)
            exclusions = {side: [rng.choice(300, 5, replace=False) for _ in range(40)]
                          for side in ("tail", "head")}
            got = model.rank_triples(heads, relations, tails, exclusions["tail"],
                                     exclusions["head"])
            for ranks, direction, anchors, targets in (
                    (got[0], "tail", heads, tails), (got[1], "head", tails, heads)):
                want = _oracle(model, anchors, relations, targets, direction,
                               exclusions[direction])
                scores = (model.score_all_tails(anchors, relations) if direction == "tail"
                          else model.score_all_heads(relations, anchors))
                target = scores[np.arange(40), targets]
                for row in np.flatnonzero(ranks != want):
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
    heads, relations, tails = np.array([0, 1]), np.array([0, 0]), np.array([6, 6])
    keys = np.empty((4, 50))

    def keep(tile, rows, start):
        keys[rows, start:start + tile.shape[1]] = tile

    model._walk_keys(model._query_groups(entities[np.r_[heads, tails]],
                                         np.concatenate([relations, relations]), 2),
                     keep)
    assert np.all(keys[:2, 6] != keys[:2, 7])  # the twin is not a tie
    got, _ = model.rank_triples(heads, relations, tails)
    np.testing.assert_array_equal(got, compute_ranks(keys[:2], tails))
    assert np.all(got == np.round(got))


def _spy_walks(table):
    """Count the walks of ``table``'s kind: calls of its ``iter_blocks``
    (a dense model builds a fresh table view per call)."""
    walks = []
    real = type(table).iter_blocks

    def spy(self, *args, **kwargs):
        walks.append(args)
        return real(self, *args, **kwargs)

    return walks, mock.patch.object(type(table), "iter_blocks", spy)


@pytest.mark.parametrize("name", list(MODELS))
def test_one_table_walk_per_chunk(name):
    """Evaluation walks the entity table once per chunk, both directions
    together, whatever the model."""
    from repro.data import generate_synthetic_kg
    from repro.evaluation import evaluate_link_prediction

    kg = generate_synthetic_kg(60, 3, 300, rng=0, valid_fraction=0.0,
                               test_fraction=0.2)
    make, _ = MODELS[name]
    model = make(kg.n_entities, kg.n_relations, 8)
    try:
        rng = np.random.default_rng(1)
        for param in model.parameters():
            param.data += 0.3 * rng.standard_normal(param.shape)
        test = kg.split.test[:40]
        walks, spy = _spy_walks(model.entity_table())
        with spy:
            result = evaluate_link_prediction(model, test, kg.known_triples(),
                                              batch_size=16)
        assert len(walks) == 3  # ceil(40 / 16) chunks, no tie to re-walk
        assert result.tail_ranks.shape == result.head_ranks.shape == (40,)
    finally:
        _close(model)


def test_partitioned_table_faults_each_bucket_once_per_chunk():
    """P = 3 buckets, one resident: a chunk faults each bucket once, not
    once per direction.  Anchors and targets all live in the last bucket,
    which the previous chunk's walk leaves resident, so reading their rows
    faults nothing and every fault is the walk's."""
    from repro.data import KnownTriples
    from repro.evaluation import evaluate_link_prediction

    p, n = 3, 90
    model = SpTransE(n, 2, 8, rng=0, partitions=p, max_resident=1)
    try:
        table = model.entity_table()
        last = np.arange(*table.row_ranges()[-1])
        rng = np.random.default_rng(2)
        triples = np.column_stack([rng.choice(last, 24), rng.integers(0, 2, 24),
                                   rng.choice(last, 24)])
        known = KnownTriples(triples)
        evaluate_link_prediction(model, triples[:8], known, batch_size=8)  # warm
        before = table.stats()["faults"]
        walks, spy = _spy_walks(table)
        with spy:
            evaluate_link_prediction(model, triples, known, batch_size=8)
        assert table.stats()["faults"] - before == 3 * p  # 3 chunks
        assert len(walks) == 3
    finally:
        _close(model)


def test_lone_re_walk_keys_equal_its_row_of_a_pair():
    """A one-query fp64 re-walk must not take BLAS's one-row (GEMV) path,
    whose rounding differs from the GEMM's: its keys equal the same query's
    keys in a two-query re-walk, bit for bit, so a re-walked rank does not
    depend on which other queries of its chunk were re-walked with it."""
    model = SpTransE(3000, 2, 128, rng=0)
    anchors = model.entity_embedding_rows(np.array([7, 11]))
    relations = np.array([0, 1])

    def re_walk_keys(b):
        keys = np.empty((b, model.n_entities))

        def keep(tile, rows, start):
            keys[rows, start:start + tile.shape[1]] = tile

        model._walk_keys(model._query_groups(anchors[:b], relations[:b], b), keep)
        return keys

    np.testing.assert_array_equal(re_walk_keys(1)[0], re_walk_keys(2)[0])
