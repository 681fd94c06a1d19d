"""The certified fp32 first pass of ``rank_triples`` against the fp64 walk.

At L2 the walk feeds the rank counter fp32 keys, each within a rigorous
per-block bound of its fp64 key, and settles the candidates that bound
leaves undecided from their fp64 keys; whatever it cannot certify falls back
to the fp64 re-walk.  So on any table — near-duplicates one fp32 ulp apart,
norms six orders apart in one block, rows that overflow fp32, NaN and inf
rows, ties everywhere — the ranks must equal those of the fp64 walk's keys
ranked by :func:`~repro.evaluation.compute_ranks`, and every below/above
decision taken from an fp32 key must agree with the fp64 tile key.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ranking
from repro.baselines import DenseTransE
from repro.evaluation import compute_ranks, ranks as rank_lib
from repro.evaluation.ranks import RankCounter, stack_exclusions
from repro.models import SpTransE, SpTransH, SpTransR

MODELS = {
    "SpTransE": lambda n, r, d: SpTransE(n, r, d, rng=0),
    "SpTransE-P3": lambda n, r, d: SpTransE(n, r, d, rng=0, partitions=3),
    "DenseTransE": lambda n, r, d: DenseTransE(n, r, d, rng=0),
    "SpTransH": lambda n, r, d: SpTransH(n, r, d, rng=0),
    "SpTransR": lambda n, r, d: SpTransR(n, r, d, relation_dim=max(1, d - 1), rng=0),
}
TABLES = ["random", "near_duplicates", "mixed_norms", "huge_rows",
          "huge_relations", "non_finite", "all_equal"]


def _close(model):
    close = getattr(getattr(model, "embeddings", None), "close", None)
    if close is not None:
        close()


@st.composite
def _cases(draw):
    n = draw(st.integers(8, 40))
    return {"n": n, "r": draw(st.integers(1, 3)), "d": draw(st.integers(2, 8)),
            "b": draw(st.integers(1, 6)), "table": draw(st.sampled_from(TABLES)),
            "seed": draw(st.integers(0, 2 ** 16)),
            # Candidates per block, so one block can mix the table's rows.
            "tile": draw(st.integers(2, n)),
            "filtered": draw(st.booleans())}


def _table(kind, rng, n, d, targets):
    """``(n, d)`` entity rows of one adversarial ``kind``."""
    rows = rng.standard_normal((n, d))
    others = np.setdiff1d(np.arange(n), targets)
    picked = rng.choice(n, max(1, n // 4), replace=False)
    if kind == "near_duplicates":
        # A twin of a target, every coordinate moved by at most one fp32 ulp.
        for row in rng.choice(others, min(others.size, max(1, n // 4)), replace=False):
            twin = rows[rng.choice(targets)]
            ulp = np.spacing(np.abs(twin).astype(np.float32)).astype(np.float64)
            rows[row] = twin + ulp * rng.integers(-1, 2, d)
    elif kind == "mixed_norms":
        rows *= np.where(np.arange(n) % 2, 1e3, 1e-3)[:, None] / np.linalg.norm(
            rows, axis=1, keepdims=True)
    elif kind == "huge_rows":
        # From rows whose products with a large query overflow fp32, through
        # norms whose square does, to rows that overflow it themselves.
        rows[picked] *= 10.0 ** rng.uniform(12, 60, (picked.size, 1))
    elif kind == "non_finite":
        rows[picked] = rng.choice([np.nan, np.inf, -np.inf], (picked.size, d))
    elif kind == "all_equal":
        rows[:] = rng.integers(-2, 3, d)  # exact keys: every tie is a tie
    return rows


def _build(name, case):
    rng = np.random.default_rng(case["seed"])
    n, d, b = case["n"], case["d"], case["b"]
    model = MODELS[name](n, case["r"], d)
    # Huge relations overflow the fp32 queries and leave the rows finite.
    scale = 10.0 ** rng.uniform(20, 60) if case["table"] == "huge_relations" else 0.5
    for param_name, param in model.named_parameters():
        if "bucket" not in param_name:
            param.data[...] = scale * rng.standard_normal(param.shape)
    heads, tails = rng.integers(0, n, b), rng.integers(0, n, b)
    relations = rng.integers(0, case["r"], b)
    model.entity_table().write_rows(
        np.arange(n), _table(case["table"], rng, n, d, np.r_[heads, tails]))
    exclusions = [None, None]
    if case["filtered"]:
        exclusions = [[rng.choice(n, rng.integers(0, n), replace=False)
                       for _ in range(b)] for _ in range(2)]
    return model, (heads, relations, tails, *exclusions)


def _tiled(model, tile, b):
    """Candidate blocks of ``tile`` rows for a walk of ``2b`` queries."""
    width = max(model.embedding_dim, getattr(model, "relation_dim", 0))
    return (mock.patch.object(ranking, "RANK_TILE_ELEMENTS", tile * 2 * b),
            mock.patch.object(type(model), "RANK_BLOCK_ELEMENTS", tile * 2 * b * width))


def _fp64_walk(model, heads, relations, tails, tail_exclusions, head_exclusions):
    """``(keys, lo, hi, targets, exclusions)`` of the chunk's ``2B`` queries:
    the fp64 tile keys the first pass stands for, and the brackets."""
    b = heads.shape[0]
    anchor_rows = model.entity_embedding_rows(np.concatenate([heads, tails]))
    stacked = np.concatenate([relations, relations])
    groups = model._query_groups(anchor_rows, stacked, b)
    lo, hi = model._target_key_brackets(groups, np.roll(anchor_rows, b, axis=0))
    keys = np.empty((2 * b, model.n_entities))

    def keep(tile, rows, start):
        keys[rows, start:start + tile.shape[1]] = tile

    model._walk_keys(groups, keep)
    exclusions = stack_exclusions((tail_exclusions, head_exclusions), b,
                                  model.n_entities)
    return keys, lo, hi, np.concatenate([tails, heads]), exclusions


def _record_decisions(decisions):
    """Spy on :meth:`RankCounter.count`: every certified decision of an fp32
    tile, as ``(query, candidate, "below" | "above" | "inside")``."""
    real = RankCounter.count

    def count(self, keys, rows, start, margin=None, settle=None):
        queries = np.arange(self.true.shape[0])[rows]
        if margin is not None:
            lo, hi = rank_lib._widened(self.lo[rows], self.hi[rows], margin,
                                       keys.dtype)
            for side, mask in (("below", keys < lo[:, None]),
                               ("above", keys > hi[:, None])):
                j, c = np.nonzero(mask)
                decisions.extend(zip(queries[j], start + c, [side] * j.size))

            def settled(j, c):
                key, slack = settle(j, c)
                at = queries[j]
                for q, col, k, s in zip(at, start + c, key, slack):
                    if k + s < self.lo[q]:
                        decisions.append((q, col, "below"))
                    elif k - s > self.hi[q]:
                        decisions.append((q, col, "above"))
                    elif (col == self.true[q]
                          and self.lo[q] <= k - s and k + s <= self.hi[q]):
                        decisions.append((q, col, "inside"))
                return key, slack

            return real(self, keys, rows, start, margin, settled)
        return real(self, keys, rows, start, margin, settle)

    return mock.patch.object(RankCounter, "count", count)


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_cases())
def test_ranks_equal_the_fp64_walk_and_every_fp32_decision_is_sound(name, case):
    model, query = _build(name, case)
    b = case["b"]
    # Non-finite rows make inf − inf and inf · 0 by construction.
    quiet = np.errstate(invalid="ignore", over="ignore")
    try:
        tile, block = _tiled(model, case["tile"], b)
        decisions = []
        with tile, block, quiet, _record_decisions(decisions):
            got = model.rank_triples(*query)
            keys, lo, hi, targets, exclusions = _fp64_walk(model, *query)
        want = compute_ranks(keys, targets, exclusions)
        np.testing.assert_array_equal(np.concatenate(got), want)
        for q, col, side in decisions:
            key = keys[q, col]
            assert {"below": key < lo[q], "above": key > hi[q],
                    "inside": lo[q] <= key <= hi[q]}[side], (q, col, side)
    finally:
        _close(model)


def _spy_walks(model):
    """``(walks, settled, patches)``: each walk's query count and each
    counter's settled keys per query, recorded while ``patches`` are on."""
    walks, settled = [], []
    real_walk, real_ranks = model._walk_keys, RankCounter.ranks

    def walk(groups, sink):
        walks.append(sum(queries.shape[0] for *_, queries in groups))
        return real_walk(groups, sink)

    def ranks(self):
        settled.append(self.settled.copy())
        return real_ranks(self)

    return walks, settled, (mock.patch.object(model, "_walk_keys", walk),
                            mock.patch.object(RankCounter, "ranks", ranks))


def test_a_twin_one_fp32_ulp_away_is_settled_in_fp64_without_a_re_walk():
    """The twin's fp32 key cannot be told from the target's; its fp64 key
    can, so it is settled from the block in hand and nothing is re-walked."""
    rng = np.random.default_rng(4)
    model = SpTransE(60, 2, 16, rng=0)
    entities = rng.standard_normal((60, 16))
    entities[11] = np.nextafter(entities[10].astype(np.float32),
                                np.float32(np.inf)).astype(np.float64)
    model.entity_table().write_rows(np.arange(60), entities)
    heads, relations, tails = np.array([0, 1]), np.array([0, 1]), np.array([10, 10])
    walks, settled, (walk, ranks) = _spy_walks(model)
    with walk, ranks:
        got = model.rank_triples(heads, relations, tails)
    assert walks == [4]
    assert np.all(settled[0][:2] >= 2)  # the target and its twin at least
    keys, lo, hi, targets, exclusions = _fp64_walk(model, heads, relations, tails,
                                                   None, None)
    np.testing.assert_array_equal(np.concatenate(got),
                                  compute_ranks(keys, targets, exclusions))


def test_a_non_finite_row_sends_every_query_of_its_block_to_the_re_walk():
    """A NaN key fails both compares and would count as worse: the block's
    bound is infinite instead, and the fp64 re-walk ranks every query."""
    rng = np.random.default_rng(8)
    model = SpTransE(60, 2, 8, rng=0)
    entities = rng.standard_normal((60, 8))
    entities[[0, 59]] = np.nan
    model.entity_table().write_rows(np.arange(60), entities)
    heads, relations, tails = np.array([5, 6, 7]), np.array([0, 1, 0]), np.array([8, 9, 10])
    walks, _, (walk, ranks) = _spy_walks(model)
    with walk, ranks:
        got = model.rank_triples(heads, relations, tails)
    assert walks == [6, 6]
    keys, lo, hi, targets, exclusions = _fp64_walk(model, heads, relations, tails,
                                                   None, None)
    np.testing.assert_array_equal(np.concatenate(got),
                                  compute_ranks(keys, targets, exclusions))


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_shape_ranks_are_the_fp64_walks_with_a_narrow_band(seed):
    """The ``eval_rank`` shape (28 951 × 128, 64-triple chunks): every rank
    equals the fp64 walk's, bit for bit, with no re-walk, and the band a
    query settles in fp64 holds fewer than 32 candidates — a loosened bound
    fails here."""
    n, d, b = 28951, 128, 64
    rng = np.random.default_rng(seed)
    model = SpTransE(n, 11, d, rng=seed)
    heads, tails = rng.integers(0, n, b), rng.integers(0, n, b)
    relations = rng.integers(0, 11, b)
    exclusions = [[rng.choice(n, 3, replace=False) for _ in range(b)]
                  for _ in range(2)]
    walks, settled, (walk, ranks) = _spy_walks(model)
    with walk, ranks:
        got = model.rank_triples(heads, relations, tails, *exclusions)
    assert walks == [2 * b]
    assert settled[0].min() >= 1 and settled[0].max() < 32
    keys, lo, hi, targets, flat = _fp64_walk(model, heads, relations, tails,
                                             *exclusions)
    np.testing.assert_array_equal(np.concatenate(got),
                                  compute_ranks(keys, targets, flat))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), k=st.integers(1, 64), w=st.integers(3, 40),
       scale=st.sampled_from(["unit", "mixed", "cancel", "tiny", "overflow"]))
def test_margins_bound_the_distance_to_the_fp64_tile_key(seed, k, w, scale):
    """Pair by pair: the fp32 key is within the block's margin of the fp64
    tile key (one GEMM plus the row norms), and so is the key settling
    recomputes from the rows, within its own margin.  Operands whose fp32
    products overflow, although each fits, get an infinite margin."""
    rng = np.random.default_rng(seed)
    queries = -2.0 * rng.standard_normal((3, k))
    cand = rng.standard_normal((w, k))
    if scale == "mixed":
        cand *= 10.0 ** rng.integers(-3, 4, (w, 1))
    elif scale == "cancel":
        # Candidates next to the queries' own ``q``: the key is about
        # −‖q‖², and its two terms cancel.
        cand[:3] = -queries / 2.0 * (1 + 1e-9 * rng.standard_normal((3, k)))
    elif scale == "tiny":
        cand *= 1e-30
        queries *= 1e-20
    elif scale == "overflow":
        cand *= 1e17
        queries *= 1e22
    fp64 = queries @ cand.T + np.einsum("ij,ij->i", cand, cand)
    q32, q_norm = ranking._fp32_queries(queries)
    keys = np.empty((3, w), dtype=np.float32)
    margin = ranking._fp32_tile(q32, q_norm, cand, np.empty(w * (k + 1), np.float32), keys)
    with np.errstate(invalid="ignore"):
        error = np.abs(keys.astype(np.float64) - fp64)
    assert np.all((error <= margin[:, None]) | np.isinf(margin)[:, None])
    assert np.isinf(margin).all() == (scale == "overflow")
    j, c = np.divmod(np.arange(3 * w), w)
    key, slack = ranking._fp64_keys(queries, cand, j, c)
    assert np.all(np.abs(key - fp64[j, c]) <= slack)
    assert np.all(slack > 0)


def test_widened_thresholds_lie_outside_the_exact_bounds():
    """Counting against fp32 thresholds is sound only if each lies outside
    ``lo − margin`` / ``hi + margin`` exactly, not just to fp64 rounding."""
    from fractions import Fraction

    rng = np.random.default_rng(3)
    lo = rng.standard_normal(500) * 10.0 ** rng.integers(-40, 30, 500)
    hi = lo + np.abs(lo) * 1e-12
    margin = np.abs(lo) * 10.0 ** rng.uniform(-9, -5, 500)
    lo_t, hi_t = rank_lib._widened(lo, hi, margin, np.dtype(np.float32))
    assert lo_t.dtype == hi_t.dtype == np.float32
    for values in zip(lo, hi, margin, lo_t, hi_t):
        a, b, m, low, high = map(Fraction, map(float, values))
        assert low < a - m and high > b + m
