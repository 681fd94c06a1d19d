"""The shared ranking helpers (repro.ranking) and their model/serving wiring."""

from __future__ import annotations

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ranking
from repro.evaluation import compute_ranks
from repro.profiling import peak_traced_bytes


def _oracle_l2(queries, targets):
    """The textbook expansion as one expression over the whole table.

    What ``l2_distance_matrix`` computed before it was tiled into scratch
    buffers, kept here as the reference: one GEMM, a table-sized square and
    result-sized temporaries.  The kernel must return these bits.
    """
    dtype = np.result_type(queries.dtype, targets.dtype)
    if not np.issubdtype(dtype, np.floating):
        dtype = np.dtype(np.float64)
    q = queries.astype(dtype, copy=False)
    t = targets.astype(dtype, copy=False)
    dist = (q ** 2).sum(axis=1)[:, None] + (t ** 2).sum(axis=1)[None, :]
    dist -= 2.0 * (q @ t.T)
    np.maximum(dist, 0.0, out=dist)
    dist += 1e-12
    return np.sqrt(dist)


def _spy_on_matmul(monkeypatch):
    """Record the ``(left, right)`` shapes of every GEMM the kernel issues."""
    shapes = []
    real_matmul = np.matmul

    def spy(a, b, out=None):
        shapes.append((a.shape, b.shape))
        return real_matmul(a, b, out=out)

    monkeypatch.setattr(ranking.np, "matmul", spy)
    return shapes


def _dyadic(rng, shape, dtype):
    """Multiples of 1/8 in [-2, 2]: exact in fp16, and every product and sum
    the kernel forms from them is exact in fp32, so the result does not depend
    on the order BLAS accumulates in (which changes with the GEMM's shape)."""
    return (rng.integers(-16, 17, size=shape) / 8.0).astype(dtype)


class TestTopK:
    def test_matches_argsort(self, rng):
        scores = rng.standard_normal(200)
        assert np.array_equal(ranking.top_k(scores, 10),
                              np.argsort(scores, kind="stable")[:10])

    def test_k_larger_than_n_returns_full_order(self, rng):
        scores = rng.standard_normal(7)
        assert np.array_equal(ranking.top_k(scores, 50),
                              np.argsort(scores, kind="stable"))

    def test_k_zero(self):
        assert ranking.top_k(np.array([1.0, 2.0]), 0).size == 0

    def test_model_predictions_are_the_shared_helper(self):
        from repro.models import SpTransH

        model = SpTransH(30, 3, 6, rng=0)
        np.testing.assert_array_equal(
            model.predict_tails(4, 1, k=5),
            ranking.top_k(model.score_all_tails([4], [1])[0], 5))
        np.testing.assert_array_equal(
            model.top_k("head", [7], [2], 5)[0][0],
            ranking.top_k(model.score_all_heads([2], [7])[0], 5))


class TestL2DistanceMatrix:
    def test_matches_bruteforce(self, rng):
        q = rng.standard_normal((5, 8))
        t = rng.standard_normal((30, 8))
        brute = np.sqrt(((q[:, None, :] - t[None, :, :]) ** 2).sum(axis=-1) + 1e-12)
        assert np.allclose(ranking.l2_distance_matrix(q, t), brute, atol=1e-9)


class TestCandidateExpansion:
    def test_matches_direct_scoring(self, small_kg):
        from repro.models.transe import SpTransE

        model = SpTransE(small_kg.n_entities, small_kg.n_relations, 8, rng=2)
        heads = np.array([0, 3])
        relations = np.array([1, 4])
        generic = ranking.candidate_expansion_scores(
            heads, relations, position="tail", n_entities=model.n_entities,
            score_triples=model.score_triples, chunk_size=512)
        closed_form = model.score_all_tails(heads, relations)
        assert np.allclose(generic, closed_form, atol=1e-9)


def _top_k_oracle(scores, k, exclusions=None):
    """Per row: drop the excluded and NaN candidates, then ``np.lexsort((ids,
    scores))``'s first ``k`` — the ``(score, id)`` order :class:`TopK` keeps."""
    out = []
    for row, line in enumerate(scores):
        ids = np.arange(line.size)
        keep = ~np.isnan(line)
        if exclusions is not None:
            keep[exclusions[1][exclusions[0] == row]] = False
        ids, line = ids[keep], line[keep]
        order = np.lexsort((ids, line))[:max(0, k)]
        out.append((ids[order], line[order]))
    return out


def _feed(sink, scores, tile, split):
    """Feed ``scores`` to ``sink`` in column tiles of ``tile``; with ``split``
    the rows come as two index groups, as a relation-grouped walk sends them."""
    groups = ([slice(None)] if not split or scores.shape[0] < 2 else
              [np.arange(0, scores.shape[0], 2), np.arange(1, scores.shape[0], 2)])
    for start in range(0, scores.shape[1], tile):
        for rows in groups:
            sink(scores[rows, start:start + tile], rows, start)


@st.composite
def _sink_cases(draw):
    n = draw(st.integers(1, 40))
    return {
        "n": n, "b": draw(st.integers(1, 9)), "k": draw(st.integers(0, n + 3)),
        "shape": draw(st.sampled_from(["random", "all_equal", "duplicates", "nan"])),
        "seed": draw(st.integers(0, 2 ** 16)),
        "tile": draw(st.integers(1, n)),
        "filters": draw(st.sampled_from(["none", "empty", "random", "most"])),
        "split": draw(st.booleans()),
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
    }


class TestTopKSink:
    """:class:`ranking.TopK` against ``np.lexsort`` of the masked block."""

    @settings(max_examples=300, deadline=None)
    @given(case=_sink_cases())
    def test_matches_the_lexsort_of_the_masked_block(self, case):
        rng = np.random.default_rng(case["seed"])
        b, n = case["b"], case["n"]
        scores = rng.integers(-3, 4, size=(b, n)).astype(case["dtype"])
        if case["shape"] == "random":
            scores = rng.standard_normal((b, n)).astype(case["dtype"])
        elif case["shape"] == "all_equal":
            scores[:] = scores[0, 0]
        elif case["shape"] == "nan":
            scores[rng.random((b, n)) < 0.3] = np.nan
        exclusions = None
        if case["filters"] != "none":
            share = {"empty": 0.0, "random": 0.3, "most": 0.9}[case["filters"]]
            exclusions = np.nonzero(rng.random((b, n)) < share)
        sink = ranking.TopK(b, case["k"], exclusions)
        _feed(sink, scores, case["tile"], case["split"])
        got = sink.results()
        assert len(got) == b
        for (ids, values), (want_ids, want_values) in zip(
                got, _top_k_oracle(scores, case["k"], exclusions)):
            assert ids.dtype == np.int64 and values.dtype == case["dtype"]
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(values, want_values)

    @pytest.mark.parametrize("tile", [1, 5, 17, 40, 64])
    @pytest.mark.parametrize("b", [1, 3])
    def test_an_18_way_tie_at_the_kth_place_keeps_the_lowest_ids(self, rng, tile, b):
        scores = rng.standard_normal((b, 64)) + 10.0
        tied = rng.choice(64, 18, replace=False)
        scores[:, tied] = 5.0
        scores[:, rng.choice(np.setdiff1d(np.arange(64), tied), 3)] = 1.0
        sink = ranking.TopK(b, 10, None)
        _feed(sink, scores, tile, split=True)
        for ids, values in sink.results():
            assert ids[:3].tolist() == sorted(ids[:3].tolist())
            np.testing.assert_array_equal(ids[3:], np.sort(tied)[:7])
            np.testing.assert_array_equal(values, [1.0] * 3 + [5.0] * 7)

    def test_all_equal_scores_are_the_first_ids(self):
        sink = ranking.TopK(2, 6, None)
        _feed(sink, np.zeros((2, 30)), 4, split=False)
        for ids, _ in sink.results():
            np.testing.assert_array_equal(ids, np.arange(6))

    def test_exclusions_that_leave_fewer_than_k(self):
        exclusions = (np.zeros(7, dtype=np.int64), np.arange(7))
        sink = ranking.TopK(2, 5, exclusions)
        _feed(sink, np.arange(20, dtype=np.float64).reshape(2, 10), 3, split=False)
        first, second = sink.results()
        np.testing.assert_array_equal(first[0], [7, 8, 9])
        np.testing.assert_array_equal(second[0], [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("k", [0, 11, 100])
    def test_k_zero_and_k_beyond_the_table(self, rng, k):
        scores = rng.standard_normal((2, 11))
        sink = ranking.TopK(2, k, None)
        _feed(sink, scores, 4, split=True)
        for (ids, _), want in zip(sink.results(), scores):
            np.testing.assert_array_equal(ids, np.argsort(want, kind="stable")[:k])

    def test_no_tile_leaves_every_row_empty(self):
        (ids, values), = ranking.TopK(1, 4, None).results()
        assert ids.size == 0 and values.size == 0 and values.dtype == np.float64


class TestWalkTable:
    """:func:`ranking.walk_table`'s served tiles are one distance call's bits."""

    @pytest.mark.parametrize("b", [1, 3, 64])
    def test_distance_tiles_are_the_bits_of_one_call(self, rng, monkeypatch, b):
        monkeypatch.setattr(ranking, "RANK_TILE_ELEMENTS", 64 * b)
        monkeypatch.setattr(ranking, "SINGLE_QUERY_COLUMNS", 96)
        queries = rng.standard_normal((b, 6))
        table = rng.standard_normal((1000, 6))
        keep = ranking.KeepKeys(b, 1000)
        ranking.walk_table([(0, table)], [(slice(None), None, None, queries)], keep,
                           distances=True)
        np.testing.assert_array_equal(keep.keys,
                                      ranking.l2_distance_matrix(queries, table))

    def test_top_k_through_the_walk(self, rng):
        queries = rng.standard_normal((5, 4))
        table = rng.standard_normal((300, 4))
        exclusions = (np.array([0, 0, 3]), np.array([7, 250, 12]))
        sink = ranking.TopK(5, 9, exclusions)
        blocks = [(start, table[start:start + 70]) for start in range(0, 300, 70)]
        ranking.walk_table(blocks, [(slice(None), None, None, queries)], sink,
                           distances=True)
        want = _top_k_oracle(ranking.l2_distance_matrix(queries, table), 9, exclusions)
        for (ids, _), (want_ids, _) in zip(sink.results(), want):
            np.testing.assert_array_equal(ids, want_ids)

    def test_no_queries_reads_no_block(self):
        def blocks():
            raise AssertionError("an empty walk read a block")
            yield  # pragma: no cover

        ranking.walk_table(blocks(), [], ranking.KeepKeys(0, 5), distances=True)


class TestNearestEntities:
    """``nearest_entities`` walks the table; blocked equals whole-matrix."""

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_blocked_matches_whole_matrix(self, partitions):
        from repro.models.transe import SpTransE
        from repro.serving import InferenceEngine

        model = SpTransE(50, 3, 6, rng=4, partitions=partitions)
        model.RANK_BLOCK_ELEMENTS = 6 * 7  # seven-row blocks: many, some partial
        try:
            engine = InferenceEngine(model, cache_size=0)
            table = model.entity_embedding_matrix()
            ids = np.arange(50)
            for entity in (0, 7, 49):
                dist = ranking.l2_distance_matrix(table[entity][None, :], table)[0]
                order = np.lexsort((ids, dist))
                want = order[order != entity][:5]
                got = engine.nearest_entities(entity, k=5)
                assert list(got.entities) == want.tolist()
                np.testing.assert_allclose(got.scores, dist[want], rtol=1e-12)
        finally:
            model.embeddings.close() if partitions > 1 else None


class TestBlockedRankingOnModels:
    @pytest.mark.parametrize("dissimilarity", ["L1", "L2"])
    def test_partitioned_blocked_equals_dense(self, small_kg, dissimilarity):
        from repro.models.transe import SpTransE

        dense = SpTransE(small_kg.n_entities, small_kg.n_relations, 8, rng=2,
                         dissimilarity=dissimilarity)
        part = SpTransE(small_kg.n_entities, small_kg.n_relations, 8, rng=2,
                        dissimilarity=dissimilarity, partitions=3)
        heads = np.array([0, 7, 12])
        relations = np.array([1, 0, 3])
        assert np.allclose(dense.score_all_tails(heads, relations),
                           part.score_all_tails(heads, relations), atol=1e-9)
        assert np.allclose(dense.score_all_heads(relations, heads),
                           part.score_all_heads(relations, heads), atol=1e-9)
        part.embeddings.close()


class TestEmptyBatch:
    @pytest.mark.parametrize("name, kwargs", [
        ("SpTransE", {}), ("SpTransE", {"dissimilarity": "L1"}),
        ("SpTransE", {"partitions": 3}), ("SpTransH", {}), ("SpTransR", {}),
        ("SpTorusE", {}), ("SpTransA", {}), ("SpDistMult", {})])
    def test_every_geometry_scores_an_empty_batch(self, name, kwargs):
        from repro import models

        model = getattr(models, name)(50, 3, 8, rng=0, **kwargs)
        none = np.empty(0, dtype=np.int64)
        assert model.score_all_tails(none, none).shape == (0, 50)
        assert model.score_all_heads(none, none).shape == (0, 50)
        assert model.top_k("tail", none, none, 5) == []
        assert model.top_k("head", none, none, 5) == []
        close = getattr(getattr(model, "embeddings", None), "close", None)
        if kwargs.get("partitions"):
            close()


class TestL2DistanceDtype:
    """The tiled kernel must never silently upcast fp16/fp32 inputs to fp64."""

    def test_float32_preserved(self, rng):
        q = rng.standard_normal((4, 8)).astype(np.float32)
        t = rng.standard_normal((20, 8)).astype(np.float32)
        assert ranking.l2_distance_matrix(q, t).dtype == np.float32

    def test_float16_preserved(self, rng):
        q = rng.standard_normal((2, 4)).astype(np.float16)
        t = rng.standard_normal((10, 4)).astype(np.float16)
        assert ranking.l2_distance_matrix(q, t).dtype == np.float16

    def test_mixed_precision_promotes(self, rng):
        q = rng.standard_normal((2, 4))
        t = rng.standard_normal((10, 4)).astype(np.float16)
        assert ranking.l2_distance_matrix(q, t).dtype == np.float64

    def test_integer_inputs_compute_in_float64(self):
        q = np.arange(8).reshape(2, 4)
        t = np.arange(12).reshape(3, 4)
        assert ranking.l2_distance_matrix(q, t).dtype == np.float64

    def test_tiling_is_bit_identical_to_one_tile(self, rng, monkeypatch):
        q = rng.standard_normal((3, 16))
        t = rng.standard_normal((500, 16))
        whole = ranking.l2_distance_matrix(q, t)
        monkeypatch.setattr(ranking, "RANK_TILE_ELEMENTS", 64 * 3)
        gemms = _spy_on_matmul(monkeypatch)
        tiled = ranking.l2_distance_matrix(q, t)
        monkeypatch.undo()
        # The patch reached the kernel: eight tiles, not one.
        assert [right[1] for _, right in gemms] == [64] * 7 + [52]
        np.testing.assert_array_equal(tiled, whole)
        np.testing.assert_array_equal(whole, _oracle_l2(q, t))


class TestCandidateExpansionDtype:
    def test_output_follows_score_dtype(self):
        def score_triples(triples, chunk_size=0):
            return np.zeros(triples.shape[0], dtype=np.float32)

        out = ranking.candidate_expansion_scores(
            np.array([0, 1]), np.array([0, 0]), position="tail",
            n_entities=6, score_triples=score_triples, chunk_size=8)
        assert out.dtype == np.float32
        assert out.shape == (2, 6)


class TestL2Kernel:
    """The tiled kernel against the textbook expression it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(b=st.integers(1, 70), d=st.integers(1, 130),
           tile_cols=st.integers(1, 24), tiles=st.integers(0, 3),
           remainder=st.integers(0, 23),
           target_dtype=st.sampled_from([np.float64, np.float32, np.float16]),
           pass_norms=st.booleans(), pass_out=st.booleans(),
           one_tile_floats=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_matches_the_textbook_expression(self, b, d, tile_cols, tiles,
                                             remainder, target_dtype,
                                             pass_norms, pass_out,
                                             one_tile_floats, seed):
        rng = np.random.default_rng(seed)
        tile = max(tile_cols, b)  # the kernel's rule: never narrower than tall
        if one_tile_floats:
            # Arbitrary floats: same GEMM shape on both sides, so any change
            # in the order of the elementwise operations shows in the bits.
            n = min(remainder, tile)
            q = rng.standard_normal((b, d))
            t = rng.standard_normal((n, d)).astype(target_dtype)
            q[:n] = t[:b]  # q == t: cancellation leaves ±1e-16, so the clamp acts
        else:
            n = tiles * tile + min(remainder, tile - 1)
            q = _dyadic(rng, (b, d), np.float64)
            t = _dyadic(rng, (n, d), target_dtype)
        kwargs = {}
        if pass_norms:
            kwargs["target_sq"] = ranking.squared_norms(t, np.float64)
        frame = np.full((b + 2, 2 * n + 3), np.nan)
        if pass_out:
            kwargs["out"] = frame[1:-1, 1:2 * n + 1:2]  # strided both ways
        with mock.patch.object(ranking, "RANK_TILE_ELEMENTS", tile_cols * b):
            got = ranking.l2_distance_matrix(q, t, **kwargs)
        assert got.shape == (b, n) and got.dtype == np.float64
        np.testing.assert_array_equal(got, _oracle_l2(q, t))
        if pass_out:
            assert got is kwargs["out"]
            frame[1:-1, 1:2 * n + 1:2] = np.nan
            assert np.isnan(frame).all()  # nothing written outside the slice

    def test_benchmark_shape_is_bit_identical_under_one_blas_thread(self):
        # Tile width is what can change GEMM rounding, so the one shape the
        # benchmark runs is pinned — in a child pinned to one BLAS thread, as
        # the benchmark pins its workers: with two, OpenBLAS splits the
        # one-GEMM oracle differently from a tile and the trailing N % 8
        # columns round differently on either side.
        code = (
            "import numpy as np\n"
            "from repro import ranking\n"
            "from tests.test_ranking import _oracle_l2\n"
            "rng = np.random.default_rng(24)\n"
            "q = rng.standard_normal((64, 128))\n"
            "t = rng.standard_normal((28951, 128))\n"
            "assert ranking.RANK_TILE_ELEMENTS // 64 < 28951\n"
            "assert np.array_equal(ranking.l2_distance_matrix(q, t), _oracle_l2(q, t))\n"
            "sq = ranking.squared_norms(t)\n"
            "assert np.array_equal(ranking.l2_distance_matrix(q, t, target_sq=sq),"
            " _oracle_l2(q, t))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(root, "src"), root,
                        os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_benchmark_shape_gives_the_oracles_ranks_on_any_blas(self, rng):
        # What holds whatever the BLAS thread count (the bits above need one):
        # last-bit GEMM rounding differences never reorder the candidates.
        q = rng.standard_normal((64, 128))
        t = rng.standard_normal((28951, 128))
        true = rng.integers(0, 28951, size=64)
        got = ranking.l2_distance_matrix(q, t)
        want = _oracle_l2(q, t)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(compute_ranks(got, true),
                                      compute_ranks(want, true))

    def test_single_query_is_one_blas_call_beyond_the_batched_tile(
            self, rng, monkeypatch):
        # Served and IVF-rescored distances are B = 1 calls: they keep the
        # call shape they always had (2**21 targets per BLAS call), so what a
        # client is sent did not change when the batched tile was narrowed.
        assert ranking.SINGLE_QUERY_COLUMNS == 1 << 21
        n = ranking.RANK_TILE_ELEMENTS + 1234
        q = rng.standard_normal((1, 4))
        t = rng.standard_normal((n, 4))
        gemms = _spy_on_matmul(monkeypatch)
        got = ranking.l2_distance_matrix(q, t)
        monkeypatch.undo()
        assert gemms == [((1, 4), (4, n))]
        np.testing.assert_array_equal(got, _oracle_l2(q, t))
        monkeypatch.setattr(ranking, "SINGLE_QUERY_COLUMNS", 100_000)
        gemms = _spy_on_matmul(monkeypatch)
        ranking.l2_distance_matrix(q, t)
        monkeypatch.undo()
        assert [right[1] for _, right in gemms] == [100_000, 100_000, n - 200_000]

    def test_tall_and_narrow_call_is_one_gemm(self, rng, monkeypatch):
        # k-means assignment: thousands of rows against a few hundred
        # centroids.  A tile is never narrower than the batch is tall.
        rows = rng.standard_normal((6636, 8))
        centroids = rng.standard_normal((316, 8))
        gemms = _spy_on_matmul(monkeypatch)
        ranking.l2_distance_matrix(rows, centroids)
        monkeypatch.undo()
        assert gemms == [((6636, 8), (8, 316))]

    def test_peak_allocation_is_the_result_plus_two_tiles(self, rng):
        b, n, d = 64, 20_000, 64
        q = rng.standard_normal((b, d))
        t = rng.standard_normal((n, d))
        ranking.l2_distance_matrix(q[:2], t[:64])  # imports, first-call state
        peak = peak_traced_bytes(lambda: ranking.l2_distance_matrix(q, t))
        result_bytes = b * n * 8
        tile_bytes = ranking.RANK_TILE_ELEMENTS * 8
        assert result_bytes > 4 * tile_bytes  # several tiles ran
        # The expression form peaks at the result + three result-sized + one
        # table-sized block (here ~51 MB against this bound of ~14.4 MB).
        assert peak <= result_bytes + 2 * tile_bytes

    def test_squared_norms_matches_the_in_kernel_expression(self, rng):
        for dtype in (np.float64, np.float32, np.float16):
            t = rng.standard_normal((700, 33)).astype(dtype)
            got = ranking.squared_norms(t)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, (t ** 2).sum(axis=1))
            wide = ranking.squared_norms(t, np.float64)
            np.testing.assert_array_equal(
                wide, (t.astype(np.float64) ** 2).sum(axis=1))
        ints = np.arange(12).reshape(4, 3)
        assert ranking.squared_norms(ints).dtype == np.float64
        with pytest.raises(ValueError, match="2-D"):
            ranking.squared_norms(np.zeros(5))

    def test_squared_norms_is_blocked(self, rng, monkeypatch):
        t = rng.standard_normal((1000, 16))
        whole = ranking.squared_norms(t)
        monkeypatch.setattr(ranking, "RANK_TILE_ELEMENTS", 16 * 7)
        np.testing.assert_array_equal(ranking.squared_norms(t), whole)
        peak = peak_traced_bytes(lambda: ranking.squared_norms(t))
        assert peak < t.nbytes // 4  # never an (N, d) square


class TestL2KernelArguments:
    """A wrong ``target_sq`` would broadcast silently into wrong distances."""

    @pytest.fixture
    def qt(self, rng):
        return rng.standard_normal((4, 6)), rng.standard_normal((9, 6))

    @pytest.mark.parametrize("shape", [(1,), (9, 1), (1, 9), (8,), (10,), ()])
    def test_target_sq_must_be_one_norm_per_target(self, qt, shape):
        q, t = qt
        with pytest.raises(ValueError, match="target_sq"):
            ranking.l2_distance_matrix(q, t, target_sq=np.ones(shape))

    def test_target_sq_is_cast_to_the_result_dtype_not_the_reverse(self, rng):
        q = rng.standard_normal((3, 5)).astype(np.float32)
        t = rng.standard_normal((11, 5)).astype(np.float32)
        wide = ranking.squared_norms(t).astype(np.float64)
        got = ranking.l2_distance_matrix(q, t, target_sq=wide)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ranking.l2_distance_matrix(q, t))

    @pytest.mark.parametrize("bad", [np.empty((4, 8)), np.empty((3, 9)),
                                     np.empty((4, 9), dtype=np.float32),
                                     np.empty(36)])
    def test_out_must_match_shape_and_dtype(self, qt, bad):
        q, t = qt
        with pytest.raises(ValueError, match="out must be"):
            ranking.l2_distance_matrix(q, t, out=bad)

    def test_width_mismatch_names_both_shapes(self, rng):
        q, t = rng.standard_normal((4, 6)), rng.standard_normal((9, 7))
        with pytest.raises(ValueError, match=r"\(4, 6\).*\(9, 7\)"):
            ranking.l2_distance_matrix(q, t)
        with pytest.raises(ValueError, match="2-D"):
            ranking.l2_distance_matrix(q[0], t)

    def test_empty_table_and_empty_batch(self, rng):
        q = rng.standard_normal((3, 5))
        assert ranking.l2_distance_matrix(q, np.empty((0, 5))).shape == (3, 0)
        assert ranking.l2_distance_matrix(
            q, np.empty((0, 5)), target_sq=np.empty(0)).shape == (3, 0)
        assert ranking.l2_distance_matrix(q[:0], q).shape == (0, 3)


# --------------------------------------------------------------------------- #
# Who owns ``‖c‖²``: one ranking call, which squares each candidate block it
# walks once — never the model.  Evaluation never calls the distance kernel.
# --------------------------------------------------------------------------- #
def _spy_on_squared_norms(monkeypatch):
    shapes = []
    real = ranking.squared_norms

    def spy(rows, dtype=None):
        shapes.append(np.asarray(rows).shape)
        return real(rows, dtype)

    monkeypatch.setattr(ranking, "squared_norms", spy)
    return shapes


def _spy_on_row_norms(monkeypatch):
    """Record the operand shape of every ``einsum('ij,ij->i', x, x)``."""
    shapes = []
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "ij,ij->i" and operands[0] is operands[1]:
            shapes.append(operands[0].shape)
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return shapes


def _oracle_chunk_ranks(model, triples, known, batch_size):
    """Per-chunk recompute: textbook scores, then the rank counter."""
    ent = model.entity_embedding_matrix()
    rel = model.embeddings.relation_table().to_matrix()
    tail_ranks, head_ranks = [], []
    for start in range(0, triples.shape[0], batch_size):
        h, r, t = triples[start:start + batch_size].T
        tail_ranks.append(compute_ranks(_oracle_l2(ent[h] + rel[r], ent), t,
                                        known.exclusions("tail", h, r)))
        head_ranks.append(compute_ranks(_oracle_l2(ent[t] - rel[r], ent), h,
                                        known.exclusions("head", t, r)))
    return np.concatenate(tail_ranks), np.concatenate(head_ranks)


class TestNormsAreOwnedByTheCaller:
    @pytest.fixture
    def kg(self):
        from repro.data import generate_synthetic_kg

        return generate_synthetic_kg(40, 4, 400, rng=0, valid_fraction=0.0,
                                     test_fraction=0.1)

    def test_dense_l2_evaluation_squares_each_row_once_per_call(self, kg, monkeypatch):
        from repro.evaluation import evaluate_link_prediction
        from repro.models import SpTransE

        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        known = kg.known_triples()
        test = kg.split.test
        assert test.shape[0] >= 3 * 7
        kernel = _spy_on_squared_norms(monkeypatch)
        rows = _spy_on_row_norms(monkeypatch)
        got = evaluate_link_prediction(model, test, known, batch_size=7)
        assert kernel == []  # the distance kernel is never called
        calls = -(-test.shape[0] // 7)  # one per chunk, both directions
        # Per call: one pass over the table, plus the chunk's own target rows
        # of both directions.
        assert sorted(rows) == sorted([(kg.n_entities, 16)] * calls
                                      + [(2 * min(7, test.shape[0] - s), 16)
                                         for s in range(0, test.shape[0], 7)])
        want_tail, want_head = _oracle_chunk_ranks(model, test, known, 7)
        np.testing.assert_array_equal(got.tail_ranks, want_tail)
        np.testing.assert_array_equal(got.head_ranks, want_head)

    @pytest.mark.parametrize("name, kwargs", [
        ("SpTorusE", {}), ("SpTransE", {"dissimilarity": "L1"}), ("SpTransA", {})])
    def test_models_without_the_l2_closed_form_are_called_as_before(
            self, kg, monkeypatch, name, kwargs):
        from repro import models
        from repro.evaluation import evaluate_link_prediction

        model = getattr(models, name)(kg.n_entities, kg.n_relations, 8, rng=0,
                                      **kwargs)
        kernel = _spy_on_squared_norms(monkeypatch)
        rows = _spy_on_row_norms(monkeypatch)
        result = evaluate_link_prediction(model, kg.split.test[:9],
                                          kg.known_triples(), batch_size=3)
        assert kernel == [] and rows == [] and np.isfinite(result.mrr)

    def test_projected_geometry_squares_only_its_projected_blocks(self, kg, monkeypatch):
        from repro.evaluation import evaluate_link_prediction
        from repro.models import SpTransR

        model = SpTransR(kg.n_entities, kg.n_relations, 8, relation_dim=5, rng=0)
        kernel = _spy_on_squared_norms(monkeypatch)
        rows = _spy_on_row_norms(monkeypatch)
        result = evaluate_link_prediction(model, kg.split.test[:9],
                                          kg.known_triples(), batch_size=3)
        # Each relation group squares its own (N, k) projected candidates and
        # its projected targets; the raw (N, d) table is never squared.
        assert kernel == []
        assert (kg.n_entities, 5) in rows and {k for _, k in rows} == {5}
        assert np.isfinite(result.mrr)

    def test_partitioned_table_has_no_whole_table_norms(self, kg, monkeypatch):
        from repro.evaluation import evaluate_link_prediction
        from repro.models import SpTransE

        part = SpTransE(kg.n_entities, kg.n_relations, 8, rng=2, partitions=3)
        try:
            known = kg.known_triples()
            rows = _spy_on_row_norms(monkeypatch)
            got = evaluate_link_prediction(part, kg.split.test, known, batch_size=7)
            # Each bucket block is squared on its own; nothing table-sized is.
            assert rows and max(n for n, _ in rows) < kg.n_entities
            want_tail, want_head = _oracle_chunk_ranks(part, kg.split.test, known, 7)
            np.testing.assert_array_equal(got.tail_ranks, want_tail)
            np.testing.assert_array_equal(got.head_ranks, want_head)
        finally:
            part.embeddings.close()

    def test_nothing_is_remembered_across_an_in_place_weight_update(self, kg):
        from repro.evaluation import evaluate_link_prediction
        from repro.models import SpTransE

        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        known = kg.known_triples()
        before = evaluate_link_prediction(model, kg.split.test, known, batch_size=7)
        # What an optimizer step does: write the table through ``out=``.
        weights = model.embeddings.weight.data
        np.multiply(weights, np.linspace(0.2, 3.0, weights.shape[0])[:, None],
                    out=weights)
        after = evaluate_link_prediction(model, kg.split.test, known, batch_size=7)
        fresh = SpTransE(kg.n_entities, kg.n_relations, 16, rng=99)
        fresh.embeddings.weight.data[...] = weights
        want = evaluate_link_prediction(fresh, kg.split.test, known, batch_size=7)
        np.testing.assert_array_equal(after.tail_ranks, want.tail_ranks)
        np.testing.assert_array_equal(after.head_ranks, want.head_ranks)
        assert not np.array_equal(before.tail_ranks, after.tail_ranks)
        assert not [name for name in vars(model) if "sq" in name]


class TestAdversarialTables:
    """ROADMAP 10c's tables, ranked raw under the realistic tie rule
    (``better + ties / 2 + 1``) against plain ``np.linalg.norm``."""

    N, R, D = 37, 3, 8

    def _ranks(self, ent, rel, triples):
        from repro.evaluation import RankingProtocol, evaluate_link_prediction
        from repro.models import SpTransE

        model = SpTransE(self.N, self.R, self.D, rng=0)
        model.embeddings.weight.data[:self.N] = ent
        model.embeddings.weight.data[self.N:] = rel
        got = evaluate_link_prediction(model, triples, protocol=RankingProtocol.RAW,
                                       batch_size=4)
        want_tail, want_head = [], []
        for h, r, t in triples.tolist():
            for scores, true, sink in (
                    (np.linalg.norm(ent[h] + rel[r] - ent, axis=1), t, want_tail),
                    (np.linalg.norm(ent - (ent[t] - rel[r]), axis=1), h, want_head)):
                better = int((scores < scores[true]).sum())
                ties = int((scores == scores[true]).sum()) - 1
                sink.append(better + ties / 2.0 + 1)
        return got, np.array(want_tail), np.array(want_head)

    def _triples(self, rng, exclude=()):
        allowed = np.setdiff1d(np.arange(self.N), np.asarray(exclude, dtype=np.int64))
        return np.column_stack([rng.choice(allowed, 11), rng.integers(0, self.R, 11),
                                rng.choice(allowed, 11)])

    def test_all_rows_equal_every_score_ties(self, rng):
        ent = np.tile(rng.standard_normal(self.D), (self.N, 1))
        got, want_tail, want_head = self._ranks(
            ent, rng.standard_normal((self.R, self.D)), self._triples(rng))
        assert np.all(want_tail == (self.N + 1) / 2)
        np.testing.assert_array_equal(got.tail_ranks, want_tail)
        np.testing.assert_array_equal(got.head_ranks, want_head)

    def test_all_zero_table(self, rng):
        got, want_tail, want_head = self._ranks(
            np.zeros((self.N, self.D)), rng.standard_normal((self.R, self.D)),
            self._triples(rng))
        assert np.all(want_head == (self.N + 1) / 2)
        np.testing.assert_array_equal(got.tail_ranks, want_tail)
        np.testing.assert_array_equal(got.head_ranks, want_head)

    def test_near_duplicate_rows_one_ulp_apart(self, rng):
        ent = rng.standard_normal((self.N, self.D))
        ent[5] = np.nextafter(ent[4], np.inf)
        ent[21] = np.nextafter(ent[20], -np.inf)
        # The twins are candidates for every query but never the true entity:
        # which of two rows 1 ulp apart is "closer" is below what either the
        # expansion or the norm resolves, and no rank here depends on it.
        got, want_tail, want_head = self._ranks(
            ent, rng.standard_normal((self.R, self.D)),
            self._triples(rng, exclude=(4, 5, 20, 21)))
        np.testing.assert_array_equal(got.tail_ranks, want_tail)
        np.testing.assert_array_equal(got.head_ranks, want_head)

    def test_true_entity_equal_to_the_query(self, rng):
        ent = rng.standard_normal((self.N, self.D))
        rel = np.zeros((self.R, self.D))  # h + r == h: the answer is the query
        triples = np.column_stack([np.arange(9), np.arange(9) % self.R, np.arange(9)])
        got, want_tail, want_head = self._ranks(ent, rel, triples)
        assert np.all(want_tail == 1) and np.all(want_head == 1)
        np.testing.assert_array_equal(got.tail_ranks, want_tail)
        np.testing.assert_array_equal(got.head_ranks, want_head)
