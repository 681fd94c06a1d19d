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
            model.predict_heads(2, 7, k=5),
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


class TestNearestRows:
    def test_blocked_matches_whole_matrix(self, rng):
        table = rng.standard_normal((50, 6))
        query = table[7]
        dist = ranking.l2_distance_matrix(query[None, :], table)[0]
        dist[7] = np.inf
        expected = ranking.top_k(dist, 5)

        def blocks(block_rows=12):
            for start in range(0, 50, block_rows):
                yield start, table[start:start + block_rows]

        idx, d = ranking.nearest_rows(query, blocks(), 5, exclude=7)
        assert np.array_equal(idx, expected)
        assert np.all(np.diff(d) >= 0)

    def test_exclude_never_returned(self, rng):
        table = rng.standard_normal((20, 4))
        idx, _ = ranking.nearest_rows(table[3], [(0, table)], 20, exclude=3)
        assert 3 not in idx.tolist()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_distance_dtype_follows_table(self, rng, dtype):
        # Regression: the query used to be widened to float64 unconditionally,
        # so fp16/fp32 tables came back with float64 distances in violation of
        # the dtype-promotion invariant (l2_distance_matrix contract).
        table = rng.standard_normal((24, 4)).astype(dtype)
        _, dist = ranking.nearest_rows(table[5], [(0, table[:12]), (12, table[12:])],
                                       4, exclude=5)
        assert dist.dtype == np.dtype(dtype)

    def test_integer_query_still_works(self):
        table = np.arange(12, dtype=np.float64).reshape(6, 2)
        query = np.array([4, 5], dtype=np.int64)  # non-float: cast to float64
        idx, dist = ranking.nearest_rows(query, [(0, table)], 2)
        assert idx[0] == 2 and dist.dtype == np.float64

    def test_empty_blocks(self):
        idx, dist = ranking.nearest_rows(np.zeros(3, dtype=np.float32), [], 4)
        assert idx.size == 0 and dist.size == 0 and dist.dtype == np.float64


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
    rel = model.relation_embedding_matrix()
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
        calls = -(-test.shape[0] // 7) * 2  # chunks x directions
        # Per call: one pass over the table, plus the batch's own target rows.
        assert sorted(rows) == sorted([(kg.n_entities, 16)] * calls
                                      + [(min(7, test.shape[0] - s), 16)
                                         for s in range(0, test.shape[0], 7)] * 2)
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
