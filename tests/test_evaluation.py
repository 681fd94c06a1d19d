"""Tests for ranking utilities, link prediction, and triple classification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import generate_synthetic_kg
from repro.evaluation import (
    RankingProtocol,
    compute_ranks,
    evaluate_link_prediction,
    evaluate_triple_classification,
)
from repro.evaluation.ranks import hits_at_k, mean_rank, mean_reciprocal_rank
from repro.models import SpTransE
from repro.models.base import KGEModel
from repro.profiling import peak_traced_bytes


# --------------------------------------------------------------------------- #
# The oracle: the evaluator as it stood before the known-triples index — a
# dict over every known triple per chunk, then a +inf mask over a copy of the
# score block, one row at a time.
# --------------------------------------------------------------------------- #
def _build_filters(triples, known_triples, mode):
    by_query = {}
    for h, r, t in known_triples:
        if mode == "tail":
            by_query.setdefault((h, r), []).append(t)
        else:
            by_query.setdefault((t, r), []).append(h)
    filters = []
    for h, r, t in triples.tolist():
        key = (h, r) if mode == "tail" else (t, r)
        filters.append(np.asarray(by_query.get(key, []), dtype=np.int64))
    return filters


def _masked_ranks(candidate_scores, true_indices, filter_indices=None):
    working = np.asarray(candidate_scores, dtype=np.float64).copy()
    b = working.shape[0]
    if filter_indices is not None:
        for row, exclude in enumerate(filter_indices):
            exclude = np.asarray(exclude, dtype=np.int64)
            working[row, exclude[exclude != true_indices[row]]] = np.inf
    target = working[np.arange(b), true_indices]
    better = (working < target[:, None]).sum(axis=1)
    ties = (working == target[:, None]).sum(axis=1) - 1
    return (better + ties / 2.0 + 1).astype(np.float64)


def _oracle_ranks(model, triples, known_triples, batch_size):
    """``(tail_ranks, head_ranks)`` by the oracle; raw when ``known_triples`` is None."""
    tail_ranks, head_ranks = [], []
    for start in range(0, triples.shape[0], batch_size):
        chunk = triples[start:start + batch_size]
        heads, rels, tails = chunk[:, 0], chunk[:, 1], chunk[:, 2]
        tail_filters = head_filters = None
        if known_triples is not None:
            tail_filters = _build_filters(chunk, known_triples, "tail")
            head_filters = _build_filters(chunk, known_triples, "head")
        tail_ranks.append(_masked_ranks(model.score_all_tails(heads, rels),
                                        tails, tail_filters))
        head_ranks.append(_masked_ranks(model.score_all_heads(rels, tails),
                                        heads, head_filters))
    return np.concatenate(tail_ranks), np.concatenate(head_ranks)


class _ConstantScorer(KGEModel):
    """Every candidate ties: the ranks are decided by the tie and filter counts.

    It ranks through :class:`KGEModel`'s generic ``rank_triples``: its score
    blocks, then ``compute_ranks``."""

    def __init__(self, n_entities, n_relations):
        super().__init__(n_entities, n_relations, 1)

    def score_all_tails(self, heads, relations):
        return np.full((heads.shape[0], self.n_entities), 0.25, dtype=np.float64)

    def score_all_heads(self, relations, tails):
        return np.full((tails.shape[0], self.n_entities), 0.25, dtype=np.float64)


class TestComputeRanks:
    def test_best_candidate_gets_rank_one(self):
        scores = np.array([[0.1, 0.5, 0.9]])
        assert compute_ranks(scores, np.array([0]))[0] == 1

    def test_worst_candidate_gets_last_rank(self):
        scores = np.array([[0.1, 0.5, 0.9]])
        assert compute_ranks(scores, np.array([2]))[0] == 3

    def test_ties_counted_as_half(self):
        scores = np.array([[0.5, 0.5, 0.9]])
        # One tie at the target's score -> rank 1 + 1/2.
        assert compute_ranks(scores, np.array([0]))[0] == pytest.approx(1.5)

    def test_constant_scores_give_middle_rank(self):
        n = 11
        scores = np.zeros((1, n))
        rank = compute_ranks(scores, np.array([4]))[0]
        assert rank == pytest.approx((n + 1) / 2)

    def test_filtering_removes_other_positives(self):
        scores = np.array([[0.1, 0.2, 0.9]])
        raw = compute_ranks(scores, np.array([2]))
        filtered = compute_ranks(scores, np.array([2]), [np.array([0, 1])])
        assert raw[0] == 3
        assert filtered[0] == 1

    def test_filter_never_removes_the_target_itself(self):
        scores = np.array([[0.1, 0.2, 0.9]])
        filtered = compute_ranks(scores, np.array([2]), [np.array([2])])
        assert filtered[0] == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compute_ranks(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(IndexError):
            compute_ranks(np.zeros((1, 3)), np.array([5]))
        with pytest.raises(ValueError):
            compute_ranks(np.zeros((2, 3)), np.array([0, 1]), [np.array([0])])

    def test_metric_helpers(self):
        ranks = np.array([1.0, 2.0, 10.0])
        assert mean_rank(ranks) == pytest.approx(13 / 3)
        assert mean_reciprocal_rank(ranks) == pytest.approx((1 + 0.5 + 0.1) / 3)
        assert hits_at_k(ranks, 1) == pytest.approx(1 / 3)
        assert hits_at_k(ranks, 10) == 1.0
        with pytest.raises(ValueError):
            hits_at_k(ranks, 0)

    @pytest.mark.parametrize("bad", [-1, 3, -4, 10**12])
    def test_out_of_range_filter_index_raises(self, bad):
        # -1 used to wrap around and silently mask the *last* candidate.
        scores = np.array([[0.3, 0.2, 0.1], [0.1, 0.2, 0.3]])
        true = np.array([0, 2])
        with pytest.raises(IndexError):
            compute_ranks(scores, true, [np.array([1, bad]), np.array([], dtype=np.int64)])
        with pytest.raises(IndexError):
            compute_ranks(scores, true, (np.array([0, 0]), np.array([1, bad])))
        with pytest.raises(IndexError):  # flat row index outside the block
            compute_ranks(scores, true, (np.array([0, 2]), np.array([1, 1])))
        assert compute_ranks(scores, true, [np.array([1, 2]), None]).tolist() == [1, 3]

    def test_flat_form_validation(self):
        scores, true = np.zeros((2, 3)), np.array([0, 1])
        with pytest.raises(ValueError):
            compute_ranks(scores, true, (np.array([0]), np.array([1, 2])))
        with pytest.raises(ValueError):
            compute_ranks(scores, true, (np.array([0]),))

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_masking_oracle(self, b, n, seed):
        """Flat and per-row forms, duplicate and unsorted entries, many ties."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=(b, n)).astype(np.float64)
        true = rng.integers(0, n, size=b)
        per_row = [rng.integers(0, n, size=rng.integers(0, 2 * n)) for _ in range(b)]
        want = _masked_ranks(scores, true, per_row)
        before = scores.copy()
        np.testing.assert_array_equal(compute_ranks(scores, true, per_row), want)
        rows = np.repeat(np.arange(b), [len(e) for e in per_row])
        cols = np.concatenate(per_row)
        shuffle = rng.permutation(rows.size)
        np.testing.assert_array_equal(
            compute_ranks(scores, true, (rows[shuffle], cols[shuffle])), want)
        np.testing.assert_array_equal(scores, before)
        np.testing.assert_array_equal(compute_ranks(scores, true),
                                      _masked_ranks(scores, true))

    def test_input_is_neither_copied_nor_written(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((64, 20_000))
        scores.setflags(write=False)
        true = rng.integers(0, 20_000, 64)
        rows = np.repeat(np.arange(64), 5)
        cols = rng.integers(0, 20_000, rows.size)
        compute_ranks(scores[:2], true[:2])  # warm numpy's own lazy allocations
        assert peak_traced_bytes(lambda: compute_ranks(scores, true, (rows, cols))) < (
            0.5 * scores.nbytes)

    def test_non_finite_target_ranks_last_among_the_unfiltered(self):
        # A NaN target used to rank 0.5 (no candidate compares below or equal
        # to NaN, and the target's own tie was subtracted): a diverged model
        # reported better than perfect metrics.
        scores = np.array([[1.0, np.nan, 2.0, 0.5, np.nan],
                           [np.inf, 0.0, 1.0, 2.0, 3.0]])
        ranks = compute_ranks(scores, np.array([1, 0]), [np.array([0, 4, 1]), None])
        # Row 0: two other candidates filtered, last of the three left.
        np.testing.assert_array_equal(ranks, [3.0, 5.0])

    def test_fp32_block_ranks_as_its_fp64_widening(self):
        rng = np.random.default_rng(1)
        scores32 = rng.integers(0, 50, size=(8, 300)).astype(np.float32) / np.float32(7)
        true = rng.integers(0, 300, 8)
        filters = [rng.integers(0, 300, 20) for _ in range(8)]
        got = compute_ranks(scores32, true, filters)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, compute_ranks(scores32.astype(np.float64), true, filters))
        np.testing.assert_array_equal(got, _masked_ranks(scores32, true, filters))
        # Non-float blocks still rank (as float64).
        np.testing.assert_array_equal(
            compute_ranks(np.array([[3, 1, 2]]), np.array([0])), [3.0])

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_rank_always_within_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((3, n))
        true = rng.integers(0, n, 3)
        ranks = compute_ranks(scores, true)
        assert np.all(ranks >= 1)
        assert np.all(ranks <= n)


class TestLinkPrediction:
    @pytest.fixture
    def trained_setup(self):
        kg = generate_synthetic_kg(40, 4, 400, rng=0, valid_fraction=0.0, test_fraction=0.1)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)
        return kg, model

    def test_result_structure(self, trained_setup):
        kg, model = trained_setup
        result = evaluate_link_prediction(model, kg.split.test[:10],
                                          known_triples=kg.known_triples())
        assert set(result.hits) == {1, 3, 10}
        assert 1 <= result.mean_rank <= kg.n_entities
        assert 0 <= result.mrr <= 1
        assert result.head_ranks.shape == result.tail_ranks.shape == (10,)
        as_dict = result.to_dict()
        assert "hits@10" in as_dict

    def test_filtered_requires_known_triples(self, trained_setup):
        kg, model = trained_setup
        with pytest.raises(ValueError):
            evaluate_link_prediction(model, kg.split.test[:5], known_triples=None)

    def test_raw_protocol_without_filter(self, trained_setup):
        kg, model = trained_setup
        result = evaluate_link_prediction(model, kg.split.test[:5],
                                          protocol=RankingProtocol.RAW)
        assert result.protocol == "raw"

    def test_filtered_never_worse_than_raw(self, trained_setup):
        kg, model = trained_setup
        test = kg.split.test[:20]
        raw = evaluate_link_prediction(model, test, protocol=RankingProtocol.RAW)
        filtered = evaluate_link_prediction(model, test, known_triples=kg.known_triples())
        assert filtered.mrr >= raw.mrr - 1e-12
        assert filtered.mean_rank <= raw.mean_rank + 1e-12

    def test_oracle_model_gets_perfect_hits(self):
        """If embeddings are constructed so h + r = t exactly for the test triples,
        filtered Hits@1 must be 1."""
        kg = generate_synthetic_kg(30, 3, 200, rng=1, test_fraction=0.1)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        # Build an oracle embedding: place entities far apart, then set
        # relation vectors so the *test* triples are exact translations.
        rng = np.random.default_rng(0)
        ent = rng.standard_normal((kg.n_entities, 8)) * 10
        model.embeddings.weight.data[:kg.n_entities] = ent
        test = kg.split.test[:5]
        # A single relation cannot satisfy several triples at once in general, so
        # give each test triple its own relation index.
        for i, (h, r, t) in enumerate(test):
            model.embeddings.weight.data[kg.n_entities + r] = ent[t] - ent[h]
            break  # only the first triple is made exact
        result = evaluate_link_prediction(model, test[:1], known_triples=kg.known_triples(),
                                          ks=(1,))
        assert result.hits[1] == 1.0

    def test_batched_evaluation_matches_unbatched(self, trained_setup):
        kg, model = trained_setup
        test = kg.split.test[:12]
        a = evaluate_link_prediction(model, test, known_triples=kg.known_triples(),
                                     batch_size=3)
        b = evaluate_link_prediction(model, test, known_triples=kg.known_triples(),
                                     batch_size=100)
        np.testing.assert_allclose(a.tail_ranks, b.tail_ranks)
        np.testing.assert_allclose(a.head_ranks, b.head_ranks)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("scorer", ["transe", "constant"])
    def test_ranks_equal_the_oracle(self, batch_size, scorer):
        # Few entities, many triples: most queries have several known answers.
        kg = generate_synthetic_kg(25, 3, 500, rng=3, valid_fraction=0.1,
                                   test_fraction=0.2)
        model = (SpTransE(kg.n_entities, kg.n_relations, 8, rng=0) if scorer == "transe"
                 else _ConstantScorer(kg.n_entities, kg.n_relations))
        test = kg.split.test
        known = kg.known_triples()
        plain = set(known)
        # Drop a few test triples from the set: their true entity is then
        # absent from ``known`` and must still be ranked, not excluded.
        absent = plain - {tuple(row) for row in test[:5].tolist()}
        assert len(absent) < len(plain)
        for known_triples in (known, plain, absent, frozenset(absent)):
            got = evaluate_link_prediction(model, test, known_triples,
                                           batch_size=batch_size)
            want_tail, want_head = _oracle_ranks(model, test, set(known_triples),
                                                 batch_size)
            np.testing.assert_array_equal(got.tail_ranks, want_tail)
            np.testing.assert_array_equal(got.head_ranks, want_head)
        raw = evaluate_link_prediction(model, test, protocol=RankingProtocol.RAW,
                                       batch_size=batch_size)
        want_tail, want_head = _oracle_ranks(model, test, None, batch_size)
        np.testing.assert_array_equal(raw.tail_ranks, want_tail)
        np.testing.assert_array_equal(raw.head_ranks, want_head)

    def test_a_diverged_model_ranks_every_target_last(self):
        kg = generate_synthetic_kg(50, 3, 400, rng=0, valid_fraction=0.0,
                                   test_fraction=0.2)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        model.embeddings.weight.data[:kg.n_entities] = np.nan
        known = kg.known_triples()
        test = kg.split.test
        result = evaluate_link_prediction(model, test, known, batch_size=16)
        for ranks, side, anchors, targets in (
                (result.tail_ranks, "tail", test[:, 0], test[:, 2]),
                (result.head_ranks, "head", test[:, 2], test[:, 0])):
            rows, cols = known.exclusions(side, anchors, test[:, 1])
            others = np.bincount(rows[cols != targets[rows]], minlength=test.shape[0])
            np.testing.assert_array_equal(ranks, kg.n_entities - others)
        assert result.mrr <= 1.0 and result.hits[1] == 0.0

    def test_non_finite_target_rows_rank_last_in_the_tiled_count(self):
        kg = generate_synthetic_kg(50, 3, 400, rng=0, valid_fraction=0.0,
                                   test_fraction=0.2)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        broken = np.arange(0, kg.n_entities, 3)
        model.embeddings.weight.data[broken] = np.nan
        heads, rels, tails = kg.split.test.T
        known = kg.known_triples()
        filters = (known.exclusions("tail", heads, rels),
                   known.exclusions("head", tails, rels))
        got = model.rank_triples(heads, rels, tails, *filters)
        wants = (compute_ranks(model.score_all_tails(heads, rels), tails, filters[0]),
                 compute_ranks(model.score_all_heads(rels, tails), heads, filters[1]))
        last = np.isin(tails, broken) | np.isin(heads, broken)
        assert last.any() and not last.all()
        for ranks, want, (rows, cols), targets in zip(got, wants, filters,
                                                      (tails, heads)):
            np.testing.assert_array_equal(ranks, want)
            others = np.bincount(rows[cols != targets[rows]],
                                 minlength=targets.shape[0])
            np.testing.assert_array_equal(ranks[last], (kg.n_entities - others)[last])
            assert np.all(ranks[~last] < kg.n_entities - others[~last])

    def test_evaluation_never_allocates_the_score_block(self):
        from repro.data import KnownTriples

        n, b = 20_000, 64
        model = SpTransE(n, 4, 16, rng=0)
        rng = np.random.default_rng(0)
        triples = np.column_stack([rng.integers(0, n, b), rng.integers(0, 4, b),
                                   rng.integers(0, n, b)])
        known = KnownTriples(triples)
        evaluate_link_prediction(model, triples[:2], known)  # warm lazy allocations
        peak = peak_traced_bytes(
            lambda: evaluate_link_prediction(model, triples, known, batch_size=b))
        assert peak < b * n * 8 / 2

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_non_positive_batch_size_is_rejected(self, trained_setup, batch_size):
        # -4 used to return a result whose MRR and Hits@k were all NaN (no
        # chunk ever ran) and 0 died inside range().
        kg, model = trained_setup
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_link_prediction(model, kg.split.test[:5], kg.known_triples(),
                                     batch_size=batch_size)

    def test_known_triple_outside_the_model_vocabulary_raises(self, trained_setup):
        kg, model = trained_setup
        h, r, _ = kg.split.test[0].tolist()
        known = set(kg.known_triples()) | {(h, r, model.n_entities + 3)}
        with pytest.raises(IndexError):
            evaluate_link_prediction(model, kg.split.test[:1], known)

    def test_training_improves_hits(self):
        """End-to-end sanity: a trained model ranks better than an untrained one."""
        from repro.training import Trainer, TrainingConfig

        kg = generate_synthetic_kg(30, 3, 300, rng=2, test_fraction=0.1)
        untrained = SpTransE(kg.n_entities, kg.n_relations, 24, rng=0)
        before = evaluate_link_prediction(untrained, kg.split.test,
                                          known_triples=kg.known_triples())
        model = SpTransE(kg.n_entities, kg.n_relations, 24, rng=0)
        Trainer(model, kg, TrainingConfig(epochs=60, batch_size=128, learning_rate=0.05,
                                          optimizer="adam", seed=0)).train()
        after = evaluate_link_prediction(model, kg.split.test,
                                         known_triples=kg.known_triples())
        assert after.mrr > before.mrr


class TestTripleClassification:
    def test_oracle_thresholds_give_high_accuracy(self):
        kg = generate_synthetic_kg(30, 3, 300, rng=3, valid_fraction=0.2, test_fraction=0.2)
        model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=0)

        class Oracle(SpTransE):
            def __init__(self):
                pass

        # Fake a model whose score is 0 for known triples and 1 otherwise.
        known = kg.known_triples()

        class FakeModel:
            n_entities = kg.n_entities
            n_relations = kg.n_relations

            def score_triples(self, triples):
                return np.array([0.0 if tuple(t) in known else 1.0 for t in triples.tolist()])

        result = evaluate_triple_classification(FakeModel(), kg.split.valid, kg.split.test,
                                                rng=0)
        # Unfiltered corruption occasionally produces true positives as "negatives",
        # so perfect accuracy is not attainable even for an oracle scorer.
        assert result.accuracy > 0.9
        assert 0.0 <= result.default_threshold <= 1.0

    def test_result_contains_per_relation_thresholds(self):
        kg = generate_synthetic_kg(30, 3, 300, rng=4, valid_fraction=0.2, test_fraction=0.2)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        result = evaluate_triple_classification(model, kg.split.valid, kg.split.test, rng=0)
        assert set(result.thresholds) <= set(range(kg.n_relations))
        assert 0.0 <= result.accuracy <= 1.0
        assert "accuracy" in result.to_dict()

    def test_requires_non_empty_splits(self):
        kg = generate_synthetic_kg(20, 2, 50, rng=5)
        model = SpTransE(kg.n_entities, kg.n_relations, 8, rng=0)
        with pytest.raises(ValueError):
            evaluate_triple_classification(model, np.empty((0, 3), dtype=np.int64),
                                           kg.split.train, rng=0)
