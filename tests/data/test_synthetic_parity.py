"""The synthetic generators against their one-triple-at-a-time references.

``set_loop_synthetic_kg`` and ``set_loop_learnable_kg`` are the generators as
they were written first: every draw goes through a Python ``set`` of
``(h, r, t)`` tuples.  The library's vectorised first-occurrence dedup must
give the same triples, splits included, for every shape and seed; the pinned
digests hold the benchmark shapes to the triples the reference produced.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import generate_learnable_kg, generate_synthetic_kg, make_dataset_like
from repro.data import synthetic
from repro.data.dataset import KGDataset
from repro.experiment.spec import DataSpec
from repro.utils.seeding import new_rng


def set_loop_synthetic_kg(n_entities, n_relations, n_triples, rng=None,
                          entity_skew=0.8, relation_skew=1.1,
                          valid_fraction=0.0, test_fraction=0.0):
    """Reference for :func:`generate_synthetic_kg` (same draws, set dedup)."""
    rng = new_rng(rng)
    zipf = synthetic._zipf_probabilities
    ent_probs = zipf(n_entities, entity_skew, rng) if entity_skew > 0 else None
    rel_probs = zipf(n_relations, relation_skew, rng) if relation_skew > 0 else None
    seen = set()
    rows = np.empty((n_triples, 3), dtype=np.int64)
    filled = 0
    while filled < n_triples:
        chunk = max(1024, 2 * (n_triples - filled))
        heads = rng.choice(n_entities, size=chunk, p=ent_probs)
        tails = rng.choice(n_entities, size=chunk, p=ent_probs)
        rels = rng.choice(n_relations, size=chunk, p=rel_probs)
        mask = heads != tails
        for h, r, t in zip(heads[mask], rels[mask], tails[mask]):
            key = (int(h), int(r), int(t))
            if key in seen:
                continue
            seen.add(key)
            rows[filled] = key
            filled += 1
            if filled == n_triples:
                break
    dataset = KGDataset(triples=rows, n_entities=n_entities, n_relations=n_relations)
    if valid_fraction > 0 or test_fraction > 0:
        dataset = dataset.split_train_valid_test(valid_fraction, test_fraction, rng=rng)
    return dataset


def set_loop_learnable_kg(n_entities, n_relations, n_triples, latent_dim=16,
                          noise=0.05, rng=None, valid_fraction=0.0, test_fraction=0.0):
    """Reference for :func:`generate_learnable_kg` (whole-chunk softmax, set dedup)."""
    rng = new_rng(rng)
    positions = rng.standard_normal((n_entities, latent_dim))
    translations = rng.standard_normal((n_relations, latent_dim)) * 0.5
    temperature = noise * 2.0 * latent_dim
    seen = set()
    rows = np.empty((n_triples, 3), dtype=np.int64)
    filled = 0
    for _ in range(500):
        if filled >= n_triples:
            break
        chunk = max(256, n_triples - filled)
        heads = rng.integers(0, n_entities, size=chunk)
        rels = rng.integers(0, n_relations, size=chunk)
        targets = positions[heads] + translations[rels]
        sq_dists = ((targets[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        sq_dists[np.arange(chunk, dtype=np.int64), heads] = np.inf
        logits = -sq_dists / temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        draws = rng.random((chunk, 1))
        tails = np.minimum((draws > cdf).sum(axis=1), n_entities - 1)
        before = filled
        for h, r, t in zip(heads, rels, tails):
            if h == t:
                continue
            key = (int(h), int(r), int(t))
            if key in seen:
                continue
            seen.add(key)
            rows[filled] = key
            filled += 1
            if filled == n_triples:
                break
        if filled - before < max(1, chunk // 100):
            temperature *= 2.0
    if filled < n_triples:
        raise RuntimeError(f"could only realise {filled}/{n_triples} unique triples")
    dataset = KGDataset(triples=rows, n_entities=n_entities, n_relations=n_relations)
    if valid_fraction > 0 or test_fraction > 0:
        dataset = dataset.split_train_valid_test(valid_fraction, test_fraction, rng=rng)
    return dataset


def assert_same_splits(got: KGDataset, want: KGDataset) -> None:
    for part in ("train", "valid", "test"):
        np.testing.assert_array_equal(getattr(got.split, part), getattr(want.split, part),
                                      err_msg=part)


def digest(kg: KGDataset) -> str:
    """sha256 over the train, valid and test arrays (int64, C order)."""
    h = hashlib.sha256()
    for part in (kg.split.train, kg.split.valid, kg.split.test):
        h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


splits = st.sampled_from([(0.0, 0.0), (0.1, 0.0), (0.0, 0.06), (0.1, 0.1)])
skews = st.sampled_from([0.0, 0.5, 0.8, 1.5])


class TestSyntheticMatchesSetLoop:
    @given(n_entities=st.integers(2, 300), n_relations=st.integers(1, 12),
           n_triples=st.integers(1, 3000), entity_skew=skews, relation_skew=skews,
           split=splits, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_shapes(self, n_entities, n_relations, n_triples, entity_skew,
                           relation_skew, split, seed):
        n_triples = min(n_triples, n_entities * (n_entities - 1) * n_relations)
        kwargs = dict(entity_skew=entity_skew, relation_skew=relation_skew,
                      valid_fraction=split[0], test_fraction=split[1])
        assert_same_splits(
            generate_synthetic_kg(n_entities, n_relations, n_triples, rng=seed, **kwargs),
            set_loop_synthetic_kg(n_entities, n_relations, n_triples, rng=seed, **kwargs))

    @given(n_entities=st.integers(2, 10), n_relations=st.integers(1, 3),
           fill=st.floats(0.8, 1.0), entity_skew=skews, split=splits,
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_near_capacity_graphs_need_many_chunks(self, n_entities, n_relations, fill,
                                                   entity_skew, split, seed):
        capacity = n_entities * (n_entities - 1) * n_relations
        n_triples = max(1, int(fill * capacity))
        kwargs = dict(entity_skew=entity_skew, valid_fraction=split[0],
                      test_fraction=split[1])
        got = generate_synthetic_kg(n_entities, n_relations, n_triples, rng=seed, **kwargs)
        assert_same_splits(got, set_loop_synthetic_kg(n_entities, n_relations, n_triples,
                                                      rng=seed, **kwargs))

    def test_full_capacity_holds_every_triple_once(self):
        kg = generate_synthetic_kg(6, 2, 60, rng=4)
        assert len({tuple(t) for t in kg.split.train.tolist()}) == 60
        assert_same_splits(kg, set_loop_synthetic_kg(6, 2, 60, rng=4))

    @pytest.mark.parametrize("n_entities,n_relations", [(2 ** 31, 1), (2 ** 30, 7)])
    def test_keys_just_inside_int64(self, n_entities, n_relations):
        # n_entities**2 * n_relations is 2**62 and 7 * 2**60: keys near 2**63.
        kwargs = dict(entity_skew=0.0, relation_skew=0.0)
        kg = generate_synthetic_kg(n_entities, n_relations, 50, rng=2, **kwargs)
        assert kg.split.train[:, [0, 2]].max() >= n_entities // 2
        assert_same_splits(kg, set_loop_synthetic_kg(n_entities, n_relations, 50, rng=2,
                                                     **kwargs))


class TestLearnableMatchesSetLoop:
    @given(n_entities=st.integers(4, 40), n_relations=st.integers(1, 4),
           fill=st.floats(0.01, 1.0), latent_dim=st.integers(1, 8),
           noise=st.sampled_from([0.01, 0.05, 0.5, 5.0]),
           block=st.sampled_from([1, 7, 64, 1 << 20]), split=splits,
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_shapes_and_blocks(self, n_entities, n_relations, fill, latent_dim,
                                      noise, block, split, seed):
        capacity = n_entities * (n_entities - 1) * n_relations
        n_triples = max(1, min(600, int(fill * capacity)))
        kwargs = dict(latent_dim=latent_dim, noise=noise, valid_fraction=split[0],
                      test_fraction=split[1])
        try:
            want = set_loop_learnable_kg(n_entities, n_relations, n_triples, rng=seed,
                                         **kwargs)
        except RuntimeError:
            want = None
        # Small blocks split every chunk's softmax across many blocks.
        with mock.patch.object(synthetic, "_TAIL_BLOCK_ELEMENTS", block):
            if want is None:
                with pytest.raises(RuntimeError, match="could only realise"):
                    generate_learnable_kg(n_entities, n_relations, n_triples, rng=seed,
                                          **kwargs)
                return
            got = generate_learnable_kg(n_entities, n_relations, n_triples, rng=seed,
                                        **kwargs)
        assert_same_splits(got, want)

    def test_annealed_full_capacity(self):
        kwargs = dict(latent_dim=4, noise=0.01)
        assert_same_splits(generate_learnable_kg(8, 2, 112, rng=6, **kwargs),
                           set_loop_learnable_kg(8, 2, 112, rng=6, **kwargs))


class TestPinnedDigests:
    """sha256 of train/valid/test as the set-loop generator produced them."""

    @pytest.mark.parametrize("name,scale,test_fraction,seed,expected", [
        ("FB15K", 1.0, 0.0, 0,
         "5be572d1e1eb248edb0eb972c022522a0a392f3021b616d56be6086815ea0595"),
        ("COVID19", 0.2, 0.0, 0,
         "bc3c21f22f7b3dd9237360e1911aba5f33ecdf283267632307784189d18c846c"),
        ("WN18RR", 0.5, 0.06, 0,
         "73bc649f9cc585a6ef4d7b236e2f557604251930b0987572b559a2d91e8f86f0"),
        ("FB15K", 1.0, 0.0, 3,
         "ae7b3cd694c9e7f7f900f5e2112788aa93be9ff24d840addd5a045a88a745315"),
        ("COVID19", 0.2, 0.0, 3,
         "81c5e014b41f8e1b75a52fd770101249fdc920cfe5b1fab149417fa14ff82112"),
        ("WN18RR", 0.5, 0.06, 3,
         "398a69fac024c4f31d13b824b75ee9f1a4af334419ad026ce1179faf173b0a71"),
    ])
    def test_benchmark_shapes(self, name, scale, test_fraction, seed, expected):
        kg = make_dataset_like(name, scale=scale, rng=seed, test_fraction=test_fraction)
        assert digest(kg) == expected

    def test_learnable_wn18rr_spec(self):
        kg = DataSpec(dataset="WN18RR", scale=0.01, generator="learnable").materialize()
        assert digest(kg) == ("d161cc5059261e461532a3e6a2ef938f"
                              "d9cef2118462e77274bc549c5bee536b")


class TestMemory:
    def test_fb15k_tenth_generation_peak(self):
        # The set of tuples peaked at 14.3 MB; sorted int64 keys at 4.9 MB.
        peak = traced_peak_mb(lambda: make_dataset_like("FB15K", scale=0.1, rng=0))
        assert peak < 10.0

    def test_learnable_softmax_is_blocked(self):
        # One (chunk, entities, latent) temporary was 400 x 2000 x 16 float64
        # (102 MB); blocks of 2**20 cells keep the peak near 10.6 MB.
        peak = traced_peak_mb(lambda: generate_learnable_kg(2000, 8, 400, rng=0))
        assert peak < 24.0


class TestKeySpaceGuard:
    @pytest.mark.parametrize("generate", [generate_synthetic_kg, generate_learnable_kg])
    @pytest.mark.parametrize("n_entities,n_relations", [(2 ** 32, 1), (2 ** 31, 2),
                                                        (3037000500, 1)])
    def test_shapes_beyond_int64_keys_refused_before_any_draw(self, generate, n_entities,
                                                              n_relations):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        extra = {"entity_skew": 0.0} if generate is generate_synthetic_kg else {}
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            generate(n_entities, n_relations, 10, rng=rng, **extra)
        assert rng.bit_generator.state == state

    def test_largest_square_inside_is_accepted(self):
        kg = generate_synthetic_kg(3037000499, 1, 20, rng=1, entity_skew=0.0)
        assert kg.n_triples == 20
