"""Seeded k-means (repro.ann.kmeans): determinism, empty clusters, clamping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import assign_clusters, default_n_clusters, kmeans
from repro.ann.kmeans import (
    ASSIGN_TILE_ELEMENTS,
    _cluster_means,
    _reseed_empty_clusters,
)
from repro.profiling import peak_traced_bytes


class TestKMeansDeterminism:
    def test_fixed_seed_is_bit_reproducible(self, rng):
        rows = rng.standard_normal((120, 8))
        c1, a1 = kmeans(rows, 10, n_iters=8, seed=3)
        c2, a2 = kmeans(rows, 10, n_iters=8, seed=3)
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    def test_different_seeds_differ(self, rng):
        rows = rng.standard_normal((120, 8))
        _, a1 = kmeans(rows, 10, seed=0)
        _, a2 = kmeans(rows, 10, seed=1)
        assert not np.array_equal(a1, a2)


def _textbook_distances(rows, centroids):
    """``sqrt(max(‖x‖² + ‖c‖² − 2 x·c, 0) + 1e-12)``, the whole matrix at once."""
    tile = ((rows ** 2).sum(axis=1)[:, None]
            + (centroids ** 2).sum(axis=1)[None, :])
    tile -= 2.0 * (rows @ centroids.T)
    np.maximum(tile, 0.0, out=tile)
    tile += 1e-12
    return np.sqrt(tile)


def _tie_free(rng, n, c, d, dtype):
    """Rows and centroids whose nearest centroid wins by a clear margin."""
    rows = rng.standard_normal((n, d))
    centroids = rng.standard_normal((c, d))
    sq = np.sort(_textbook_distances(rows, centroids) ** 2, axis=1)
    clear = (sq[:, 1] - sq[:, 0]) > 1e-3 * sq[:, 1]
    return rows[clear].astype(dtype), centroids.astype(dtype)


def _reduceat_means(rows, assign, n_clusters):
    """The gather + segmented-sum mean step, kept as the SpMM's oracle."""
    perm = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=n_clusters)
    starts = np.zeros(n_clusters, dtype=np.int64)
    starts[1:] = np.cumsum(counts[:-1])
    sums = np.add.reduceat(rows[perm], starts, axis=0)
    return (sums / counts[:, None]).astype(rows.dtype)


def _full_lloyds(rows, n_clusters, n_iters, seed):
    """Lloyd's on every row, from the same kernels, plus the final assignment
    of the returned centroids: what ``kmeans`` must return when the bucket is
    too small to sample."""
    n = rows.shape[0]
    centroids = rows[np.random.default_rng(seed).permutation(n)[:n_clusters]].copy()
    prev = None
    for _ in range(n_iters):
        assign, dist = assign_clusters(rows, centroids)
        _reseed_empty_clusters(assign, dist, n_clusters)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        centroids = _cluster_means(rows, assign, n_clusters)
    assign, dist = assign_clusters(rows, centroids)
    _reseed_empty_clusters(assign, dist, n_clusters)
    return centroids, assign


class TestAssignmentKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_argmin_equals_the_textbook_expression(self, dtype):
        rows, centroids = _tie_free(np.random.default_rng(8), 9000, 40, 16, dtype)
        assert ASSIGN_TILE_ELEMENTS // 40 * 2 < rows.shape[0]  # several row blocks
        assign, dist = assign_clusters(rows, centroids)
        assert assign.dtype == np.int32 and dist.dtype == dtype
        expected = np.argmin(_textbook_distances(rows, centroids), axis=1)
        assert np.array_equal(assign, expected)

    def test_distance_is_the_textbook_distance(self):
        rows, centroids = _tie_free(np.random.default_rng(9), 9000, 40, 16,
                                    np.float64)
        assign, dist = assign_clusters(rows, centroids)
        textbook = _textbook_distances(rows, centroids)
        expected = textbook[np.arange(rows.shape[0]), assign]
        np.testing.assert_allclose(dist, expected, rtol=1e-12, atol=0.0)

    def test_row_equal_to_its_centroid_is_exactly_1e_6_away(self):
        # Integer-valued rows keep every product and sum exact, so the
        # squared distance of a row to itself is exactly 0.
        rows = np.random.default_rng(10).integers(-4, 5, size=(500, 8)
                                                  ).astype(np.float64)
        rows = np.unique(rows, axis=0)
        centroids = rows[::7].copy()
        assign, dist = assign_clusters(rows, centroids)
        own = np.arange(0, rows.shape[0], 7)
        assert np.array_equal(assign[own], np.arange(own.size))
        assert np.all(dist[own] == 1e-6)

    def test_peak_memory_is_one_tile_plus_o_n(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((20000, 16))
        centroids = rows[:40].copy()
        tile_bytes = ASSIGN_TILE_ELEMENTS * rows.itemsize
        assert 20000 * 40 * rows.itemsize > 4 * tile_bytes  # a full matrix is not
        peak = peak_traced_bytes(lambda: assign_clusters(rows, centroids))
        assert peak <= tile_bytes + 64 * rows.shape[0] + 2 * centroids.nbytes


class TestMeanStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spmm_mean_matches_the_reduceat_oracle(self, dtype):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((5000, 16)).astype(dtype)
        assign = rng.integers(0, 50, size=5000).astype(np.int32)
        got = _cluster_means(rows, assign, 50)
        assert got.dtype == dtype
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(got, _reduceat_means(rows, assign, 50),
                                   rtol=rtol, atol=rtol)


class TestKMeansFinalAssignment:
    @pytest.mark.parametrize("n_iters", [1, 2, 10])
    def test_assign_is_the_nearest_centroid_of_the_returned_centroids(self, n_iters):
        rows = np.random.default_rng(0).standard_normal((3000, 16))
        centroids, assign = kmeans(rows, 40, n_iters=n_iters, seed=0)
        assert np.array_equal(assign, assign_clusters(rows, centroids)[0])

    @pytest.mark.parametrize("n_iters", [1, 3, 10])
    def test_unsampled_bucket_is_full_lloyds(self, rng, n_iters):
        # Buckets of more than 32 rows per cluster are sampled; 300 rows and
        # 10 clusters are clustered whole, bit for bit as full Lloyd's is.
        rows = rng.standard_normal((300, 8))
        centroids, assign = kmeans(rows, 10, n_iters=n_iters, seed=4)
        want_centroids, want_assign = _full_lloyds(rows, 10, n_iters, seed=4)
        assert np.array_equal(centroids, want_centroids)
        assert np.array_equal(assign, want_assign)

    def test_sampled_bucket_still_clusters_well(self):
        # 64 well-separated blobs of 200 rows: the sample sees every blob.
        rng = np.random.default_rng(13)
        centers = 10.0 * rng.standard_normal((64, 8))
        label = rng.integers(0, 64, size=12800)
        rows = centers[label] + 0.1 * rng.standard_normal((12800, 8))
        centroids, assign = kmeans(rows, 64, seed=0)
        _, dist = assign_clusters(rows, centroids)
        full_centroids, _ = _full_lloyds(rows, 64, 10, seed=0)
        _, full_dist = assign_clusters(rows, full_centroids)
        assert (dist ** 2).mean() <= 1.05 * (full_dist ** 2).mean()


class TestKMeansInvariants:
    def test_no_empty_clusters(self, rng):
        rows = rng.standard_normal((200, 6))
        centroids, assign = kmeans(rows, 16, seed=0)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        assert counts.min() >= 1

    def test_no_empty_clusters_with_duplicate_rows(self):
        # 5 distinct points tiled 8x: Lloyd's update alone would starve most
        # of the 8 centroids; the reseed step must still fill every cluster.
        distinct = np.arange(30, dtype=np.float64).reshape(5, 6)
        rows = np.tile(distinct, (8, 1))
        centroids, assign = kmeans(rows, 8, seed=0)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        assert centroids.shape[0] == 8
        assert counts.min() >= 1

    def test_n_clusters_clamped_to_rows(self, rng):
        rows = rng.standard_normal((3, 4))
        centroids, assign = kmeans(rows, 10, seed=0)
        assert centroids.shape == (3, 4)
        assert np.bincount(assign, minlength=3).min() >= 1

    def test_assign_is_nearest_centroid(self, rng):
        rows = rng.standard_normal((80, 5))
        centroids, assign = kmeans(rows, 6, seed=2)
        fresh, _ = assign_clusters(rows, centroids)
        assert np.array_equal(assign, fresh)

    def test_assign_dtype_and_shape(self, rng):
        rows = rng.standard_normal((40, 4)).astype(np.float32)
        centroids, assign = kmeans(rows, 5, seed=0)
        assert assign.dtype == np.int32
        assert centroids.dtype == np.float32


class TestKMeansErrors:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            kmeans(np.empty((0, 4), dtype=np.float64), 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            kmeans(np.zeros(8, dtype=np.float64), 2)

    def test_nonpositive_clusters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kmeans(np.zeros((4, 2), dtype=np.float64), 0)

    @pytest.mark.parametrize("n_iters", [0, -1])
    def test_nonpositive_iterations_rejected(self, n_iters):
        with pytest.raises(ValueError, match="n_iters"):
            kmeans(np.zeros((4, 2), dtype=np.float64), 2, n_iters=n_iters)


class TestDefaultNClusters:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (4, 2), (100, 10)])
    def test_sqrt_heuristic(self, n, expected):
        assert default_n_clusters(n) == expected
