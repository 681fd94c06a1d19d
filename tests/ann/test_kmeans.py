"""Seeded k-means (repro.ann.kmeans): determinism, empty clusters, clamping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import assign_clusters, default_n_clusters, kmeans


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


class TestAssignmentKeepsItsBits:
    def test_equal_to_the_expression_kernel_on_the_same_row_blocks(self):
        # Index builds are diffed bit for bit, so the assignment sweep must
        # hand the distance kernel the calls it always has — (2**21 // c)-row
        # blocks, each one GEMM — and get the textbook expression's bits back
        # however the kernel tiles wide calls internally.
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((7000, 16))
        centroids = rows[rng.permutation(7000)[:316]].copy()
        assign, dist = assign_clusters(rows, centroids)
        block = (1 << 21) // 316
        assert block < 7000  # more than one block
        c_sq = (centroids ** 2).sum(axis=1)[None, :]
        for start in range(0, 7000, block):
            blk = rows[start:start + block]
            tile = (blk ** 2).sum(axis=1)[:, None] + c_sq
            tile -= 2.0 * (blk @ centroids.T)
            np.maximum(tile, 0.0, out=tile)
            tile += 1e-12
            np.sqrt(tile, out=tile)
            nearest = np.argmin(tile, axis=1)
            assert np.array_equal(assign[start:start + block], nearest)
            assert np.array_equal(dist[start:start + block],
                                  tile[np.arange(blk.shape[0]), nearest])


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


class TestDefaultNClusters:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (4, 2), (100, 10)])
    def test_sqrt_heuristic(self, n, expected):
        assert default_n_clusters(n) == expected
