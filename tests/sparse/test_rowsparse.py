"""Tests for the row-sparse gradient container."""

import numpy as np
import pytest

from repro.sparse import RowSparseGrad, coalesce_rows


class TestCoalesceRows:
    def test_sums_duplicates(self):
        rows = np.array([3, 1, 3, 1, 0])
        values = np.arange(10.0).reshape(5, 2)
        unique, packed = coalesce_rows(rows, values)
        np.testing.assert_array_equal(unique, [0, 1, 3])
        np.testing.assert_allclose(packed[1], values[1] + values[3])
        np.testing.assert_allclose(packed[2], values[0] + values[2])
        np.testing.assert_allclose(packed[0], values[4])

    def test_already_unique_sorted(self):
        rows = np.array([0, 2, 5])
        values = np.ones((3, 4))
        unique, packed = coalesce_rows(rows, values)
        np.testing.assert_array_equal(unique, rows)
        np.testing.assert_allclose(packed, values)

    def test_empty(self):
        unique, packed = coalesce_rows(np.array([], dtype=np.int64),
                                       np.empty((0, 3)))
        assert unique.size == 0
        assert packed.shape == (0, 3)


class TestRowSparseGrad:
    def test_from_rows_coalesces(self):
        rsg = RowSparseGrad.from_rows(
            np.array([4, 0, 4]), np.ones((3, 2)), (6, 2)
        )
        np.testing.assert_array_equal(rsg.indices, [0, 4])
        np.testing.assert_allclose(rsg.values, [[1.0, 1.0], [2.0, 2.0]])
        assert rsg.n_rows == 2
        assert rsg.shape == (6, 2)

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([2, 1]), np.ones((2, 3)), (4, 3))
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([1, 1]), np.ones((2, 3)), (4, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            RowSparseGrad(np.array([5]), np.ones((1, 3)), (4, 3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RowSparseGrad(np.array([0]), np.ones((1, 2)), (4, 3))

    def test_to_dense_roundtrip(self):
        dense = np.zeros((5, 3))
        dense[1] = [1.0, 2.0, 3.0]
        dense[4] = [-1.0, 0.5, 0.0]
        rsg = RowSparseGrad(np.array([1, 4]), dense[[1, 4]], dense.shape)
        np.testing.assert_allclose(rsg.to_dense(), dense)

    def test_merge(self):
        a = RowSparseGrad(np.array([0, 2]), np.ones((2, 2)), (4, 2))
        b = RowSparseGrad(np.array([2, 3]), 2 * np.ones((2, 2)), (4, 2))
        merged = a.merge(b)
        np.testing.assert_allclose(merged.to_dense(),
                                   a.to_dense() + b.to_dense())

    def test_merge_shape_mismatch(self):
        a = RowSparseGrad(np.array([0]), np.ones((1, 2)), (4, 2))
        b = RowSparseGrad(np.array([0]), np.ones((1, 2)), (5, 2))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_add_to_dense_in_place(self):
        rsg = RowSparseGrad(np.array([1, 3]), np.ones((2, 2)), (4, 2))
        dense = np.full((4, 2), 10.0)
        out = rsg.add_to_dense(dense)
        assert out is dense
        np.testing.assert_allclose(dense[1], 11.0)
        np.testing.assert_allclose(dense[0], 10.0)

    def test_scale(self):
        rsg = RowSparseGrad(np.array([0]), np.ones((1, 2)), (3, 2))
        np.testing.assert_allclose(rsg.scale(2.5).values, 2.5)

    def test_three_dimensional_values(self):
        """TransR projection stacks have (R, k, d) parameters."""
        rsg = RowSparseGrad.from_rows(
            np.array([1, 1, 0]), np.ones((3, 2, 2)), (3, 2, 2)
        )
        dense = rsg.to_dense()
        assert dense.shape == (3, 2, 2)
        np.testing.assert_allclose(dense[1], 2.0)
        np.testing.assert_allclose(dense[2], 0.0)

    def test_density_and_nbytes(self):
        rsg = RowSparseGrad(np.array([0, 1]), np.ones((2, 8)), (10, 8))
        assert rsg.density == pytest.approx(0.2)
        assert rsg.nnz == 16
        assert rsg.nbytes == rsg.indices.nbytes + rsg.values.nbytes
