"""Tests for the COO and CSR sparse-matrix containers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture
def dense():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((6, 8))
    mat[rng.random((6, 8)) < 0.6] = 0.0
    return mat


class TestCOOConstruction:
    def test_from_scipy_roundtrip(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        np.testing.assert_allclose(coo.to_dense(), dense)

    def test_to_scipy(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        np.testing.assert_allclose(coo.to_scipy().toarray(), dense)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 1], [0], [1.0, 2.0], (2, 2))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 2], [0, 1], [1.0, 2.0], (2, 2))
        with pytest.raises(ValueError):
            COOMatrix([0, 1], [0, 5], [1.0, 2.0], (2, 2))

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix([], [], [], (-1, 2))

    def test_empty_matrix(self):
        coo = COOMatrix([], [], [], (3, 4))
        assert coo.nnz == 0
        assert coo.density == 0.0
        np.testing.assert_allclose(coo.to_dense(), np.zeros((3, 4)))

    def test_duplicates_sum_in_to_dense(self):
        coo = COOMatrix([0, 0], [1, 1], [2.0, 3.0], (1, 2))
        np.testing.assert_allclose(coo.to_dense(), [[0.0, 5.0]])

    def test_properties(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        assert coo.nnz == np.count_nonzero(dense)
        assert coo.density == pytest.approx(np.count_nonzero(dense) / dense.size)
        assert coo.nbytes > 0

    def test_unhashable(self, dense):
        with pytest.raises(TypeError):
            hash(COOMatrix.from_scipy(sp.coo_matrix(dense)))


class TestCOOOperations:
    def test_transpose(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        np.testing.assert_allclose(coo.T.to_dense(), dense.T)

    def test_copy_is_deep(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        other = coo.copy()
        other.values[:] = 0.0
        assert coo.values.any()

    def test_scale(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        np.testing.assert_allclose(coo.scale(2.0).to_dense(), 2.0 * dense)

    def test_equality(self, dense):
        a = COOMatrix.from_scipy(sp.coo_matrix(dense))
        b = COOMatrix.from_scipy(sp.coo_matrix(dense))
        assert a == b


class TestCSR:
    def test_coo_csr_roundtrip(self, dense):
        coo = COOMatrix.from_scipy(sp.coo_matrix(dense))
        csr = coo.tocsr()
        np.testing.assert_allclose(csr.to_dense(), dense)
        np.testing.assert_allclose(csr.tocoo().to_dense(), dense)

    def test_from_scipy(self, dense):
        csr = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        np.testing.assert_allclose(csr.to_dense(), dense)
        np.testing.assert_allclose(csr.to_scipy().toarray(), dense)

    def test_invalid_indptr_length(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 1], [0], [1.0], (2, 2))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CSRMatrix([1, 1, 1], [], [], (2, 2))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 2))

    def test_column_bounds(self):
        with pytest.raises(ValueError):
            CSRMatrix([0, 1, 2], [0, 7], [1.0, 2.0], (2, 2))

    def test_transpose(self, dense):
        csr = COOMatrix.from_scipy(sp.coo_matrix(dense)).tocsr()
        np.testing.assert_allclose(csr.T.to_dense(), dense.T)

    def test_equality_and_copy(self, dense):
        a = COOMatrix.from_scipy(sp.coo_matrix(dense)).tocsr()
        b = a.copy()
        assert a == b
        b.data[:] = 0.0
        assert not (a == b)

    def test_unhashable(self, dense):
        with pytest.raises(TypeError):
            hash(COOMatrix.from_scipy(sp.coo_matrix(dense)).tocsr())


#: Edge-case structures: ``(rows, cols, values, shape)``.
STRUCTURES = {
    "empty": ([], [], [], (3, 4)),
    "no-rows": ([], [], [], (0, 5)),
    "empty-rows": ([1, 1, 2, 4], [3, 0, 2, 1], [1.0, 2.0, 3.0, 4.0], (6, 4)),
    "duplicates": ([2, 0, 2, 2], [1, 3, 1, 0], [1.5, -1.0, 2.5, 7.0], (3, 4)),
    "single": ([0], [0], [9.0], (1, 1)),
}


@pytest.fixture(params=list(STRUCTURES))
def structured(request):
    rows, cols, values, shape = STRUCTURES[request.param]
    return COOMatrix(rows, cols, values, shape)


class TestEdgeStructures:
    def test_tocsr_orders_rows_then_columns(self, structured):
        csr = structured.tocsr()
        np.testing.assert_array_equal(
            np.diff(csr.indptr), np.bincount(structured.rows,
                                             minlength=structured.shape[0]))
        for i in range(csr.shape[0]):
            row = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
            assert np.all(np.diff(row) >= 0)
        np.testing.assert_allclose(csr.to_dense(), structured.to_dense())

    def test_tocsr_keeps_every_entry(self, structured):
        back = structured.tocsr().tocoo()
        assert back.nnz == structured.nnz
        assert sorted(zip(back.rows.tolist(), back.cols.tolist(),
                          back.values.tolist())) == \
            sorted(zip(structured.rows.tolist(), structured.cols.tolist(),
                       structured.values.tolist()))

    @pytest.mark.parametrize("fmt", ["coo", "csr"])
    def test_double_transpose_is_identity(self, structured, fmt):
        mat = structured if fmt == "coo" else structured.tocsr()
        twice = mat.T.T
        assert twice.shape == mat.shape
        np.testing.assert_allclose(twice.to_dense(), mat.to_dense())

    def test_density_and_nbytes_agree_across_formats(self, structured):
        csr = structured.tocsr()
        assert csr.density == structured.density
        assert structured.nbytes == 8 * 3 * structured.nnz
        assert csr.nbytes == 8 * (2 * structured.nnz + structured.shape[0] + 1)
