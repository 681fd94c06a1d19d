"""Tests for SpMM backends and the autograd SpMM operator (Appendix G)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    available_backends,
    get_backend,
    register_backend,
    spmm,
)
from repro.sparse.backends import spmm_flops

BACKENDS = sorted(available_backends())


@pytest.fixture
def sparse_and_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((7, 5))
    dense[rng.random((7, 5)) < 0.5] = 0.0
    X = rng.standard_normal((5, 4))
    return COOMatrix.from_scipy(sp.coo_matrix(dense)), dense, X


class TestBackendRegistry:
    def test_builtin_backends_present(self):
        names = available_backends()
        assert {"scipy", "numpy"} <= set(names)

    def test_get_backend_passthrough(self):
        backend = get_backend("scipy")
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            get_backend("does-not-exist")

    def test_register_and_overwrite_rules(self):
        def fake(A, X):
            return np.zeros((A.shape[0],) + X.shape[1:])

        register_backend("unit-test-backend", fake, "fake", overwrite=True)
        assert "unit-test-backend" in available_backends()
        with pytest.raises(ValueError):
            register_backend("unit-test-backend", fake)
        register_backend("unit-test-backend", fake, overwrite=True)

    def test_spmm_flops_formula(self, sparse_and_dense):
        A, _, X = sparse_and_dense
        assert spmm_flops(A, X) == 2 * A.nnz * X.shape[1]


class TestBackendCorrectness:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_matches_dense_product(self, name, sparse_and_dense):
        A, dense, X = sparse_and_dense
        backend = get_backend(name)
        np.testing.assert_allclose(backend(A, X), dense @ X, rtol=1e-10)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_accepts_csr_and_scipy_inputs(self, name, sparse_and_dense):
        A, dense, X = sparse_and_dense
        backend = get_backend(name)
        np.testing.assert_allclose(backend(A.tocsr(), X), dense @ X, rtol=1e-10)
        np.testing.assert_allclose(backend(sp.csr_matrix(dense), X), dense @ X, rtol=1e-10)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_vector_rhs(self, name, sparse_and_dense):
        A, dense, X = sparse_and_dense
        backend = get_backend(name)
        np.testing.assert_allclose(backend(A, X[:, 0]), dense @ X[:, 0], rtol=1e-10)

    def test_dimension_mismatch(self, sparse_and_dense):
        A, _, _ = sparse_and_dense
        with pytest.raises(ValueError):
            get_backend("scipy")(A, np.ones((3, 2)))


class TestBackendDtypePreservation:
    """float32 inputs must stay float32 — no silent upcast to float64."""

    @pytest.fixture
    def incidence(self):
        rows = np.repeat(np.arange(4), 3)
        cols = np.array([0, 4, 1, 2, 4, 3, 1, 5, 0, 3, 4, 2])
        vals = np.tile([1.0, 1.0, -1.0], 4)
        return COOMatrix(rows, cols, vals, (4, 6))

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_preserves_float_dtype(self, name, dtype, incidence):
        X = np.random.default_rng(0).standard_normal((6, 3)).astype(dtype)
        out = get_backend(name)(incidence, X)
        assert out.dtype == dtype

    @pytest.mark.parametrize("name", BACKENDS)
    def test_vector_rhs_preserves_dtype(self, name, incidence):
        x = np.ones(6, dtype=np.float32)
        assert get_backend(name)(incidence, x).dtype == np.float32

    @pytest.mark.parametrize("name", BACKENDS)
    def test_float16_computes_at_float32_everywhere(self, name, incidence):
        """SciPy has no float16 sparse kernels, so the shared contract
        promotes half precision to float32 on every backend alike."""
        X = np.ones((6, 2), dtype=np.float16)
        out = get_backend(name)(incidence, X)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("name", BACKENDS)
    def test_integer_rhs_promotes_to_float64(self, name, incidence):
        X = np.ones((6, 2), dtype=np.int64)
        assert get_backend(name)(incidence, X).dtype == np.float64

    def test_float32_parity_across_backends(self, incidence):
        X = np.random.default_rng(2).standard_normal((6, 5)).astype(np.float32)
        results = {name: get_backend(name)(incidence, X) for name in BACKENDS}
        reference = incidence.to_dense().astype(np.float32) @ X
        for name, out in results.items():
            np.testing.assert_allclose(out, reference, rtol=1e-5,
                                       err_msg=f"backend {name}")


class TestSpmmAutograd:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forward_matches_dense(self, backend, sparse_and_dense):
        A, dense, X = sparse_and_dense
        out = spmm(A, Tensor(X), backend=backend)
        np.testing.assert_allclose(out.data, dense @ X, rtol=1e-10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backward_is_transposed_spmm(self, backend, sparse_and_dense):
        """Appendix G: dL/dX = A^T (dL/dC)."""
        A, dense, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=True)
        out = spmm(A, Xt, backend=backend)
        upstream = np.random.default_rng(5).standard_normal(out.shape)
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(Xt.grad, dense.T @ upstream, rtol=1e-10)

    def test_gradients_accumulate_over_two_products(self, sparse_and_dense):
        A, dense, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=True)
        (spmm(A, Xt) + spmm(A, Xt) * 2.0).sum().backward()
        np.testing.assert_allclose(Xt.grad, 3.0 * dense.T @ np.ones((dense.shape[0],
                                                                     X.shape[1])),
                                   rtol=1e-10)

    def test_gradcheck(self, sparse_and_dense):
        A, _, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=True)
        ok, err = gradcheck(lambda t: spmm(A, t), [Xt])
        assert ok, err

    def test_cached_transpose_used(self, sparse_and_dense):
        A, dense, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=True)
        out = spmm(A, Xt, A_t=A.T)
        out.sum().backward()
        np.testing.assert_allclose(Xt.grad, dense.T @ np.ones(out.shape), rtol=1e-10)

    def test_accepts_plain_ndarray_input(self, sparse_and_dense):
        A, dense, X = sparse_and_dense
        out = spmm(A, X)
        np.testing.assert_allclose(out.data, dense @ X, rtol=1e-10)

    def test_no_grad_into_constant_input(self, sparse_and_dense):
        A, _, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=False)
        out = spmm(A, Xt)
        assert not out.requires_grad

    def test_works_with_csr_operand(self, sparse_and_dense):
        A, dense, X = sparse_and_dense
        Xt = Tensor(X, requires_grad=True)
        out = spmm(A.tocsr(), Xt)
        out.sum().backward()
        np.testing.assert_allclose(Xt.grad, dense.T @ np.ones(out.shape), rtol=1e-10)
