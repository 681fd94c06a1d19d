"""Exactness tests for the one SpMM kernel and parity tests for the margin loss.

The contract: the production (``scipy`` CSR) row-sparse backward is the
forward kernel applied to ``A^T`` with its empty rows dropped, so its packed
rows are **bit-identical** to the touched rows of the dense backward and agree
with the ``numpy`` oracle to rounding; the one-pass margin kernels reproduce
the reference hinge.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.sparse import SpMMBackend, available_backends, get_backend, spmm
from repro.sparse import kernels
from repro.sparse.incidence import build_hrt_incidence, build_ht_incidence
from repro.sparse.spmm import rowsparse_backward_for

N_ENTITIES, N_RELATIONS, DIM = 40, 6, 12


def _triples(batch, seed=0):
    """``mixed``: random triples salted with ``head == tail`` rows and repeats."""
    if batch == "empty":
        return np.empty((0, 3), dtype=np.int64)
    rng = np.random.default_rng(seed)
    triples = np.column_stack([
        rng.integers(0, N_ENTITIES, 64),
        rng.integers(0, N_RELATIONS, 64),
        rng.integers(0, N_ENTITIES, 64),
    ])
    triples[::7, 2] = triples[::7, 0]
    triples[1::9] = triples[0]
    return triples


def _incidence(kind, triples, fmt, compact):
    """``(A, touched columns)``; ``compact`` remaps ids like the partitioned path."""
    n_entities, n_relations = N_ENTITIES, N_RELATIONS
    if compact:
        entity_ids = np.unique(triples[:, 0::2])
        relation_ids = np.unique(triples[:, 1])
        triples = np.column_stack([
            np.searchsorted(entity_ids, triples[:, 0]),
            np.searchsorted(relation_ids, triples[:, 1]),
            np.searchsorted(entity_ids, triples[:, 2]),
        ])
        n_entities, n_relations = entity_ids.size, relation_ids.size
    if kind == "ht":
        A = build_ht_incidence(triples, n_entities, fmt=fmt)
        return A, np.unique(triples[:, 0::2])
    A = build_hrt_incidence(triples, n_entities, n_relations, fmt=fmt)
    return A, np.unique(np.concatenate(
        [triples[:, 0], triples[:, 2], triples[:, 1] + n_entities]))


class TestBackendMenu:
    def test_one_production_kernel_and_one_oracle(self):
        # Other test modules register throwaway "unit-test-*" backends.
        builtin = {name for name in available_backends()
                   if not name.startswith("unit-test-")}
        assert builtin == {"numpy", "scipy"}

    def test_backend_without_its_own_backward_gets_production(self):
        plain = SpMMBackend(name="plain", fn=get_backend("numpy").fn)
        assert rowsparse_backward_for(plain) is rowsparse_backward_for("scipy")
        assert rowsparse_backward_for("numpy") is not rowsparse_backward_for("scipy")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fmt", ["csr", "coo"])
@pytest.mark.parametrize("kind", ["hrt", "ht"])
class TestRowSparseBackwardExactness:
    @pytest.mark.parametrize("batch,compact", [
        ("mixed", False), ("mixed", True), ("empty", False)])
    def test_packed_rows_are_the_dense_backward_rows(self, kind, fmt, dtype,
                                                     batch, compact):
        A, touched = _incidence(kind, _triples(batch, seed=3), fmt, compact)
        n_rows = A.shape[1]
        grad = np.random.default_rng(11).standard_normal(
            (A.shape[0], DIM)).astype(dtype)

        out = rowsparse_backward_for("scipy")(A, grad, n_rows)
        dense = get_backend("scipy")(A.T, grad)

        np.testing.assert_array_equal(out.indices, touched)
        assert out.shape == dense.shape == (n_rows, DIM)
        assert out.values.dtype == dense.dtype == dtype
        assert np.array_equal(out.values, dense[out.indices])
        assert not np.delete(dense, out.indices, axis=0).any()
        if compact:
            assert out.n_rows == n_rows  # every compact column is touched

        oracle = rowsparse_backward_for("numpy")(A, grad, n_rows)
        np.testing.assert_array_equal(oracle.indices, out.indices)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(out.values, oracle.values, rtol=tol, atol=tol)

    def test_sparse_grad_equals_dense_grad_through_autograd(self, kind, fmt, dtype):
        A, _ = _incidence(kind, _triples("mixed", seed=13), fmt, compact=False)
        X = np.random.default_rng(13).standard_normal((A.shape[1], DIM)).astype(dtype)
        weights = np.random.default_rng(17).standard_normal((A.shape[0], DIM)).astype(dtype)
        X_dense = Tensor(X.copy(), requires_grad=True)
        X_sparse = Tensor(X.copy(), requires_grad=True)
        (spmm(A, X_dense) * Tensor(weights)).sum().backward()
        (spmm(A, X_sparse, sparse_grad=True) * Tensor(weights)).sum().backward()
        assert X_sparse.sparse_grad is not None
        assert np.array_equal(X_sparse.grad, X_dense.grad)


class TestMarginKernels:
    def test_forward_matches_reference_hinge(self):
        rng = np.random.default_rng(4)
        pos, neg = rng.standard_normal(257), rng.standard_normal(257)
        raw, mask = kernels.margin_loss_forward(pos, neg, 0.5)
        ref = np.maximum(pos - neg + 0.5, 0.0)
        np.testing.assert_array_equal(raw, (pos - neg + 0.5) * mask)
        np.testing.assert_allclose(raw, ref, rtol=1e-15)

    def test_sum_matches_forward_sum(self):
        rng = np.random.default_rng(6)
        pos, neg = rng.standard_normal(100), rng.standard_normal(100)
        raw, mask_f = kernels.margin_loss_forward(pos, neg, 0.3)
        total, mask_s = kernels.margin_loss_sum(pos, neg, 0.3)
        np.testing.assert_array_equal(mask_f, mask_s)
        assert total == pytest.approx(raw.sum(), rel=1e-12)
