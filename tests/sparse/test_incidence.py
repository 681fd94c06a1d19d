"""Tests for the ht / hrt incidence-matrix builders (paper Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix, COOMatrix, IncidenceBuilder, build_ht_incidence, build_hrt_incidence


@pytest.fixture
def triples():
    return np.array([
        [0, 1, 3],
        [2, 0, 1],
        [3, 2, 0],
        [1, 1, 2],
    ], dtype=np.int64)


N_ENT, N_REL = 5, 3


class TestHtIncidence:
    def test_shape_and_nnz(self, triples):
        A = build_ht_incidence(triples, N_ENT)
        assert A.shape == (4, N_ENT)
        assert A.nnz == 2 * len(triples)

    def test_values_are_plus_minus_one(self, triples):
        A = build_ht_incidence(triples, N_ENT, fmt="coo")
        assert set(np.unique(A.values)) == {-1.0, 1.0}

    def test_dense_structure(self, triples):
        A = build_ht_incidence(triples, N_ENT).to_dense()
        for i, (h, _, t) in enumerate(triples):
            expected = np.zeros(N_ENT)
            expected[h] += 1.0
            expected[t] -= 1.0
            np.testing.assert_allclose(A[i], expected)

    def test_product_equals_head_minus_tail(self, triples):
        rng = np.random.default_rng(0)
        E = rng.standard_normal((N_ENT, 6))
        A = build_ht_incidence(triples, N_ENT)
        expected = E[triples[:, 0]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-12)

    def test_self_loop_cancels(self):
        A = build_ht_incidence(np.array([[2, 0, 2]]), N_ENT)
        np.testing.assert_allclose(A.to_dense(), np.zeros((1, N_ENT)))

    def test_format_selection(self, triples):
        assert isinstance(build_ht_incidence(triples, N_ENT, fmt="csr"), CSRMatrix)
        assert isinstance(build_ht_incidence(triples, N_ENT, fmt="coo"), COOMatrix)
        with pytest.raises(ValueError):
            build_ht_incidence(triples, N_ENT, fmt="dense")

    def test_entity_bound_validation(self, triples):
        with pytest.raises(ValueError):
            build_ht_incidence(triples, 3)

    def test_empty_batch(self):
        A = build_ht_incidence(np.empty((0, 3), dtype=np.int64), N_ENT)
        assert A.shape == (0, N_ENT)
        assert A.nnz == 0


class TestHrtIncidence:
    def test_shape_and_nnz(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        assert A.shape == (4, N_ENT + N_REL)
        assert A.nnz == 3 * len(triples)

    def test_relation_column_offset(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL).to_dense()
        for i, (h, r, t) in enumerate(triples):
            assert A[i, N_ENT + r] == 1.0

    def test_product_equals_h_plus_r_minus_t(self, triples):
        rng = np.random.default_rng(1)
        E = rng.standard_normal((N_ENT + N_REL, 6))
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        expected = E[triples[:, 0]] + E[N_ENT + triples[:, 1]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-12)

    def test_relation_bound_validation(self, triples):
        with pytest.raises(ValueError):
            build_hrt_incidence(triples, N_ENT, 2)

    def test_rows_have_exactly_three_nonzeros(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL)
        np.testing.assert_array_equal(A.nnz_per_row(), np.full(len(triples), 3))


class TestIncidenceBuilder:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncidenceBuilder(0, 3)
        with pytest.raises(ValueError):
            IncidenceBuilder(3, 0)
        with pytest.raises(ValueError):
            IncidenceBuilder(3, 3, fmt="dense")

    def test_ht_with_transpose(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        A, At = builder.ht(triples, with_transpose=True)
        np.testing.assert_allclose(At.to_dense(), A.to_dense().T)

    def test_hrt_with_transpose(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        A, At = builder.hrt(triples, with_transpose=True)
        np.testing.assert_allclose(At.to_dense(), A.to_dense().T)

    def test_stacked_dim(self):
        assert IncidenceBuilder(10, 4).stacked_dim == 14

    def test_describe_density_independent_of_structure(self, triples):
        builder = IncidenceBuilder(N_ENT, N_REL)
        stats = builder.describe(triples)
        assert stats["nnz_per_row"] == 3
        assert stats["nnz"] == 3 * len(triples)
        assert stats["density"] == pytest.approx(3 / (N_ENT + N_REL))


class TestIncidenceProperties:
    @given(
        n_entities=st.integers(min_value=3, max_value=20),
        n_relations=st.integers(min_value=1, max_value=6),
        n_triples=st.integers(min_value=1, max_value=30),
        dim=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_hrt_spmm_equals_gather_expression(self, n_entities, n_relations,
                                               n_triples, dim, seed):
        """The hrt SpMM must reproduce the gather-based h + r − t for any batch."""
        rng = np.random.default_rng(seed)
        triples = np.column_stack([
            rng.integers(0, n_entities, n_triples),
            rng.integers(0, n_relations, n_triples),
            rng.integers(0, n_entities, n_triples),
        ])
        E = rng.standard_normal((n_entities + n_relations, dim))
        A = build_hrt_incidence(triples, n_entities, n_relations)
        expected = E[triples[:, 0]] + E[n_entities + triples[:, 1]] - E[triples[:, 2]]
        np.testing.assert_allclose(A.matmul_dense(E), expected, rtol=1e-10, atol=1e-12)

    @given(
        n_entities=st.integers(min_value=2, max_value=20),
        n_triples=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_ht_row_sums_are_zero(self, n_entities, n_triples, seed):
        """+1 and −1 per row always cancel: A @ 1 = 0 regardless of the batch."""
        rng = np.random.default_rng(seed)
        triples = np.column_stack([
            rng.integers(0, n_entities, n_triples),
            np.zeros(n_triples, dtype=np.int64),
            rng.integers(0, n_entities, n_triples),
        ])
        A = build_ht_incidence(triples, n_entities)
        np.testing.assert_allclose(A.matvec(np.ones(n_entities)), np.zeros(n_triples),
                                   atol=1e-12)


def _assert_same_csr(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def _random_triples(rng, n, n_entities, n_relations):
    triples = np.column_stack([
        rng.integers(0, n_entities, n),
        rng.integers(0, n_relations, n),
        rng.integers(0, n_entities, n),
    ]).astype(np.int64)
    triples[::5, 2] = triples[::5, 0]  # head == tail rows keep head first
    return triples


class TestDirectCsr:
    """The builders write CSR without sorting; the arrays must equal what the
    sort-based ``COOMatrix.tocsr()`` produces, entry for entry, so kernels
    accumulate in the same order as before."""

    @pytest.mark.parametrize("n", [0, 1, 4, 257])
    def test_ht_equals_tocsr(self, n):
        triples = _random_triples(np.random.default_rng(n), n, 40, 7)
        _assert_same_csr(build_ht_incidence(triples, 40, fmt="csr"),
                         build_ht_incidence(triples, 40, fmt="coo").tocsr())

    @pytest.mark.parametrize("n", [0, 1, 4, 257])
    def test_hrt_equals_tocsr(self, n):
        triples = _random_triples(np.random.default_rng(n), n, 40, 7)
        _assert_same_csr(build_hrt_incidence(triples, 40, 7, fmt="csr"),
                         build_hrt_incidence(triples, 40, 7, fmt="coo").tocsr())

    def test_compact_sub_incidence_equals_tocsr(self):
        """The partitioned path remaps a batch onto its unique ids first."""
        triples = _random_triples(np.random.default_rng(9), 300, 5000, 40)
        entity_ids = np.unique(triples[:, 0::2])
        relation_ids = np.unique(triples[:, 1])
        compact = np.column_stack([
            np.searchsorted(entity_ids, triples[:, 0]),
            np.searchsorted(relation_ids, triples[:, 1]),
            np.searchsorted(entity_ids, triples[:, 2]),
        ])
        sizes = (int(entity_ids.size), int(relation_ids.size))
        _assert_same_csr(build_hrt_incidence(compact, *sizes, fmt="csr"),
                         build_hrt_incidence(compact, *sizes, fmt="coo").tocsr())

    def test_coo_keeps_head_relation_tail_order(self, triples):
        A = build_hrt_incidence(triples, N_ENT, N_REL, fmt="coo")
        np.testing.assert_array_equal(A.rows, np.repeat(np.arange(4), 3))
        np.testing.assert_array_equal(A.cols.reshape(4, 3)[:, 1], N_ENT + triples[:, 1])
        np.testing.assert_array_equal(A.values.reshape(4, 3), [[1.0, 1.0, -1.0]] * 4)
