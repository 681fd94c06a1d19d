"""Tests for the FLOP / byte-traffic counter plumbing."""

import numpy as np
import pytest

from repro.autograd import Tensor, flop_counter, ops
from repro.autograd.function import OpCounters, count_flops, counting_active


class TestOpCounters:
    def test_add_and_merge(self):
        a = OpCounters()
        a.add("x", 10, bytes_streamed=100, bytes_unique=50)
        b = OpCounters()
        b.add("x", 5)
        b.add("y", 7)
        a.merge(b)
        assert a.flops == 22
        assert a.per_op == {"x": 15, "y": 7}
        assert a.bytes_streamed == 100
        assert a.calls == 3

    def test_count_flops_reaches_active_contexts(self):
        with flop_counter() as outer:
            with flop_counter() as inner:
                count_flops("manual", 3)
            count_flops("manual", 4)
        assert inner.flops == 3
        assert outer.flops == 7


class TestOperatorAccounting:
    def test_elementwise_flops_match_size(self):
        x = Tensor(np.ones((10, 10)))
        with flop_counter() as counters:
            _ = x + x
        assert counters.per_op.get("add") == 100

    def test_matmul_flops(self):
        a = Tensor(np.ones((4, 5)))
        b = Tensor(np.ones((5, 6)))
        with flop_counter() as counters:
            _ = a @ b
        assert counters.per_op.get("matmul") == 2 * 4 * 6 * 5

    def test_gather_records_byte_traffic(self):
        w = Tensor(np.ones((8, 4)), requires_grad=True)
        idx = np.array([0, 0, 3])
        with flop_counter() as counters:
            out = ops.gather_rows(w, idx)
        assert counters.bytes_streamed == out.nbytes
        # Two unique rows read plus the freshly written gathered copy.
        assert counters.bytes_unique == 2 * 4 * 8 + out.nbytes

    def test_backward_scatter_counted(self):
        w = Tensor(np.ones((8, 4)), requires_grad=True)
        idx = np.array([1, 2, 2])
        out = ops.gather_rows(w, idx)
        with flop_counter() as counters:
            out.sum().backward()
        assert "scatter_add" in counters.per_op


class TestUniqueBytesOnlyInsideARegion:
    """Distinct-row accounting costs an ``np.unique`` per SpMM call; it is paid
    only while a ``flop_counter()`` region is there to read it."""

    @staticmethod
    def _operands():
        from repro.sparse import build_hrt_incidence

        triples = np.array([[0, 0, 1], [1, 1, 0], [2, 0, 2]])
        return build_hrt_incidence(triples, 4, 2), Tensor(np.ones((6, 8)), requires_grad=True)

    def test_counting_active_tracks_regions(self):
        assert not counting_active()
        with flop_counter():
            assert counting_active()
            with flop_counter():
                assert counting_active()
            assert counting_active()
        assert not counting_active()

    def test_spmm_unique_bytes_inside_a_region(self):
        from repro.sparse import spmm

        A, X = self._operands()
        with flop_counter() as counters:
            out = spmm(A, X)
        # Entities 0, 1, 2 and relation columns 4, 5 are read; the output is
        # freshly written.
        assert counters.bytes_unique == 5 * 8 * 8 + out.nbytes
        assert counters.bytes_streamed == A.nnz * 8 * 8 + out.nbytes

    # RotatE refuses the row-sparse path, so it runs dense only.
    @pytest.mark.parametrize("sparse_grad,model", [
        (sparse_grad, model)
        for sparse_grad in (False, True)
        for model in (None, "SpDistMult", "SpComplEx", "SpRotatE")
        if not (sparse_grad and model == "SpRotatE")])
    def test_spmm_outside_a_region_never_reaches_np_unique(self, monkeypatch, model,
                                                           sparse_grad):
        from repro import models
        from repro.sparse import backends, spmm

        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called on the SpMM hot path")

        A, X = self._operands()
        if model is not None:
            model = getattr(models, model)(4, 2, 8, rng=0).set_sparse_grads(sparse_grad)
        monkeypatch.setattr(backends.np, "unique", forbidden)
        if model is None:
            out = spmm(A, X, sparse_grad=sparse_grad)
        else:
            out = model.scores(np.array([[0, 0, 1], [1, 1, 0], [2, 0, 2]]))
        out.backward(np.ones_like(out.data))

