"""Tests for the FLOP counter plumbing."""

import numpy as np
import pytest

from repro.autograd import Tensor, flop_counter, ops
from repro.autograd.function import OpCounters, count_flops


class TestOpCounters:
    def test_add_accumulates_per_op(self):
        a = OpCounters()
        a.add("x", 10)
        a.add("x", 5)
        a.add("y", 7)
        assert a.flops == 22
        assert a.per_op == {"x": 15, "y": 7}

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

    def test_gather_records_zero_flops(self):
        w = Tensor(np.ones((8, 4)), requires_grad=True)
        with flop_counter() as counters:
            ops.gather_rows(w, np.array([0, 0, 3]))
        assert counters.per_op == {"gather": 0}

    def test_backward_scatter_counted(self):
        w = Tensor(np.ones((8, 4)), requires_grad=True)
        idx = np.array([1, 2, 2])
        out = ops.gather_rows(w, idx)
        with flop_counter() as counters:
            out.sum().backward()
        assert "scatter_add" in counters.per_op


class TestUniqueBytesOnlyInsideARegion:
    """An ``np.unique`` per SpMM call would cost as much as the kernel on a
    training batch; no SpMM forward or backward calls one."""

    @staticmethod
    def _operands():
        from repro.sparse import build_hrt_incidence

        triples = np.array([[0, 0, 1], [1, 1, 0], [2, 0, 2]])
        return build_hrt_incidence(triples, 4, 2), Tensor(np.ones((6, 8)), requires_grad=True)

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

