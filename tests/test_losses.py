"""Tests for the loss functions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.losses import MarginRankingLoss, margin_ranking_loss
from repro.losses.margin import _reference_margin_loss


def scores(values, grad=True):
    return Tensor(np.asarray(values, dtype=float), requires_grad=grad)


class TestMarginRankingLoss:
    def test_zero_when_separated_by_margin(self):
        loss = margin_ranking_loss(scores([1.0, 2.0]), scores([2.0, 3.0]), margin=0.5)
        assert loss.item() == 0.0

    def test_positive_when_violated(self):
        loss = margin_ranking_loss(scores([2.0]), scores([1.0]), margin=0.5)
        np.testing.assert_allclose(loss.item(), 1.5)

    def test_mean_vs_sum_vs_none(self):
        pos, neg = scores([2.0, 2.0]), scores([1.0, 4.0])
        per = margin_ranking_loss(pos, neg, margin=0.5, reduction="none")
        np.testing.assert_allclose(per.data, [1.5, 0.0])
        assert margin_ranking_loss(pos, neg, 0.5, "sum").item() == pytest.approx(1.5)
        assert margin_ranking_loss(pos, neg, 0.5, "mean").item() == pytest.approx(0.75)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            margin_ranking_loss(scores([1.0]), scores([1.0]), reduction="median")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            margin_ranking_loss(scores([1.0, 2.0]), scores([1.0]))

    def test_gradients_push_scores_apart(self):
        pos, neg = scores([1.0]), scores([1.0])
        margin_ranking_loss(pos, neg, margin=1.0).backward()
        assert pos.grad[0] > 0          # loss decreases if positive score decreases
        assert neg.grad[0] < 0          # loss decreases if negative score increases

    def test_module_wrapper(self):
        module = MarginRankingLoss(margin=0.5)
        assert module(scores([2.0]), scores([1.0])).item() == pytest.approx(1.5)
        with pytest.raises(ValueError):
            MarginRankingLoss(margin=-1.0)
        with pytest.raises(ValueError):
            MarginRankingLoss(reduction="bad")


class TestFusedMarginLoss:
    """The one-pass loss must reproduce the op-by-op reference bit-identically."""

    def _pair(self, seed=0, n=513):
        rng = np.random.default_rng(seed)
        pos = rng.standard_normal(n)
        neg = rng.standard_normal(n)
        return pos, neg

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_forward_bit_identical_to_reference(self, reduction):
        pos, neg = self._pair()
        fused = margin_ranking_loss(scores(pos), scores(neg), margin=0.5,
                                    reduction=reduction)
        ref = _reference_margin_loss(scores(pos), scores(neg), 0.5, reduction)
        np.testing.assert_array_equal(fused.data, ref.data)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_gradients_bit_identical_to_reference(self, reduction):
        pos_vals, neg_vals = self._pair(seed=3)
        p_f, n_f = scores(pos_vals), scores(neg_vals)
        p_r, n_r = scores(pos_vals), scores(neg_vals)
        margin_ranking_loss(p_f, n_f, 0.5, reduction).backward()
        _reference_margin_loss(p_r, n_r, 0.5, reduction).backward()
        np.testing.assert_array_equal(p_f.grad, p_r.grad)
        np.testing.assert_array_equal(n_f.grad, n_r.grad)

    def test_none_reduction_gradients_match(self):
        pos_vals, neg_vals = self._pair(seed=5, n=64)
        p_f, n_f = scores(pos_vals), scores(neg_vals)
        p_r, n_r = scores(pos_vals), scores(neg_vals)
        upstream = np.random.default_rng(5).standard_normal(64)
        margin_ranking_loss(p_f, n_f, 0.5, "none").backward(upstream)
        _reference_margin_loss(p_r, n_r, 0.5, "none").backward(upstream)
        np.testing.assert_array_equal(p_f.grad, p_r.grad)
        np.testing.assert_array_equal(n_f.grad, n_r.grad)

    def test_module_matches_reference(self):
        module = MarginRankingLoss(margin=0.5)
        pos, neg = self._pair(seed=7, n=32)
        ref = _reference_margin_loss(scores(pos), scores(neg), 0.5, "mean")
        np.testing.assert_array_equal(module(scores(pos), scores(neg)).data,
                                      ref.data)

    def test_fused_records_one_tape_node(self):
        pos, neg = scores([2.0, 0.0]), scores([1.0, 4.0])
        out = margin_ranking_loss(pos, neg, 0.5, "mean")
        assert out._op == "margin_loss[fused]"
        assert set(out._parents) == {pos, neg}

    def test_fused_float32_keeps_dtype_in_grads(self):
        pos = Tensor(np.array([2.0, 2.0], dtype=np.float32), requires_grad=True)
        neg = Tensor(np.array([1.0, 4.0], dtype=np.float32), requires_grad=True)
        margin_ranking_loss(pos, neg, 0.5, "sum").backward()
        assert pos.grad.dtype == np.float32
        assert neg.grad.dtype == np.float32
