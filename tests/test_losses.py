"""Tests for the loss functions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.losses import (
    BCEWithLogitsLoss,
    LogisticLoss,
    MarginRankingLoss,
    SelfAdversarialLoss,
    bce_with_logits_loss,
    logistic_loss,
    margin_ranking_loss,
    self_adversarial_loss,
)
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


class TestLogisticLoss:
    def test_value(self):
        loss = logistic_loss(scores([0.0]), scores([0.0]))
        np.testing.assert_allclose(loss.item(), 2 * np.log(2.0), rtol=1e-10)

    def test_decreases_with_better_separation(self):
        worse = logistic_loss(scores([2.0]), scores([1.0])).item()
        better = logistic_loss(scores([0.5]), scores([5.0])).item()
        assert better < worse

    def test_reductions_and_module(self):
        pos, neg = scores([0.0, 0.0]), scores([0.0, 0.0])
        assert logistic_loss(pos, neg, "sum").item() == pytest.approx(4 * np.log(2.0))
        module = LogisticLoss()
        assert module(pos, neg).item() == pytest.approx(2 * np.log(2.0))
        with pytest.raises(ValueError):
            logistic_loss(pos, neg, "bad")
        with pytest.raises(ValueError):
            LogisticLoss(reduction="bad")


class TestBCEWithLogits:
    def test_matches_reference_formula(self):
        logits = scores([0.5, -1.0, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        loss = bce_with_logits_loss(logits, targets)
        ref = np.mean(np.logaddexp(0, logits.data) - logits.data * targets)
        np.testing.assert_allclose(loss.item(), ref, rtol=1e-10)

    def test_extreme_logits_stable(self):
        loss = bce_with_logits_loss(scores([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_target_shape_check(self):
        with pytest.raises(ValueError):
            bce_with_logits_loss(scores([1.0, 2.0]), np.array([1.0]))

    def test_module_and_reductions(self):
        module = BCEWithLogitsLoss(reduction="sum")
        out = module(scores([0.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.item(), 2 * np.log(2.0), rtol=1e-10)
        with pytest.raises(ValueError):
            BCEWithLogitsLoss(reduction="bad")


class TestSelfAdversarialLoss:
    def test_decreases_with_better_separation(self):
        worse = self_adversarial_loss(scores([5.0]), scores([6.0]), margin=6.0).item()
        better = self_adversarial_loss(scores([1.0]), scores([12.0]), margin=6.0).item()
        assert better < worse

    def test_accepts_multiple_negatives(self):
        pos = scores([1.0, 2.0])
        neg = Tensor(np.array([[7.0, 8.0], [9.0, 10.0]]), requires_grad=True)
        loss = self_adversarial_loss(pos, neg)
        assert np.isfinite(loss.item())
        loss.backward()
        assert pos.grad is not None and neg.grad is not None

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            self_adversarial_loss(scores([1.0]), scores([2.0]), temperature=0.0)

    def test_module_validation(self):
        with pytest.raises(ValueError):
            SelfAdversarialLoss(margin=-1.0)
        with pytest.raises(ValueError):
            SelfAdversarialLoss(temperature=0.0)
        module = SelfAdversarialLoss(margin=6.0)
        assert np.isfinite(module(scores([1.0]), scores([8.0])).item())


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
