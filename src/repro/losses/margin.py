"""Margin ranking loss — the training objective used throughout the paper.

The loss evaluates the hinge and its backward mask in a single pass over the
batch (:mod:`repro.sparse.kernels`), recording one tape node.  Its numpy
forward and backward reproduce :func:`_reference_margin_loss` — the same loss
composed from autograd primitives (``sub`` → ``add`` → ``relu`` → ``mean``:
four tape nodes and four batch-sized temporaries), kept as the test oracle —
**bit-identically** (same elementwise operations in the same order — the
parity suite asserts exact equality); with numba installed the whole forward
collapses into one compiled loop (parity within 1e-6).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.function import count_flops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.sparse import kernels


def _reference_margin_loss(positive_scores: Tensor, negative_scores: Tensor,
                           margin: float, reduction: str) -> Tensor:
    raw = ops.relu(positive_scores - negative_scores + margin)
    if reduction == "mean":
        return raw.mean()
    if reduction == "sum":
        return raw.sum()
    return raw


def margin_ranking_loss(positive_scores: Tensor, negative_scores: Tensor,
                        margin: float = 0.5, reduction: str = "mean") -> Tensor:
    """``max(0, margin + score(pos) − score(neg))`` averaged over the batch.

    Translational scores are *dissimilarities* (smaller is better), so the
    loss pushes positive scores at least ``margin`` below negative ones —
    identical to TorchKGE's ``MarginLoss`` convention used in the experiments.

    Parameters
    ----------
    positive_scores, negative_scores:
        Tensors of shape ``(B,)`` with matching lengths.
    margin:
        Separation margin (the paper uses 0.5).
    reduction:
        ``"mean"``, ``"sum"``, or ``"none"``.
    """
    if positive_scores.shape != negative_scores.shape:
        raise ValueError(
            f"positive and negative score shapes differ: "
            f"{positive_scores.shape} vs {negative_scores.shape}"
        )
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"reduction must be 'mean', 'sum', or 'none', got {reduction!r}")
    pos, neg = positive_scores, negative_scores
    n = max(1, pos.data.size)
    if reduction == "none":
        out_data, mask = kernels.margin_loss_forward(pos.data, neg.data, margin)
    else:
        total, mask = kernels.margin_loss_sum(pos.data, neg.data, margin)
        out_data = np.asarray(total if reduction == "sum" else total * (1.0 / n))
    count_flops("margin_loss[fused]", kernels.margin_loss_flops(n))

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if reduction == "mean":
            g = g * (1.0 / n)
        if reduction != "none":
            # Match the reference ``sum`` backward exactly: broadcast the
            # scalar upstream gradient over the batch at the input dtype.
            g = np.broadcast_to(g, pos.data.shape).astype(pos.data.dtype)
        local = g * mask
        if pos.requires_grad:
            pos.accumulate_grad(local, owned=True)
        if neg.requires_grad:
            neg.accumulate_grad(-local, owned=True)

    return Tensor._make(out_data, (pos, neg), backward, "margin_loss[fused]")


class MarginRankingLoss(Module):
    """Module wrapper around :func:`margin_ranking_loss`.

    Parameters
    ----------
    margin:
        Separation margin.
    reduction:
        Batch reduction mode.
    """

    def __init__(self, margin: float = 0.5, reduction: str = "mean") -> None:
        super().__init__()
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"invalid reduction {reduction!r}")
        self.margin = float(margin)
        self.reduction = reduction

    def forward(self, positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
        return margin_ranking_loss(positive_scores, negative_scores,
                                   margin=self.margin, reduction=self.reduction)
