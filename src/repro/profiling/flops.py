"""Analytic FLOP accounting per training phase (Table 6).

Every primitive op and every sparse kernel registers its floating-point
operation count through :func:`repro.autograd.function.count_flops`; this
module wraps one full training step in those counters, split by phase, so the
Table-6 benchmark can report per-model FLOP totals for the sparse and dense
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.autograd.function import OpCounters, flop_counter
from repro.data.batching import TripletBatch
from repro.models.base import KGEModel
from repro.optim.optimizer import Optimizer


@dataclass
class FlopsBreakdown:
    """FLOPs of one training step split by phase."""

    forward: int
    backward: int
    step: int
    per_op: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.forward + self.backward + self.step

    def to_dict(self) -> Dict[str, int]:
        return {
            "forward": self.forward,
            "backward": self.backward,
            "step": self.step,
            "total": self.total,
        }


def count_training_flops(
    model: KGEModel,
    batch: TripletBatch,
    optimizer: Optional[Optimizer] = None,
) -> FlopsBreakdown:
    """Count FLOPs of one margin-ranking forward/backward(/step) cycle on ``batch``.

    The optimiser step is included only when an optimiser is supplied (the
    paper's FLOP figures are dominated by forward+backward, but the step term
    matters for Adam on large embedding tables).
    """
    per_op: Dict[str, int] = {}

    with flop_counter() as fwd_counters:
        loss = model.loss(batch)
    model.zero_grad()
    with flop_counter() as bwd_counters:
        loss.backward()
    step_flops = 0
    if optimizer is not None:
        with flop_counter() as step_counters:
            optimizer.step()
        step_flops = step_counters.flops
        _merge(per_op, step_counters)
    _merge(per_op, fwd_counters)
    _merge(per_op, bwd_counters)

    return FlopsBreakdown(
        forward=fwd_counters.flops,
        backward=bwd_counters.flops,
        step=step_flops,
        per_op=per_op,
    )


def _merge(per_op: Dict[str, int], counters: OpCounters) -> None:
    for name, flops in counters.per_op.items():
        per_op[name] = per_op.get(name, 0) + flops
