"""Function-level CPU profile of a training step (Figure 2).

The paper identifies the top CPU-intensive functions per model/dataset
(``EmbeddingBackward``, norm backward, the torus dissimilarity, ...) with a
profiler.  We reproduce that view with :mod:`cProfile`: run a handful of
training steps, aggregate cumulative time by function, and report each
function's share of the profiled window restricted to this library's code so
the hot spots are directly comparable with the paper's labels.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.data.batching import TripletBatch
from repro.models.base import KGEModel
from repro.optim.optimizer import Optimizer


@dataclass
class FunctionProfile:
    """One row of the function-level profile."""

    function: str
    total_time: float
    share: float
    calls: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "total_time": self.total_time,
            "share": self.share,
            "calls": self.calls,
        }


def profile_training_step(
    model: KGEModel,
    batch: TripletBatch,
    optimizer: Optional[Optimizer] = None,
    steps: int = 3,
    top: int = 10,
    restrict_to_library: bool = True,
) -> List[FunctionProfile]:
    """Profile ``steps`` training steps and return the hottest functions.

    Parameters
    ----------
    model, batch, optimizer:
        Training-step ingredients (margin-ranking loss); the optimiser step
        is included when an optimiser is passed.
    steps:
        Number of repetitions (amortises profiler start-up noise).
    top:
        Number of rows to return.
    restrict_to_library:
        Keep only functions defined in this package (mirrors the paper's
        focus on the KGE training functions rather than interpreter overhead).
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(steps):
        model.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        if optimizer is not None:
            optimizer.step()
    profiler.disable()

    stats = pstats.Stats(profiler)
    rows = []
    total_time = 0.0
    for (filename, lineno, func_name), (cc, nc, tottime, cumtime, callers) in stats.stats.items():
        if restrict_to_library and "repro" not in filename:
            continue
        label = f"{func_name}"
        rows.append((label, tottime, nc))
        total_time += tottime
    if total_time <= 0:
        return []
    aggregated: Dict[str, List[float]] = {}
    for label, tottime, calls in rows:
        entry = aggregated.setdefault(label, [0.0, 0])
        entry[0] += tottime
        entry[1] += calls
    ranked = sorted(aggregated.items(), key=lambda kv: kv[1][0], reverse=True)[:top]
    return [
        FunctionProfile(function=label, total_time=tottime, share=tottime / total_time,
                        calls=int(calls))
        for label, (tottime, calls) in ranked
    ]
