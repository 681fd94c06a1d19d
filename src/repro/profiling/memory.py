"""Measured step memory (Table 5 and Figure 6).

The paper reads ``torch.cuda.max_memory_allocated`` after a training step on
an A100.  numpy reports every buffer it allocates to :mod:`tracemalloc`, so
the same reading here is the peak traced bytes of one real step: parameters,
gradients (dense or row-sparse, whichever the step produced), optimizer
state and the tape's saved intermediates are all counted as the step
actually holds them, not as a model says it should.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable

from repro.data.batching import TripletBatch
from repro.models.base import KGEModel
from repro.optim import Adam


def peak_traced_bytes(fn: Callable[[], object]) -> int:
    """Peak traced bytes while ``fn()`` runs, above the traced level at entry.

    Starts :mod:`tracemalloc` if it is off and stops it again afterwards,
    also when ``fn`` raises; a session that was already tracing keeps
    tracing.  The peak is reset at entry, so an enclosing call reads its own
    peak from this call's start onwards.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - entry


def training_step_peak(build: Callable[[], KGEModel], batch: TripletBatch) -> int:
    """Peak traced bytes of one warm Adam step of the model ``build()`` returns.

    The model and its optimizer are built inside the traced region, so what
    they keep resident counts; two warm steps allocate the optimizer state
    and first-call caches, and the reading is the peak of the third step
    above the level before the model existed.
    """
    def build_warm_and_step() -> None:
        model = build()
        optimizer = Adam(model.parameters())

        def step() -> None:
            model.zero_grad()
            model.loss(batch).backward()
            optimizer.step()

        step()
        step()
        peak_traced_bytes(step)  # resets the peak: the enclosing call reads this step's

    return peak_traced_bytes(build_warm_and_step)
