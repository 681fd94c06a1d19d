"""FLOP accounting shared by every differentiable operation.

Each primitive op and each sparse kernel reports an analytic floating-point
operation count through :func:`count_flops`.  The profiling layer
(``repro.profiling.flops``) and the Table-6 benchmark read these counters;
models themselves never need to.

Counts are recorded only into open :func:`flop_counter` regions; outside one,
:func:`count_flops` does nothing.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass(eq=False)
class OpCounters:
    """Per-op-name FLOP counts collected during a region of execution."""

    flops: int = 0
    per_op: Dict[str, int] = field(default_factory=dict)

    def add(self, op_name: str, flops: int) -> None:
        self.flops += int(flops)
        self.per_op[op_name] = self.per_op.get(op_name, 0) + int(flops)


class _CounterState(threading.local):
    def __init__(self) -> None:
        self.active: list[OpCounters] = []


_state = _CounterState()


def count_flops(op_name: str, flops: int) -> None:
    """Record ``flops`` against every active counter.

    Called by the primitive ops in :mod:`repro.autograd.tensor` /
    :mod:`repro.autograd.ops` and by the sparse kernels; a no-op outside
    :func:`flop_counter` regions.
    """
    for counters in _state.active:
        counters.add(op_name, flops)


@contextlib.contextmanager
def flop_counter() -> Iterator[OpCounters]:
    """Context manager collecting op counters for the enclosed region.

    Example
    -------
    >>> from repro.autograd import flop_counter
    >>> with flop_counter() as counters:
    ...     _ = model.loss(batch)          # doctest: +SKIP
    >>> counters.flops                      # doctest: +SKIP
    """
    counters = OpCounters()
    _state.active.append(counters)
    try:
        yield counters
    finally:
        _state.active.remove(counters)

