"""Tape bookkeeping shared by every differentiable operation.

Two concerns live here:

* **FLOP accounting** — each primitive op reports an analytic floating-point
  operation count.  The profiling layer (``repro.profiling.flops``) and the
  Table-6 benchmark read these counters; models themselves never need to.
* **Memory-traffic accounting** — each op may additionally report how many
  bytes it streamed and how many *unique* parameter bytes it touched.  The
  cache-behaviour model (Table 7) is built on these numbers.

Counts are recorded only into open :func:`flop_counter` regions; outside one,
:func:`count_flops` does nothing.  Ops whose figures cost real work to derive
(an SpMM's *unique*-byte figure is an ``np.unique`` over its column indices)
check :func:`counting_active` and skip the derivation when nobody is
collecting.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass(eq=False)
class OpCounters:
    """Aggregated per-op-name counters collected during a region of execution."""

    flops: int = 0
    bytes_streamed: int = 0
    bytes_unique: int = 0
    calls: int = 0
    per_op: Dict[str, int] = field(default_factory=dict)

    def add(self, op_name: str, flops: int, bytes_streamed: int = 0,
            bytes_unique: int = 0) -> None:
        self.flops += int(flops)
        self.bytes_streamed += int(bytes_streamed)
        self.bytes_unique += int(bytes_unique)
        self.calls += 1
        self.per_op[op_name] = self.per_op.get(op_name, 0) + int(flops)

    def merge(self, other: "OpCounters") -> None:
        self.flops += other.flops
        self.bytes_streamed += other.bytes_streamed
        self.bytes_unique += other.bytes_unique
        self.calls += other.calls
        for k, v in other.per_op.items():
            self.per_op[k] = self.per_op.get(k, 0) + v


class _CounterState(threading.local):
    def __init__(self) -> None:
        self.active: list[OpCounters] = []


_state = _CounterState()


def count_flops(op_name: str, flops: int, bytes_streamed: int = 0,
                bytes_unique: int = 0) -> None:
    """Record ``flops`` (and optional byte traffic) against every active counter.

    Called by the primitive ops in :mod:`repro.autograd.tensor` /
    :mod:`repro.autograd.ops` and by the sparse kernels; a no-op outside
    :func:`flop_counter` regions.
    """
    for counters in _state.active:
        counters.add(op_name, flops, bytes_streamed, bytes_unique)


def counting_active() -> bool:
    """Whether a :func:`flop_counter` region is open on this thread.

    Ops whose ``bytes_unique`` figure is expensive to derive check this and
    skip the derivation when nobody is collecting it.
    """
    return bool(_state.active)


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

