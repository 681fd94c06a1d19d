"""Tape bookkeeping shared by every differentiable operation.

Two concerns live here:

* **FLOP accounting** — each primitive op reports an analytic floating-point
  operation count.  The profiling layer (``repro.profiling.flops``) and the
  Table-6 benchmark read these counters; models themselves never need to.
* **Memory-traffic accounting** — each op may additionally report how many
  bytes it streamed and how many *unique* parameter bytes it touched.  The
  cache-behaviour model (Table 7) is built on these numbers.

The flop, streamed-byte and wall-time counters are global and cheap: a handful
of integer additions per op, negligible next to the NumPy kernels they
describe.  The *unique*-byte figure is not — for an SpMM it costs an
``np.unique`` over the column indices — so ops that must compute it do so only
inside a :func:`flop_counter` region (see :func:`counting_active`); outside
one, the global counters record ``bytes_unique = 0`` for those ops.
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
    #: Wall-clock seconds attributed to instrumented kernels (only kernels
    #: that time themselves contribute; pure bookkeeping ops report 0).
    seconds: float = 0.0
    per_op: Dict[str, int] = field(default_factory=dict)
    #: Streamed bytes attributed per op name.  Lets the cache-model and
    #: profiling benchmarks separate the row-sparse gradient path (op names
    #: tagged ``[rowsparse]``) from the dense path it replaces.
    per_op_bytes: Dict[str, int] = field(default_factory=dict)
    #: Measured wall-time attributed per op name.  Timed kernels (the SpMM
    #: backends, the fused loss, the tiled ranking kernel) report here so the
    #: benchmarks — and a future cost-model planner — can pair each kernel's
    #: analytic FLOP/byte figures with its observed seconds.
    per_op_seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, op_name: str, flops: int, bytes_streamed: int = 0, bytes_unique: int = 0,
            seconds: float = 0.0) -> None:
        self.flops += int(flops)
        self.bytes_streamed += int(bytes_streamed)
        self.bytes_unique += int(bytes_unique)
        self.calls += 1
        self.per_op[op_name] = self.per_op.get(op_name, 0) + int(flops)
        if bytes_streamed:
            self.per_op_bytes[op_name] = (
                self.per_op_bytes.get(op_name, 0) + int(bytes_streamed)
            )
        if seconds:
            self.seconds += float(seconds)
            self.per_op_seconds[op_name] = (
                self.per_op_seconds.get(op_name, 0.0) + float(seconds)
            )

    def merge(self, other: "OpCounters") -> None:
        self.flops += other.flops
        self.bytes_streamed += other.bytes_streamed
        self.bytes_unique += other.bytes_unique
        self.calls += other.calls
        self.seconds += other.seconds
        for k, v in other.per_op.items():
            self.per_op[k] = self.per_op.get(k, 0) + v
        for k, v in other.per_op_bytes.items():
            self.per_op_bytes[k] = self.per_op_bytes.get(k, 0) + v
        for k, v in other.per_op_seconds.items():
            self.per_op_seconds[k] = self.per_op_seconds.get(k, 0.0) + v


class _CounterState(threading.local):
    def __init__(self) -> None:
        self.active: list[OpCounters] = []
        self.global_counters = OpCounters()


_state = _CounterState()


def count_flops(op_name: str, flops: int, bytes_streamed: int = 0, bytes_unique: int = 0,
                seconds: float = 0.0) -> None:
    """Record ``flops`` (and optional byte traffic / wall-time) against every
    active counter.

    Called by the primitive ops in :mod:`repro.autograd.tensor` /
    :mod:`repro.autograd.ops` and by the sparse kernels.  ``seconds`` is the
    kernel's own measured wall-clock time; only instrumented kernels pass it.
    """
    _state.global_counters.add(op_name, flops, bytes_streamed, bytes_unique, seconds)
    for counters in _state.active:
        counters.add(op_name, flops, bytes_streamed, bytes_unique, seconds)


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


def reset_flops() -> None:
    """Reset the process-global counters (does not affect active contexts)."""
    _state.global_counters = OpCounters()


def get_flops() -> int:
    """Return the process-global FLOP count accumulated since the last reset."""
    return _state.global_counters.flops


def get_global_counters() -> OpCounters:
    """Return the process-global :class:`OpCounters` object (live view)."""
    return _state.global_counters
