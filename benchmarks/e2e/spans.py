"""In-memory spans recorded from the benchmark's side of each public call.

A span is ``(id, name, start, end, parent, op)``: ``parent`` is the span that
caused it and ``op`` the index of the end-to-end operation it belongs to.  A
layer's *self time* is its span's duration minus the part its children cover.
Spans live in a list until the pass ends; nothing is written while timing.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans; ``wrap`` records one around every call of a function."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        """Record a finished span (used when the callee already timed itself)."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "op": op})
        return len(self.spans) - 1

    def begin(self, name: str, op: Optional[int] = None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(span)
        return span

    def end(self, span: int) -> None:
        self.spans[span]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span around each call, child of the open span."""
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def mean_ms(self, name: str) -> float:
        """Mean duration in ms of the spans called ``name`` (0 when none)."""
        durations = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0
