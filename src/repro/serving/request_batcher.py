"""Micro-batching of concurrent single queries into coalesced engine calls.

A serving process receives top-k requests one at a time (one per HTTP
request), but the engine answers a *batch* of queries for nearly the price of
one: B query rows share a single walk of the entity table, while
B separate calls pay the Python/kernel dispatch overhead B times.  The
batcher closes that gap: requests that queue up while the engine is busy
are executed together as one ``top_k_tails_batch``/``top_k_heads_batch``
call, Helmsman-style.

Mechanics: callers block in :meth:`RequestBatcher.submit` (or its
:meth:`~RequestBatcher.top_k_tails` shorthand) while a single worker thread
drains the shared queue.  The worker takes the first pending request plus
whatever is already queued behind it, up to ``max_batch``, and answers that
batch at once through :func:`~repro.serving.validation.top_k_groups` — one
engine call per direction, the same execution the pool workers use.  It
never holds a batch open: a lone request is dispatched at once, and requests
arriving while a batch executes form the next one.  Per-request exceptions
are propagated back to their caller without poisoning the rest of the batch.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serving.engine import InferenceEngine, TopKQuery, TopKResult
from repro.serving.validation import Request, top_k_groups


class EngineClosed(RuntimeError):
    """Raised by requests that cannot complete because the batcher is closed.

    Submissions after :meth:`RequestBatcher.close` fail with this immediately;
    requests already queued when the worker dies (engine crash, interpreter
    teardown) receive it instead of hanging on a future no thread will ever
    fulfil.
    """


@dataclass
class _PendingRequest:
    """One caller-visible request waiting for its batch to execute."""

    request: Request
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[TopKResult] = None
    error: Optional[BaseException] = None


class RequestBatcher:
    """Coalesce concurrent top-k requests into batched engine calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.InferenceEngine` executing batches.
    max_batch:
        Largest number of requests dispatched as one engine call.
    """

    def __init__(self, engine: InferenceEngine, max_batch: int = 64) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self._queue: "queue.Queue[Optional[_PendingRequest]]" = queue.Queue()
        # Guards the closed-flag/enqueue pair: no request can slip into the
        # queue behind the shutdown sentinel and block its caller forever.
        self._submit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self.largest_batch = 0
        self._closed = False
        self._worker = threading.Thread(target=self._run, name="request-batcher",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Caller API (blocking)
    # ------------------------------------------------------------------ #
    def top_k_tails(self, head: int, relation: int, k: int = 10,
                    filtered: bool = False) -> TopKResult:
        """Blocking tail query; executed inside the next coalesced batch."""
        return self.submit(Request("tail", TopKQuery(int(head), int(relation),
                                                     int(k), bool(filtered))))

    def close(self, timeout: float = 30.0) -> None:
        """Stop the worker; further submits raise :class:`EngineClosed`.

        Every request enqueued before the close is still executed (FIFO
        ordering puts them ahead of the shutdown sentinel); their callers get
        real results.  Only if the worker fails to drain within ``timeout``
        seconds — an engine call wedged beyond any reasonable batch — are the
        still-pending requests failed with :class:`EngineClosed` so no caller
        is left blocked forever.
        """
        with self._submit_lock:
            already_closed = self._closed
            self._closed = True
            if not already_closed:
                self._queue.put(None)
        self._worker.join(timeout=timeout)
        if not self._worker.is_alive():
            return
        # The worker is wedged: fail whatever is still queued rather than
        # leaving callers blocked on futures nobody will complete.  Requests
        # already handed to the engine remain the worker's to finish.
        drained_sentinel = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                drained_sentinel = True
                continue
            item.error = EngineClosed(
                "batcher closed before this request could execute")
            item.done.set()
        if drained_sentinel:
            # Put the shutdown sentinel back so the worker still terminates
            # if it ever un-wedges.
            self._queue.put(None)

    def __enter__(self) -> "RequestBatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> Dict[str, float]:
        """Coalescing counters (average batch size is the headline number)."""
        with self._stats_lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "largest_batch": self.largest_batch,
                "mean_batch_size": self.requests / self.batches if self.batches else 0.0,
            }

    def submit(self, request: Request) -> TopKResult:
        """Blocking top-k ``request``; executed inside the next coalesced batch."""
        pending = _PendingRequest(request)
        with self._submit_lock:
            if self._closed:
                raise EngineClosed("batcher is closed")
            if not self._worker.is_alive():
                # The worker died outside close() (interpreter teardown, a
                # BaseException that escaped _run): enqueueing would hang.
                raise EngineClosed("batcher worker is no longer running")
            # FIFO ordering now guarantees the worker reaches this request
            # before any shutdown sentinel enqueued by a later close().
            self._queue.put(pending)
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # ------------------------------------------------------------------ #
    # Worker internals
    # ------------------------------------------------------------------ #
    def _collect_batch(self, first: _PendingRequest) -> List[_PendingRequest]:
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                # Shutdown sentinel: re-enqueue so the outer loop sees it
                # after this final batch completes.
                self._queue.put(None)
                break
            batch.append(item)
        return batch

    def _execute(self, batch: List[_PendingRequest]) -> None:
        groups = top_k_groups(self.engine, [item.request for item in batch])
        for positions, outcome, _seconds in groups:
            for i, position in enumerate(positions):
                item = batch[position]
                if isinstance(outcome, BaseException):
                    item.error = outcome
                else:
                    item.result = outcome[i]
                item.done.set()
        with self._stats_lock:
            self.requests += len(batch)
            self.batches += 1
            self.largest_batch = max(self.largest_batch, len(batch))

    def _run(self) -> None:
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    return
                self._execute(self._collect_batch(item))
        finally:
            # Whatever takes this thread down — clean shutdown sentinel or an
            # escaped BaseException — no queued request may be left with an
            # unfulfilled future.
            self._fail_pending(EngineClosed(
                "batcher shut down before this request could execute"))

    def _fail_pending(self, error: BaseException) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                item.error = error
                item.done.set()
