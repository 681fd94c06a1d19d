"""Deadline-aware batch scheduling for the serving worker pool.

The threaded tier's :class:`~repro.serving.request_batcher.RequestBatcher`
ships whatever is queued the moment its worker is free: it never waits for
a batch to fill, whatever each request's SLO would allow.  The pool workers
ship deadline-aware instead: a batch ships when it is full **or** when
waiting any longer would make the oldest request miss its deadline, where
"any longer" is judged against a live estimate of how long the batch will
take to execute.  Lightly loaded workers therefore wait almost the whole
deadline budget (maximising coalescing); a near-deadline request ships the
batch immediately.

Both pieces are plain single-threaded objects — the worker process loop owns
them outright, and tests drive them with explicit clocks.
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class ServiceTimeEstimator:
    """EWMA estimate of batch execution time, decomposed per query row.

    Batch cost here is dominated by the vectorised scoring pass, which is
    close to linear in the number of query rows, so the estimator tracks an
    exponentially weighted mean of *per-row* service time and scales it by
    the batch size being planned.  A pessimistic ``default_ms`` covers the
    cold start before the first observation.

    Parameters
    ----------
    default_ms:
        Per-row estimate used until the first observation arrives.
    alpha:
        EWMA weight of the newest observation (0 < alpha <= 1).
    """

    def __init__(self, default_ms: float = 5.0, alpha: float = 0.2) -> None:
        if default_ms <= 0:
            raise ValueError(f"default_ms must be positive, got {default_ms}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.default_ms = float(default_ms)
        self.alpha = float(alpha)
        self._per_row_ms: Optional[float] = None
        self.observations = 0

    def observe(self, batch_size: int, seconds: float) -> None:
        """Record one executed batch: ``batch_size`` rows took ``seconds``."""
        if batch_size <= 0 or seconds <= 0:
            return  # clock glitch or empty batch: nothing to learn from
        per_row_ms = float(seconds) * 1e3 / batch_size
        if self._per_row_ms is None:
            self._per_row_ms = per_row_ms
        else:
            self._per_row_ms += self.alpha * (per_row_ms - self._per_row_ms)
        self.observations += 1

    def per_row_ms(self) -> float:
        """Current per-row estimate (the default until first observation)."""
        return self._per_row_ms if self._per_row_ms is not None else self.default_ms

    def estimate_s(self, batch_size: int) -> float:
        """Predicted execution time (seconds) of a ``batch_size``-row batch."""
        return self.per_row_ms() * max(1, int(batch_size)) / 1e3


class DeadlineBatcher(Generic[T]):
    """Collect requests into a batch that ships full *or* deadline-bound.

    The owner (a worker process loop) pushes ``(item, deadline)`` pairs and
    repeatedly asks two questions: *how long may I keep waiting for more
    requests?* (:meth:`wait_budget`) and *must this batch ship now?*
    (:meth:`ready`).  The ship time of the pending batch is::

        min(deadline_i) - estimate(len(batch) + 1) - slack

    i.e. the last instant at which executing the batch (with room for one
    more rider) still finishes inside every member's deadline, minus a fixed
    scheduling ``slack``.  All times are ``time.monotonic()`` values supplied
    by the caller, which keeps this class clock-free and deterministic under
    test.
    """

    def __init__(self, max_batch: int, estimator: ServiceTimeEstimator,
                 slack_ms: float = 1.0) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = int(max_batch)
        self.estimator = estimator
        self.slack_s = float(slack_ms) / 1e3
        self._pending: List[Tuple[T, float]] = []
        self._oldest_deadline = float("inf")

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, item: T, deadline: float) -> None:
        """Queue one request with its absolute (monotonic) deadline."""
        self._pending.append((item, float(deadline)))
        if deadline < self._oldest_deadline:
            self._oldest_deadline = float(deadline)

    def ship_time(self) -> float:
        """Monotonic instant at which the pending batch must execute."""
        if not self._pending:
            return float("inf")
        planned = min(self.max_batch, len(self._pending) + 1)
        return (self._oldest_deadline - self.estimator.estimate_s(planned)
                - self.slack_s)

    def ready(self, now: float) -> bool:
        """True when the batch must ship: full, or its ship time has arrived."""
        if not self._pending:
            return False
        return len(self._pending) >= self.max_batch or now >= self.ship_time()

    def wait_budget(self, now: float) -> Optional[float]:
        """Seconds the owner may block waiting for more requests.

        ``None`` means "no pending batch — block indefinitely"; ``0.0`` means
        "ship immediately".
        """
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return 0.0
        return max(0.0, self.ship_time() - now)

    def take(self) -> List[Tuple[T, float]]:
        """Pop the pending batch (at most ``max_batch`` items, FIFO)."""
        batch, self._pending = (self._pending[:self.max_batch],
                                self._pending[self.max_batch:])
        self._oldest_deadline = (min(d for _, d in self._pending)
                                 if self._pending else float("inf"))
        return batch
