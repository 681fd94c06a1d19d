"""Forked worker pool: one inference engine per process, shared page cache.

One GIL-bound process is the throughput ceiling of the threaded serving tier:
the table walk releases the GIL inside numpy, but request parsing,
batch assembly, cache lookups, and result marshalling are all Python.  The
pool moves the engines into ``fork``-started worker processes.  Each worker
builds its **own** :class:`~repro.serving.engine.InferenceEngine` *after* the
fork — for artifact serving that is ``InferenceEngine.from_artifact(path)``,
so every worker memory-maps the same on-disk ``weights/*.npy`` / ``index/``
files and the OS page cache backs them all with one physical copy.  Nothing model-sized is ever pickled or duplicated.

Inside each worker, where the threaded tier's :class:`RequestBatcher` ships
whatever is queued, batching is **deadline-aware**
(:mod:`repro.serving.deadline`): the worker blocks on its request pipe for
exactly as long as the oldest pending request's deadline minus the estimated
batch service time allows, so lightly loaded workers coalesce aggressively
while near-deadline requests ship at once.

Wire protocol (pickled tuples over a duplex ``multiprocessing.Pipe``; the
``fork`` start method means nothing else — in particular not the engine
factory — is ever serialised):

===============================================  ================================
parent → worker                                  worker → parent
===============================================  ================================
``("req", id, request, deadline)``               ``("res", id, ok, value, meta)``
``None`` (shutdown; drains pending first)        ``("ready", meta)`` once at start
===============================================  ================================

``request`` is the :class:`~repro.serving.validation.Request` the front end
parsed — the worker never re-reads a payload.  Deadlines are absolute
``time.monotonic()`` instants: on the platforms this repo targets
``CLOCK_MONOTONIC`` is system-wide, so a deadline stamped in the parent is
directly comparable in the forked child.

Top-k requests (``"tail"``/``"head"``) are deadline-batched and executed by
:func:`~repro.serving.validation.top_k_groups`; ``"nearest"``, ``"score"``
and ``"classify"`` go straight to :func:`~repro.serving.validation.answer`
(they are not coalescable); the control ops ``"stats"`` and ``"meta"`` are
answered out of band so a stats poll never waits behind a scoring batch.  A
failed request comes back as ``ok=False`` with the status and body of
:func:`~repro.serving.validation.error_reply` plus the exception's type name.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.serving.deadline import DeadlineBatcher, ServiceTimeEstimator
from repro.serving.engine import InferenceEngine
from repro.serving.metrics import batch_size_distribution
from repro.serving.validation import (
    TOP_K_OPS,
    Request,
    answer,
    error_reply,
    top_k_groups,
)

#: Max quiet time (seconds) a pending batch lingers for more riders.  The
#: deadline bound (ship at ``deadline - estimate - slack``) alone would hold
#: every request almost its whole budget at light load — maximal batching,
#: but every answer lands at the SLO edge.  The linger cap ships as soon as
#: the pipe has been silent this long: bursts still coalesce (they are
#: drained together), while an isolated request pays at most the linger.
LINGER_S = 0.002


class WorkerError(RuntimeError):
    """A worker failed a request; carries the original exception type name."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(message)
        self.error_type = error_type


class PoolClosed(RuntimeError):
    """Raised by submissions against a closed (or never-started) pool."""


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
class _WorkerLoop:
    """The single-threaded request loop owned by one worker process."""

    def __init__(self, conn, engine: InferenceEngine, max_batch: int,
                 slack_ms: float, default_service_ms: float) -> None:
        self.conn = conn
        self.engine = engine
        self.estimator = ServiceTimeEstimator(default_ms=default_service_ms)
        self.batcher: DeadlineBatcher = DeadlineBatcher(
            max_batch, self.estimator, slack_ms=slack_ms)
        self.batch_sizes: Dict[int, int] = {}
        self.requests = 0
        self.shipped_full = 0
        self.shipped_deadline = 0

    def meta(self) -> Dict[str, Any]:
        model = self.engine.model
        return {
            "model": type(model).__name__,
            "n_entities": int(model.n_entities),
            "n_relations": int(model.n_relations),
            "spec": self.engine.spec().to_dict(),
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "shipped_full": self.shipped_full,
            "shipped_deadline": self.shipped_deadline,
            "service_per_row_ms": self.estimator.per_row_ms(),
            "batch_distribution": batch_size_distribution(self.batch_sizes),
            "engine": self.engine.stats(),
        }

    def _respond(self, req_id: int, ok: bool, value: Any,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.conn.send(("res", req_id, ok, value, meta or {}))

    def _fail(self, req_id: int, exc: BaseException) -> None:
        status, body = error_reply(exc)
        self._respond(req_id, False, {"status": status,
                                      "error_type": type(exc).__name__, **body})

    def _execute_immediate(self, req_id: int, request: Request) -> None:
        try:
            if request.op == "meta":
                self._respond(req_id, True, self.meta())
                return
            if request.op == "stats":
                self._respond(req_id, True, self.stats())
                return
            self.requests += 1
            start = time.perf_counter()
            value = answer(self.engine, request)
            service_ms = (time.perf_counter() - start) * 1e3
            self._respond(req_id, True, value,
                          {"batch_size": 1, "service_ms": service_ms})
        except BaseException as exc:  # noqa: BLE001 — handed back to the parent
            self._fail(req_id, exc)

    def _execute_batch(self) -> None:
        batch = self.batcher.take()
        if not batch:
            return
        size = len(batch)
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.requests += size
        if size >= self.batcher.max_batch:
            self.shipped_full += 1
        else:
            self.shipped_deadline += 1
        ids = [req_id for (req_id, _), _deadline in batch]
        groups = top_k_groups(self.engine,
                              [request for (_, request), _deadline in batch])
        for positions, outcome, seconds in groups:
            if isinstance(outcome, BaseException):
                for position in positions:
                    self._fail(ids[position], outcome)
                continue
            self.estimator.observe(len(positions), seconds)
            meta = {"batch_size": size, "service_ms": seconds * 1e3}
            for position, result in zip(positions, outcome):
                self._respond(ids[position], True, result.to_dict(), meta)

    def run(self) -> None:
        while True:
            budget = self.batcher.wait_budget(time.monotonic())
            # Empty batcher: block until traffic.  Pending batch: block until
            # its deadline-derived ship time, capped by the linger window.
            wait = None if budget is None else min(budget, LINGER_S)
            has_message = self.conn.poll(wait)
            got_traffic = False
            while has_message:  # drain the burst in one gulp, then decide
                try:
                    message = self.conn.recv()
                except EOFError:
                    return  # parent went away: nothing left to serve
                if message is None:
                    while len(self.batcher):
                        self._execute_batch()
                    return
                _tag, req_id, request, deadline = message
                if request.op in TOP_K_OPS:
                    self.batcher.add((req_id, request), deadline)
                else:
                    self._execute_immediate(req_id, request)
                got_traffic = True
                has_message = self.conn.poll(0)
            if not len(self.batcher):
                continue
            # Ship when forced (full / deadline-bound) or when the linger
            # window passed with no new traffic.
            if self.batcher.ready(time.monotonic()) or not got_traffic:
                self._execute_batch()


def _worker_main(conn, engine_factory: Callable[[], InferenceEngine],
                 max_batch: int, slack_ms: float,
                 default_service_ms: float) -> None:
    """Entry point of one forked worker: build the engine, serve the pipe."""
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)  # see _start
    try:
        engine = engine_factory()
        # Warm the scoring path before accepting traffic: the first query
        # pays page faults and allocator growth that can be 10-50x steady
        # state, and the admission controller must never fold that cold-start
        # outlier into its service-time estimate.
        engine.top_k_tails(0, 0, k=1)
    except BaseException as exc:  # noqa: BLE001 — startup failure, reported
        conn.send(("ready_error",
                   f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
        conn.close()
        return
    loop = _WorkerLoop(conn, engine, max_batch, slack_ms, default_service_ms)
    conn.send(("ready", loop.meta()))
    try:
        loop.run()
    except (KeyboardInterrupt, BrokenPipeError):
        pass  # parent-driven teardown: exit quietly
    finally:
        engine.close()
        conn.close()


_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _start(proc) -> None:
    """Fork ``proc`` with the stop signals held back until the fork returns.

    A Python signal handler that fires inside the interpreter's after-fork
    hooks has its exception printed and dropped, so a Ctrl-C or SIGTERM
    landing mid-fork would be lost and the server would start anyway.
    Blocked, the signal stays pending and raises once the mask is restored;
    the child unblocks its own copy of the mask first thing.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


# --------------------------------------------------------------------------- #
# Parent-side pool handle
# --------------------------------------------------------------------------- #
class WorkerPool:
    """Spawn and address ``workers`` forked inference processes.

    The pool itself is transport only — request routing, futures, admission
    control, and metrics live in the asyncio front-end
    (:mod:`repro.serving.async_server`).  All methods must be called from a
    single owning thread (the event loop); the pool holds no locks.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building the worker's engine, executed *inside*
        each forked child (e.g. ``lambda: InferenceEngine.from_artifact(path)``).  Because the start method is ``fork``, the callable
        is inherited, never pickled.
    workers:
        Number of processes to fork (>= 1).
    max_batch, slack_ms, default_service_ms:
        Deadline-batching knobs handed to each worker's
        :class:`~repro.serving.deadline.DeadlineBatcher`.
    start_timeout_s:
        How long to wait for every worker's ready handshake (engine builds
        can fault in large artifacts).
    """

    def __init__(self, engine_factory: Callable[[], InferenceEngine],
                 workers: int = 2, max_batch: int = 64, slack_ms: float = 1.0,
                 default_service_ms: float = 5.0,
                 start_timeout_s: float = 120.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        ctx = multiprocessing.get_context("fork")
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self._procs: List = []
        self._conns: List = []
        self._closed = False
        self.meta: Dict[str, Any] = {}
        self._next_id = 0
        # Anything raised mid-start (a Ctrl-C or SIGTERM between two forks
        # included) closes the workers started so far.
        try:
            for idx in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self._conns.append(parent_conn)
                proc = ctx.Process(target=_worker_main,
                                   args=(child_conn, engine_factory, int(max_batch),
                                         float(slack_ms), float(default_service_ms)),
                                   name=f"serving-worker-{idx}", daemon=True)
                _start(proc)
                self._procs.append(proc)
                child_conn.close()
            self._await_ready(start_timeout_s)
        except BaseException:
            self.close()
            raise

    def _await_ready(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        for idx, conn in enumerate(self._conns):
            remaining = max(0.0, deadline - time.monotonic())
            if not conn.poll(remaining):
                raise TimeoutError(
                    f"worker {idx} did not become ready within {timeout_s:g}s")
            tag, payload = conn.recv()
            if tag != "ready":
                raise RuntimeError(f"worker {idx} failed to start: {payload}")
            if idx == 0:
                self.meta = payload

    # ------------------------------------------------------------------ #
    # Submission / teardown
    # ------------------------------------------------------------------ #
    def connection(self, worker: int):
        """The parent end of ``worker``'s pipe (for event-loop ``add_reader``)."""
        return self._conns[worker]

    def next_request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def submit(self, worker: int, req_id: int, request: Request,
               deadline: float) -> None:
        """Send one request to ``worker`` (non-blocking; pipe-buffered)."""
        if self._closed:
            raise PoolClosed("worker pool is closed")
        self._conns[worker].send(("req", req_id, request, float(deadline)))

    def call(self, worker: int, request: Request, deadline_ms: float = 1000.0,
             timeout_s: float = 30.0) -> Any:
        """Synchronous round-trip to one worker (tests and CLI startup).

        Must not be interleaved with event-loop dispatch on the same worker:
        it consumes the next matching response off the pipe.
        """
        if self._closed:
            raise PoolClosed("worker pool is closed")
        req_id = self.next_request_id()
        deadline = time.monotonic() + deadline_ms / 1e3
        self.submit(worker, req_id, request, deadline)
        conn = self._conns[worker]
        end = time.monotonic() + timeout_s
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                raise TimeoutError(
                    f"worker {worker} gave no answer to {request.op!r} "
                    f"within {timeout_s:g}s")
            tag, res_id, ok, value, _meta = conn.recv()
            if tag != "res" or res_id != req_id:
                continue  # stale response from an abandoned earlier call
            if not ok:
                raise WorkerError(value["error_type"], value["error"])
            return value

    def alive(self) -> List[bool]:
        """Liveness of each worker process."""
        return [proc.is_alive() for proc in self._procs]

    def close(self, timeout_s: float = 10.0) -> None:
        """Shut every worker down (drains pending batches); idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass  # worker already gone
        for proc in self._procs:
            proc.join(timeout=timeout_s)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
