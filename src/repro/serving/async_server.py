"""Asyncio HTTP/1.1 front-end over the forked worker pool.

This is the heavy-traffic serving tier (``sptransx serve --workers N``): a
single-threaded asyncio accept loop parses and validates requests, applies
SLO admission control at the front door, and fans admitted work out over the
:class:`~repro.serving.pool.WorkerPool`.  Division of labour:

* **event loop (this module)** — connection handling and keep-alive, JSON
  parsing/validation, per-request deadlines, admission control (503 +
  ``Retry-After`` when the predicted completion would bust the deadline),
  single-flight coalescing of identical in-flight queries, least-loaded
  worker routing, per-route latency histograms.
* **worker processes** (:mod:`repro.serving.pool`) — the actual engines,
  mmap-shared weights, and deadline-aware batching.

Because everything front-end-side runs on the one event-loop thread, there
are no locks here at all; the only cross-thread entry points are
:meth:`AsyncInferenceServer.close` and the test/CLI bootstrap helpers, which
hand control to the loop via ``call_soon_threadsafe``.

Every POST is parsed by :func:`repro.serving.validation.parse_request`, the
request protocol the threaded tier uses too, so both tiers accept and reject
the same bodies with the same status and error body.  What this tier adds:

* a POST's optional ``"deadline_ms"`` overrides the server default deadline
  for that request;
* responses past the admission gate may be ``503 {"error": "shed", ...}``
  with a ``Retry-After`` header, or ``504`` when a worker blows through the
  deadline by more than the grace factor;
* ``/v1/stats`` reports per-route latency histograms (p50/p95/p99), shed /
  timeout / deadline-miss counts, admission-controller state, and per-worker
  batch-size distributions.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.serving.admission import AdmissionController, retry_after_header
from repro.serving.engine import InferenceEngine
from repro.serving.metrics import MetricsRegistry, merge_batch_distributions
from repro.serving.pool import WorkerPool
from repro.serving.validation import (
    ROUTES,
    TOP_K_OPS,
    Request,
    ServingError,
    error_reply,
    parse_request,
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

_MAX_BODY_BYTES = 8 * 1024 * 1024
_KEEPALIVE_IDLE_S = 75.0
#: A dispatched request is abandoned (504) after ``deadline * grace + floor``.
_TIMEOUT_GRACE = 4.0
_TIMEOUT_FLOOR_S = 1.0


class _Inflight:
    """Book-keeping for one request dispatched to a worker."""

    __slots__ = ("future", "worker", "route", "admitted")

    def __init__(self, future: "asyncio.Future", worker: int, route: str,
                 admitted: bool) -> None:
        self.future = future
        self.worker = worker
        self.route = route
        self.admitted = admitted


class AsyncInferenceServer:
    """Deadline- and SLO-aware pool serving tier.

    Parameters
    ----------
    engine_factory:
        Zero-argument engine builder executed inside each forked worker
        (see :class:`~repro.serving.pool.WorkerPool`).
    workers:
        Worker processes to fork.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port.
    deadline_ms:
        Default per-request deadline (payloads may override per request).
    max_batch, slack_ms:
        Worker-side deadline-batching knobs.
    default_service_ms:
        Cold-start service-time estimate for batching and admission.
    admission:
        Disable to accept everything (measurement baseline; overload then
        degrades FIFO-style like the threaded tier).
    headroom:
        Admission safety multiplier (>1 sheds slightly early).
    verbose:
        One log line per request on stdout.
    """

    def __init__(self, engine_factory: Callable[[], InferenceEngine],
                 workers: int = 2, host: str = "127.0.0.1", port: int = 0,
                 deadline_ms: float = 50.0, max_batch: int = 64,
                 slack_ms: float = 1.0, default_service_ms: float = 5.0,
                 admission: bool = True, headroom: float = 1.0,
                 verbose: bool = False,
                 start_timeout_s: float = 120.0) -> None:
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        self.deadline_ms = float(deadline_ms)
        self.verbose = bool(verbose)
        self.metrics = MetricsRegistry()
        self.admission: Optional[AdmissionController] = (
            AdmissionController(workers, default_service_ms=default_service_ms,
                                headroom=headroom) if admission else None)
        self._host = host
        self._requested_port = int(port)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[int, _Inflight] = {}
        self._worker_load: List[int] = [0] * workers
        self._worker_alive: List[bool] = [True] * workers
        self._singleflight: Dict[Tuple[str, Any], "asyncio.Future"] = {}
        self._clients: Set["asyncio.Task"] = set()
        self._thread: Optional[threading.Thread] = None
        self._port: Optional[int] = None
        # Forked last: nothing after it can fail and leave the workers running.
        self.pool = WorkerPool(engine_factory, workers=workers,
                               max_batch=max_batch, slack_ms=slack_ms,
                               default_service_ms=default_service_ms,
                               start_timeout_s=start_timeout_s)

    @property
    def meta(self) -> Dict[str, Any]:
        """Model summary worker 0 reported at start-up."""
        return self.pool.meta

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> None:
        """Bind the socket and wire the pool pipes into the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._requested_port)
        self._port = int(self._server.sockets[0].getsockname()[1])
        for idx in range(self.pool.workers):
            self._loop.add_reader(self.pool.connection(idx).fileno(),
                                  self._on_readable, idx)

    async def stop(self) -> None:
        """Stop accepting, fail in-flight requests, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive handlers would otherwise outlive the loop.
        for task in self._clients:
            task.cancel()
        await asyncio.gather(*self._clients, return_exceptions=True)
        if self._loop is not None:
            for idx in range(self.pool.workers):
                try:
                    self._loop.remove_reader(self.pool.connection(idx).fileno())
                except (OSError, ValueError):
                    pass  # connection already closed
        for record in list(self._inflight.values()):
            if not record.future.done():
                record.future.set_exception(
                    ConnectionError("server shutting down"))
                record.future.exception()  # mark retrieved: nobody may await it
        self._inflight.clear()
        self._singleflight.clear()
        self.pool.close()

    def serve_forever(self, on_started: Optional[Callable[[], None]] = None
                      ) -> None:
        """Run until interrupted (the CLI path).

        ``on_started`` fires once the socket is bound (the CLI prints its
        machine-readable "serving" line there, after ``port=0`` resolution).
        """
        async def _main() -> None:
            await self.start()
            if on_started is not None:
                on_started()
            try:
                await asyncio.Event().wait()
            finally:
                await self.stop()

        asyncio.run(_main())

    def serve_background(self) -> str:
        """Start loop + server on a daemon thread; returns the bound URL.

        The test/benchmark entry point — the caller's thread stays free to
        issue HTTP requests.  Pair with :meth:`close`.
        """
        started = threading.Event()
        failure: List[BaseException] = []

        def _runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 — surfaced to caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        self._thread = threading.Thread(target=_runner,
                                        name="async-serving", daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self.url

    def close(self) -> None:
        """Stop a background server started with :meth:`serve_background`."""
        thread = self._thread
        if thread is None:
            self.pool.close()
            return
        self._thread = None
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)

    # ------------------------------------------------------------------ #
    # Pool response plumbing (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _on_readable(self, worker: int) -> None:
        conn = self.pool.connection(worker)
        while True:
            try:
                if not conn.poll(0):
                    return
                message = conn.recv()
            except (EOFError, OSError):
                self._on_worker_eof(worker)
                return
            tag, req_id, ok, value, meta = message
            if tag != "res":
                continue
            record = self._inflight.pop(req_id, None)
            if record is None:
                continue  # response for an already-abandoned request
            self._worker_load[worker] = max(0, self._worker_load[worker] - 1)
            if record.admitted and self.admission is not None:
                batch = max(1, int(meta.get("batch_size", 1)))
                service_ms = meta.get("service_ms")
                self.admission.release(
                    record.route,
                    float(service_ms) / batch if service_ms is not None else None)
            if not record.future.done():
                record.future.set_result((ok, value, meta))

    def _on_worker_eof(self, worker: int) -> None:
        """A worker's pipe died: fail its in-flight work, stop routing to it."""
        if not self._worker_alive[worker]:
            return
        self._worker_alive[worker] = False
        if self._loop is not None:
            try:
                self._loop.remove_reader(self.pool.connection(worker).fileno())
            except (OSError, ValueError):
                pass
        dead = [req_id for req_id, record in self._inflight.items()
                if record.worker == worker]
        for req_id in dead:
            record = self._inflight.pop(req_id)
            if record.admitted and self.admission is not None:
                self.admission.release(record.route, None)
            if not record.future.done():
                record.future.set_exception(
                    ConnectionError(f"worker {worker} died"))
                record.future.exception()  # waiter may have timed out already
        self._worker_load[worker] = 0

    def _pick_worker(self) -> int:
        """Pack, don't spread: the fullest worker still below the pack cap.

        Deadline batching only pays off when concurrent requests meet in the
        *same* worker — spreading light traffic least-loaded-first hands every
        worker a batch of one and each batch costs a full scoring pass.
        Packing concentrates load on as few workers as it needs (new workers
        are drawn in only once the previous ones reach half their batch
        capacity), which is also strictly better when workers outnumber
        cores.  Past the cap everywhere, fall back to least-loaded.
        """
        alive = [idx for idx, ok in enumerate(self._worker_alive) if ok]
        if not alive:
            raise ConnectionError("no live workers")
        cap = max(1, self.pool.max_batch // 2)
        packable = [idx for idx in alive if self._worker_load[idx] < cap]
        if packable:
            return max(packable, key=lambda idx: self._worker_load[idx])
        return min(alive, key=lambda idx: self._worker_load[idx])

    def _dispatch(self, request: Request, deadline: float, route: str,
                  admitted: bool) -> "asyncio.Future":
        worker = self._pick_worker()
        req_id = self.pool.next_request_id()
        future = self._loop.create_future()
        self._inflight[req_id] = _Inflight(future, worker, route, admitted)
        self._worker_load[worker] += 1
        try:
            self.pool.submit(worker, req_id, request, deadline)
        except (BrokenPipeError, OSError):
            self._on_worker_eof(worker)
        return future

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                try:
                    status, payload, extra = await self._route(method, path, body)
                except Exception as exc:  # noqa: BLE001 — last-resort reply
                    # Never close a keep-alive connection without an answer.
                    (status, payload), extra = error_reply(exc), None
                if self.verbose:
                    print(f"{method} {path} -> {status}", flush=True)
                await self._write_response(writer, status, payload,
                                           keep_alive, extra)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ValueError, asyncio.TimeoutError):
            pass  # torn/idle/oversized connection: just drop it
        finally:
            self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes, bool]]:
        line = await asyncio.wait_for(reader.readline(),
                                      timeout=_KEEPALIVE_IDLE_S)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, path, version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise ValueError("too many headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY_BYTES:
            raise ValueError(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = (connection != "close"
                      if version == "HTTP/1.1" else connection == "keep-alive")
        return method, path, body, keep_alive

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              payload: Dict, keep_alive: bool,
                              extra: Optional[Dict[str, str]]) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                   "Content-Type: application/json",
                   f"Content-Length: {len(body)}",
                   f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, Dict, Optional[Dict[str, str]]]:
        if method == "GET":
            if path == "/v1/health":
                return 200, {"status": "ok",
                             "model": self.meta.get("model"),
                             "n_entities": self.meta.get("n_entities"),
                             "n_relations": self.meta.get("n_relations"),
                             "workers": self.pool.workers,
                             "workers_alive": sum(self._worker_alive)}, None
            if path == "/v1/spec":
                return 200, dict(self.meta.get("spec", {})), None
            if path == "/v1/stats":
                return 200, await self._stats_payload(), None
            return 404, {"error": f"unknown path {path!r}"}, None
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}, None
        if path not in ROUTES:
            return 404, {"error": f"unknown path {path!r}"}, None
        try:
            request = parse_request(path, body, self.meta["n_entities"],
                                    self.meta["n_relations"])
        except ServingError as exc:
            self.metrics.route(path).error += 1
            status, payload = error_reply(exc)
            return status, payload, None
        budget_ms = (request.deadline_ms if request.deadline_ms is not None
                     else self.deadline_ms)
        return await self._serve_op(path, request, budget_ms)

    # ------------------------------------------------------------------ #
    # Serving one request end to end
    # ------------------------------------------------------------------ #
    async def _serve_op(self, route: str, request: Request, budget_ms: float
                        ) -> Tuple[int, Dict, Optional[Dict[str, str]]]:
        metrics = self.metrics.route(route)
        arrival = time.monotonic()
        deadline = arrival + budget_ms / 1e3
        key = (request.op, request.query)
        future = self._singleflight.get(key)
        rider = future is not None and not future.done()
        if rider:
            metrics.coalesced += 1
        else:
            if self.admission is not None:
                admitted, retry_after_s = self.admission.admit(route, budget_ms)
                if not admitted:
                    metrics.shed += 1
                    return 503, {
                        "error": "shed",
                        "predicted_ms": round(
                            self.admission.predicted_completion_ms(route), 3),
                        "deadline_ms": budget_ms,
                        "retry_after_s": round(retry_after_s, 4),
                    }, {"Retry-After": retry_after_header(retry_after_s)}
            try:
                future = self._dispatch(request, deadline, route,
                                        admitted=self.admission is not None)
            except ConnectionError as exc:
                metrics.error += 1
                return 503, {"error": str(exc)}, None
            if request.op in TOP_K_OPS:
                self._singleflight[key] = future
                future.add_done_callback(
                    lambda fut, key=key: self._singleflight.pop(key, None)
                    if self._singleflight.get(key) is fut else None)
        timeout_s = max(_TIMEOUT_FLOOR_S, budget_ms / 1e3 * _TIMEOUT_GRACE)
        try:
            ok, value, _meta = await asyncio.wait_for(
                asyncio.shield(future), timeout=timeout_s)
        except asyncio.TimeoutError:
            metrics.timeout += 1
            return 504, {"error": "deadline exceeded waiting for worker",
                         "deadline_ms": budget_ms}, None
        except ConnectionError as exc:
            metrics.error += 1
            return 503, {"error": str(exc)}, None
        now = time.monotonic()
        if not ok:
            metrics.error += 1
            return value["status"], {"error": value["error"]}, None
        metrics.observe_ok((now - arrival) * 1e3, within_deadline=now <= deadline)
        return 200, value, None

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    async def _stats_payload(self) -> Dict[str, Any]:
        worker_stats: List[Optional[Dict]] = [None] * self.pool.workers
        futures = {}
        for idx in range(self.pool.workers):
            if not self._worker_alive[idx]:
                continue
            try:
                futures[idx] = self._dispatch(
                    Request("stats"), time.monotonic() + 5.0,
                    route="/v1/stats", admitted=False)
            except ConnectionError:
                continue
        if futures:
            done = await asyncio.gather(
                *(asyncio.wait_for(asyncio.shield(f), timeout=5.0)
                  for f in futures.values()),
                return_exceptions=True)
            for idx, outcome in zip(futures, done):
                if (not isinstance(outcome, BaseException)) and outcome[0]:
                    worker_stats[idx] = outcome[1]
        dists = [stats["batch_distribution"]
                 for stats in worker_stats if stats is not None]
        return {
            "mode": "pool",
            "workers": self.pool.workers,
            "workers_alive": sum(self._worker_alive),
            "deadline_ms": self.deadline_ms,
            "routes": self.metrics.snapshot(),
            "admission": (self.admission.stats()
                          if self.admission is not None else None),
            "batching": merge_batch_distributions(dists),
            "worker_stats": worker_stats,
        }

