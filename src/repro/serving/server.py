"""Stdlib JSON/HTTP front-end for the inference engine.

No web framework — ``http.server.ThreadingHTTPServer`` is enough for a
dependency-free serving endpoint, and the threading server is what makes
micro-batching effective: concurrent requests block in their own handler
threads, their queries meet inside the :class:`RequestBatcher`, and one
vectorised engine call answers them all.

GET ``/v1/health`` (liveness + served model class), ``/v1/spec`` (the served
model's :class:`ModelSpec`) and ``/v1/stats`` (engine, cache and batcher
counters) are answered here; every POST route is parsed and answered by
:mod:`repro.serving.validation`, the request protocol this tier shares with
the pool tier.  Plain top-k requests go through the :class:`RequestBatcher`;
requests carrying an ``"ann"`` / ``"nprobe"`` override are answered on their
own so the override cannot leak onto batch-mates.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.serving.engine import InferenceEngine
from repro.serving.request_batcher import RequestBatcher
from repro.serving.validation import (
    ROUTES,
    TOP_K_OPS,
    ServingError,
    answer,
    error_reply,
    parse_request,
)

__all__ = ["InferenceServer", "ServingError", "ServingHandler", "make_server"]


class ServingHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the engine / batcher owned by the server."""

    server: "InferenceServer"
    protocol_version = "HTTP/1.1"
    # A keep-alive reply must not wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload: Dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # Status line, headers and body leave in one write: one ``sendall``,
        # one segment.  An HTTP/0.9 reply is the body alone.
        self._headers_buffer = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(body)
        self.flush_headers()

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        engine = self.server.engine
        if self.path == "/v1/health":
            self._send_json({"status": "ok",
                             "model": type(engine.model).__name__,
                             "n_entities": engine.model.n_entities,
                             "n_relations": engine.model.n_relations})
        elif self.path == "/v1/spec":
            self._send_json(engine.spec().to_dict())
        elif self.path == "/v1/stats":
            stats: Dict[str, object] = dict(engine.stats())
            if self.server.batcher is not None:
                stats["batcher"] = self.server.batcher.stats()
            self._send_json(stats)
        else:
            self._send_json({"error": f"unknown path {self.path!r}"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            # Read the body even for an unknown path, so a keep-alive
            # connection stays parseable.
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length) if length > 0 else b""
            if self.path not in ROUTES:
                self._send_json({"error": f"unknown path {self.path!r}"}, status=404)
                return
            model = self.server.engine.model
            request = parse_request(self.path, body, model.n_entities,
                                    model.n_relations)
            batcher, query = self.server.batcher, request.query
            # Per-request ANN overrides bypass the batcher, which counts
            # only plain top-k queries.
            if (batcher is not None and request.op in TOP_K_OPS
                    and query.ann is None and query.nprobe is None):
                self._send_json(batcher.submit(request).to_dict())
            else:
                self._send_json(answer(self.server.engine, request))
        except Exception as exc:  # noqa: BLE001 — 400 for client errors, else 500
            status, payload = error_reply(exc)
            self._send_json(payload, status=status)


class InferenceServer(ThreadingHTTPServer):
    """HTTP server owning one engine and (optionally) one request batcher.

    Parameters
    ----------
    engine:
        The engine to serve.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`port`).
    coalesce:
        Route top-k requests through a :class:`RequestBatcher` so concurrent
        queries share scoring calls.  Disable to measure the unbatched path.
    max_batch:
        Largest coalesced batch (ignored when ``coalesce`` is false).
    verbose:
        Log one line per request (off by default; serving is chatty).
    """

    daemon_threads = True
    # socketserver's default backlog of 5 overflows when a burst of clients
    # connects at once: the kernel drops their SYNs and each waits out the
    # 1 s retransmission timer (or its client's timeout).
    request_queue_size = socket.SOMAXCONN

    def __init__(self, engine: InferenceEngine, host: str = "127.0.0.1",
                 port: int = 0, coalesce: bool = True, max_batch: int = 64,
                 verbose: bool = False) -> None:
        super().__init__((host, port), ServingHandler)
        self.engine = engine
        self.verbose = bool(verbose)
        self.batcher: Optional[RequestBatcher] = (
            RequestBatcher(engine, max_batch=max_batch) if coalesce else None
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def close(self) -> None:
        """Stop the batcher and release the socket (idempotent)."""
        if self.batcher is not None:
            self.batcher.close()
        self.server_close()


def make_server(engine: InferenceEngine, host: str = "127.0.0.1", port: int = 0,
                coalesce: bool = True, max_batch: int = 64,
                verbose: bool = False) -> InferenceServer:
    """Construct (but do not start) an :class:`InferenceServer`.

    Call ``serve_forever()`` on the result — from the current thread for a
    real deployment (the CLI does this), or a background thread in tests.
    """
    return InferenceServer(engine, host=host, port=port, coalesce=coalesce,
                           max_batch=max_batch, verbose=verbose)
