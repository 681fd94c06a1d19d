"""HTTP-level tests: a real server on an ephemeral port, queried with urllib."""

import http.client
import json
import selectors
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.registry import ModelSpec, build_model
from repro.serving import InferenceEngine, make_server
from repro.serving.server import ServingHandler


@pytest.fixture
def served():
    """A live server on an ephemeral port; yields (server, model)."""
    model = build_model(ModelSpec(model="transe", formulation="sparse",
                                  n_entities=30, n_relations=4,
                                  embedding_dim=8), rng=0)
    engine = InferenceEngine(model, known_triples=[(0, 1, 2)], cache_size=32)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, model
    server.shutdown()
    server.close()
    thread.join(timeout=5.0)


def get(server, path):
    with urllib.request.urlopen(server.url + path) as response:
        return json.loads(response.read().decode("utf-8"))


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode("utf-8"))


def post_error(server, path, payload) -> urllib.error.HTTPError:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post(server, path, payload)
    return excinfo.value


class TestEndpoints:
    def test_health(self, served):
        server, _ = served
        payload = get(server, "/v1/health")
        assert payload["status"] == "ok"
        assert payload["model"] == "SpTransE"

    def test_spec_round_trips(self, served):
        server, model = served
        payload = get(server, "/v1/spec")
        spec = ModelSpec.from_dict(payload)
        rebuilt = build_model(spec, rng=0)
        assert type(rebuilt) is type(model)

    def test_top_k_tails_matches_predict_tails(self, served):
        server, model = served
        out = post(server, "/v1/top_k_tails", {"head": 3, "relation": 1, "k": 6})
        expected = model.predict_tails(3, 1, k=6)
        assert out["entities"] == [int(i) for i in expected]
        assert len(out["scores"]) == 6

    def test_top_k_heads(self, served):
        server, model = served
        out = post(server, "/v1/top_k_heads", {"tail": 5, "relation": 2, "k": 4})
        expected = model.predict_heads(2, 5, k=4)
        assert out["entities"] == [int(i) for i in expected]

    def test_filtered_excludes_known_positive(self, served):
        server, model = served
        out = post(server, "/v1/top_k_tails",
                   {"head": 0, "relation": 1, "k": model.n_entities,
                    "filtered": True})
        assert 2 not in out["entities"]

    def test_score_and_classify(self, served):
        server, model = served
        triples = [[0, 1, 2], [3, 2, 4]]
        scored = post(server, "/v1/score", {"triples": triples})
        expected = model.score_triples(np.asarray(triples))
        np.testing.assert_allclose(scored["scores"], expected)

        labels = post(server, "/v1/classify",
                      {"triples": triples, "threshold": float(expected.mean())})
        assert labels["labels"] == [bool(s <= expected.mean()) for s in expected]

    def test_nearest_entities(self, served):
        server, model = served
        out = post(server, "/v1/nearest", {"entity": 4, "k": 3})
        assert 4 not in out["entities"]
        assert len(out["entities"]) == 3
        expected = server.engine.nearest_entities(4, k=3)
        assert out["entities"] == list(expected.entities)

    def test_nearest_out_of_range_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/nearest", {"entity": 10_000})
        assert error.code == 400

    def test_stats_exposes_engine_cache_and_batcher(self, served):
        server, _ = served
        post(server, "/v1/top_k_tails", {"head": 1, "relation": 1})
        payload = get(server, "/v1/stats")
        assert payload["queries_served"] >= 1
        assert "cache" in payload and "batcher" in payload


class TestErrorHandling:
    def test_missing_field_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/top_k_tails", {"head": 1})
        assert error.code == 400
        assert "relation" in json.loads(error.read().decode())["error"]

    def test_out_of_range_id_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/top_k_tails",
                           {"head": 10_000, "relation": 0})
        assert error.code == 400

    def test_non_integer_id_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/top_k_tails",
                           {"head": "zero", "relation": 0})
        assert error.code == 400

    def test_malformed_json_is_400(self, served):
        server, _ = served
        request = urllib.request.Request(
            server.url + "/v1/top_k_tails", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        server, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/nope")
        assert excinfo.value.code == 404

    def test_unknown_post_path_is_404(self, served):
        server, _ = served
        error = post_error(server, "/v1/nope", {"head": 1})
        assert error.code == 404
        # The connection must survive the 404 (body drained, keep-alive intact).
        out = post(server, "/v1/top_k_tails", {"head": 1, "relation": 0, "k": 2})
        assert len(out["entities"]) == 2

    def test_bad_triples_shape_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/score", {"triples": [[1, 2]]})
        assert error.code == 400

    def test_score_with_out_of_range_id_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/score", {"triples": [[99_999, 0, 0]]})
        assert error.code == 400


class TestCoalescingOverHTTP:
    def test_queries_queued_behind_a_busy_engine_share_one_call(self, served):
        """The first query holds the engine until the other seven are
        queued; they are then answered by one scoring call."""
        server, model = served
        server.engine.cache.clear()
        baseline_calls = server.engine.stats()["scoring_calls"]
        batch = server.engine.top_k_tails_batch
        entered, release = threading.Event(), threading.Event()

        def gated_batch(queries):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30.0)
            return batch(queries)

        server.engine.top_k_tails_batch = gated_batch
        results = {}

        def worker(i):
            results[i] = post(server, "/v1/top_k_tails",
                              {"head": i, "relation": 0, "k": 3})

        threads = [threading.Thread(target=worker, args=(0,))]
        threads[0].start()
        assert entered.wait(timeout=10.0)
        threads += [threading.Thread(target=worker, args=(i,)) for i in range(1, 8)]
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 10.0
        while server.batcher._queue.qsize() < 7:
            assert time.monotonic() < deadline, "queries never reached the batcher"
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a query hung"

        for i in range(8):
            assert results[i]["entities"] == [int(e)
                                              for e in model.predict_tails(i, 0, k=3)]
        assert server.batcher.stats()["largest_batch"] == 7
        assert server.engine.stats()["scoring_calls"] - baseline_calls == 2


class TestAnnOverrides:
    """Per-request "ann"/"nprobe" payload fields (parsed even with no index)."""

    def test_ann_false_answers_exactly_and_bypasses_batcher(self, served):
        server, model = served
        before = server.batcher.stats()["requests"]
        out = post(server, "/v1/top_k_tails",
                   {"head": 3, "relation": 1, "k": 4, "ann": False})
        assert out["entities"] == [int(i) for i in model.predict_tails(3, 1, k=4)]
        assert server.batcher.stats()["requests"] == before

    def test_nprobe_override_bypasses_batcher(self, served):
        server, _ = served
        before = server.batcher.stats()["requests"]
        out = post(server, "/v1/top_k_heads",
                   {"tail": 5, "relation": 2, "k": 3, "nprobe": 4})
        assert len(out["entities"]) == 3
        assert server.batcher.stats()["requests"] == before

    def test_non_boolean_ann_is_400(self, served):
        server, _ = served
        error = post_error(server, "/v1/top_k_tails",
                           {"head": 3, "relation": 1, "ann": "yes"})
        assert error.code == 400

    @pytest.mark.parametrize("nprobe", [0, -2, "4", True])
    def test_invalid_nprobe_is_400(self, served, nprobe):
        server, _ = served
        error = post_error(server, "/v1/top_k_tails",
                           {"head": 3, "relation": 1, "nprobe": nprobe})
        assert error.code == 400


class TestKeepAlive:
    """Satellite regression: HTTP/1.1 keep-alive on the threaded tier.

    Two sequential requests over one http.client connection must both be
    answered on the same socket with correct Content-Length framing — this
    is what lets bench/replay clients reuse connections instead of paying a
    TCP handshake per query.
    """

    def test_two_sequential_requests_share_one_connection(self, served):
        server, model = served
        conn = http.client.HTTPConnection(server.server_address[0],
                                          server.server_address[1], timeout=10)
        try:
            conn.request("GET", "/v1/health")
            first = conn.getresponse()
            assert first.status == 200
            body = first.read()
            assert int(first.getheader("Content-Length")) == len(body)
            sock = conn.sock
            assert sock is not None

            payload = json.dumps({"head": 1, "relation": 0, "k": 3}).encode()
            conn.request("POST", "/v1/top_k_tails", body=payload,
                         headers={"Content-Type": "application/json"})
            second = conn.getresponse()
            assert second.status == 200
            answer = json.loads(second.read())
            assert answer["entities"] == [int(i)
                                          for i in model.predict_tails(1, 0, k=3)]
            # Same socket object → the server kept the connection open.
            assert conn.sock is sock
        finally:
            conn.close()

    def test_error_response_keeps_connection_alive(self, served):
        server, _ = served
        conn = http.client.HTTPConnection(server.server_address[0],
                                          server.server_address[1], timeout=10)
        try:
            bad = json.dumps({"relation": 0}).encode()
            conn.request("POST", "/v1/top_k_tails", body=bad,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            sock = conn.sock
            conn.request("GET", "/v1/health")
            ok = conn.getresponse()
            assert ok.status == 200
            ok.read()
            assert conn.sock is sock
        finally:
            conn.close()


def read_reply(sock, buffered: bytearray):
    """``(status, body)`` of one HTTP/1.1 reply read off a raw socket."""
    while b"\r\n\r\n" not in buffered:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        buffered += chunk
    head, _, rest = bytes(buffered).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                  if line.lower().startswith("content-length:"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        rest += chunk
    buffered[:] = rest[length:]
    return int(lines[0].split()[1]), rest[:length]


class TestReplyPath:
    """No reply waits on a timer: one write per reply, Nagle off.

    A reply written as two segments on a keep-alive socket with Nagle on
    holds its second segment until the client's delayed ACK, 40 ms on Linux.
    """

    @pytest.fixture
    def handlers(self, monkeypatch):
        """Every handler set up from here on, its writes and its socket's
        ``TCP_NODELAY`` recorded."""
        seen = []
        setup = ServingHandler.setup

        def spying_setup(handler):
            setup(handler)
            handler.nodelay = handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                            socket.TCP_NODELAY)
            handler.writes = []
            write = handler.wfile.write

            def spy(data):
                handler.writes.append(bytes(data))
                return write(data)

            handler.wfile.write = spy
            seen.append(handler)

        monkeypatch.setattr(ServingHandler, "setup", spying_setup)
        return seen

    def test_each_reply_is_one_write(self, served, handlers):
        server, _ = served
        conn = http.client.HTTPConnection(*server.server_address, timeout=10)
        requests = [("GET", "/v1/health", None),
                    ("POST", "/v1/top_k_tails", {"head": 1, "relation": 0, "k": 3}),
                    ("POST", "/v1/top_k_tails", {"relation": 0}),
                    ("GET", "/v1/nope", None)]
        bodies = []
        try:
            for method, path, payload in requests:
                conn.request(method, path, headers={"Content-Type": "application/json"},
                             body=None if payload is None else json.dumps(payload))
                bodies.append(conn.getresponse().read())
        finally:
            conn.close()
        (handler,) = handlers
        assert len(handler.writes) == len(requests)
        for write, body in zip(handler.writes, bodies):
            assert write.startswith(b"HTTP/1.1 ") and write.endswith(b"\r\n\r\n" + body)

    def test_http_0_9_reply_is_the_body_alone(self, served, handlers):
        server, _ = served
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"GET /v1/health\r\n\r\n")
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(reply)["status"] == "ok"
        assert handlers[0].writes == [reply]

    def test_accepted_socket_has_nodelay(self, served, handlers):
        server, _ = served
        get(server, "/v1/health")
        (handler,) = handlers
        assert handler.nodelay

    def test_keep_alive_round_trips_do_not_stall(self, served):
        """Median of the last 10 of 12 round trips per route under 20 ms, half
        the delayed-ACK floor (the first few ride TCP's quick-ACK start)."""
        server, _ = served
        top_k = json.dumps({"head": 1, "relation": 0, "k": 3}).encode()
        routes = {
            "health": b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n",
            "top_k": (b"POST /v1/top_k_tails HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Type: application/json\r\n"
                      b"Content-Length: %d\r\n\r\n" % len(top_k)) + top_k,
        }
        with socket.create_connection(server.server_address, timeout=10) as sock:
            buffered = bytearray()
            for name, request in routes.items():
                rtt_ms = []
                for _ in range(12):
                    start = time.perf_counter()
                    sock.sendall(request)
                    status, _ = read_reply(sock, buffered)
                    rtt_ms.append((time.perf_counter() - start) * 1e3)
                    assert status == 200
                assert statistics.median(rtt_ms[2:]) < 20.0, (name, rtt_ms)


class TestConnectionBurst:
    """A burst of clients connecting while the engine is busy is accepted
    whole: no SYN is dropped on a full listen backlog."""

    def test_64_keep_alive_connections_at_once_are_all_answered(self, served):
        server, model = served
        batch = server.engine.top_k_tails_batch
        entered, release = threading.Event(), threading.Event()

        def gated_batch(queries):
            entered.set()
            assert release.wait(timeout=30.0)
            return batch(queries)

        server.engine.top_k_tails_batch = gated_batch
        socks = [socket.socket() for _ in range(64)]
        selector = selectors.DefaultSelector()
        try:
            start = time.perf_counter()
            for i, sock in enumerate(socks):
                sock.setblocking(False)
                sock.connect_ex(server.server_address)
                selector.register(sock, selectors.EVENT_WRITE, i)
            connect_s = {}
            while len(connect_s) < len(socks):
                assert time.perf_counter() - start < 10.0, "connections hung"
                for key, _ in selector.select(timeout=0.05):
                    assert key.fileobj.getsockopt(socket.SOL_SOCKET,
                                                  socket.SO_ERROR) == 0
                    connect_s[key.data] = time.perf_counter() - start
                    selector.unregister(key.fileobj)
            # A dropped SYN is retried after TCP's 1 s initial timeout.
            assert max(connect_s.values()) < 0.9, sorted(connect_s.values())[-3:]

            def request(i):
                body = json.dumps({"head": i % 30, "relation": 0, "k": 3}).encode()
                return (b"POST /v1/top_k_tails HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body)) + body

            for i, sock in enumerate(socks):
                sock.setblocking(True)
                sock.settimeout(10.0)
                sock.sendall(request(i))
            assert entered.wait(timeout=10.0)
            release.set()
            for round_ in range(2):  # the second rides each kept-alive socket
                for i, sock in enumerate(socks):
                    if round_:
                        sock.sendall(request(i))
                    status, body = read_reply(sock, bytearray())
                    assert status == 200, (i, body)
                    assert json.loads(body)["entities"] == [
                        int(e) for e in model.predict_tails(i % 30, 0, k=3)]
        finally:
            release.set()
            selector.close()
            for sock in socks:
                sock.close()
