"""HTTP-level tests for the pool serving tier (AsyncInferenceServer).

A real asyncio server on an ephemeral port backed by forked workers; queried
with urllib and http.client exactly as an external client would.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.registry import ModelSpec, build_model
from repro.serving import AsyncInferenceServer, InferenceEngine

SPEC = ModelSpec(model="transe", formulation="sparse",
                 n_entities=30, n_relations=4, embedding_dim=8)


def make_engine():
    model = build_model(SPEC, rng=0)
    return InferenceEngine(model, known_triples=[(0, 1, 2)], cache_size=32)


@pytest.fixture(scope="module")
def server(pool_serving):
    server = AsyncInferenceServer(make_engine, workers=2, deadline_ms=5_000.0)
    with pool_serving(server):
        yield server


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def http_error(send) -> urllib.error.HTTPError:
    """The HTTPError ``send()`` raises, its body read into ``.body`` and the
    client connection it holds closed."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        send()
    error = excinfo.value
    error.body = error.read()
    error.close()
    return error


def post_error(server, path, payload) -> urllib.error.HTTPError:
    return http_error(lambda: post(server, path, payload))


class TestEndpoints:
    def test_health(self, server):
        payload = get(server, "/v1/health")
        assert payload["status"] == "ok"
        assert payload["model"] == "SpTransE"
        assert payload["workers"] == 2
        assert payload["workers_alive"] == 2

    def test_spec_round_trips(self, server):
        payload = get(server, "/v1/spec")
        spec = ModelSpec.from_dict(payload)
        assert spec.n_entities == 30
        assert spec.model == "transe"

    def test_top_k_matches_direct_engine(self, server):
        out = post(server, "/v1/top_k_tails",
                   {"head": 3, "relation": 1, "k": 5})
        expected = make_engine().top_k_tails(3, 1, k=5)
        assert out["entities"] == list(expected.entities)
        assert out["scores"] == pytest.approx(list(expected.scores))

    def test_top_k_heads_and_filtered(self, server):
        out = post(server, "/v1/top_k_heads",
                   {"tail": 2, "relation": 1, "k": 30, "filtered": True})
        assert 0 not in out["entities"]  # (0, 1, 2) is a known triple

    def test_nearest_score_classify(self, server):
        nearest = post(server, "/v1/nearest", {"entity": 4, "k": 3})
        assert len(nearest["entities"]) == 3
        scores = post(server, "/v1/score", {"triples": [[0, 1, 2]]})
        assert len(scores["scores"]) == 1
        labels = post(server, "/v1/classify",
                      {"triples": [[0, 1, 2]], "threshold": 2.0})
        assert isinstance(labels["labels"][0], bool)

    def test_stats_shape(self, server):
        post(server, "/v1/top_k_tails", {"head": 1, "relation": 0, "k": 3})
        stats = get(server, "/v1/stats")
        assert stats["mode"] == "pool"
        assert stats["workers_alive"] == 2
        route = stats["routes"]["/v1/top_k_tails"]
        assert route["ok"] >= 1
        assert route["latency"]["p50_ms"] > 0
        assert set(route) >= {"ok", "deadline_miss", "shed", "timeout",
                              "error", "coalesced", "latency"}
        assert stats["admission"]["workers"] == 2
        assert "multi_query_batches" in stats["batching"]
        engine_stats = [w["engine"] for w in stats["worker_stats"] if w]
        assert engine_stats and "cache" in engine_stats[0]


class TestErrors:
    def test_missing_field_is_400(self, server):
        err = post_error(server, "/v1/top_k_tails", {"relation": 1})
        assert err.code == 400
        assert "head" in json.loads(err.body)["error"]

    def test_out_of_range_ids_are_400(self, server):
        assert post_error(server, "/v1/top_k_tails",
                          {"head": 999, "relation": 1}).code == 400
        assert post_error(server, "/v1/nearest", {"entity": -1}).code == 400

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/score", data=b"not json",
            headers={"Content-Type": "application/json"})
        assert http_error(
            lambda: urllib.request.urlopen(request, timeout=10)).code == 400

    def test_bad_deadline_override_is_400(self, server):
        err = post_error(server, "/v1/top_k_tails",
                         {"head": 1, "relation": 1, "deadline_ms": -5})
        assert err.code == 400

    def test_unknown_path_and_method(self, server):
        assert post_error(server, "/v1/bogus", {}).code == 404
        request = urllib.request.Request(server.url + "/v1/top_k_tails",
                                         data=b"{}", method="PUT")
        assert http_error(
            lambda: urllib.request.urlopen(request, timeout=10)).code == 405


class TestKeepAlive:
    def test_two_requests_one_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/v1/health")
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            sock = conn.sock
            assert sock is not None
            body = json.dumps({"head": 1, "relation": 0, "k": 3}).encode()
            conn.request("POST", "/v1/top_k_tails", body=body,
                         headers={"Content-Type": "application/json"})
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["entities"]
            # Same socket object → the server honoured keep-alive.
            assert conn.sock is sock
        finally:
            conn.close()

    def test_connection_close_honoured(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/v1/health", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


class TestAdmissionAndCoalescing:
    def test_impossible_deadline_is_shed_with_retry_after(self, pool_serving):
        # A cold controller estimates 100 ms service; a 1 ms budget can never
        # fit, so the very first request is shed before touching a worker.
        server = AsyncInferenceServer(make_engine, workers=1,
                                      deadline_ms=5_000.0,
                                      default_service_ms=100.0)
        with pool_serving(server):
            err = post_error(server, "/v1/top_k_tails",
                             {"head": 1, "relation": 0, "deadline_ms": 1.0})
            assert err.code == 503
            body = json.loads(err.body)
            assert body["error"] == "shed"
            assert body["predicted_ms"] > body["deadline_ms"]
            assert int(err.headers["Retry-After"]) >= 1
            stats = get(server, "/v1/stats")
            assert stats["routes"]["/v1/top_k_tails"]["shed"] == 1
            assert stats["admission"]["shed"] == 1

    def test_concurrent_burst_batches_and_coalesces(self, pool_serving):
        # One worker, slow cold estimate, generous deadlines: a concurrent
        # burst must (a) form multi-query batches worker-side and (b) coalesce
        # identical queries front-end-side.  Admission is off so nothing sheds.
        server = AsyncInferenceServer(make_engine, workers=1,
                                      deadline_ms=2_000.0, max_batch=32,
                                      default_service_ms=20.0, admission=False)
        with pool_serving(server):
            results = []
            errors = []

            def hit(anchor):
                try:
                    results.append(post(server, "/v1/top_k_tails",
                                        {"head": anchor, "relation": 0, "k": 3}))
                except BaseException as exc:  # noqa: BLE001 — test capture
                    errors.append(exc)

            threads = ([threading.Thread(target=hit, args=(a,))
                        for a in range(12)]
                       + [threading.Thread(target=hit, args=(5,))
                          for _ in range(6)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert len(results) == 18
            stats = get(server, "/v1/stats")
            assert stats["batching"]["multi_query_batches"] >= 1
            assert stats["routes"]["/v1/top_k_tails"]["coalesced"] >= 1
            assert stats["admission"] is None
