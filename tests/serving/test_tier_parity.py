"""Both serving tiers answer every POST with the same status and the same bytes.

One table of requests — well-formed ones on all five routes and one of each
way a body can be malformed — is sent to a threaded :class:`InferenceServer`
and to a one-worker :class:`AsyncInferenceServer` over the same model.  The
status and the raw JSON body must be byte-identical, and no request may make
either tier drop its keep-alive connection (after every request the pool
tier's must still answer ``/v1/health`` on the same socket).
"""

import http.client
import json
import threading

import pytest

from repro.registry import ModelSpec, build_model
from repro.serving import AsyncInferenceServer, InferenceEngine, make_server

SPEC = ModelSpec(model="transe", formulation="sparse",
                 n_entities=30, n_relations=4, embedding_dim=8)


def make_engine():
    model = build_model(SPEC, rng=0)
    return InferenceEngine(model, known_triples=[(0, 1, 2)], cache_size=32)


def body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


TAILS, HEADS = "/v1/top_k_tails", "/v1/top_k_heads"

#: (id, route, raw body, expected status)
CASES = [
    ("tails", TAILS, body({"head": 3, "relation": 1, "k": 5}), 200),
    ("heads-filtered", HEADS,
     body({"tail": 2, "relation": 1, "k": 30, "filtered": True}), 200),
    ("tails-ann-override", TAILS,
     body({"head": 3, "relation": 1, "k": 4, "ann": False, "nprobe": 2}), 200),
    ("nearest", "/v1/nearest", body({"entity": 4, "k": 3}), 200),
    ("score", "/v1/score", body({"triples": [[0, 1, 2], [3, 2, 4]]}), 200),
    ("classify", "/v1/classify",
     body({"triples": [[0, 1, 2], [3, 2, 4]], "threshold": 7}), 200),
    ("empty-body", TAILS, b"", 400),
    ("bad-json", TAILS, b"{not json", 400),
    ("non-object", "/v1/score", b"[1, 2, 3]", 400),
    ("missing-field", TAILS, body({"head": 1}), 400),
    ("non-integer-id", TAILS, body({"head": "zero", "relation": 0}), 400),
    ("head-out-of-range", TAILS, body({"head": 999, "relation": 0}), 400),
    ("tail-out-of-range", HEADS, body({"tail": 30, "relation": 0}), 400),
    ("relation-out-of-range", TAILS, body({"head": 1, "relation": 4}), 400),
    ("entity-out-of-range", "/v1/nearest", body({"entity": 999}), 400),
    ("negative-id", "/v1/nearest", body({"entity": -1}), 400),
    ("k-zero", TAILS, body({"head": 1, "relation": 0, "k": 0}), 400),
    ("k-negative", TAILS, body({"head": 1, "relation": 0, "k": -3}), 400),
    ("k-bool", TAILS, body({"head": 1, "relation": 0, "k": True}), 400),
    ("k-float", TAILS, body({"head": 1, "relation": 0, "k": 2.7}), 400),
    ("k-string", HEADS, body({"tail": 1, "relation": 0, "k": "x"}), 400),
    ("k-null", TAILS, body({"head": 1, "relation": 0, "k": None}), 400),
    ("nearest-k-string", "/v1/nearest", body({"entity": 1, "k": "x"}), 400),
    ("filtered-string", TAILS,
     body({"head": 1, "relation": 0, "filtered": "no"}), 400),
    ("ann-string", TAILS, body({"head": 1, "relation": 0, "ann": "yes"}), 400),
    ("nprobe-zero", HEADS, body({"tail": 1, "relation": 0, "nprobe": 0}), 400),
    ("threshold-missing", "/v1/classify", body({"triples": [[0, 1, 2]]}), 400),
    ("threshold-string", "/v1/classify",
     body({"triples": [[0, 1, 2]], "threshold": "x"}), 400),
    ("threshold-null", "/v1/classify",
     body({"triples": [[0, 1, 2]], "threshold": None}), 400),
    ("triples-short-row", "/v1/score", body({"triples": [[1, 2]]}), 400),
    ("triples-not-ints", "/v1/score", body({"triples": [[1.5, 0, 0]]}), 400),
    ("triples-out-of-range", "/v1/score", body({"triples": [[0, 0, 99_999]]}), 400),
    ("deadline-negative", TAILS,
     body({"head": 1, "relation": 0, "deadline_ms": -5}), 400),
]


@pytest.fixture(scope="module")
def tiers():
    threaded = make_server(make_engine(), port=0)
    thread = threading.Thread(target=threaded.serve_forever, daemon=True)
    thread.start()
    pool = AsyncInferenceServer(make_engine, workers=1, deadline_ms=5_000.0)
    pool.serve_background()
    conns = {name: http.client.HTTPConnection("127.0.0.1", port, timeout=10)
             for name, port in (("threaded", threaded.port), ("pool", pool.port))}
    yield conns
    for conn in conns.values():
        conn.close()
    pool.close()
    threaded.shutdown()
    threaded.close()
    thread.join(timeout=5.0)


def exchange(conn: http.client.HTTPConnection, method: str, path: str,
             data: bytes = b""):
    headers = {"Content-Type": "application/json"} if method == "POST" else {}
    conn.request(method, path, body=data if method == "POST" else None,
                 headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


@pytest.mark.parametrize("path,data,status", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_both_tiers_send_the_same_bytes(tiers, path, data, status):
    replies = {}
    for name, conn in tiers.items():
        replies[name] = exchange(conn, "POST", path, data)
        assert conn.sock is not None, f"{name} tier closed the connection"
    # The pool tier used to drop the connection without a reply on some of
    # these; it must still answer on the same socket.
    sock = tiers["pool"].sock
    assert exchange(tiers["pool"], "GET", "/v1/health")[0] == 200
    assert tiers["pool"].sock is sock
    assert replies["threaded"] == replies["pool"]
    got_status, got_body = replies["pool"]
    assert got_status == status, got_body
    assert isinstance(json.loads(got_body), dict)


def test_canonical_error_strings(tiers):
    """The error text is the threaded tier's, now on both tiers."""
    expected = {
        (TAILS, b""): "request body is empty",
        ("/v1/nearest", body({"entity": 999})): "entity id 999 out of range [0, 30)",
        (TAILS, body({"head": 1, "relation": 0, "k": True})):
            'field "k" must be a positive integer, got True',
        (TAILS, body({"head": 1, "relation": 0, "filtered": "no"})):
            "field \"filtered\" must be a boolean, got 'no'",
    }
    for (path, data), message in expected.items():
        for conn in tiers.values():
            status, raw = exchange(conn, "POST", path, data)
            assert (status, json.loads(raw)) == (400, {"error": message})
