"""WorkerPool tests: forked engines answering over the pipe protocol.

These use the synchronous :meth:`WorkerPool.call` path — the asyncio
front-end has its own HTTP-level tests in ``test_async_server.py``.
"""

import time

import pytest

from repro.registry import ModelSpec, build_model
from repro.serving import InferenceEngine, PoolClosed, TopKQuery, WorkerError, WorkerPool
from repro.serving.validation import Nearest, Request, Triples

SPEC = ModelSpec(model="transe", formulation="sparse",
                 n_entities=40, n_relations=5, embedding_dim=8)


def make_engine():
    model = build_model(SPEC, rng=0)
    return InferenceEngine(model, known_triples=[(0, 1, 2)], cache_size=32)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(make_engine, workers=2, max_batch=8,
                    default_service_ms=2.0) as pool:
        yield pool


class TestRoundTrips:
    def test_tail_matches_direct_engine(self, pool):
        out = pool.call(0, Request("tail", TopKQuery(3, 1, k=5)))
        expected = make_engine().top_k_tails(3, 1, k=5)
        assert out["entities"] == list(expected.entities)
        assert out["scores"] == pytest.approx(list(expected.scores))

    def test_head_matches_direct_engine(self, pool):
        out = pool.call(1, Request("head", TopKQuery(7, 2, k=4)))
        expected = make_engine().top_k_heads(relation=2, tail=7, k=4)
        assert out["entities"] == list(expected.entities)

    def test_filtered_flag_respected(self, pool):
        plain = pool.call(0, Request("tail", TopKQuery(0, 1, k=40)))
        filtered = pool.call(0, Request("tail", TopKQuery(0, 1, k=40,
                                                             filtered=True)))
        assert 2 in plain["entities"]
        assert 2 not in filtered["entities"]

    def test_immediate_ops(self, pool):
        nearest = pool.call(0, Request("nearest", Nearest(4, k=3)))
        assert len(nearest["entities"]) == 3
        scores = pool.call(0, Request("score", Triples(((0, 1, 2), (3, 0, 4)))))
        assert len(scores["scores"]) == 2
        labels = pool.call(0, Request("classify",
                                    Triples(((0, 1, 2),), threshold=5.0)))
        assert labels["labels"] == [True] or labels["labels"] == [False]

    def test_worker_error_propagates(self, pool):
        with pytest.raises(WorkerError) as excinfo:
            pool.call(0, Request("tail", TopKQuery(10_000, 1, k=5)))
        assert excinfo.value.error_type in {"ValueError", "IndexError"}
        # The worker survives a failed request.
        assert pool.alive() == [True, True]


class TestControlOps:
    def test_meta_handshake_and_op(self, pool):
        assert pool.meta["n_entities"] == 40
        meta = pool.call(1, Request("meta"))
        assert meta["model"] == "SpTransE"
        assert meta["spec"]["n_relations"] == 5

    def test_stats_reports_batching(self, pool):
        stats = pool.call(0, Request("stats"))
        assert stats["requests"] >= 1
        assert stats["service_per_row_ms"] > 0
        dist = stats["batch_distribution"]
        assert dist["requests"] == dist["requests"]  # shape sanity
        assert set(dist) >= {"batches", "requests", "mean_batch_size",
                             "largest_batch", "multi_query_batches", "sizes"}
        assert "cache" in stats["engine"]

    def test_burst_forms_multi_query_batches(self):
        # Submit a burst with generous deadlines before reading any response:
        # the worker's deadline batcher should coalesce at least once.
        with WorkerPool(make_engine, workers=1, max_batch=16,
                        default_service_ms=1.0, slack_ms=0.5) as pool:
            deadline = time.monotonic() + 0.5
            ids = []
            for anchor in range(10):
                req_id = pool.next_request_id()
                pool.submit(0, req_id, Request("tail", TopKQuery(anchor, 0, k=3)),
                            deadline)
                ids.append(req_id)
            conn = pool.connection(0)
            got = set()
            end = time.monotonic() + 10.0
            while len(got) < len(ids) and time.monotonic() < end:
                if conn.poll(0.5):
                    tag, res_id, ok, _value, meta = conn.recv()
                    assert tag == "res" and ok
                    got.add(res_id)
                    assert meta["batch_size"] >= 1
            assert got == set(ids)
            dist = pool.call(0, Request("stats"))["batch_distribution"]
            assert dist["multi_query_batches"] >= 1
            assert dist["largest_batch"] > 1


class TestLifecycle:
    def test_close_is_idempotent_and_reaps(self):
        pool = WorkerPool(make_engine, workers=2)
        assert pool.alive() == [True, True]
        pool.close()
        pool.close()
        assert pool.alive() == [False, False]
        with pytest.raises(PoolClosed):
            pool.call(0, Request("meta"))
        with pytest.raises(PoolClosed):
            pool.submit(0, 1, Request("tail", TopKQuery(0, 0)), 0.0)

    def test_close_drains_pending_batch(self):
        pool = WorkerPool(make_engine, workers=1, max_batch=32,
                          default_service_ms=1.0)
        deadline = time.monotonic() + 30.0  # far future: batch sits pending
        req_id = pool.next_request_id()
        pool.submit(0, req_id, Request("tail", TopKQuery(1, 0, k=3)), deadline)
        conn = pool.connection(0)
        pool_closed = False
        try:
            # The shutdown sentinel must flush the parked request first.
            time.sleep(0.05)
            pool.close()
            pool_closed = True
            assert conn.closed
        finally:
            if not pool_closed:
                pool.close()

    def test_startup_failure_surfaces(self):
        def broken_factory():
            raise RuntimeError("no artifact here")

        with pytest.raises(RuntimeError, match="failed to start"):
            WorkerPool(broken_factory, workers=1, start_timeout_s=30.0)
