"""Tests for the request batcher: coalescing, correctness, error isolation.

Coalescing is tested without timing: :class:`GatedEngine` holds the first
batch inside the engine until the test has queued the requests it wants
answered together, as they would queue behind a busy engine.
"""

import queue
import threading
import time
import types

import pytest

from repro.registry import ModelSpec, build_model
from repro.serving import EngineClosed, InferenceEngine, RequestBatcher
from repro.serving import request_batcher


def make_engine(n_entities=40, cache_size=0):
    model = build_model(ModelSpec(model="transe", formulation="sparse",
                                  n_entities=n_entities, n_relations=6,
                                  embedding_dim=8), rng=0)
    return InferenceEngine(model, cache_size=cache_size)


class GatedEngine:
    """An engine whose first batch call blocks until :attr:`release` is set.

    ``calls`` records ``(direction, n_queries)`` of every batch call.
    """

    def __init__(self, engine):
        self.engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def _call(self, direction, batch, queries):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=30.0)
        self.calls.append((direction, len(queries)))
        return batch(queries)

    def top_k_tails_batch(self, queries):
        return self._call("tail", self.engine.top_k_tails_batch, queries)

    def top_k_heads_batch(self, queries):
        return self._call("head", self.engine.top_k_heads_batch, queries)


def start(target, *args):
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


def wait_queued(batcher, n):
    """Block until ``n`` items sit in the batcher's queue."""
    deadline = time.monotonic() + 10.0
    while batcher._queue.qsize() < n:
        assert time.monotonic() < deadline, f"{n} items never reached the queue"
        time.sleep(0.001)


def join_all(threads):
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive(), "a caller hung"


def expected_tails(engine, head, relation, k):
    return [int(i) for i in engine.model.predict_tails(head, relation, k=k)]


class TestBatcher:
    def test_single_request_round_trip(self):
        engine = make_engine()
        with RequestBatcher(engine, max_batch=8) as batcher:
            result = batcher.top_k_tails(0, 1, k=5)
        assert list(result.entities) == expected_tails(engine, 0, 1, 5)

    def test_requests_queued_behind_a_busy_worker_form_one_batch(self):
        engine = make_engine()
        gated = GatedEngine(engine)
        results = {}

        def ask(i):
            results[i] = batcher.top_k_tails(i % 8, i % 3, k=4)

        with RequestBatcher(gated, max_batch=64) as batcher:
            threads = [start(ask, 0)]
            assert gated.entered.wait(timeout=10.0)
            threads += [start(ask, i) for i in range(1, 17)]
            wait_queued(batcher, 16)
            gated.release.set()
            join_all(threads)
            stats = batcher.stats()

        assert gated.calls == [("tail", 1), ("tail", 16)]
        assert (stats["requests"], stats["batches"], stats["largest_batch"]) == (17, 2, 16)
        for i, result in results.items():
            assert list(result.entities) == expected_tails(engine, i % 8, i % 3, 4)

    def test_a_batch_drains_at_most_max_batch(self):
        gated = GatedEngine(make_engine())
        with RequestBatcher(gated, max_batch=4) as batcher:
            threads = [start(batcher.top_k_tails, 0, 0, 2)]
            assert gated.entered.wait(timeout=10.0)
            threads += [start(batcher.top_k_tails, i, 0, 2) for i in range(10)]
            wait_queued(batcher, 10)
            gated.release.set()
            join_all(threads)
        assert [n for _, n in gated.calls] == [1, 4, 4, 2]

    def test_lone_request_is_dispatched_without_a_hold(self, monkeypatch):
        """The worker blocks on the queue only while it holds no request:
        no ``get`` with a timeout, whose expiry would be the hold."""
        waits = []

        class SpyQueue(queue.Queue):
            def get(self, block=True, timeout=None):
                waits.append((block, timeout))
                return super().get(block, timeout)

        monkeypatch.setattr(request_batcher, "queue",
                            types.SimpleNamespace(Queue=SpyQueue, Empty=queue.Empty))
        engine = make_engine()
        gated = GatedEngine(engine)
        gated.release.set()
        with RequestBatcher(gated, max_batch=64) as batcher:
            result = batcher.top_k_tails(3, 1, k=4)
        assert gated.calls == [("tail", 1)]
        assert list(result.entities) == expected_tails(engine, 3, 1, 4)
        assert all(timeout is None for _, timeout in waits), waits

    def test_mixed_directions_in_one_batch(self):
        engine = make_engine()
        gated = GatedEngine(engine)
        out = {}

        def tails(i):
            out["tail", i] = batcher.top_k_tails(i, 1, k=3)

        def heads(i):
            out["head", i] = batcher.top_k_heads(2, i, k=3)

        with RequestBatcher(gated, max_batch=8) as batcher:
            threads = [start(tails, 0)]
            assert gated.entered.wait(timeout=10.0)
            threads += [start(fn, i) for i in (1, 2, 3) for fn in (tails, heads)]
            wait_queued(batcher, 6)
            gated.release.set()
            join_all(threads)
            stats = batcher.stats()

        # One batch of six, scored by one engine call per direction.
        assert (stats["batches"], stats["largest_batch"]) == (2, 6)
        assert gated.calls[0] == ("tail", 1)
        assert sorted(gated.calls[1:]) == [("head", 3), ("tail", 3)]
        for (direction, i), result in out.items():
            expected = (engine.model.predict_tails(i, 1, k=3) if direction == "tail"
                        else engine.model.predict_heads(2, i, k=3))
            assert list(result.entities) == [int(x) for x in expected]

    def test_error_propagates_to_caller(self):
        engine = make_engine(n_entities=10)
        with RequestBatcher(engine, max_batch=4) as batcher:
            with pytest.raises(IndexError):
                batcher.top_k_tails(10_000, 0, k=3)
            # The worker survives a failed batch and keeps serving.
            ok = batcher.top_k_tails(0, 0, k=3)
            assert len(ok.entities) == 3

    def test_submit_after_close_fails(self):
        batcher = RequestBatcher(make_engine(), max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.top_k_tails(0, 0, k=1)

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            RequestBatcher(make_engine(), max_batch=0)


class TestShutdownSemantics:
    """Satellite regression: requests in flight when close() runs must either
    complete or raise EngineClosed — never hang or drop their futures."""

    def test_submit_after_close_raises_engine_closed(self):
        batcher = RequestBatcher(make_engine(), max_batch=4)
        batcher.close()
        with pytest.raises(EngineClosed):
            batcher.top_k_tails(0, 0, k=1)

    def test_requests_in_flight_at_close_still_complete(self):
        """close() drains: every request queued before it gets a result."""
        engine = make_engine()
        gated = GatedEngine(engine)
        outcomes = {}
        batcher = RequestBatcher(gated, max_batch=64)

        def worker(i):
            try:
                outcomes[i] = batcher.top_k_tails(i % 8, i % 3, k=4)
            except EngineClosed as exc:
                outcomes[i] = exc

        threads = [start(worker, 0)]
        assert gated.entered.wait(timeout=10.0)
        threads += [start(worker, i) for i in range(1, 9)]
        wait_queued(batcher, 8)
        # close() queues its sentinel behind the eight, then waits on the
        # worker, which is still inside the first batch.
        closer = start(batcher.close)
        wait_queued(batcher, 9)
        gated.release.set()
        join_all(threads + [closer])
        assert sorted(outcomes) == list(range(9))
        for i, outcome in outcomes.items():
            assert not isinstance(outcome, Exception), outcome
            assert list(outcome.entities) == expected_tails(engine, i % 8, i % 3, 4)
        assert [n for _, n in gated.calls] == [1, 8]

    def test_wedged_worker_fails_queued_requests_instead_of_hanging(self):
        """If the engine wedges past close()'s timeout, queued requests get
        EngineClosed instead of waiting forever."""
        engine = make_engine()
        release = threading.Event()
        original = engine.top_k_tails_batch

        def slow_batch(queries):
            release.wait(timeout=30.0)
            return original(queries)

        engine.top_k_tails_batch = slow_batch
        batcher = RequestBatcher(engine, max_batch=1)
        outcomes = {}

        def worker(i):
            try:
                outcomes[i] = batcher.top_k_tails(0, 0, k=2)
            except EngineClosed as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        # Wait until the worker thread is wedged inside the engine call and
        # the remaining requests sit in the queue behind it.
        deadline = time.monotonic() + 5.0
        while batcher._queue.qsize() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        batcher.close(timeout=0.2)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a caller hung across a wedged close()"
        assert len(outcomes) == 3
        assert any(isinstance(o, EngineClosed) for o in outcomes.values())

    def test_double_close_is_idempotent(self):
        batcher = RequestBatcher(make_engine(), max_batch=4)
        batcher.close()
        batcher.close()
        with pytest.raises(EngineClosed):
            batcher.top_k_heads(0, 0, k=1)

    def test_close_races_with_concurrent_submissions(self):
        """close() fired with no synchronisation against a wave of submitters:
        every caller must get either a real result or EngineClosed, and the
        whole thing must settle (no hung thread, no dropped future)."""
        engine = make_engine()
        batcher = RequestBatcher(engine, max_batch=8)
        outcomes = {}
        start = threading.Barrier(13)

        def worker(i):
            start.wait()
            try:
                outcomes[i] = batcher.top_k_tails(i % 8, i % 3, k=4)
            except EngineClosed as exc:
                outcomes[i] = exc

        def closer():
            start.wait()
            time.sleep(0.005)   # land mid-wave, not before it
            batcher.close()

        threads = ([threading.Thread(target=worker, args=(i,))
                    for i in range(12)]
                   + [threading.Thread(target=closer)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a caller hung across a racing close()"

        assert len(outcomes) == 12
        for i, outcome in outcomes.items():
            if isinstance(outcome, EngineClosed):
                continue
            expected = engine.model.predict_tails(i % 8, i % 3, k=4)
            assert list(outcome.entities) == [int(x) for x in expected]

    def test_concurrent_close_calls_are_safe(self):
        batcher = RequestBatcher(make_engine(), max_batch=4)
        threads = [threading.Thread(target=batcher.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        with pytest.raises(EngineClosed):
            batcher.top_k_tails(0, 0, k=1)
