"""Inference serving: checkpoint → HTTP top-k endpoint.

The serving stack is layered so each piece is usable on its own:

* :class:`~repro.serving.engine.InferenceEngine` — loads a checkpoint through
  the spec-driven registry and answers top-k / scoring / classification
  queries through the model's table walk with a running top-k (filtered
  candidates never enter it), and an LRU result cache.  The model's tables
  are the checkpoint's ``weights/`` files, mapped read-only.
* :class:`~repro.serving.request_batcher.RequestBatcher` — coalesces
  concurrent single queries into batched engine calls.
* :mod:`~repro.serving.validation` — the request protocol both HTTP tiers
  share: one parser, one executor and one error mapping for every route.
* :class:`~repro.serving.server.InferenceServer` — a stdlib-only threaded
  JSON/HTTP front-end (``sptransx serve`` wraps it).
* :class:`~repro.serving.pool.WorkerPool` +
  :class:`~repro.serving.async_server.AsyncInferenceServer` — the
  heavy-traffic tier (``sptransx serve --workers N``): an asyncio front door
  with SLO admission control fanning out to forked engine processes that
  share the mmap'd weight files and batch with deadline awareness
  (:mod:`repro.serving.deadline`).

.. code-block:: python

    from repro.serving import InferenceEngine
    from repro.training import load_model

    engine = InferenceEngine.from_artifact("runs/transe-fb15k", filtered=True)
    # A bare checkpoint (the .npz with weights/ beside it) serves unfiltered.
    bare = InferenceEngine(load_model("model.npz"))
    result = engine.top_k_tails(head=12, relation=3, k=10)
    print(result.entities, result.scores)
"""

from repro.serving.admission import AdmissionController
from repro.serving.async_server import AsyncInferenceServer
from repro.serving.cache import LRUCache
from repro.serving.deadline import DeadlineBatcher, ServiceTimeEstimator
from repro.serving.engine import InferenceEngine, TopKQuery, TopKResult
from repro.serving.metrics import LatencyHistogram, MetricsRegistry
from repro.serving.pool import PoolClosed, WorkerError, WorkerPool
from repro.serving.request_batcher import EngineClosed, RequestBatcher
from repro.serving.server import InferenceServer, ServingError, make_server

__all__ = [
    "AdmissionController",
    "AsyncInferenceServer",
    "DeadlineBatcher",
    "LatencyHistogram",
    "LRUCache",
    "InferenceEngine",
    "MetricsRegistry",
    "PoolClosed",
    "ServiceTimeEstimator",
    "TopKQuery",
    "TopKResult",
    "EngineClosed",
    "RequestBatcher",
    "InferenceServer",
    "ServingError",
    "WorkerError",
    "WorkerPool",
    "make_server",
]
