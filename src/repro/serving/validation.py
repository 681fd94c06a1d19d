"""The serving request protocol, written once for both HTTP tiers.

The threaded tier (:mod:`repro.serving.server`) and the pool tier
(:mod:`repro.serving.async_server` + :mod:`repro.serving.pool`) speak one
JSON dialect, and this module is the only place it is defined:

* :func:`parse_request` turns a raw POST body into a typed :class:`Request`
  (JSON decoding, field checks and id-range checks; every rejection is a
  :class:`ServingError`);
* :func:`answer` executes one request on an engine and returns the reply body;
* :func:`top_k_groups` answers a batch of top-k requests with one batched
  engine call per direction — what both batchers execute;
* :func:`error_reply` maps any exception to the status and body both tiers
  send.

A tier only moves bytes and requests around these four functions, so a
payload rejected by one tier is rejected by the other with the same status
and the same body (``tests/serving/test_tier_parity.py`` holds them to it).

Routes (POST, body = one JSON object):

====================  ============  ===============================================
route                 ``op``        fields
====================  ============  ===============================================
``/v1/top_k_tails``   ``tail``      ``head``, ``relation``; optional ``k``,
                                    ``filtered``, ``ann``, ``nprobe``
``/v1/top_k_heads``   ``head``      ``tail``, ``relation``; the same options
``/v1/nearest``       ``nearest``   ``entity``; optional ``k``
``/v1/score``         ``score``     ``triples``: non-empty list of ``[h, r, t]``
``/v1/classify``      ``classify``  ``triples``, ``threshold`` (a number)
====================  ============  ===============================================

Ids are JSON integers inside the served vocabulary; ``k`` and ``nprobe`` are
positive integers; ``filtered`` and ``ann`` are booleans; every route takes
an optional positive ``deadline_ms`` (the pool tier's per-request deadline;
the threaded tier has none and only validates it).  A JSON boolean is never
an integer here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.serving.engine import InferenceEngine, TopKQuery, TopKResult

#: POST route → the ``op`` of the request it parses into.
ROUTES: Dict[str, str] = {"/v1/top_k_tails": "tail", "/v1/top_k_heads": "head",
                          "/v1/nearest": "nearest", "/v1/score": "score",
                          "/v1/classify": "classify"}
#: Ops answered by a batched top-k engine call (and so coalescable).
TOP_K_OPS = frozenset({"tail", "head"})


class ServingError(ValueError):
    """Client error (malformed request / unknown ids) mapped to HTTP 400."""


@dataclass(frozen=True)
class Nearest:
    """``/v1/nearest``: the ``k`` entities closest to ``entity``."""

    entity: int
    k: int = 10


@dataclass(frozen=True)
class Triples:
    """``/v1/score`` and ``/v1/classify`` (which also sets ``threshold``)."""

    triples: Tuple[Tuple[int, int, int], ...]
    threshold: Optional[float] = None


@dataclass(frozen=True)
class Request:
    """One parsed POST: the engine ``op``, its typed ``query``, its deadline.

    ``query`` is a :class:`~repro.serving.engine.TopKQuery` for ``tail`` /
    ``head``, a :class:`Nearest` or a :class:`Triples` otherwise, and
    ``None`` for the pool's control ops (``stats``, ``meta``).  Frozen and
    hashable: ``(op, query)`` is the single-flight key.
    """

    op: str
    query: Union[TopKQuery, Nearest, Triples, None] = None
    deadline_ms: Optional[float] = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_int(payload: Dict, key: str) -> int:
    """The payload's ``key`` as a real integer (bools are not integers here)."""
    if key not in payload:
        raise ServingError(f"missing required field {key!r}")
    value = payload[key]
    if not _is_int(value):
        raise ServingError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _positive_int(payload: Dict, key: str, default: Optional[int]) -> Optional[int]:
    """Optional positive integer field; ``None`` only when ``default`` is."""
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    if not _is_int(value) or value < 1:
        raise ServingError(f'field "{key}" must be a positive integer, got {value!r}')
    return value


def _optional_bool(payload: Dict, key: str, default: Optional[bool]) -> Optional[bool]:
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, bool):
        raise ServingError(f'field "{key}" must be a boolean, got {value!r}')
    return value


def check_ids(n_entities: int, n_relations: int, **ids: int) -> None:
    """Reject out-of-vocabulary ids (``relation`` against ``n_relations``,
    every other name against ``n_entities``), checked in argument order."""
    for name, value in ids.items():
        bound = n_relations if name == "relation" else n_entities
        if not 0 <= value < bound:
            raise ServingError(f"{name} id {value} out of range [0, {bound})")


def _triples(payload: Dict, n_entities: int, n_relations: int
             ) -> Tuple[Tuple[int, int, int], ...]:
    triples = payload.get("triples")
    if (not isinstance(triples, list) or not triples
            or not all(isinstance(t, list) and len(t) == 3
                       and all(_is_int(v) for v in t) for t in triples)):
        raise ServingError('field "triples" must be a non-empty list of [h, r, t]')
    for h, r, t in triples:
        check_ids(n_entities, n_relations, head=h, relation=r, tail=t)
    return tuple((h, r, t) for h, r, t in triples)


def _decode(body: bytes) -> Dict:
    if not body:
        raise ServingError("request body is empty")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServingError("request body must be a JSON object")
    return payload


def parse_request(path: str, body: bytes, n_entities: int,
                  n_relations: int) -> Request:
    """The raw POST ``body`` for route ``path`` as a typed :class:`Request`.

    Raises :class:`ServingError` for anything the engine must never see:
    an unknown route, an empty / non-JSON / non-object body, a missing or
    mistyped field, or an id outside ``n_entities`` / ``n_relations``.
    """
    if path not in ROUTES:
        raise ServingError(f"unknown path {path!r}")
    op = ROUTES[path]
    payload = _decode(body)
    query: Union[TopKQuery, Nearest, Triples]
    if op in TOP_K_OPS:
        anchor_key = "head" if op == "tail" else "tail"
        anchor = require_int(payload, anchor_key)
        relation = require_int(payload, "relation")
        k = _positive_int(payload, "k", 10)
        filtered = _optional_bool(payload, "filtered", False)
        ann = _optional_bool(payload, "ann", None)
        nprobe = _positive_int(payload, "nprobe", None)
        check_ids(n_entities, n_relations, **{anchor_key: anchor}, relation=relation)
        query = TopKQuery(anchor, relation, k, filtered, ann, nprobe)
    elif op == "nearest":
        entity = require_int(payload, "entity")
        k = _positive_int(payload, "k", 10)
        check_ids(n_entities, n_relations, entity=entity)
        query = Nearest(entity, k)
    else:
        triples = _triples(payload, n_entities, n_relations)
        threshold = None
        if op == "classify":
            if "threshold" not in payload:
                raise ServingError('missing required field "threshold"')
            threshold = payload["threshold"]
            if not _is_number(threshold):
                raise ServingError(
                    f'field "threshold" must be a number, got {threshold!r}')
            threshold = float(threshold)
        query = Triples(triples, threshold)
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not _is_number(deadline_ms) or deadline_ms <= 0:
            raise ServingError(
                f'field "deadline_ms" must be a positive number, got {deadline_ms!r}')
        deadline_ms = float(deadline_ms)
    return Request(op, query, deadline_ms)


def answer(engine: InferenceEngine, request: Request) -> Dict[str, object]:
    """Execute one parsed request on ``engine``; returns the JSON reply body."""
    op, query = request.op, request.query
    if op in TOP_K_OPS:
        batch = (engine.top_k_tails_batch if op == "tail"
                 else engine.top_k_heads_batch)
        return batch([query])[0].to_dict()
    if op == "nearest":
        return engine.nearest_entities(query.entity, k=query.k).to_dict()
    if op == "score":
        return {"scores": [float(s) for s in engine.score_triples(query.triples)]}
    if op == "classify":
        return {"labels": engine.classify(query.triples, query.threshold),
                "threshold": query.threshold}
    raise ServingError(f"unknown op {op!r}")


def top_k_groups(engine: InferenceEngine, requests: Sequence[Request]
                 ) -> Iterator[Tuple[List[int], Union[List[TopKResult], BaseException],
                                     float]]:
    """Answer top-k ``requests`` with one batched engine call per direction.

    Yields, per direction in first-seen order, ``(positions, outcome,
    seconds)``: the indices into ``requests`` of that direction's queries (in
    request order), the engine's results for them — or the exception its
    call raised, which fails only that group — and the call's wall time.
    A generator, so a caller can release one group's waiters before the next
    group is scored.
    """
    groups: Dict[str, List[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.op, []).append(i)
    for op, positions in groups.items():
        batch = (engine.top_k_tails_batch if op == "tail"
                 else engine.top_k_heads_batch)
        start = time.perf_counter()
        try:
            outcome: Union[List[TopKResult], BaseException] = batch(
                [requests[i].query for i in positions])
        except BaseException as exc:  # noqa: BLE001 — handed to the group's callers
            outcome = exc
        yield positions, outcome, time.perf_counter() - start


def error_reply(exc: BaseException) -> Tuple[int, Dict[str, str]]:
    """The HTTP status and JSON body both tiers send for ``exc``.

    Everything reaching the engine is request-derived, so ``ValueError`` /
    ``TypeError`` / ``IndexError`` (:class:`ServingError` included) are
    client errors (400); anything else is a 500 naming the exception.
    """
    if isinstance(exc, IndexError):
        return 400, {"error": str(exc) or "entity or relation id out of range"}
    if isinstance(exc, (ValueError, TypeError)):
        return 400, {"error": str(exc)}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}
