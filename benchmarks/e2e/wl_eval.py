"""``eval_rank``: one pass of timed filtered link-prediction ranking calls.

Op = one ``evaluate_link_prediction`` call on ``queries_per_op`` test triples,
each ranked head- and tail-side against every entity; unit = test triples.
The model is untrained: ranking cost does not depend on the weights' values.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, Optional

import numpy as np

import repro.evaluation.link_prediction as link_prediction
from repro.data import make_dataset_like
from repro.evaluation import evaluate_link_prediction
from repro.models import SpTransE
from repro.ranking import l2_distance_matrix, top_k

from benchmarks.e2e.calibrate import BoxSpeed
from benchmarks.e2e.common import median_ms, peak_rss_mb
from benchmarks.e2e.spans import Tracer


def run_pass(workload: str, cfg: Dict[str, object], seed: int, trace: bool,
             workdir: str) -> Dict[str, object]:
    per_op = cfg["queries_per_op"]
    evaluate = evaluate_link_prediction
    tracer: Optional[Tracer] = None
    if trace:
        # Spans come from wrapping the public callables the evaluator looks
        # up at call time; the program's files are not touched.
        tracer = Tracer()
        link_prediction.compute_ranks = tracer.wrap(link_prediction.compute_ranks,
                                                    "evaluation.compute_ranks")
        evaluate = tracer.wrap(evaluate_link_prediction,
                               "evaluation.evaluate_link_prediction")

    # Set-up is under a second and its first run in a process pays for the
    # first touch of every page, so it runs several times; the timed ops use
    # what the last one built.
    box = BoxSpeed()
    setups = []
    for _ in range(cfg["setups"]):
        kg = known = model = test = None  # one copy alive: peak RSS stays a pass's
        start, spent = time.perf_counter(), box.spent_s
        box.sample(3)
        kg = make_dataset_like(cfg["dataset"], scale=cfg["scale"], rng=seed,
                               test_fraction=cfg["test_fraction"])
        known = kg.known_triples()
        box.sample(3)
        model = SpTransE(kg.n_entities, kg.n_relations, cfg["dim"], rng=seed)
        test = kg.split.test
        if tracer is not None:
            model.score_all_tails = tracer.wrap(model.score_all_tails,
                                                "models.score_all_tails")
            model.score_all_heads = tracer.wrap(model.score_all_heads,
                                                "models.score_all_heads")
        for i in range(cfg["warmup"]):
            evaluate(model, _chunk(test, i, per_op), known, batch_size=per_op)
            box.sample(3)
        gc.collect()
        setups.append({"seconds": (time.perf_counter() - start
                                   - (box.spent_s - spent)),
                       "kernel": box.drain()})
    if tracer is not None:
        tracer.spans.clear()

    latencies, failed = [], 0
    for i in range(cfg["ops"]):
        triples = _chunk(test, cfg["warmup"] + i, per_op)
        t0 = time.perf_counter()
        root = tracer.begin("op", op=i) if tracer is not None else None
        result = evaluate(model, triples, known, batch_size=per_op)
        if root is not None:
            tracer.end(root)
        t1 = time.perf_counter()
        if math.isfinite(result.mrr):
            latencies.append(1e3 * (t1 - t0))
        else:
            failed += 1
        box.sample()
    peak_rss = peak_rss_mb()
    layers = spans = None
    if tracer is not None:
        # Taken now: the output check below runs through the same wrappers.
        spans = list(tracer.spans)
        layers = _layers(tracer, model, _chunk(test, 0, per_op), cfg["ops"],
                         sum(latencies) / 1e3)

    sample = test[np.random.default_rng(seed).choice(
        test.shape[0], size=cfg["check_queries"], replace=False)]
    got = evaluate_link_prediction(model, sample, known, batch_size=per_op)
    want = _brute_force_mrr(model, sample, known)
    out = {
        "setups": setups,
        "timed_s": sum(latencies) / 1e3, "timed_kernel": box.drain(),
        "units": per_op * len(latencies),
        "latencies_ms": latencies,
        "attempted": cfg["ops"], "failed": failed,
        "peak_rss_mb": peak_rss,
        "checks": {"mrr_matches_brute_force":
                   math.isclose(got.mrr, want, rel_tol=1e-9)},
        "exact": {"check_mrr": got.mrr},
        "info": {"n_entities": model.n_entities, "n_test": int(test.shape[0])},
    }
    if tracer is not None:
        out["layers"], out["spans"] = layers, spans
    return out


def _chunk(test: np.ndarray, i: int, per_op: int) -> np.ndarray:
    """The ``i``-th op's test triples (the test split is cycled)."""
    return test[np.arange(i * per_op, (i + 1) * per_op) % test.shape[0]]


def _brute_force_mrr(model: SpTransE, triples: np.ndarray, known) -> float:
    """Filtered MRR from first principles: plain numpy norms, one query at a time."""
    ent = model.embeddings.entity_embeddings()
    rel = model.embeddings.relation_embeddings()
    tails, heads = {}, {}
    for h, r, t in known:
        tails.setdefault((h, r), []).append(t)
        heads.setdefault((t, r), []).append(h)
    reciprocal = []
    for h, r, t in triples.tolist():
        for scores, true, others in (
                (np.linalg.norm(ent[h] + rel[r] - ent, axis=1), t, tails[(h, r)]),
                (np.linalg.norm(ent - (ent[t] - rel[r]), axis=1), h, heads[(t, r)])):
            target = scores[true]
            scores[[o for o in others if o != true]] = np.inf
            better = int((scores < target).sum())
            ties = int((scores == target).sum()) - 1
            reciprocal.append(1.0 / (better + ties / 2.0 + 1))
    return float(np.mean(reciprocal))


def _layers(tracer: Tracer, model: SpTransE, triples: np.ndarray, ops: int,
            op_total_s: float) -> Dict[str, float]:
    self_s = tracer.self_seconds()
    evaluation_self = self_s["evaluation.evaluate_link_prediction"]
    ent = model.embeddings.entity_embeddings()
    rel = model.embeddings.relation_embeddings()
    queries = ent[triples[:, 0]] + rel[triples[:, 1]]
    l2_ms = median_ms(lambda: l2_distance_matrix(queries, ent))
    scores = l2_distance_matrix(queries[:1], ent)[0]
    moved = (queries.size + ent.size + queries.shape[0] * ent.shape[0]) * 8
    return {
        "models.score_all_tails_ms": tracer.mean_ms("models.score_all_tails"),
        "models.score_all_heads_ms": tracer.mean_ms("models.score_all_heads"),
        "evaluation.compute_ranks_ms": tracer.mean_ms("evaluation.compute_ranks"),
        "evaluation.self_ms": 1e3 * evaluation_self / ops,
        "evaluation.self_share": evaluation_self / op_total_s,
        "ranking.l2_matrix_ms": l2_ms,
        "ranking.l2_matrix_gbps": moved / (l2_ms * 1e-3) / 1e9,
        "ranking.top_k_ms": median_ms(lambda: top_k(scores, 10), repeat=25),
        "trace.unattributed_share": self_s["op"] / op_total_s,
    }
