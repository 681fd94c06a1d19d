"""What the benchmark measures: workloads, metrics, bounds, and interactions.

This module is the single source of truth for ``BENCHMARK.json`` (written by
``run.py --write-spec``), for the names the workers must emit, and for the
table in ``README.md`` that says which per-layer metric is expected to move
which end-to-end metric on which workload.  It imports nothing from the
program under test, so ``run.py`` can load it before ``numpy``.
"""

from __future__ import annotations

import re
from typing import Dict, List

#: Directory holding the benchmark and nothing else (``BENCHMARK.json`` paths).
BENCH_PATH = "benchmarks/e2e"

#: Nominal timed seconds of one run; ``--seconds`` scales every op count by
#: ``seconds / RUN_SECONDS`` (fixed work, so trajectories repeat exactly).
RUN_SECONDS = 20

#: Runs per workload in each of the two ``--aa`` sets, one seed per run: the
#: ten-seed protocol the builder's contract checks the benchmark with.
AA_RUNS = 10

#: Median time of ``calibrate.BoxSpeed``'s fixed kernel on the reference box
#: in a calm phase.  Time-based metrics are scaled by ``this / the median the
#: pass measured`` (README, "Box-speed scaling").
CALIBRATION_REFERENCE_S = 2.8e-3

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
#: ``passes`` is the number of fresh-subprocess passes of one run (set-up runs
#: in each); ``warmup``/``ops`` are per pass at ``--seconds RUN_SECONDS`` and
#: ``min_ops`` is the floor when ``--seconds`` scales them down.  The remaining keys are the
#: generated-input shapes the worker builds from ``--seed``.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "train_mem": {
        "why": ("Paper protocol, compute-bound: in-memory FB15K-shaped batches "
                "through SpMM forward, dense backward and dense Adam; data and "
                "bucket paging do no work."),
        "op": "wait for batch + Trainer.train_step",
        "unit": "positive triples",
        "passes": 3, "warmup": 6, "ops": 100, "min_ops": 20,
        "dataset": "FB15K", "scale": 1.0, "dim": 128, "batch_size": 4096,
    },
    "train_stream": {
        "why": ("Out-of-core path: SQLite-streamed COVID19-shaped bucket-pair "
                "batches through the row-sparse backward, lazy Adam and bucket "
                "fault/write-back; the write side of the embedding table."),
        "op": "wait for batch + Trainer.train_step",
        "unit": "positive triples",
        "passes": 3, "warmup": 6, "ops": 60, "min_ops": 20,
        "dataset": "COVID19", "scale": 0.2, "dim": 128, "batch_size": 4096,
        "partitions": 4, "max_resident": 2,
    },
    "eval_rank": {
        "why": ("Read side of the table: filtered link-prediction ranking of "
                "WN18RR-shaped test triples against every entity; no autograd, "
                "no optimizer, so a training-kernel change must not move it."),
        "op": "evaluate_link_prediction on 64 test triples",
        "unit": "test triples",
        # Set-up is half a second, so a single slow page-fault burst moves it
        # by tens of percent: it runs three times in each pass.
        "passes": 3, "warmup": 2, "ops": 34, "min_ops": 8, "setups": 3,
        "dataset": "WN18RR", "scale": 0.5, "dim": 128, "test_fraction": 0.06,
        "queries_per_op": 64, "check_queries": 32,
    },
    "serve_zipf": {
        "why": ("The product's front door: sptransx serve with default flags, "
                "two keep-alive clients, Zipf top-k queries on a clustered "
                "100k x 64 IVF artifact; HTTP, batcher, cache and ANN do the work."),
        "op": "POST /v1/top_k_tails k=10",
        "unit": "200-responses",
        # Two passes, not three: 5 s of a pass's 11 s are artifact and index
        # build, and the timed requests, which wait on a timer, barely spread.
        "passes": 2, "warmup": 20, "ops": 150, "min_ops": 40,
        "entities": 100_000, "relations": 64, "dim": 64, "partitions": 4,
        "distinct": 20_000, "k": 10, "connections": 2,
        "check_responses": 50, "recall_queries": 200, "tuning_queries": 32,
    },
}

#: Toy shapes for ``--smoke`` (all four workloads, server included, < 10 s).
SMOKE_OVERRIDES: Dict[str, Dict[str, object]] = {
    "train_mem": {"warmup": 2, "ops": 6, "scale": 0.01, "dim": 16, "batch_size": 256},
    "train_stream": {"warmup": 2, "ops": 6, "scale": 0.004, "dim": 16,
                     "batch_size": 256},
    "eval_rank": {"warmup": 1, "ops": 3, "setups": 2, "scale": 0.02, "dim": 16,
                  "test_fraction": 0.2, "queries_per_op": 16, "check_queries": 8},
    "serve_zipf": {"warmup": 4, "ops": 12, "entities": 2000, "relations": 8,
                   "dim": 16, "distinct": 200, "check_responses": 6,
                   "recall_queries": 20, "tuning_queries": 32},
}

# --------------------------------------------------------------------------- #
# End-to-end metrics (same five names on every workload)
# --------------------------------------------------------------------------- #
END_TO_END: List[Dict[str, object]] = [
    # Three times the widest inter-quartile spread seen over ten seeds on the
    # reference box, capped at the builder contract's 0.25.  Scaled to the
    # box's speed the time-based metrics still spread 5-15 % (README, "End-to-
    # end metrics"), so the issue's 10/10/15/5/15 % table cannot be held here.
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: ``moves`` names the end-to-end (or parent per-layer) metric this one should
#: move and ``on`` the workloads where it is measured; on every other workload
#: the layer does no work and the metric is reported as 0.
_TRAIN = ["train_mem", "train_stream"]


def _layer(name: str, unit: str, better: str, moves: str, on: List[str],
           note: str = "") -> Dict[str, object]:
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "on": on, "note": note}


PER_LAYER: List[Dict[str, object]] = [
    _layer("data.batch_wait_ms", "ms", "lower", "throughput_per_s", _TRAIN,
           "p50 time the step blocks in next() on the batch source; ~0 @ train_mem"),
    _layer("data.batch_wait_share", "ratio", "lower", "throughput_per_s", _TRAIN,
           "batch wait / op time over the timed region"),
    _layer("data.fetch_block_ms", "ms", "lower", "latency_p50_ms", ["train_stream"],
           "SQLiteKGStore.fetch_block over one iterator shuffle block"),
    _layer("data.corrupt_ms", "ms", "lower", "latency_p50_ms", _TRAIN,
           "UniformNegativeSampler.corrupt on one batch of positives"),
    _layer("training.forward_ms", "ms", "lower", "latency_p50_ms", _TRAIN,
           "p50 EpochStats.forward_time of train_step"),
    _layer("training.backward_ms", "ms", "lower", "latency_p50_ms", _TRAIN,
           "p50 EpochStats.backward_time of train_step"),
    _layer("training.optimizer_ms", "ms", "lower", "latency_p50_ms", _TRAIN,
           "p50 EpochStats.step_time of train_step"),
    _layer("sparse.incidence_build_ms", "ms", "lower", "training.forward_ms", _TRAIN,
           "hrt incidence (+ transpose on the dense path) for one batch"),
    _layer("sparse.spmm_fwd_ms", "ms", "lower", "training.forward_ms", _TRAIN,
           "repro.sparse.spmm forward on one batch's incidence"),
    _layer("sparse.spmm_bwd_dense_ms", "ms", "lower", "training.backward_ms",
           ["train_mem"], "tape backward of spmm, dense (K, d) gradient"),
    _layer("sparse.spmm_bwd_rowsparse_ms", "ms", "lower", "training.backward_ms",
           _TRAIN, "rowsparse_backward_for(backend); moves train_stream only"),
    _layer("sparse.spmm_fwd_gbps", "GB/s", "higher", "sparse.spmm_fwd_ms", _TRAIN,
           "computed bytes (nnz*d*8 gathered + output) / time"),
    _layer("losses.margin_fwd_bwd_ms", "ms", "lower", "training.forward_ms", _TRAIN,
           "MarginRankingLoss forward + backward on one batch of score pairs"),
    _layer("autograd.forward_self_ms", "ms", "lower", "training.forward_ms", _TRAIN,
           "forward - (incidence + spmm_fwd + loss fwd): Python/tape overhead"),
    _layer("nn.bucket_faults", "count", "lower", "latency_p90_ms", ["train_stream"],
           "PartitionedEmbedding.stats() delta over the timed region; exact"),
    _layer("nn.bucket_fault_s", "s", "lower", "latency_p90_ms", ["train_stream"]),
    _layer("nn.bucket_writeback_s", "s", "lower", "latency_p90_ms", ["train_stream"]),
    _layer("nn.bucket_bytes_loaded", "bytes", "lower", "latency_p90_ms",
           ["train_stream"]),
    _layer("nn.normalize_ms", "ms", "lower", "throughput_per_s", _TRAIN,
           "model.normalize_parameters(); per epoch in Trainer.train, not per op"),
    _layer("models.score_all_tails_ms", "ms", "lower", "latency_p50_ms",
           ["eval_rank"], "mean span per call inside evaluate_link_prediction"),
    _layer("models.score_all_heads_ms", "ms", "lower", "latency_p50_ms",
           ["eval_rank"]),
    _layer("ranking.l2_matrix_ms", "ms", "lower", "models.score_all_tails_ms",
           ["eval_rank"], "l2_distance_matrix(op queries x all entities)"),
    _layer("ranking.l2_matrix_gbps", "GB/s", "higher", "ranking.l2_matrix_ms",
           ["eval_rank"], "computed bytes (queries + table + output) / time"),
    _layer("ranking.top_k_ms", "ms", "lower", "serving.engine_miss_ms",
           ["eval_rank"], "ranking.top_k(k=10) over one row of entity scores"),
    _layer("evaluation.compute_ranks_ms", "ms", "lower", "latency_p50_ms",
           ["eval_rank"], "mean span per call"),
    _layer("evaluation.self_ms", "ms", "lower", "throughput_per_s", ["eval_rank"],
           "call - children: per-chunk filter construction"),
    _layer("evaluation.self_share", "ratio", "lower", "throughput_per_s",
           ["eval_rank"]),
    _layer("serving.health_rtt_ms", "ms", "lower", "latency_p50_ms", ["serve_zipf"],
           "keep-alive GET /v1/health: the pure HTTP write path"),
    _layer("serving.health_rtt_fresh_ms", "ms", "lower", "latency_p50_ms",
           ["serve_zipf"], "GET /v1/health on a new connection per request"),
    _layer("serving.engine_miss_ms", "ms", "lower", "latency_p50_ms", ["serve_zipf"],
           "in-process InferenceEngine.top_k_tails, cache off"),
    _layer("serving.engine_hit_ms", "ms", "lower", "latency_p50_ms", ["serve_zipf"],
           "in-process repeat query answered from the cache"),
    _layer("serving.cache_hit_rate", "ratio", "higher", "latency_p50_ms",
           ["serve_zipf"], "/v1/stats delta over the timed requests; exact"),
    _layer("serving.batch_size_mean", "count", "higher", "throughput_per_s",
           ["serve_zipf"], "/v1/stats batcher delta over the timed requests"),
    _layer("serving.http_overhead_ms", "ms", "lower", "latency_p50_ms",
           ["serve_zipf"], "latency_p50 - hit-rate-weighted engine time"),
    _layer("serving.artifact_load_s", "s", "lower", "setup_s", ["serve_zipf"],
           "InferenceEngine.from_artifact"),
    _layer("ann.search_ms", "ms", "lower", "serving.engine_miss_ms", ["serve_zipf"],
           "IVFIndex.search at the manifest nprobe"),
    _layer("ann.probed_fraction", "ratio", "lower", "serving.engine_miss_ms",
           ["serve_zipf"]),
    _layer("ann.recall_at_10", "ratio", "higher", "serving.engine_miss_ms",
           ["serve_zipf"], "served queries vs the exact engine, every pass; fatal below "
           "0.90, and below 0.95 on the index's own tuning sample"),
    _layer("ann.index_build_s", "s", "lower", "setup_s", ["serve_zipf"]),
    _layer("trace.overhead_pct", "%", "lower", "throughput_per_s",
           list(WORKLOADS), "throughput drop of the traced pass vs the untraced"),
    _layer("trace.unattributed_share", "ratio", "lower", "latency_p50_ms",
           list(WORKLOADS), "op time no span's self time accounts for"),
]

LAYER_NAMES = [m["name"] for m in PER_LAYER]


def sizes(workload: str, seconds: float, smoke: bool = False) -> Dict[str, object]:
    """Input shapes and op counts of one pass of ``workload``."""
    cfg = dict(WORKLOADS[workload])
    for key in ("why", "op", "unit"):
        cfg.pop(key)
    if smoke:
        cfg.update(SMOKE_OVERRIDES[workload], passes=1)
        cfg.pop("min_ops")
        return cfg
    min_ops = int(cfg.pop("min_ops"))
    cfg["ops"] = max(min_ops, int(round(cfg["ops"] * seconds / RUN_SECONDS)))
    return cfg


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document, exactly the builder contract's keys."""
    return {
        "command": ["python3", f"{BENCH_PATH}/run.py"],
        "paths": [BENCH_PATH],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cfg["why"]}
                      for name, cfg in WORKLOADS.items()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
                      for m in PER_LAYER],
    }
