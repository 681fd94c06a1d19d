"""``train_mem`` and ``train_stream``: one pass of timed ``Trainer.train_step`` ops.

Op = wait for the next batch + one ``train_step``; unit = positive triples.
``train_mem`` feeds an in-memory ``BatchIterator`` into the dense-gradient
path; ``train_stream`` spools the triples into SQLite, clusters them by bucket
pair and trains a 4-bucket partitioned table on the row-sparse lazy path.
"""

from __future__ import annotations

import gc
import math
import os
import time
from statistics import median
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.data import UniformNegativeSampler, make_dataset_like
from repro.data.partition_schedule import PartitionedStreamingIterator
from repro.data.sqlite_store import SQLiteKGStore
from repro.models import SpTransE
from repro.sparse import build_hrt_incidence, spmm
from repro.sparse.spmm import rowsparse_backward_for
from repro.training import Trainer, TrainingConfig

from benchmarks.e2e.calibrate import BoxSpeed
from benchmarks.e2e.common import median_ms, peak_rss_mb
from benchmarks.e2e.spans import Tracer


def _endless(source) -> Iterator:
    """Cycle a re-iterable batch source epoch after epoch."""
    while True:
        yield from source


def _build_mem(cfg: Dict[str, object], seed: int, box: BoxSpeed) -> Trainer:
    kg = make_dataset_like(cfg["dataset"], scale=cfg["scale"], rng=seed)
    box.sample(3)
    model = SpTransE(kg.n_entities, kg.n_relations, cfg["dim"], rng=seed)
    config = TrainingConfig(batch_size=cfg["batch_size"], optimizer="adam",
                            sparse_grads=False, seed=seed)
    return Trainer(model, kg, config)


def _build_stream(cfg: Dict[str, object], seed: int, workdir: str,
                  box: BoxSpeed) -> Tuple[Trainer, SQLiteKGStore]:
    kg = make_dataset_like(cfg["dataset"], scale=cfg["scale"], rng=seed)
    box.sample(3)
    store = SQLiteKGStore(os.path.join(workdir, "kg.sqlite"))
    store.ingest_dataset(kg)
    box.sample(3)
    model = SpTransE(kg.n_entities, kg.n_relations, cfg["dim"], rng=seed,
                     partitions=cfg["partitions"],
                     max_resident=cfg["max_resident"],
                     partition_dir=os.path.join(workdir, "buckets"))
    del kg  # training reads the store, never the in-memory arrays
    partition = model.embeddings.partition
    store.cluster_by_partition(partition.bucket_size)
    box.sample(3)
    batches = PartitionedStreamingIterator(store, cfg["batch_size"], partition,
                                           seed=seed)
    config = TrainingConfig(batch_size=cfg["batch_size"], optimizer="adam",
                            sparse_grads=True, seed=seed)
    return Trainer(model, None, config, batches=batches), store


def run_pass(workload: str, cfg: Dict[str, object], seed: int, trace: bool,
             workdir: str) -> Dict[str, object]:
    box = BoxSpeed()
    start = time.perf_counter()
    box.sample(3)
    store: Optional[SQLiteKGStore] = None
    if workload == "train_mem":
        trainer = _build_mem(cfg, seed, box)
    else:
        trainer, store = _build_stream(cfg, seed, workdir, box)
    model = trainer.model
    table = model.embeddings if store is not None else None
    batches = _endless(trainer.batches)
    for _ in range(cfg["warmup"]):
        trainer.train_step(next(batches))
        box.sample()
    before = table.stats() if table is not None else {}

    marks = []  # (op start, batch ready, step done, EpochStats, batch size)
    gc.collect()
    setups = [{"seconds": time.perf_counter() - start - box.spent_s,
               "kernel": box.drain()}]
    for _ in range(cfg["ops"]):
        t0 = time.perf_counter()
        batch = next(batches)
        t1 = time.perf_counter()
        stats = trainer.train_step(batch)
        t2 = time.perf_counter()
        marks.append((t0, t1, t2, stats, batch.size))
        box.sample()
    peak_rss = peak_rss_mb()
    after = table.stats() if table is not None else {}

    losses = [m[3].loss for m in marks]
    checks = {"loss_finite": all(math.isfinite(x) for x in losses),
              "loss_decreased": losses[-1] < losses[0]}
    exact: Dict[str, object] = {"final_loss": losses[-1]}
    if table is not None:
        checks["peak_resident_within_max"] = (
            after["peak_resident"] <= cfg["max_resident"])
        exact["nn.bucket_faults"] = after["faults"] - before["faults"]
    result = {
        "setups": setups,
        # Ops run back to back with one kernel sample between them, so the
        # time the program was working is the sum of the op times.
        "timed_s": sum(m[2] - m[0] for m in marks),
        "timed_kernel": box.drain(),
        "units": sum(m[4] for m in marks),
        "latencies_ms": [1e3 * (m[2] - m[0]) for m in marks],
        "attempted": len(marks), "failed": 0,
        "peak_rss_mb": peak_rss,
        "checks": checks, "exact": exact,
        "info": {"first_loss": losses[0], "n_entities": model.n_entities},
    }
    if trace:
        tracer = _spans(marks)
        layers = _layers(trainer, batch, marks, before, after, store, cfg, seed)
        op_total = sum(m[2] - m[0] for m in marks)
        layers["trace.unattributed_share"] = tracer.self_seconds()["op"] / op_total
        result["layers"] = layers
        result["spans"] = tracer.spans
    if table is not None:
        table.close()
        store.close()
    return result


def _spans(marks) -> Tracer:
    """Op -> batch wait + train_step -> forward/backward/optimizer.

    ``train_step`` times its own phases and returns them, so the phase spans
    are laid end to end from the call's start instead of being re-measured.
    """
    tracer = Tracer()
    for op, (t0, t1, t2, stats, _) in enumerate(marks):
        root = tracer.add("op", t0, t2, None, op)
        tracer.add("data.batch_wait", t0, t1, root, op)
        step = tracer.add("training.train_step", t1, t2, root, op)
        cursor = t1
        for name, seconds in (("training.forward", stats.forward_time),
                              ("training.backward", stats.backward_time),
                              ("training.optimizer", stats.step_time)):
            tracer.add(name, cursor, cursor + seconds, step, op)
            cursor += seconds
    return tracer


def _layers(trainer: Trainer, batch, marks, before, after,
            store: Optional[SQLiteKGStore], cfg, seed: int) -> Dict[str, float]:
    """Per-layer numbers: phase medians of the timed ops plus direct probes
    of each layer's public entry point on the last timed batch."""
    model = trainer.model
    waits = [m[1] - m[0] for m in marks]
    forward_ms = 1e3 * median([m[3].forward_time for m in marks])
    layers = {
        "data.batch_wait_ms": 1e3 * median(waits),
        "data.batch_wait_share": sum(waits) / sum(m[2] - m[0] for m in marks),
        "training.forward_ms": forward_ms,
        "training.backward_ms": 1e3 * median([m[3].backward_time for m in marks]),
        "training.optimizer_ms": 1e3 * median([m[3].step_time for m in marks]),
    }
    sampler = UniformNegativeSampler(model.n_entities, rng=seed)
    layers["data.corrupt_ms"] = median_ms(lambda: sampler.corrupt(batch.positives))

    combined = np.concatenate([batch.positives, batch.negatives], axis=0)
    dim = model.embedding_dim
    if store is None:
        def build():
            return model.builder.hrt(combined, with_transpose=True)
        A, A_t = build()
        X = Tensor(model.embeddings.weight.data, requires_grad=True)
    else:
        # The partitioned path multiplies a compacted sub-incidence over only
        # the batch's unique rows; the probe rebuilds that shape from the
        # public builder (row values do not change the kernel's cost).
        def build():
            entity_ids = np.unique(combined[:, 0::2])
            relation_ids = np.unique(combined[:, 1])
            compact = np.empty_like(combined)
            compact[:, 0] = np.searchsorted(entity_ids, combined[:, 0])
            compact[:, 1] = np.searchsorted(relation_ids, combined[:, 1])
            compact[:, 2] = np.searchsorted(entity_ids, combined[:, 2])
            return build_hrt_incidence(compact, int(entity_ids.size),
                                       int(relation_ids.size), fmt=model.fmt)
        A, A_t = build(), None
        rows = np.random.default_rng(seed).standard_normal((A.shape[1], dim))
        X = Tensor(rows, requires_grad=True)
    layers["sparse.incidence_build_ms"] = median_ms(build)

    def forward():
        return spmm(A, X, backend=model.backend, A_t=A_t)
    fwd_ms = median_ms(forward)
    layers["sparse.spmm_fwd_ms"] = fwd_ms
    out = forward()
    grad = np.ones_like(out.data)
    computed_bytes = (A.nnz + out.shape[0]) * dim * out.data.itemsize
    layers["sparse.spmm_fwd_gbps"] = computed_bytes / (fwd_ms * 1e-3) / 1e9

    def backward_dense():
        X.zero_grad()
        out.backward(grad)
    layers["sparse.spmm_bwd_dense_ms"] = (median_ms(backward_dense)
                                          if store is None else 0.0)
    rowsparse = rowsparse_backward_for(model.backend)
    layers["sparse.spmm_bwd_rowsparse_ms"] = median_ms(
        lambda: rowsparse(A, grad, X.shape[0]))

    scores = np.linalg.norm(out.data, axis=1)
    half = batch.size
    pos = Tensor(scores[:half], requires_grad=True)
    neg = Tensor(scores[half:], requires_grad=True)
    loss_fwd_ms = median_ms(lambda: trainer.criterion(pos, neg))
    layers["losses.margin_fwd_bwd_ms"] = median_ms(
        lambda: trainer.criterion(pos, neg).backward())
    layers["autograd.forward_self_ms"] = forward_ms - (
        layers["sparse.incidence_build_ms"] + fwd_ms + loss_fwd_ms)
    layers["nn.normalize_ms"] = median_ms(model.normalize_parameters,
                                          repeat=3, warmup=1)

    if store is not None:
        lo, hi = store.block_bounds(
            trainer.batches.batch_size * trainer.batches.block_batches)[0]
        layers["data.fetch_block_ms"] = median_ms(
            lambda: store.fetch_block(lo, hi), repeat=5, warmup=1)
        layers["nn.bucket_faults"] = after["faults"] - before["faults"]
        layers["nn.bucket_fault_s"] = after["fault_seconds"] - before["fault_seconds"]
        layers["nn.bucket_writeback_s"] = (after["writeback_seconds"]
                                           - before["writeback_seconds"])
        layers["nn.bucket_bytes_loaded"] = (after["bytes_loaded"]
                                            - before["bytes_loaded"])
    return layers
