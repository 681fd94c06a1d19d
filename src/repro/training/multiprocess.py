"""True multiprocess data-parallel training with row-sparse all-reduce.

The paper's Appendix F wraps sparse TransE in PyTorch DDP across 64 GPUs.
This module executes that run on CPU processes: ``N`` OS processes each hold
a full model replica, every global batch is sharded across them, and the
shard gradients — kept row-sparse so the exchanged volume is proportional to
the rows the batch touched, not the vocabulary — are reduced at rank 0 and
broadcast back.  Every replica then applies the identical optimiser step, so
the replicas stay bit-for-bit in sync without ever exchanging parameters,
exactly the DDP invariant.

Batch lockstep needs no coordination: each replica builds its own batch
pipeline from the same picklable description (seeded shuffles, seeded
samplers), so all of them materialise the same global batch at every step and
deterministically take their own ``np.array_split`` shard of it.

The α–β :class:`CommunicationModel` is the *modeled* baseline: results report
measured exchange wall-clock next to what the cost model predicts for the
same byte volume (the ``table9`` case of ``benchmarks/reproduce.py`` prints
the comparison and extrapolates the model to 64 workers).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.sanitizer import sanitize
from repro.data.batching import TripletBatch
from repro.losses.margin import MarginRankingLoss
from repro.models.base import KGEModel
from repro.nn.partitioned import partitioned_tables
from repro.sparse.rowsparse import RowSparseGrad
from repro.training.config import TrainingConfig
from repro.training.trainer import (
    EpochStats,
    TrainingResult,
    build_optimizer,
    replay_epochs,
)
from repro.utils.logging import get_logger

logger = get_logger("training.multiprocess")

#: A zero-argument callable returning a *fresh* re-iterable batch source.
#: Called once per process, after fork, so SQLite connections and other
#: unshareable handles are never inherited across processes.
BatchFactory = Callable[[], object]


@dataclass(frozen=True)
class CommunicationModel:
    """α–β cost model of a ring all-reduce across ``W`` workers.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Per-link bandwidth (defaults to a NVLink/IB-class 25 GB/s).
    latency_s:
        Per-message latency.
    """

    bandwidth_bytes_per_s: float = 25e9
    latency_s: float = 15e-6

    def allreduce_time(self, n_workers: int, nbytes: int) -> float:
        """Estimated seconds to all-reduce ``nbytes`` across ``n_workers``."""
        if n_workers <= 1:
            return 0.0
        volume = 2.0 * (n_workers - 1) / n_workers * nbytes
        return volume / self.bandwidth_bytes_per_s + 2.0 * (n_workers - 1) * self.latency_s


@dataclass
class MultiprocessResult(TrainingResult):
    """Outcome of a multiprocess data-parallel run.

    Extends :class:`~repro.training.trainer.TrainingResult` (so artifact /
    history writing works unchanged) with the distributed measurements the
    scaling benchmark reports.
    """

    n_workers: int = 1
    steps: int = 0
    #: Measured wall-clock rank 0 spent exchanging gradients (recv + merge +
    #: broadcast) — the quantity the α–β model tries to predict.
    comm_time: float = 0.0
    #: α–β estimate for the same exchanged byte volume.
    modeled_comm_time: float = 0.0
    #: Total bytes of merged gradient broadcast per run.
    allreduce_nbytes: int = 0
    #: Sum over steps of the slowest replica's compute time.
    slowest_compute_time: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "n_workers": float(self.n_workers),
            "steps": float(self.steps),
            "compute_time_s": self.slowest_compute_time,
            "measured_comm_time_s": self.comm_time,
            "modeled_comm_time_s": self.modeled_comm_time,
            "allreduce_mb": self.allreduce_nbytes / 1e6,
            "total_time_s": self.total_time,
            "final_loss": self.final_loss,
        }


# --------------------------------------------------------------------- #
# Gradient wire format: per parameter either None, ("rs", indices, values)
# or ("dense", array).  Scaling by shard_rows/global_rows happens before
# sending, so the reduction is a plain sum (an exact weighted average).
# --------------------------------------------------------------------- #
def _collect_grads(model: KGEModel, scale: float) -> List[Optional[Tuple]]:
    out: List[Optional[Tuple]] = []
    for param in model.parameters():
        sparse = param.sparse_grad
        if sparse is not None:
            out.append(("rs", sparse.indices, sparse.values * scale))
        elif param.has_grad and param.grad is not None:
            out.append(("dense", param.grad * scale))
        else:
            out.append(None)
    return out


def _merge_grads(contributions: Sequence[List[Optional[Tuple]]],
                 shapes: Sequence[Tuple[int, ...]]) -> Tuple[List[Optional[Tuple]], int]:
    """Sum per-parameter contributions; returns (merged, merged_nbytes)."""
    merged: List[Optional[Tuple]] = []
    nbytes = 0
    for slot, shape in zip(zip(*contributions), shapes):
        entries = [entry for entry in slot if entry is not None]
        if not entries:
            merged.append(None)
            continue
        if all(entry[0] == "rs" for entry in entries):
            acc = RowSparseGrad(entries[0][1], entries[0][2], shape)
            for _, indices, values in entries[1:]:
                acc = acc.merge(RowSparseGrad(indices, values, shape))
            merged.append(("rs", acc.indices, acc.values))
            nbytes += acc.nbytes
        else:
            dense = np.zeros(shape, dtype=entries[0][2].dtype
                             if entries[0][0] == "rs" else entries[0][1].dtype)
            for entry in entries:
                if entry[0] == "rs":
                    RowSparseGrad(entry[1], entry[2], shape).add_to_dense(dense)
                else:
                    dense += entry[1]
            merged.append(("dense", dense))
            nbytes += dense.nbytes
    return merged, nbytes


def _install_grads(model: KGEModel, merged: Sequence[Optional[Tuple]]) -> None:
    model.zero_grad()
    for param, slot in zip(model.parameters(), merged):
        if slot is None:
            continue
        if slot[0] == "rs":
            param.grad = RowSparseGrad(slot[1], slot[2], param.data.shape)
        else:
            param.grad = slot[1]


def _shard(batch: TripletBatch, rank: int, world: int) -> Optional[TripletBatch]:
    """Deterministic shard ``rank`` of a global batch (may be ``None``)."""
    pos = np.array_split(batch.positives, world)[rank]
    neg = np.array_split(batch.negatives, world)[rank]
    if pos.shape[0] == 0:
        return None
    return TripletBatch(positives=pos, negatives=neg)


def _state_digest(model: KGEModel) -> str:
    """Order-stable digest of every parameter's exact bytes."""
    digest = hashlib.sha256()
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def _shard_step(model: KGEModel, criterion, batch: TripletBatch,
                rank: int, world: int) -> Tuple[List[Optional[Tuple]], float, float]:
    """Forward/backward on this replica's shard.

    Returns ``(wire_grads, weighted_loss, compute_seconds)`` where the loss
    and gradients are pre-scaled by ``shard_rows / global_rows`` so a plain
    sum across replicas reproduces the full-batch mean exactly.
    """
    start = time.perf_counter()
    model.zero_grad()
    shard = _shard(batch, rank, world)
    if shard is None:
        return [None] * sum(1 for _ in model.parameters()), 0.0, \
            time.perf_counter() - start
    scale = shard.size / batch.size
    loss = model.loss(shard, criterion)
    loss.backward()
    grads = _collect_grads(model, scale)
    return grads, float(loss.item()) * scale, time.perf_counter() - start


def _worker_main(rank: int, world: int, model: KGEModel,
                 batch_factory: BatchFactory, config: TrainingConfig,
                 epochs: int, start_epoch: int, conn) -> None:
    """Worker replica: lockstep shard compute + merged-gradient updates."""
    tables = partitioned_tables(model)
    try:
        # A forked replica shares the parent's bucket *files*; give each
        # partitioned table private storage so concurrent replicas never
        # write back into each other's buckets.
        for table in tables:
            table.rehome()
        if config.sanitize:
            # Sanitizer state is thread-local; re-arm it explicitly in each
            # forked replica rather than relying on fork inheritance.
            sanitize(True)
        criterion = MarginRankingLoss(margin=config.margin)
        optimizer = build_optimizer(config.optimizer, model, config.learning_rate)
        for table in tables:
            table.attach_optimizer(optimizer)
        batches = batch_factory()
        replay_epochs(batches, start_epoch)
        for epoch in range(start_epoch, start_epoch + epochs):
            for batch in batches:
                grads, weighted_loss, compute = _shard_step(
                    model, criterion, batch, rank, world)
                conn.send(("step", compute, weighted_loss, grads))
                message = conn.recv()
                if message[0] != "grads":  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unexpected message {message[0]!r}")
                _install_grads(model, message[1])
                optimizer.step()
            if config.normalize_every and (epoch + 1) % config.normalize_every == 0:
                model.normalize_parameters()
        conn.send(("sync", _state_digest(model)))
    except Exception as exc:  # noqa: BLE001 — reported to rank 0
        import traceback

        conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
    finally:
        for table in tables:
            table.close()  # removes the replica's private bucket storage
        conn.close()


class MultiprocessTrainer:
    """Data-parallel training across real OS processes (rank 0 inline).

    Parameters
    ----------
    model:
        The rank-0 replica; after :meth:`train` it holds the trained
        parameters.  Worker replicas are forked copies, so any registered
        model works without being picklable.
    batch_factory:
        Zero-argument callable returning a fresh re-iterable batch source
        (:class:`~repro.data.batching.BatchIterator` or
        :class:`~repro.data.streaming.StreamingBatchIterator`).  It is called
        once per process *after* fork; every invocation must yield the
        identical deterministic batch stream — that is the whole lockstep
        contract.
    n_workers:
        Number of replicas (processes); ``1`` degenerates to single-process
        training through the same code path.
    config:
        Hyperparameters; ``batch_size`` is the *global* batch size.
    comm_model:
        α–β cost model used to report the modeled communication time next to
        the measured one.
    verify_sync:
        Assert at the end of training that every replica's parameters hash
        to the same bytes as rank 0's (the DDP invariant, checked for real).
    """

    def __init__(self, model: KGEModel, batch_factory: BatchFactory,
                 n_workers: int, config: Optional[TrainingConfig] = None,
                 comm_model: Optional[CommunicationModel] = None,
                 verify_sync: bool = True) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.model = model
        self.batch_factory = batch_factory
        self.n_workers = int(n_workers)
        self.config = config if config is not None else TrainingConfig()
        if hasattr(model, "set_sparse_grads"):
            model.set_sparse_grads(self.config.sparse_grads)
        if self.config.sanitize:
            # The parent applies merged gradients itself, so it runs under
            # the sanitizer too; workers re-arm it in _worker_main.
            sanitize(True)
        self.comm_model = comm_model if comm_model is not None else CommunicationModel()
        self.verify_sync = bool(verify_sync)
        #: Rank 0's optimiser, exposed after :meth:`train` so callers can
        #: checkpoint the stepped state (every replica's state is identical).
        self.optimizer: Optional[object] = None
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "MultiprocessTrainer requires the 'fork' start method, which "
                "this platform does not provide; train with Trainer instead"
            ) from exc

    # ------------------------------------------------------------------ #
    def train(self, epochs: Optional[int] = None,
              start_epoch: int = 0) -> MultiprocessResult:
        """Run data-parallel training; returns per-epoch + exchange stats."""
        epochs = epochs if epochs is not None else self.config.epochs
        world = self.n_workers
        criterion = MarginRankingLoss(margin=self.config.margin)
        optimizer = build_optimizer(self.config.optimizer, self.model,
                                    self.config.learning_rate)
        for table in partitioned_tables(self.model):
            table.attach_optimizer(optimizer)
        self.optimizer = optimizer
        # ``p.shape`` rather than ``p.data.shape``: bucket parameters of a
        # partitioned table answer shape metadata without faulting their slab.
        shapes = [tuple(p.shape) for p in self.model.parameters()]

        # Fork the worker replicas *before* rank 0 opens its own batch
        # pipeline, so no SQLite handle or sampler state crosses a fork.
        procs, conns = [], []
        for rank in range(1, world):
            parent_conn, child_conn = self._mp.Pipe(duplex=True)
            proc = self._mp.Process(
                target=_worker_main,
                args=(rank, world, self.model, self.batch_factory, self.config,
                      epochs, start_epoch, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)

        result = MultiprocessResult(n_workers=world)
        try:
            batches = self.batch_factory()
            replay_epochs(batches, start_epoch)
            for epoch in range(start_epoch, start_epoch + epochs):
                stats = self._train_epoch(epoch, batches, criterion, optimizer,
                                          conns, shapes, result)
                result.epochs.append(stats)
                if self.config.log_every and (epoch + 1) % self.config.log_every == 0:
                    logger.info("epoch %d: loss=%.6f time=%.3fs", epoch,
                                stats.loss, stats.total_time)
            self._finish(conns)
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
        return result

    # ------------------------------------------------------------------ #
    def _train_epoch(self, epoch: int, batches, criterion, optimizer,
                     conns, shapes, result: MultiprocessResult) -> EpochStats:
        losses: List[float] = []
        forward_backward = step_time = comm_time = data_time = 0.0
        batch_start = time.perf_counter()
        for batch in batches:
            data_time += time.perf_counter() - batch_start
            grads, weighted_loss, compute = _shard_step(
                self.model, criterion, batch, 0, self.n_workers)
            forward_backward += compute

            t0 = time.perf_counter()
            contributions = [grads]
            slowest = compute
            total_loss = weighted_loss
            for conn in conns:
                message = conn.recv()
                if message[0] == "error":
                    raise RuntimeError(f"worker failed:\n{message[1]}")
                _, worker_compute, worker_loss, worker_grads = message
                slowest = max(slowest, worker_compute)
                total_loss += worker_loss
                contributions.append(worker_grads)
            merged, nbytes = _merge_grads(contributions, shapes)
            if conns:
                # Serialize the broadcast once; Connection.recv unpickles
                # send_bytes payloads, so per-worker re-pickling is pure waste
                # that would inflate the measured comm time.
                payload = pickle.dumps(("grads", merged),
                                       protocol=pickle.HIGHEST_PROTOCOL)
                for conn in conns:
                    conn.send_bytes(payload)
            comm_time += time.perf_counter() - t0

            t1 = time.perf_counter()
            _install_grads(self.model, merged)
            optimizer.step()
            step_time += time.perf_counter() - t1

            result.steps += 1
            result.slowest_compute_time += slowest
            result.allreduce_nbytes += nbytes
            result.modeled_comm_time += self.comm_model.allreduce_time(
                self.n_workers, nbytes)
            losses.append(total_loss)
            batch_start = time.perf_counter()
        result.comm_time += comm_time
        if self.config.normalize_every and (epoch + 1) % self.config.normalize_every == 0:
            self.model.normalize_parameters()
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            forward_time=forward_backward,
            backward_time=0.0,
            step_time=step_time + comm_time,
            data_time=data_time,
        )

    def _finish(self, conns) -> None:
        """Collect the end-of-training sync digests (DDP invariant check)."""
        if not conns:
            return
        reference = _state_digest(self.model) if self.verify_sync else None
        for rank, conn in enumerate(conns, start=1):
            message = conn.recv()
            if message[0] == "error":
                raise RuntimeError(f"worker failed:\n{message[1]}")
            if self.verify_sync and message[1] != reference:
                raise RuntimeError(
                    f"replica {rank} diverged from rank 0: parameter digests "
                    f"differ after training (lockstep contract broken — check "
                    f"that the batch factory is deterministic)"
                )
