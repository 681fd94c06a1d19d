"""Single-process training loop with per-phase timing.

The paper's headline numbers are wall-clock breakdowns of forward, backward,
and optimiser-step time (Table 1, Figure 8) plus total training time
(Figure 7); :class:`Trainer` measures exactly those phases with
``time.perf_counter`` so the benchmark harness can regenerate the tables for
any model / backend combination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.sanitizer import sanitize
from repro.data.batching import BatchIterator, TripletBatch
from repro.data.dataset import KGDataset
from repro.data.negative_sampling import UniformNegativeSampler
from repro.losses.margin import MarginRankingLoss
from repro.models.base import KGEModel
from repro.nn.partitioned import partitioned_tables
from repro.optim import SGD, Adagrad, Adam, Optimizer
from repro.training.config import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.seeding import new_rng

logger = get_logger("training")


@dataclass
class EpochStats:
    """Timing and loss statistics of one epoch."""

    epoch: int
    loss: float
    forward_time: float
    backward_time: float
    step_time: float
    data_time: float

    @property
    def total_time(self) -> float:
        """Wall-clock of the epoch (sum of the tracked phases)."""
        return self.forward_time + self.backward_time + self.step_time + self.data_time


@dataclass
class TrainingResult:
    """Aggregate outcome of a training run."""

    epochs: List[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        """Per-epoch training losses (the Figure-9 loss curve)."""
        return [e.loss for e in self.epochs]

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss if self.epochs else float("nan")

    @property
    def forward_time(self) -> float:
        return sum(e.forward_time for e in self.epochs)

    @property
    def backward_time(self) -> float:
        return sum(e.backward_time for e in self.epochs)

    @property
    def step_time(self) -> float:
        return sum(e.step_time for e in self.epochs)

    @property
    def data_time(self) -> float:
        return sum(e.data_time for e in self.epochs)

    @property
    def total_time(self) -> float:
        return sum(e.total_time for e in self.epochs)

    def breakdown(self) -> Dict[str, float]:
        """Forward/backward/step/data split in seconds (Table 1 / Figure 8 rows)."""
        return {
            "forward": self.forward_time,
            "backward": self.backward_time,
            "step": self.step_time,
            "data": self.data_time,
            "total": self.total_time,
        }


def build_optimizer(name: str, model: KGEModel, lr: float) -> Optimizer:
    """Instantiate the optimiser named in a :class:`TrainingConfig`."""
    params = list(model.parameters())
    if name == "adam":
        return Adam(params, lr=lr)
    if name == "sgd":
        return SGD(params, lr=lr)
    if name == "adagrad":
        return Adagrad(params, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")


class Trainer:
    """Train one model on one dataset with the paper's protocol.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.KGEModel` (sparse or dense family).
    dataset:
        Training data.
    config:
        Hyperparameters; defaults reproduce the paper's setting.
    optimizer:
        Optional pre-built optimiser (overrides ``config.optimizer``).
    batches:
        Optional pre-built batch source: any re-iterable yielding
        :class:`~repro.data.batching.TripletBatch` per epoch (an in-memory
        :class:`~repro.data.batching.BatchIterator`, a
        :class:`~repro.data.streaming.StreamingBatchIterator` over an SQLite
        store, or anything custom).  When given, ``dataset`` may be ``None``
        — the trainer then never touches a materialised triple array, which
        is what makes out-of-core training possible.

    The loss is always margin ranking with ``config.margin`` and the
    negatives uniform corruption (or the ``batches`` source's own).
    """

    def __init__(
        self,
        model: KGEModel,
        dataset: Optional[KGDataset] = None,
        config: Optional[TrainingConfig] = None,
        optimizer: Optional[Optimizer] = None,
        batches=None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config if config is not None else TrainingConfig()
        # The config owns the gradient-path choice: apply it both ways so a
        # model reused across trainers does not keep a stale sparse setting.
        if hasattr(model, "set_sparse_grads"):
            model.set_sparse_grads(self.config.sparse_grads)
        if self.config.sanitize:
            sanitize(True)
        self.optimizer = optimizer if optimizer is not None else build_optimizer(
            self.config.optimizer, model, self.config.learning_rate
        )
        # Per-bucket optimiser state pages in and out with its bucket.
        for table in partitioned_tables(model):
            table.attach_optimizer(self.optimizer)
        self.criterion = MarginRankingLoss(margin=self.config.margin)
        if batches is not None:
            self.batches = batches
        else:
            if dataset is None:
                raise ValueError(
                    "Trainer needs either a dataset or a pre-built `batches` source"
                )
            rng = new_rng(self.config.seed)
            self.batches = BatchIterator(
                dataset,
                batch_size=self.config.batch_size,
                sampler=UniformNegativeSampler(dataset.n_entities, rng=rng),
                shuffle=self.config.shuffle,
                regenerate_negatives=self.config.regenerate_negatives,
                rng=rng,
            )

    # ------------------------------------------------------------------ #
    def train_step(self, batch: TripletBatch) -> EpochStats:
        """One forward/backward/step cycle on a single batch (timed)."""
        t0 = time.perf_counter()
        loss = self.model.loss(batch, self.criterion)
        t1 = time.perf_counter()
        self.optimizer.zero_grad()
        loss.backward()
        t2 = time.perf_counter()
        self.optimizer.step()
        t3 = time.perf_counter()
        return EpochStats(
            epoch=-1,
            loss=float(loss.item()),
            forward_time=t1 - t0,
            backward_time=t2 - t1,
            step_time=t3 - t2,
            data_time=0.0,
        )

    def train_epoch(self, epoch: int) -> EpochStats:
        """One pass over the training split."""
        forward = backward = step = data = 0.0
        losses: List[float] = []
        batch_start = time.perf_counter()
        for batch in self.batches:
            data += time.perf_counter() - batch_start
            stats = self.train_step(batch)
            losses.append(stats.loss)
            forward += stats.forward_time
            backward += stats.backward_time
            step += stats.step_time
            batch_start = time.perf_counter()
        if self.config.normalize_every and (epoch + 1) % self.config.normalize_every == 0:
            self.model.normalize_parameters()
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            forward_time=forward,
            backward_time=backward,
            step_time=step,
            data_time=data,
        )

    def skip_epochs(self, n: int) -> None:
        """Fast-forward the data pipeline past ``n`` epochs without training.

        This is what makes a resumed run continue the *same* trajectory as an
        uninterrupted one: restoring model and optimiser state alone still
        leaves the batch and negative streams rewound to epoch zero.
        Iterating replays exactly the random draws those epochs would have
        made (epoch permutations and negative corruption), so any change to
        how an epoch's randomness is consumed keeps this equivalent to
        training on them.
        """
        for _ in range(max(int(n), 0)):
            for _ in self.batches:
                pass

    def train(self, epochs: Optional[int] = None,
              start_epoch: int = 0) -> TrainingResult:
        """Run the full training loop and return per-epoch statistics.

        ``start_epoch`` offsets the epoch numbering (and the
        ``normalize_every`` phase) when resuming from a checkpoint; call
        :meth:`skip_epochs` first to fast-forward the data pipeline.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        result = TrainingResult()
        self.model.train()
        for epoch in range(start_epoch, start_epoch + epochs):
            stats = self.train_epoch(epoch)
            result.epochs.append(stats)
            if self.config.log_every and (epoch + 1) % self.config.log_every == 0:
                logger.info("epoch %d: loss=%.6f time=%.3fs", epoch, stats.loss,
                            stats.total_time)
        return result
