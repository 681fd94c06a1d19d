"""Training callbacks: history recording, early stopping, LR scheduling, evaluation."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.utils.logging import get_logger

logger = get_logger("training.callbacks")


class Callback:
    """Base callback with no-op hooks."""

    def on_train_begin(self, trainer) -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        """Called after every epoch with that epoch's :class:`EpochStats`."""

    def on_train_end(self, trainer, result) -> None:
        """Called once after the last epoch with the :class:`TrainingResult`."""


class HistoryCallback(Callback):
    """Record the loss curve (used by the Figure-9 benchmark)."""

    def __init__(self) -> None:
        self.losses: List[float] = []
        self.times: List[float] = []

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        self.losses.append(stats.loss)
        self.times.append(stats.total_time)


class EarlyStopping(Callback):
    """Stop training when the loss stops improving.

    Parameters
    ----------
    patience:
        Number of non-improving epochs tolerated before stopping.
    min_delta:
        Minimum decrease that counts as an improvement.
    restore_best:
        Snapshot the model parameters whenever the loss improves and restore
        that snapshot when training ends, so the model leaves the loop at its
        best epoch rather than ``patience`` epochs past it.  The restore
        happens on *every* train end, including runs that exhaust their epoch
        budget without triggering the stop.
    """

    def __init__(self, patience: int = 10, min_delta: float = 0.0,
                 restore_best: bool = False) -> None:
        if patience < 0:
            raise ValueError(f"patience must be non-negative, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.restore_best = bool(restore_best)
        self.best: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.best_state: Optional[Dict] = None
        self.bad_epochs = 0
        self.stopped_epoch: Optional[int] = None

    def on_train_begin(self, trainer) -> None:
        self.best = None
        self.best_epoch = None
        self.best_state = None
        self.bad_epochs = 0
        self.stopped_epoch = None

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        if self.best is None or stats.loss < self.best - self.min_delta:
            self.best = stats.loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            if self.restore_best:
                self.best_state = {name: value.copy() for name, value
                                   in trainer.model.state_dict().items()}
            return
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            self.stopped_epoch = epoch
            trainer.request_stop()

    def on_train_end(self, trainer, result) -> None:
        if self.restore_best and self.best_state is not None:
            trainer.model.load_state_dict(self.best_state)
            logger.info("restored best parameters from epoch %s (loss=%.6f)",
                        self.best_epoch, self.best)


class LRSchedulerCallback(Callback):
    """Step a learning-rate scheduler after every epoch (Appendix-E protocol)."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        from repro.optim.lr_scheduler import ReduceLROnPlateau

        if isinstance(self.scheduler, ReduceLROnPlateau):
            self.scheduler.step(stats.loss)
        else:
            self.scheduler.step()


class EvaluationCallback(Callback):
    """Run filtered link-prediction evaluation every ``every`` epochs.

    Parameters
    ----------
    dataset:
        Dataset providing the evaluation triples and the filter set.
    every:
        Evaluation period in epochs.
    split:
        ``"valid"`` or ``"test"``.
    ks:
        Hits@k cutoffs to record.
    """

    def __init__(self, dataset, every: int = 10, split: str = "valid",
                 ks=(1, 3, 10)) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        if split not in ("valid", "test"):
            raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
        self.dataset = dataset
        self.known_triples = dataset.known_triples()
        self.every = int(every)
        self.split = split
        self.ks = tuple(ks)
        self.history: List[Dict[str, float]] = []

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        if (epoch + 1) % self.every != 0:
            return
        from repro.evaluation.link_prediction import evaluate_link_prediction

        triples = (self.dataset.split.valid if self.split == "valid"
                   else self.dataset.split.test)
        if triples.shape[0] == 0:
            return
        result = evaluate_link_prediction(trainer.model, triples,
                                          known_triples=self.known_triples,
                                          ks=self.ks)
        record = {"epoch": float(epoch), "mrr": result.mrr, "mr": result.mean_rank}
        record.update({f"hits@{k}": v for k, v in result.hits.items()})
        self.history.append(record)
        logger.info("eval@epoch %d: %s", epoch, record)
