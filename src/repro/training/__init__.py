"""Training loops and configuration.

:class:`Trainer` runs the paper's training protocol (margin-ranking loss over
pre-generated negatives, per-phase wall-clock timing of forward / backward /
optimiser step) for any :class:`~repro.models.base.KGEModel`;
:class:`MultiprocessTrainer` runs the Appendix-F multi-worker study for real —
worker processes exchanging row-sparse gradients in lockstep with the
single-worker trajectory — and reports the measured exchange next to the α–β
:class:`CommunicationModel`'s prediction.
"""

from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer, TrainingResult, EpochStats
from repro.training.callbacks import (
    Callback,
    HistoryCallback,
    EarlyStopping,
    LRSchedulerCallback,
    EvaluationCallback,
)
from repro.training.multiprocess import (
    CommunicationModel,
    MultiprocessResult,
    MultiprocessTrainer,
)
from repro.training.checkpoint import (
    Checkpoint,
    save_checkpoint,
    load_checkpoint,
    load_model,
    restore_into,
)

__all__ = [
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "restore_into",
    "TrainingConfig",
    "Trainer",
    "TrainingResult",
    "EpochStats",
    "Callback",
    "HistoryCallback",
    "EarlyStopping",
    "LRSchedulerCallback",
    "EvaluationCallback",
    "CommunicationModel",
    "MultiprocessTrainer",
    "MultiprocessResult",
]
