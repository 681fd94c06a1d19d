"""Training loops and configuration.

:class:`Trainer` runs the paper's training protocol (margin-ranking loss over
pre-generated negatives, per-phase wall-clock timing of forward / backward /
optimiser step) for any :class:`~repro.models.base.KGEModel`.
"""

from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer, TrainingResult, EpochStats
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
]
