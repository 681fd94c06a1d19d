"""Training configuration."""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, fields, asdict
from typing import Dict, Mapping, Optional

from repro.utils.validation import check_json_types


@dataclass
class TrainingConfig:
    """Hyperparameters of one training run.

    Defaults follow the paper's experimental setting (Section 5.3): learning
    rate 4e-4, margin 0.5, L2 dissimilarity, one pre-generated negative per
    positive, Adam optimiser.

    Attributes
    ----------
    epochs:
        Number of passes over the training split.
    batch_size:
        Positives per minibatch.
    learning_rate:
        Optimiser learning rate.
    margin:
        Margin of the ranking loss.
    optimizer:
        ``"adam"``, ``"sgd"``, or ``"adagrad"``.
    normalize_every:
        Call ``model.normalize_parameters()`` every this many epochs
        (0 disables the maintenance step).
    regenerate_negatives:
        Resample negatives each epoch instead of the paper's pre-generated
        protocol.
    shuffle:
        Shuffle triples every epoch.
    seed:
        Seed for batching and negative sampling.
    log_every:
        Emit a log record every this many epochs (0 disables logging).
    sparse_grads:
        Route gradients through the row-sparse pipeline
        (``repro.sparse.rowsparse``): the SpMM backward emits only the
        embedding rows the batch touched and the optimizer scatter-updates
        just those rows, so step cost scales with the batch instead of the
        vocabulary.  Exact for SGD/Adagrad; lazy (SparseAdam-style) for Adam.
        Off by default.  This is the one switch for the gradient path (a
        ``ModelSpec`` does not carry it): the
        :class:`~repro.training.trainer.Trainer` applies it to the model in
        both directions, overriding any earlier ``set_sparse_grads`` call.
        RotatE, which has no row-sparse path, refuses it before any step; a
        partitioned TransE is row-sparse whatever it says.
    sanitize:
        Enable the autograd sanitizer (:func:`repro.autograd.sanitize`) for
        the duration of the run: every tape op is audited for NaN/Inf
        outputs, silent dtype widening, and gradient/output shape agreement,
        with the offending op named on failure.  Off by default; the CI
        smoke jobs turn it on via ``sptransx run --sanitize``.
    """

    epochs: int = 100
    batch_size: int = 32768
    learning_rate: float = 4e-4
    margin: float = 0.5
    optimizer: str = "adam"
    normalize_every: int = 1
    regenerate_negatives: bool = False
    shuffle: bool = True
    seed: Optional[int] = 0
    log_every: int = 0
    sparse_grads: bool = False
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.optimizer not in ("adam", "sgd", "adagrad"):
            raise ValueError(
                f"optimizer must be 'adam', 'sgd', or 'adagrad', got {self.optimizer!r}"
            )
        if self.normalize_every < 0:
            raise ValueError(f"normalize_every must be non-negative, got {self.normalize_every}")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for logging and experiment records."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TrainingConfig":
        """Inverse of :meth:`to_dict` with schema validation.

        ``TrainingConfig(**payload)`` raises a raw ``TypeError`` naming no
        field when the payload carries a stale or misspelled key; this
        constructor instead rejects unknown keys with the offending names and
        a closest-match suggestion, and a value of the wrong JSON type (a
        ``"false"`` string for a bool, ``3.5`` or ``"3"`` for an int, ``"0.1"``
        for a float) with the key's name.  Used by experiment-spec loading and
        checkpoint restore, where payloads come from JSON written by other
        (possibly older or newer) versions of the library.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"training config must be a mapping, got {type(payload).__name__}"
            )
        if "num_workers" in payload:
            # Written by every spec and checkpoint from before data-parallel
            # training was removed; its default, 1, is the only mode left.
            payload = dict(payload)
            workers = payload.pop("num_workers")
            if type(workers) is not int or workers != 1:
                raise ValueError(
                    f"training config key 'num_workers' is {workers!r}: "
                    "data-parallel training was removed; re-run this "
                    "experiment single-process (drop the key)"
                )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            hints = []
            for key in unknown:
                close = difflib.get_close_matches(key, known, n=1)
                hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
            raise ValueError(
                f"unknown training config key(s): {', '.join(hints)}; "
                f"valid keys: {sorted(known)}"
            )
        types = {f.name: f.type for f in fields(cls)}
        check_json_types(
            payload, "training",
            bools=[k for k, t in types.items() if t == "bool"],
            ints=[k for k, t in types.items() if t in ("int", "Optional[int]")],
            floats=[k for k, t in types.items() if t == "float"],
            nullable=[k for k, t in types.items() if t.startswith("Optional")])
        return cls(**{key: payload[key] for key in payload})

    def replace(self, **kwargs) -> "TrainingConfig":
        """Return a copy with the given fields overridden."""
        data = self.to_dict()
        data.update(kwargs)
        return TrainingConfig(**data)
