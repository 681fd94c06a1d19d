"""Checkpointing: save and restore models, optimisers, and training progress.

Long KGE runs (the paper trains 200-1000 epochs) need resumable state.  A
checkpoint is two things side by side:

* ``<path>`` (``.npz``) holds a JSON-encoded metadata blob — the model's
  :class:`~repro.registry.ModelSpec` and class name, the epoch counter and the
  loss history — and the optimiser's per-parameter state (``optim::*``);
* ``weights/`` next to it holds every parameter once, as plain
  ``numpy.lib.format`` files: a partitioned entity table as its
  ``entities.bucket<k>.npy`` files plus ``partition.json``, every other
  parameter as ``<name>.npy``.

:func:`load_model` maps those files read-only (buckets fault in lazily), and
:func:`restore_into` copies them into a writable model to resume training.
A directory holds one checkpoint: saving again into it replaces the weights.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.models.base import KGEModel
from repro.nn.init import skip_init
from repro.nn.parameter import Parameter
from repro.nn.partitioned import (
    ARTIFACT_WEIGHTS,
    PARTITION_MANIFEST,
    PartitionedEmbedding,
    bucket_filename,
    partitioned_tables,
)
from repro.optim.optimizer import Optimizer
from repro.registry import ModelSpec, UnknownModelError, build_model, spec_from_model

#: Checkpoint filename inside an ``sptransx run`` artifact directory.
ARTIFACT_CHECKPOINT = "checkpoint.npz"


@dataclass
class Checkpoint:
    """A saved training state: its metadata and where its files live."""

    #: Path of the ``.npz`` file this checkpoint was read from; the
    #: ``weights/`` directory sits next to it.
    source_path: str
    epoch: int = 0
    losses: List[float] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def weights_dir(self) -> str:
        """The ``weights/`` directory holding this checkpoint's parameters."""
        return os.path.join(os.path.dirname(self.source_path), ARTIFACT_WEIGHTS)

    @property
    def partition_manifest(self) -> Optional[Dict[str, object]]:
        """The partitioned-entity-table manifest, when this checkpoint has one."""
        manifest = self.metadata.get("partitioned")
        return manifest if isinstance(manifest, dict) else None

    @property
    def model_class(self) -> Optional[str]:
        """Name of the model class that wrote this checkpoint."""
        name = self.metadata.get("model_class")
        if name is None:
            # Checkpoints written before ``model_class`` name it inside their
            # hyperparameter summary.
            name = self.metadata.get("model_config", {}).get("model")
        return name

    def optimizer_state(self) -> Dict[str, np.ndarray]:
        """Optimiser buffers keyed ``<parameter>::<buffer>``, read on demand."""
        with np.load(self.source_path, allow_pickle=False) as data:
            return {key[len("optim::"):]: data[key] for key in data.files
                    if key.startswith("optim::")}

    def spec(self) -> ModelSpec:
        """The :class:`~repro.registry.ModelSpec` this checkpoint was written with.

        Raises ``ValueError`` when it carries none, which is how
        :func:`save_checkpoint` records a model class that was not registered.
        """
        payload = self.metadata.get("model_spec")
        if payload is None:
            raise ValueError(
                f"checkpoint was written by unregistered model class "
                f"{self.model_class!r}; register it with @register_model and "
                "save it again to make it loadable"
            )
        return ModelSpec.from_dict(payload)  # type: ignore[arg-type]


def _partitioned_table(model: KGEModel) -> Tuple[Optional[PartitionedEmbedding], Set[str]]:
    """The model's partitioned table (if any) and its bucket parameter names."""
    tables = partitioned_tables(model)
    if not tables:
        return None, set()
    if len(tables) > 1:
        raise NotImplementedError(
            "checkpointing supports at most one partitioned table per model"
        )
    bucket_ids = {id(p) for p in tables[0].bucket_parameters()}
    names = {name for name, p in model.named_parameters() if id(p) in bucket_ids}
    return tables[0], names


def _flatten_optimizer_state(optimizer: Optimizer, model: KGEModel,
                             skip_names: Optional[Set[str]] = None
                             ) -> Dict[str, np.ndarray]:
    """Key optimiser buffers by parameter name rather than object identity.

    ``skip_names`` excludes parameters whose state lives elsewhere — bucket
    parameters page their Adam/Adagrad slabs to per-bucket files, and pulling
    them all into the ``.npz`` would densify exactly what partitioning keeps
    out of memory.
    """
    name_by_id = {id(p): name for name, p in model.named_parameters()}
    flat: Dict[str, np.ndarray] = {}
    for key, buffers in optimizer.state.items():
        param_name = name_by_id.get(key)
        if param_name is None or (skip_names and param_name in skip_names):
            continue
        for buffer_name, value in buffers.items():
            if isinstance(value, np.ndarray):
                flat[f"{param_name}::{buffer_name}"] = value
            else:
                flat[f"{param_name}::{buffer_name}"] = np.asarray(value)
    return flat


def _restore_optimizer_state(optimizer: Optimizer, model: KGEModel,
                             flat: Dict[str, np.ndarray]) -> None:
    params_by_name = dict(model.named_parameters())
    for key, value in flat.items():
        param_name, _, buffer_name = key.partition("::")
        param = params_by_name.get(param_name)
        if param is None:
            continue
        state = optimizer._param_state(param)
        state[buffer_name] = value if value.ndim else value.item()


def save_checkpoint(path: str, model: KGEModel, optimizer: Optional[Optimizer] = None,
                    epoch: int = 0, losses: Optional[List[float]] = None,
                    extra_metadata: Optional[Dict[str, object]] = None) -> str:
    """Write a checkpoint to ``path`` (``.npz``) and ``weights/`` beside it.

    Returns the ``.npz`` path written.  Every parameter is written once under
    ``weights/``: a partitioned table's bucket files are copied there (one at
    a time, bounded memory) with its ``partition.json``, and every other
    parameter becomes ``<name>.npy``.  A dense model saved over an earlier
    partitioned one removes that layout, so no loader reads stale buckets.

    ``extra_metadata`` entries (must be JSON-serialisable) are merged into the
    metadata blob — the experiment runner stores the training config and
    experiment name there so a checkpoint can be resumed with validated
    hyperparameters.  Reserved keys (``model_spec``, ``epoch``, ...) cannot be
    overridden.
    """
    table, bucket_names = _partitioned_table(model)
    arrays: Dict[str, np.ndarray] = {}
    if optimizer is not None:
        for name, value in _flatten_optimizer_state(
                optimizer, model, skip_names=bucket_names).items():
            arrays[f"optim::{name}"] = value
    try:
        spec_payload: Optional[Dict[str, object]] = spec_from_model(model).to_dict()
    except UnknownModelError:
        # Unregistered (e.g. ad-hoc experimental) models still checkpoint;
        # they just cannot be auto-reconstructed by ``load_model``.
        spec_payload = None
    metadata = dict(extra_metadata) if extra_metadata else {}
    if table is not None:
        metadata["partitioned"] = table.manifest()
    metadata.update({
        "model_spec": spec_payload,
        "model_class": type(model).__name__,
        "epoch": int(epoch),
        "losses": list(losses) if losses is not None else [],
        "optimizer": type(optimizer).__name__ if optimizer is not None else None,
        "optimizer_lr": optimizer.lr if optimizer is not None else None,
        "optimizer_step_count": optimizer.step_count if optimizer is not None else 0,
    })
    arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    weights_dir = os.path.join(os.path.dirname(os.path.abspath(path)), ARTIFACT_WEIGHTS)
    os.makedirs(weights_dir, exist_ok=True)
    if table is None:
        for name in os.listdir(weights_dir):
            if name == PARTITION_MANIFEST or name.startswith("entities.bucket"):
                os.remove(os.path.join(weights_dir, name))
    else:
        table.flush()
        for k in range(table.n_partitions):
            source = os.path.join(table.directory, bucket_filename(k))
            target = os.path.join(weights_dir, bucket_filename(k))
            if os.path.abspath(source) != os.path.abspath(target):
                _copy_weight(source, target)
        table.write_manifest(weights_dir)
    for name, param in model.named_parameters():
        if name not in bucket_names:
            _save_weight(os.path.join(weights_dir, f"{name}.npy"), param.data)
    np.savez(path, **arrays)
    return path if path.endswith(".npz") else path + ".npz"


def _save_weight(path: str, array: np.ndarray) -> None:
    """``np.save`` through a temporary file renamed over ``path``.

    A reader holding the old file mapped (a served model, or the very model
    being saved when it was loaded from this directory) keeps a whole,
    unchanged mapping instead of one truncated under it.
    """
    partial = path + ".partial"
    with open(partial, "wb") as handle:
        np.save(handle, array)
    os.replace(partial, path)


def _copy_weight(source: str, target: str) -> None:
    """``shutil.copyfile`` through a temporary file renamed over ``target``,
    for the reason :func:`_save_weight` gives: a served table holding the old
    bucket file mapped keeps reading its old rows."""
    partial = target + ".partial"
    shutil.copyfile(source, partial)
    os.replace(partial, target)


def _map_weight(weights_dir: str, name: str, param: Parameter) -> np.ndarray:
    """``weights/<name>.npy`` mapped read-only, checked against ``param``."""
    path = os.path.join(weights_dir, f"{name}.npy")
    if not os.path.exists(path):
        raise FileNotFoundError(f"weight file missing for parameter {name!r}: {path}")
    mapped = np.load(path, mmap_mode="r")
    if mapped.shape != param.data.shape or mapped.dtype != param.data.dtype:
        raise ValueError(
            f"weight file {path} has shape {mapped.shape} / dtype "
            f"{mapped.dtype}, model expects {param.data.shape} / {param.data.dtype}"
        )
    return mapped


def resolve_checkpoint_file(path: str) -> str:
    """Resolve an artifact directory / bare path to the actual ``.npz`` file."""
    if os.path.isdir(path):
        candidate = os.path.join(path, ARTIFACT_CHECKPOINT)
        if not os.path.exists(candidate):
            raise FileNotFoundError(
                f"{path} is a directory but contains no {ARTIFACT_CHECKPOINT}; "
                "expected an `sptransx run` artifact directory or a .npz file"
            )
        return candidate
    if not os.path.exists(path):
        if os.path.exists(path + ".npz"):
            return path + ".npz"
        raise FileNotFoundError(path)
    return path


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Reads only the metadata blob, so the cost does not grow with the model.
    ``path`` may also name an experiment artifact *directory* (the layout
    ``sptransx run`` writes); the checkpoint inside it is loaded.  Raises
    ``FileNotFoundError`` naming the directory when ``weights/`` is missing.
    """
    path = os.path.abspath(resolve_checkpoint_file(path))
    with np.load(path, allow_pickle=False) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
    checkpoint = Checkpoint(
        source_path=path,
        epoch=int(metadata.get("epoch", 0)),
        losses=[float(x) for x in metadata.get("losses", [])],
        metadata=metadata,
    )
    if not os.path.isdir(checkpoint.weights_dir):
        raise FileNotFoundError(
            f"no {ARTIFACT_WEIGHTS}/ directory at {checkpoint.weights_dir}: "
            f"the parameters of {path} are missing"
        )
    return checkpoint


def load_model(path: str, rng=0) -> KGEModel:
    """One-call ``path → ready model`` (what the serving engine and CLI use).

    Construction goes solely through :meth:`Checkpoint.spec` →
    :func:`repro.registry.build_model` under
    :func:`repro.nn.init.skip_init`, so every recorded hyperparameter — SpMM
    backend, dissimilarity, relation dimension — is restored faithfully and
    no parameter is initialised only to be replaced.  A partitioned table
    attaches to its bucket files and faults them in lazily; every other
    parameter is its ``weights/<name>.npy`` file mapped read-only, paged in
    by the OS and never copied into RAM.  The model is read-only;
    :func:`restore_into` gives a writable copy for training.
    """
    checkpoint = load_checkpoint(path)
    with skip_init():
        model = build_model(checkpoint.spec(), rng=rng)
    table, bucket_names = _partitioned_table(model)
    if table is not None:
        table.attach_storage(checkpoint.weights_dir)
    for name, param in model.named_parameters():
        if name not in bucket_names:
            param.data = _map_weight(checkpoint.weights_dir, name, param)
    return model


def restore_into(checkpoint: Checkpoint, model: KGEModel,
                 optimizer: Optional[Optimizer] = None, strict: bool = True) -> None:
    """Copy a checkpoint's state into an existing, writable model (and optimiser).

    The resume path: every parameter is read from ``weights/`` into the
    model's own storage, bucket by bucket for a partitioned table.

    ``strict`` additionally verifies that the checkpoint describes the model:
    its :class:`~repro.registry.ModelSpec` must equal
    ``spec_from_model(model)`` field by field, or — for a checkpoint or a
    model with no spec — the class names must match.
    """
    if strict:
        _check_same_model(checkpoint, model)
    table, bucket_names = _partitioned_table(model)
    for name, param in model.named_parameters():
        if name not in bucket_names:
            param.data[...] = _map_weight(checkpoint.weights_dir, name, param)
    if table is not None:
        for k in range(table.n_partitions):
            lo, hi = table.partition.bucket_range(k)
            table.write_rows(np.arange(lo, hi), np.load(
                os.path.join(checkpoint.weights_dir, bucket_filename(k))))
    if optimizer is not None:
        _restore_optimizer_state(optimizer, model, checkpoint.optimizer_state())
        if checkpoint.metadata.get("optimizer_lr"):
            optimizer.set_lr(float(checkpoint.metadata["optimizer_lr"]))
        # Schedulers key off the global step counter; without this a resumed
        # run (notably stateless SGD) would restart any warmup/decay schedule
        # from step zero.
        optimizer._step_count = int(checkpoint.metadata.get(
            "optimizer_step_count", optimizer._step_count))


def _check_same_model(checkpoint: Checkpoint, model: KGEModel) -> None:
    """Raise ``ValueError`` naming the first way ``checkpoint`` is not ``model``."""
    payload = checkpoint.metadata.get("model_spec")
    try:
        current = spec_from_model(model)
    except UnknownModelError:
        current = None
    if payload is None or current is None:
        saved, actual = checkpoint.model_class, type(model).__name__
        if saved is not None and saved != actual:
            raise ValueError(
                f"checkpoint/model mismatch for 'model': "
                f"checkpoint has {saved!r}, model has {actual!r}"
            )
        return
    saved_spec = ModelSpec.from_dict(payload)  # type: ignore[arg-type]
    for spec_field in dataclasses.fields(ModelSpec):
        if not spec_field.compare:
            continue
        key = spec_field.name
        if getattr(saved_spec, key) != getattr(current, key):
            raise ValueError(
                f"checkpoint/model mismatch for {key!r}: checkpoint has "
                f"{getattr(saved_spec, key)!r}, model has {getattr(current, key)!r}"
            )
