"""Checkpointing: save and restore models, optimisers, and training progress.

Long KGE runs (the paper trains 200-1000 epochs) need resumable state.  A
checkpoint is a single ``.npz`` file holding the model's parameter arrays, the
optimiser's per-parameter state, the epoch counter, and the loss history, plus
a JSON-encoded metadata blob (the model's :class:`~repro.registry.ModelSpec`
and class name) used to rebuild the model and to check that a checkpoint is
being restored into a compatible one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.models.base import KGEModel
from repro.nn.init import skip_init
from repro.nn.partitioned import (
    PARTITION_MANIFEST,
    PartitionedEmbedding,
    bucket_filename,
    partitioned_tables,
)
from repro.optim.optimizer import Optimizer
from repro.registry import ModelSpec, UnknownModelError, build_model, spec_from_model


@dataclass
class Checkpoint:
    """In-memory representation of a saved training state."""

    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, np.ndarray] = field(default_factory=dict)
    epoch: int = 0
    losses: List[float] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Path of the ``.npz`` file this checkpoint was read from (``None`` for
    #: checkpoints built in memory).  Partitioned restores use it to locate
    #: the ``weights/`` bucket directory next to the checkpoint.
    source_path: Optional[str] = None

    @property
    def partition_manifest(self) -> Optional[Dict[str, object]]:
        """The partitioned-entity-table manifest, when this checkpoint has one.

        Checkpoints of partitioned models keep entity weights out of the
        ``.npz`` (they live as ``weights/entities.bucket<k>.npy`` files next
        to it) and record the bucket layout here.
        """
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
    """Write a checkpoint to ``path`` (``.npz``); returns the path written.

    ``extra_metadata`` entries (must be JSON-serialisable) are merged into the
    metadata blob — the experiment runner stores the training config and
    experiment name there so a checkpoint can be resumed with validated
    hyperparameters.  Reserved keys (``model_spec``, ``epoch``, ...) cannot be
    overridden.
    """
    table, bucket_names = _partitioned_table(model)
    arrays: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        if name in bucket_names:
            # Entity buckets never enter the npz: they are mirrored as
            # memory-bounded ``weights/entities.bucket<k>.npy`` files below.
            continue
        arrays[f"model::{name}"] = param.data.copy()
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
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **arrays)
    if table is not None:
        # A partitioned checkpoint is only complete with its bucket files:
        # mirror them (one at a time, bounded memory) next to the npz.
        save_weight_files(directory, model)
    return path if path.endswith(".npz") else path + ".npz"


#: Checkpoint filename inside an ``sptransx run`` artifact directory.
ARTIFACT_CHECKPOINT = "checkpoint.npz"

#: Directory of per-parameter ``.npy`` weight files inside an artifact —
#: plain ``numpy.lib.format`` arrays, so they can be served memory-mapped
#: (``np.load(..., mmap_mode="r")``) without densifying into RAM.
ARTIFACT_WEIGHTS = "weights"


def save_weight_files(directory: str, model: KGEModel,
                      quantize: Optional[str] = None,
                      ann: Optional[str] = None,
                      ann_nprobe: Optional[int] = None) -> Dict[str, str]:
    """Write every parameter as ``<directory>/weights/<name>.npy``.

    The files duplicate the arrays already inside ``checkpoint.npz`` in a
    memory-mappable layout (npz members are compressed zip entries and cannot
    be mapped).  Returns ``{parameter_name: file_path}``.

    For a model backed by a :class:`~repro.nn.partitioned.PartitionedEmbedding`
    the entity buckets are written as ``weights/entities.bucket<k>.npy``
    (streamed file copies from the table's own storage — the full table never
    enters memory) together with the ``weights/partition.json`` manifest; all
    other parameters keep the flat ``<name>.npy`` layout.  Loaders treat a
    weights directory *without* a manifest as the legacy single-bucket dense
    layout, so pre-partitioning artifacts stay loadable unchanged.

    ``quantize`` (``"fp16"`` or ``"int8"``) additionally writes quantized
    twins of each bucket (``entities.bucket<k>.f16.npy`` / int8 codes plus
    per-row scales) beside the exact files and records the mode in the
    manifest — see :mod:`repro.nn.quantize`.  Requires a partitioned model.

    ``ann`` (``"ivf"``) builds an ANN index over the bucket files into
    ``<directory>/index/`` — per-bucket k-means centroids plus cluster-sorted
    row permutations and an ``index.json`` manifest; ``ann_nprobe`` pins the
    serving probe width (default: auto-chosen for recall@10 ≥ 0.95, see
    :func:`repro.ann.build_index_files`).  Also partitioned-only.
    """
    weights_dir = os.path.join(directory, ARTIFACT_WEIGHTS)
    os.makedirs(weights_dir, exist_ok=True)
    written: Dict[str, str] = {}
    table, bucket_names = _partitioned_table(model)
    if table is None and quantize is not None:
        raise ValueError(
            "quantize= requires a model with a partitioned entity table "
            "(train with partitions > 1)"
        )
    if table is None and ann is not None:
        raise ValueError(
            "ann= requires a model with a partitioned entity table "
            "(train with partitions > 1)"
        )
    if table is not None:
        table.flush()
        for k in range(table.n_partitions):
            source = os.path.join(table.directory, bucket_filename(k))
            target = os.path.join(weights_dir, bucket_filename(k))
            if os.path.abspath(source) != os.path.abspath(target):
                shutil.copyfile(source, target)
            written[f"entities.bucket{k}"] = target
        table.write_manifest(weights_dir)
        if quantize is not None:
            from repro.nn.quantize import quantize_weight_files

            entry = quantize_weight_files(weights_dir, quantize)
            for k, bucket in enumerate(entry["buckets"]):
                for name in bucket["files"]:
                    written[os.path.splitext(name)[0]] = os.path.join(
                        weights_dir, name)
        if ann is not None:
            from repro.ann import ARTIFACT_INDEX, INDEX_MANIFEST, build_index_files

            index_manifest = build_index_files(directory, kind=ann,
                                               nprobe=ann_nprobe)
            index_dir = os.path.join(directory, ARTIFACT_INDEX)
            written["index.manifest"] = os.path.join(index_dir, INDEX_MANIFEST)
            for bucket in index_manifest["buckets"]:
                for key in ("centroids", "assign"):
                    name = str(bucket[key])
                    written[f"index.{os.path.splitext(name)[0]}"] = os.path.join(
                        index_dir, name)
    for name, param in model.named_parameters():
        if name in bucket_names:
            continue
        path = os.path.join(weights_dir, f"{name}.npy")
        np.save(path, np.ascontiguousarray(param.data))
        written[name] = path
    return written


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


def read_checkpoint_metadata(path: str) -> Dict[str, object]:
    """Read only the JSON metadata blob of a checkpoint.

    Loads a single npz member, so the cost is independent of model size —
    the memory-mapped serving path uses this to learn the model spec without
    pulling any parameter array into RAM.
    """
    with np.load(resolve_checkpoint_file(path), allow_pickle=False) as data:
        return json.loads(bytes(data["metadata"]).decode("utf-8"))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    ``path`` may also name an experiment artifact *directory* (the layout
    ``sptransx run`` writes); the checkpoint inside it is loaded, which is
    what lets :func:`load_model` and the serving engine warm-load an artifact
    without knowing its internal layout.
    """
    path = resolve_checkpoint_file(path)
    with np.load(path, allow_pickle=False) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        model_state = {key[len("model::"):]: data[key] for key in data.files
                       if key.startswith("model::")}
        optimizer_state = {key[len("optim::"):]: data[key] for key in data.files
                           if key.startswith("optim::")}
    return Checkpoint(
        model_state=model_state,
        optimizer_state=optimizer_state,
        epoch=int(metadata.get("epoch", 0)),
        losses=[float(x) for x in metadata.get("losses", [])],
        metadata=metadata,
        source_path=os.path.abspath(path),
    )


def load_model(path: str, rng=0, mmap: bool = False,
               quantized: Optional[object] = None) -> KGEModel:
    """One-call ``path → ready model`` (what the serving engine and CLI use).

    Construction goes solely through :meth:`Checkpoint.spec` →
    :func:`repro.registry.build_model`, so every recorded hyperparameter —
    SpMM backend, dissimilarity, relation dimension — is restored faithfully
    rather than falling back to constructor defaults.  A partitioned
    checkpoint's entity buckets attach to the ``weights/`` files next to it
    and fault in lazily.

    With ``mmap=True`` and an artifact directory carrying a ``weights/``
    directory, the model is constructed without initialising its parameters
    (:func:`repro.nn.init.skip_init`) and each parameter is attached to its
    on-disk ``.npy`` file via ``np.load(..., mmap_mode="r")`` — the embedding
    tables are paged in lazily by the OS and are never densified into RAM.
    The returned model is read-only: training or ``normalize_parameters``
    would write through the map and must use the regular loader.

    ``quantized`` (``"fp16"``/``"int8"``/``"auto"``) serves a partitioned
    model from the quantized bucket files written with
    ``save_weight_files(..., quantize=...)`` — resident bucket bytes drop 2–4×
    and the serving engine rescores top candidates exactly from the float64
    originals.  Requires ``mmap=True`` (the quantized files live in the
    weights directory).
    """
    if quantized not in (None, False) and not mmap:
        raise ValueError(
            "quantized serving reads the weights/ directory; load with "
            "mmap=True (or drop quantized=)"
        )
    if mmap:
        checkpoint_file = resolve_checkpoint_file(path)
        weights_dir = os.path.join(os.path.dirname(checkpoint_file),
                                   ARTIFACT_WEIGHTS)
        if not os.path.isdir(weights_dir):
            raise FileNotFoundError(
                f"no {ARTIFACT_WEIGHTS}/ directory next to {checkpoint_file}; "
                "memory-mapped loading needs an artifact written with weight "
                "files (re-run `sptransx run`, or load with mmap=False)"
            )
        return _model_from_weight_files(checkpoint_file, weights_dir, rng=rng,
                                        quantized=quantized)
    checkpoint = load_checkpoint(path)
    # A partitioned model's buckets come from files: nothing to initialise.
    with skip_init() if checkpoint.partition_manifest is not None else nullcontext():
        model = build_model(checkpoint.spec(), rng=rng)
    restore_into(checkpoint, model)
    return model


def _model_from_weight_files(checkpoint_file: str, weights_dir: str,
                             rng=0, quantized: Optional[object] = None
                             ) -> KGEModel:
    """Build a model whose parameters are read-only maps of on-disk arrays.

    With a ``partition.json`` manifest present, the entity buckets attach to
    their ``entities.bucket<k>.npy`` files and fault in lazily (LRU-bounded —
    stricter than mmap: address space, not just RSS, stays bounded); the
    remaining parameters are memory-mapped ``<name>.npy`` files as before.
    Without a manifest the directory is the legacy single-bucket dense
    layout and every parameter is mapped.
    """
    metadata = read_checkpoint_metadata(checkpoint_file)
    spec = Checkpoint(model_state={}, metadata=metadata).spec()
    with skip_init():
        model = build_model(spec, rng=rng)
    bucket_names: Set[str] = set()
    if os.path.exists(os.path.join(weights_dir, PARTITION_MANIFEST)):
        table, bucket_names = _partitioned_table(model)
        if table is None:
            raise ValueError(
                f"{weights_dir} carries a {PARTITION_MANIFEST} but the "
                "checkpointed spec does not describe a partitioned model"
            )
        table.attach_storage(weights_dir, read_only=True, quantized=quantized)
    elif quantized not in (None, False, "auto", True):
        raise ValueError(
            f"quantized={quantized!r} requires a partitioned weights "
            f"directory (no {PARTITION_MANIFEST} in {weights_dir})"
        )
    for name, param in model.named_parameters():
        if name in bucket_names:
            continue
        weight_path = os.path.join(weights_dir, f"{name}.npy")
        if not os.path.exists(weight_path):
            raise FileNotFoundError(
                f"weight file missing for parameter {name!r}: {weight_path}"
            )
        mapped = np.load(weight_path, mmap_mode="r")
        if mapped.shape != param.data.shape or mapped.dtype != param.data.dtype:
            raise ValueError(
                f"weight file {weight_path} has shape {mapped.shape} / dtype "
                f"{mapped.dtype}, model expects {param.data.shape} / {param.data.dtype}"
            )
        param.data = mapped
    return model


def restore_into(checkpoint: Checkpoint, model: KGEModel,
                 optimizer: Optional[Optimizer] = None, strict: bool = True) -> None:
    """Load a checkpoint's state into an existing model (and optimiser).

    ``strict`` additionally verifies that the checkpoint describes the model:
    its :class:`~repro.registry.ModelSpec` must equal
    ``spec_from_model(model)`` field by field, or — for a checkpoint or a
    model with no spec — the class names must match.
    """
    if strict:
        _check_same_model(checkpoint, model)
    if checkpoint.partition_manifest is not None:
        _restore_partitioned(checkpoint, model, strict=strict)
    else:
        model.load_state_dict(checkpoint.model_state)
    if optimizer is not None:
        if checkpoint.optimizer_state:
            _restore_optimizer_state(optimizer, model, checkpoint.optimizer_state)
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


def _restore_partitioned(checkpoint: Checkpoint, model: KGEModel,
                         strict: bool = True) -> None:
    """Restore a partitioned checkpoint: npz params + attached bucket files.

    The npz holds every parameter except the entity buckets; those attach
    (read-only, lazily faulted) to the ``weights/`` directory next to the
    checkpoint file.  ``strict`` verifies the npz covers exactly the
    non-bucket parameters.
    """
    table, bucket_names = _partitioned_table(model)
    if table is None:
        raise ValueError(
            "checkpoint was written by a partitioned model but the target "
            "model has no partitioned table; rebuild it with the checkpoint's "
            "spec (load_model does this automatically)"
        )
    own = {name: param for name, param in model.named_parameters()
           if name not in bucket_names}
    state = checkpoint.model_state
    missing = set(own) - set(state)
    unexpected = set(state) - set(own)
    if strict and (missing or unexpected):
        raise KeyError(
            f"state_dict mismatch: missing={sorted(missing)}, "
            f"unexpected={sorted(unexpected)}"
        )
    for name, param in own.items():
        if name not in state:
            continue
        value = np.asarray(state[name], dtype=np.float64)
        if value.shape != tuple(param.shape):
            raise ValueError(
                f"shape mismatch for {name!r}: expected {tuple(param.shape)}, "
                f"got {value.shape}"
            )
        param.data = np.array(value, copy=True)
    if checkpoint.source_path is None:
        raise ValueError(
            "partitioned checkpoint has no source path; load it with "
            "load_checkpoint(path) so the weights/ directory can be located"
        )
    weights_dir = os.path.join(os.path.dirname(checkpoint.source_path),
                               ARTIFACT_WEIGHTS)
    table.attach_storage(weights_dir, read_only=True)
