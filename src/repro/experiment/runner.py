"""The :class:`Experiment` runner: materialise → build → train → eval → write.

One call composes every layer of the library behind an
:class:`~repro.experiment.spec.ExperimentSpec`:

1. materialise the dataset the :class:`~repro.experiment.spec.DataSpec` names;
2. build the model through the spec-driven registry;
3. train with :class:`~repro.training.Trainer` (its
   :class:`~repro.training.TrainingResult` is the run's history);
4. run every requested protocol through the common
   :class:`~repro.evaluation.Evaluator` interface;
5. write a **self-contained artifact directory**::

       <artifact_dir>/
         spec.json          # the exact ExperimentSpec (vocab sizes resolved)
         checkpoint.npz     # optimiser state, spec + training config metadata
         weights/           # every parameter once, one .npy file each
         metrics.json       # final loss, phase breakdown, per-protocol reports
         history.json       # per-epoch loss / timing curves
         environment.json   # python/numpy/platform/seed provenance record

   It is the one trained-model format: ``load_model(artifact_dir)`` and
   ``InferenceEngine.from_artifact`` warm-load it directly, ``sptransx
   evaluate`` and ``serve --filtered`` re-materialise the data ``spec.json``
   names, and ``Experiment(spec, resume=artifact_dir)`` resumes it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.data.dataset import KGDataset, TripleSplit
from repro.data.negative_sampling import UniformNegativeSampler
from repro.data.partition_schedule import PartitionedStreamingIterator
from repro.data.sqlite_store import SQLiteKGStore
from repro.data.streaming import StreamingBatchIterator
from repro.data.batching import BatchIterator
from repro.partition import EntityPartition
from repro.evaluation.evaluators import EvalReport
from repro.models.base import KGEModel
from repro.optim.optimizer import Optimizer
from repro.registry import build_model
from repro.training.checkpoint import (
    ARTIFACT_CHECKPOINT,
    load_checkpoint,
    load_model,
    restore_into,
    save_checkpoint,
)
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer, TrainingResult, build_optimizer
from repro.utils.logging import get_logger
from repro.utils.seeding import new_rng, seed_everything

from repro.experiment.spec import ExperimentSpec

logger = get_logger("experiment")

#: Artifact filenames (the checkpoint name lives in repro.training.checkpoint
#: so `load_checkpoint` can resolve artifact directories without importing us).
ARTIFACT_SPEC = "spec.json"
ARTIFACT_METRICS = "metrics.json"
ARTIFACT_HISTORY = "history.json"
ARTIFACT_ENVIRONMENT = "environment.json"


def _write_json(path: str, payload: Dict[str, object]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    return path


@dataclass
class ExperimentResult:
    """Everything a finished run produced, in memory.

    ``dataset`` is ``None`` for out-of-core runs (``storage="sqlite"`` with
    no evaluation protocols): the runner releases the materialised triples
    before training so peak RSS stays bounded; ``dataset_name`` survives.
    """

    spec: ExperimentSpec
    dataset: Optional[KGDataset]
    model: KGEModel
    training: TrainingResult
    reports: List[EvalReport] = field(default_factory=list)
    artifact_dir: Optional[str] = None
    dataset_name: str = ""

    @property
    def metrics(self) -> Dict[str, object]:
        """The ``metrics.json`` payload (uniform across protocols)."""
        return {
            "experiment": self.spec.name,
            "final_loss": self.training.final_loss,
            "epochs_trained": len(self.training.epochs),
            "breakdown_s": self.training.breakdown(),
            "evaluations": {report.protocol: report.to_dict()
                            for report in self.reports},
        }

    def report(self, protocol: str) -> EvalReport:
        """The report for one protocol; raises ``KeyError`` when absent."""
        for report in self.reports:
            if report.protocol == protocol:
                return report
        raise KeyError(
            f"no {protocol!r} report in this run; ran {[r.protocol for r in self.reports]}"
        )


class Experiment:
    """Execute one :class:`ExperimentSpec` end to end.

    Parameters
    ----------
    spec:
        The declarative run description (or a path to its JSON file).
    artifact_dir:
        Where to write the self-contained artifact directory; ``None`` keeps
        the run in memory only.
    resume:
        Checkpoint file or artifact directory to resume training from; the
        stored epoch counter reduces the remaining epoch budget and any stored
        training config is schema-validated against this spec's.
    dataset:
        Optional pre-materialised dataset standing in for
        ``spec.data.materialize()``.  A caller that already loaded the data
        (e.g. the CLI pinning a triples file's vocabulary into the spec) can
        hand it over instead of paying a second load; it MUST be the dataset
        the spec's data section describes — the vocabulary check in
        :meth:`ExperimentSpec.resolved_model_spec` is the only guard.
    """

    def __init__(self, spec: Union[ExperimentSpec, str],
                 artifact_dir: Optional[str] = None,
                 resume: Optional[str] = None,
                 dataset: Optional[KGDataset] = None) -> None:
        if isinstance(spec, str):
            spec = ExperimentSpec.from_file(spec)
        self.spec = spec
        self.artifact_dir = artifact_dir
        self.resume = resume
        self._dataset = dataset

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "Experiment":
        """Build a runner straight from a spec JSON file."""
        return cls(ExperimentSpec.from_file(path), **kwargs)

    # ------------------------------------------------------------------ #
    def run(self) -> ExperimentResult:
        """Execute the pipeline; returns the in-memory result.

        Evaluation feasibility (split emptiness) is checked *before* training
        so a spec asking for e.g. classification without a validation split
        fails in milliseconds, not after the epoch budget.
        """
        spec = self.spec
        seed_everything(spec.seed)
        dataset = self._dataset if self._dataset is not None else spec.data.materialize()
        dataset_name = dataset.name
        model_spec = spec.resolved_model_spec(dataset)

        evaluators = spec.eval.build_evaluators(seed=spec.seed)
        for evaluator in evaluators:
            evaluator.check_dataset(dataset)

        model = build_model(model_spec, rng=spec.seed)
        optimizer = build_optimizer(spec.training.optimizer, model,
                                    spec.training.learning_rate)
        start_epoch = self._maybe_resume(model, optimizer)
        remaining = max(spec.training.epochs - start_epoch, 0)

        db_path = self._maybe_spool_to_sqlite(dataset)
        # A store spooled to a temporary file (no artifact directory, no
        # explicit storage_path) is deleted once training ends.
        ephemeral_db = (db_path is not None and self.artifact_dir is None
                        and self.spec.data.storage_path is None)
        batches = self._batches(dataset, db_path)
        if (spec.data.storage == "sqlite" and not evaluators
                and spec.data.negative_sampler == "uniform"
                and self._dataset is None):
            # Out-of-core mode: the triples now live (only) in SQLite and the
            # uniform sampler needs just the entity count, so the materialised
            # arrays can be released before training — this is what keeps
            # peak RSS bounded for graphs larger than RAM.
            dataset = None

        logger.info("experiment %r: training %s on %s for %d epoch(s) "
                    "(storage=%s)",
                    spec.name, type(model).__name__, dataset_name, remaining,
                    spec.data.storage)
        try:
            trainer = Trainer(model, config=spec.training, optimizer=optimizer,
                              batches=batches)
            trainer.skip_epochs(start_epoch)
            training = trainer.train(epochs=remaining, start_epoch=start_epoch)
        finally:
            if ephemeral_db and os.path.exists(db_path):
                os.unlink(db_path)

        reports = [evaluator.run(model, dataset) for evaluator in evaluators]

        result = ExperimentResult(spec=spec, dataset=dataset, model=model,
                                  training=training, reports=reports,
                                  artifact_dir=self.artifact_dir,
                                  dataset_name=dataset_name)
        if self.artifact_dir is not None:
            self._write_artifacts(result, optimizer,
                                  start_epoch + len(training.epochs))
        return result

    # ------------------------------------------------------------------ #
    def _sqlite_path(self) -> str:
        """Database file backing ``storage="sqlite"`` for this run."""
        if self.spec.data.storage_path is not None:
            return self.spec.data.storage_path
        if self.artifact_dir is not None:
            os.makedirs(self.artifact_dir, exist_ok=True)
            return os.path.join(self.artifact_dir, "data.sqlite")
        fd, path = tempfile.mkstemp(suffix=".sptransx.sqlite")
        os.close(fd)
        os.unlink(path)
        return path

    @staticmethod
    def _dataset_fingerprint(dataset: KGDataset) -> str:
        """Content hash identifying a training split (name/sizes/sampled rows).

        Stored in the store's meta table at spool time and compared on reuse,
        so a stale database that merely *counts* the same as the requested
        dataset cannot silently feed the wrong triples into training.
        """
        import hashlib

        train = dataset.split.train
        digest = hashlib.sha256()
        digest.update(f"{dataset.name}|{dataset.n_entities}|"
                      f"{dataset.n_relations}|{train.shape[0]}|".encode())
        if train.shape[0]:
            sample = np.linspace(0, train.shape[0] - 1,
                                 num=min(train.shape[0], 4096), dtype=np.int64)
            digest.update(np.ascontiguousarray(train[sample]).tobytes())
        return digest.hexdigest()

    def _maybe_spool_to_sqlite(self, dataset: KGDataset) -> Optional[str]:
        """Ingest the dataset into the run's SQLite store (idempotent)."""
        if self.spec.data.storage != "sqlite":
            return None
        path = self._sqlite_path()
        fingerprint = self._dataset_fingerprint(dataset)
        with SQLiteKGStore(path) as store:
            if store.n_triples("train") == 0:
                logger.info("spooling %d training triples into %s",
                            dataset.split.train.shape[0], path)
                store.ingest_dataset(dataset)
                store.set_meta("dataset_fingerprint", fingerprint)
            elif store.get_meta("dataset_fingerprint") != fingerprint:
                raise ValueError(
                    f"SQLite store {path} was spooled from a different dataset "
                    f"than this spec materialises; delete the stale store or "
                    "point storage_path elsewhere"
                )
        return path

    def _batches(self, dataset: KGDataset, db_path: Optional[str]) -> object:
        """The run's batch pipeline, seeded per ``(seed, epoch)``.

        Every epoch's batches and negatives depend only on the seeds and the
        epoch number, which is what lets a resumed run replay the epochs it
        skips (:meth:`~repro.training.trainer.Trainer.skip_epochs`).
        """
        spec = self.spec
        config = spec.training
        partitions = spec.model.partitions or 1
        if spec.data.storage == "sqlite" and partitions > 1:
            # Partition-aware schedule: bucket-pair episodes over the store,
            # so a training step touches at most two entity buckets and the
            # table's resident set stays at its default bound of 2.
            assert db_path is not None
            if spec.data.negative_sampler != "uniform":
                raise ValueError(
                    "partitioned sqlite training uses the bucket-pair "
                    "schedule, whose corruption is bucket-local uniform; "
                    f"negative_sampler={spec.data.negative_sampler!r} is not "
                    "supported with partitions > 1 (use \"uniform\" or "
                    "storage=\"memory\")"
                )
            if not config.shuffle:
                raise ValueError(
                    "partitioned sqlite training always shuffles (seeded "
                    "bucket-pair episodes); shuffle=False is not supported "
                    "with partitions > 1"
                )
            partition = EntityPartition(dataset.n_entities, partitions)
            if spec.data.storage_path is None:
                # One-time disk-side clustering so every episode is a single
                # contiguous position run (idempotent per bucket size).  Only
                # for the run's own store: clustering reorders the triples,
                # which would silently change the seeded block shuffle of any
                # later *unpartitioned* run sharing a user-supplied database.
                with SQLiteKGStore(db_path) as store:
                    store.cluster_by_partition(partition.bucket_size)
            else:
                logger.info(
                    "partitioned training on user-supplied store %s: skipping "
                    "disk-side clustering (episodes stream fragmented runs; "
                    "spool into a run-owned store for contiguous episodes)",
                    db_path)
            return PartitionedStreamingIterator(
                SQLiteKGStore(db_path), batch_size=config.batch_size,
                partition=partition,
                seed=config.seed if config.seed is not None else 0,
                num_negatives=spec.data.num_negatives,
            )

        if spec.data.storage == "sqlite":
            assert db_path is not None
            if spec.data.negative_sampler == "uniform":
                sampler = UniformNegativeSampler(max(dataset.n_entities, 2),
                                                 rng=new_rng(spec.seed))
            else:
                sampler = spec.data.build_sampler(dataset, rng=spec.seed)
            return StreamingBatchIterator(
                SQLiteKGStore(db_path), batch_size=config.batch_size,
                sampler=sampler, shuffle=config.shuffle,
                seed=config.seed if config.seed is not None else 0,
                num_negatives=spec.data.num_negatives,
            )

        return BatchIterator(
            self._training_dataset(dataset), batch_size=config.batch_size,
            sampler=spec.data.build_sampler(dataset, rng=spec.seed),
            shuffle=config.shuffle,
            regenerate_negatives=config.regenerate_negatives,
            rng=new_rng(config.seed),
        )

    # ------------------------------------------------------------------ #
    def _training_dataset(self, dataset: KGDataset) -> KGDataset:
        """Tile positives ``num_negatives`` times so each copy draws its own
        corruption (the multi-negative protocol); evaluators always see the
        original dataset."""
        k = self.spec.data.num_negatives
        if k == 1:
            return dataset
        split = dataset.split
        return KGDataset(
            n_entities=dataset.n_entities,
            n_relations=dataset.n_relations,
            entity_vocab=dataset.entity_vocab,
            relation_vocab=dataset.relation_vocab,
            name=f"{dataset.name}-neg{k}",
            split=TripleSplit(train=np.repeat(split.train, k, axis=0),
                              valid=split.valid, test=split.test),
        )

    def _maybe_resume(self, model: KGEModel, optimizer: Optimizer) -> int:
        if self.resume is None:
            return 0
        checkpoint = load_checkpoint(self.resume)
        if checkpoint.partition_manifest is not None or (self.spec.model.partitions or 1) > 1:
            raise ValueError(
                "cannot resume a partitioned run: bucket optimiser state is "
                "paged per bucket and is not replayable yet; train in one go "
                "(or serve the artifact, which needs no resume)"
            )
        stored = checkpoint.metadata.get("training_config")
        if stored is not None:
            # Schema-validates the stored payload (stale keys fail loudly)
            # and pins the hyperparameters the optimiser state depends on.
            restored = TrainingConfig.from_dict(stored)
            for attr in ("optimizer", "learning_rate"):
                if getattr(restored, attr) != getattr(self.spec.training, attr):
                    raise ValueError(
                        f"cannot resume: checkpoint was trained with "
                        f"{attr}={getattr(restored, attr)!r} but the spec says "
                        f"{getattr(self.spec.training, attr)!r}"
                    )
        restore_into(checkpoint, model, optimizer)
        logger.info("resumed from %s at epoch %d", self.resume, checkpoint.epoch)
        return checkpoint.epoch

    def _write_artifacts(self, result: ExperimentResult, optimizer: Optimizer,
                         epoch: int) -> None:
        directory = self.artifact_dir
        assert directory is not None
        os.makedirs(directory, exist_ok=True)
        self.spec.to_file(os.path.join(directory, ARTIFACT_SPEC))
        save_checkpoint(os.path.join(directory, ARTIFACT_CHECKPOINT),
                        result.model, optimizer, epoch=epoch,
                        losses=result.training.losses,
                        extra_metadata={
                            "experiment": self.spec.name,
                            "training_config": self.spec.training.to_dict(),
                        })
        if self.spec.model.ann is not None:
            # ANN serving index built at artifact-write time: cluster the
            # just-written bucket files and record the auto- (or spec-) chosen
            # nprobe in index/index.json — from_artifact(ann="auto") picks the
            # index up with no extra flags.
            from repro.ann import build_index_files

            build_index_files(directory, kind=self.spec.model.ann,
                              nprobe=self.spec.model.nprobe)
        _write_json(os.path.join(directory, ARTIFACT_METRICS), result.metrics)
        _write_json(os.path.join(directory, ARTIFACT_HISTORY), {
            "losses": result.training.losses,
            "epochs": [{
                "epoch": stats.epoch,
                "loss": stats.loss,
                "forward_s": stats.forward_time,
                "backward_s": stats.backward_time,
                "step_s": stats.step_time,
                "data_s": stats.data_time,
            } for stats in result.training.epochs],
        })
        _write_json(os.path.join(directory, ARTIFACT_ENVIRONMENT), {
            "experiment": self.spec.name,
            "seed": self.spec.seed,
            "tags": list(self.spec.tags),
            "python": sys.version,
            "numpy": np.__version__,
            "platform": platform.platform(),
            "created_unix": time.time(),
        })
        logger.info("artifact directory written to %s", directory)


def run_experiment(spec: Union[ExperimentSpec, str],
                   artifact_dir: Optional[str] = None,
                   **kwargs) -> ExperimentResult:
    """One-call ``spec → finished run`` (spec object or JSON path)."""
    return Experiment(spec, artifact_dir=artifact_dir, **kwargs).run()


@dataclass
class ExperimentArtifact:
    """A loaded artifact directory: spec + recorded metrics + lazy model."""

    path: str
    spec: ExperimentSpec
    metrics: Dict[str, object]
    history: Dict[str, object]

    def load_model(self) -> KGEModel:
        """The trained model, read-only over the artifact's weight files.

        See :func:`repro.training.checkpoint.load_model`.
        """
        return load_model(self.path)


def load_artifact(path: str) -> ExperimentArtifact:
    """Read an artifact directory written by :class:`Experiment`."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"{path} is not an artifact directory")
    spec = ExperimentSpec.from_file(os.path.join(path, ARTIFACT_SPEC))
    with open(os.path.join(path, ARTIFACT_METRICS), "r", encoding="utf-8") as handle:
        metrics = json.load(handle)
    history_path = os.path.join(path, ARTIFACT_HISTORY)
    history: Dict[str, object] = {}
    if os.path.exists(history_path):
        with open(history_path, "r", encoding="utf-8") as handle:
            history = json.load(handle)
    return ExperimentArtifact(path=os.path.abspath(path), spec=spec,
                              metrics=metrics, history=history)
