"""Declarative experiment specs: data → model → training → evaluation.

A paper run used to live in argparse flags scattered over ``cli.py``; nothing
reproducible survived the process.  This module makes the whole pipeline a
single JSON-serialisable artifact:

* :class:`DataSpec` — which dataset to materialise (catalog synthetic, the
  structure-bearing "learnable" generator, or a triples file), how to split
  it, and the negative-sampling strategy/count;
* :class:`EvalSpec` — which evaluation protocols to run and with what
  cutoffs/batching;
* :class:`ExperimentSpec` — the umbrella: data + :class:`~repro.registry.ModelSpec`
  + :class:`~repro.training.TrainingConfig` + eval + seed + tags, with
  schema-validated ``from_dict``/``from_file`` and versioned serialisation.

Specs are frozen (hash-/compare-friendly, safe to share across sweeps) and
round-trip losslessly: ``ExperimentSpec.from_dict(spec.to_dict()) == spec``.
Unknown keys are rejected with a closest-match suggestion instead of a bare
``TypeError``, because specs are edited by hand.
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.data.catalog import get_dataset_spec
from repro.data.dataset import KGDataset
from repro.data.loaders import load_triples_file
from repro.data.negative_sampling import (
    SAMPLER_STRATEGIES,
    NegativeSampler,
    make_negative_sampler,
)
from repro.data.synthetic import generate_learnable_kg, make_dataset_like
from repro.evaluation.evaluators import (
    EVALUATOR_PROTOCOLS,
    Evaluator,
    build_evaluator,
)
from repro.registry import ModelSpec
from repro.training.config import TrainingConfig
from repro.utils.validation import check_json_types

#: Serialisation version written by :meth:`ExperimentSpec.to_dict`.  Bump when
#: a field changes meaning; ``from_dict`` refuses versions from the future.
CURRENT_SPEC_VERSION = 1

#: Synthetic generators a :class:`DataSpec` can name.
DATA_GENERATORS = ("zipf", "learnable")

#: Storage backends a :class:`DataSpec` can train from.
DATA_STORAGES = ("memory", "sqlite")


def _reject_unknown_keys(payload: Mapping[str, object], known, section: str) -> None:
    """Schema guard shared by every spec section: fail with suggestions."""
    unknown = sorted(set(payload) - set(known))
    if not unknown:
        return
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(key, list(known), n=1)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    raise ValueError(
        f"unknown key(s) in the {section} section: {', '.join(hints)}; "
        f"valid keys: {sorted(known)}"
    )


def _require_mapping(payload, section: str) -> Mapping[str, object]:
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"the {section} section must be a mapping, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class DataSpec:
    """Everything needed to materialise a dataset and its negative sampler.

    Attributes
    ----------
    dataset:
        Catalog name (``"FB15K"``, ``"WN18RR"``, ...); ignored when
        ``triples_file`` is set.
    scale:
        Proportional down-scaling of the catalog sizes (synthetic sources).
    triples_file:
        CSV/TSV/TTL file of labelled triples to load instead of synthesising.
    generator:
        ``"zipf"`` (degree-skewed random graph, the training-time workload) or
        ``"learnable"`` (latent-translation graph whose held-out links are
        actually predictable — use for accuracy experiments).
    valid_fraction, test_fraction:
        Held-out split fractions.
    seed:
        Seed for generation/splitting (independent of the training seed).
    negative_sampler:
        ``"uniform"`` or ``"bernoulli"`` corruption strategy.
    num_negatives:
        Negatives contrasted against each positive per epoch (``K > 1`` tiles
        each positive ``K`` times, each copy drawing its own corruption).
    storage:
        ``"memory"`` (default) trains from in-memory arrays with the paper's
        pre-generated-negative protocol; ``"sqlite"`` spools the training
        split into an on-disk SQLite store and streams shuffled batches out
        of it (:class:`~repro.data.StreamingBatchIterator`), bounding peak
        RSS for graphs larger than RAM.  Negatives are then drawn per batch
        on the fly.
    storage_path:
        Database file backing ``storage="sqlite"``; defaults to
        ``data.sqlite`` inside the artifact directory (or a temporary file
        for in-memory-only runs).
    """

    dataset: str = "FB15K"
    scale: float = 0.01
    triples_file: Optional[str] = None
    generator: str = "zipf"
    valid_fraction: float = 0.0
    test_fraction: float = 0.05
    seed: int = 0
    negative_sampler: str = "uniform"
    num_negatives: int = 1
    storage: str = "memory"
    storage_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.triples_file is None and not (0 < self.scale <= 1):
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.generator not in DATA_GENERATORS:
            raise ValueError(
                f"generator must be one of {DATA_GENERATORS}, got {self.generator!r}"
            )
        if self.storage not in DATA_STORAGES:
            raise ValueError(
                f"storage must be one of {DATA_STORAGES}, got {self.storage!r}"
            )
        if self.negative_sampler not in SAMPLER_STRATEGIES:
            raise ValueError(
                f"negative_sampler must be one of {SAMPLER_STRATEGIES}, "
                f"got {self.negative_sampler!r}"
            )
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if (self.valid_fraction < 0 or self.test_fraction < 0
                or self.valid_fraction + self.test_fraction >= 1):
            raise ValueError(
                "valid_fraction/test_fraction must be non-negative and sum to < 1"
            )

    # ------------------------------------------------------------------ #
    def vocab_sizes(self) -> Optional[Tuple[int, int]]:
        """``(n_entities, n_relations)`` when knowable without materialising.

        Synthetic sources pass the scaled catalog sizes straight into the
        generator, so the sizes are deterministic; file sources return
        ``None`` (the vocabulary emerges from the file's labels).
        """
        if self.triples_file is not None:
            return None
        spec = get_dataset_spec(self.dataset).scaled(self.scale)
        return spec.n_entities, spec.n_relations

    def materialize(self) -> KGDataset:
        """Load or generate the dataset this spec describes."""
        if self.triples_file is not None:
            kg = load_triples_file(self.triples_file)
            if self.valid_fraction > 0 or self.test_fraction > 0:
                kg = kg.split_train_valid_test(self.valid_fraction,
                                               self.test_fraction, rng=self.seed)
            return kg
        if self.generator == "learnable":
            spec = get_dataset_spec(self.dataset).scaled(self.scale)
            return generate_learnable_kg(
                n_entities=spec.n_entities,
                n_relations=spec.n_relations,
                n_triples=spec.n_training_triples,
                rng=self.seed,
                name=spec.name,
                valid_fraction=self.valid_fraction,
                test_fraction=self.test_fraction,
            )
        return make_dataset_like(self.dataset, scale=self.scale, rng=self.seed,
                                 valid_fraction=self.valid_fraction,
                                 test_fraction=self.test_fraction)

    def build_sampler(self, dataset: KGDataset, rng=None) -> NegativeSampler:
        """The negative sampler this spec names, bound to ``dataset``."""
        return make_negative_sampler(self.negative_sampler, dataset, rng=rng)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "dataset": self.dataset,
            "scale": self.scale,
            "generator": self.generator,
            "valid_fraction": self.valid_fraction,
            "test_fraction": self.test_fraction,
            "seed": self.seed,
            "negative_sampler": self.negative_sampler,
            "num_negatives": self.num_negatives,
            "storage": self.storage,
        }
        if self.triples_file is not None:
            out["triples_file"] = self.triples_file
        if self.storage_path is not None:
            out["storage_path"] = self.storage_path
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DataSpec":
        payload = _require_mapping(payload, "data")
        known = ("dataset", "scale", "triples_file", "generator", "valid_fraction",
                 "test_fraction", "seed", "negative_sampler", "num_negatives",
                 "storage", "storage_path")
        _reject_unknown_keys(payload, known, "data")
        check_json_types(payload, "data", ints=("seed", "num_negatives"),
                         floats=("scale", "valid_fraction", "test_fraction"))
        return cls(
            dataset=str(payload.get("dataset", "FB15K")),
            scale=float(payload.get("scale", 0.01)),  # type: ignore[arg-type]
            triples_file=(str(payload["triples_file"])
                          if payload.get("triples_file") is not None else None),
            generator=str(payload.get("generator", "zipf")),
            valid_fraction=float(payload.get("valid_fraction", 0.0)),  # type: ignore[arg-type]
            test_fraction=float(payload.get("test_fraction", 0.05)),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            negative_sampler=str(payload.get("negative_sampler", "uniform")),
            num_negatives=int(payload.get("num_negatives", 1)),  # type: ignore[arg-type]
            storage=str(payload.get("storage", "memory")),
            storage_path=(str(payload["storage_path"])
                          if payload.get("storage_path") is not None else None),
        )


@dataclass(frozen=True)
class EvalSpec:
    """Which evaluation protocols to run after training, and how.

    Attributes
    ----------
    protocols:
        Any subset of :data:`~repro.evaluation.EVALUATOR_PROTOCOLS`
        (``link_prediction``, ``classification``, ``relation_categories``);
        empty disables post-training evaluation.
    filtered:
        Filtered vs raw ranking for link prediction.
    ks:
        Hits@k cutoffs.
    batch_size:
        Ranking queries scored per chunk (bounds the score-block memory).
    split:
        Split link prediction ranks on (classification always uses
        valid+test; relation categories always use test).
    """

    protocols: Tuple[str, ...] = ("link_prediction",)
    filtered: bool = True
    ks: Tuple[int, ...] = (1, 3, 10)
    batch_size: int = 64
    split: str = "test"

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols",
                           tuple(str(p) for p in self.protocols))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        for protocol in self.protocols:
            if protocol not in EVALUATOR_PROTOCOLS:
                raise ValueError(
                    f"unknown evaluation protocol {protocol!r}; "
                    f"available: {sorted(EVALUATOR_PROTOCOLS)}"
                )
        if len(set(self.protocols)) != len(self.protocols):
            raise ValueError(f"duplicate evaluation protocols: {self.protocols}")
        if self.split not in ("train", "valid", "test"):
            raise ValueError(f"split must be train/valid/test, got {self.split!r}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not self.ks or any(k <= 0 for k in self.ks):
            raise ValueError(f"ks must be positive cutoffs, got {self.ks}")

    def build_evaluators(self, seed: int = 0) -> List[Evaluator]:
        """Instantiate one :class:`Evaluator` per requested protocol.

        ``seed`` feeds the protocols that draw corruption noise
        (classification), so a reloaded artifact reproduces its metrics.
        """
        evaluators: List[Evaluator] = []
        for protocol in self.protocols:
            if protocol == "link_prediction":
                evaluators.append(build_evaluator(
                    protocol, ks=self.ks, filtered=self.filtered,
                    batch_size=self.batch_size, split=self.split))
            elif protocol == "classification":
                evaluators.append(build_evaluator(protocol, seed=seed))
            else:  # relation_categories
                evaluators.append(build_evaluator(
                    protocol, ks=self.ks, batch_size=self.batch_size))
        return evaluators

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocols": list(self.protocols),
            "filtered": self.filtered,
            "ks": list(self.ks),
            "batch_size": self.batch_size,
            "split": self.split,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EvalSpec":
        payload = _require_mapping(payload, "eval")
        known = ("protocols", "filtered", "ks", "batch_size", "split")
        _reject_unknown_keys(payload, known, "eval")
        for key in ("protocols", "ks"):
            # tuple("link_prediction") would silently explode a hand-written
            # scalar into characters; demand a real list.
            if isinstance(payload.get(key), str):
                raise ValueError(
                    f"eval section key {key!r} must be a list, "
                    f"got the string {payload[key]!r}"
                )
        check_json_types(payload, "eval", bools=("filtered",), ints=("batch_size",),
                         int_lists=("ks",))
        return cls(
            protocols=tuple(payload.get("protocols", ("link_prediction",))),  # type: ignore[arg-type]
            filtered=bool(payload.get("filtered", True)),
            ks=tuple(payload.get("ks", (1, 3, 10))),  # type: ignore[arg-type]
            batch_size=int(payload.get("batch_size", 64)),  # type: ignore[arg-type]
            split=str(payload.get("split", "test")),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible end-to-end run: data → train → eval → artifacts.

    The single artifact ``sptransx run`` consumes and every scenario layer
    (sweeps, distributed runs) composes.  ``seed`` governs model init,
    batching/negative-sampling streams, and evaluation noise; ``data.seed``
    separately governs dataset generation so the same graph can be reused
    across training seeds.
    """

    model: ModelSpec
    data: DataSpec = field(default_factory=DataSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    eval: EvalSpec = field(default_factory=EvalSpec)
    name: str = "experiment"
    seed: int = 0
    tags: Tuple[str, ...] = ()
    version: int = CURRENT_SPEC_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        object.__setattr__(self, "name", str(self.name))
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if int(self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.version > CURRENT_SPEC_VERSION:
            raise ValueError(
                f"spec version {self.version} is newer than this library "
                f"supports ({CURRENT_SPEC_VERSION}); upgrade the library"
            )

    # ------------------------------------------------------------------ #
    def resolved_model_spec(self, dataset: KGDataset) -> ModelSpec:
        """The model spec with vocabulary sizes validated against ``dataset``.

        A spec whose model section was written for a different vocabulary is
        rejected here — silently training on mismatched sizes is how stale
        specs corrupt sweeps.
        """
        spec = self.model
        if (spec.n_entities, spec.n_relations) != (dataset.n_entities,
                                                   dataset.n_relations):
            raise ValueError(
                f"model spec vocabulary ({spec.n_entities} entities, "
                f"{spec.n_relations} relations) does not match the materialised "
                f"dataset {dataset.name!r} ({dataset.n_entities}, "
                f"{dataset.n_relations}); regenerate the spec with "
                "`sptransx export-spec` or fix the data section"
            )
        return spec

    def replace(self, **kwargs) -> "ExperimentSpec":
        """Copy with fields overridden (the sweep primitive).

        .. code-block:: python

            for margin in (0.25, 0.5, 1.0):
                run_experiment(spec.replace(
                    name=f"margin-{margin}",
                    training=spec.training.replace(margin=margin)))
        """
        import dataclasses

        return dataclasses.replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "spec_version": self.version,
            "name": self.name,
            "seed": self.seed,
            "tags": list(self.tags),
            "data": self.data.to_dict(),
            "model": self.model.to_dict(),
            "training": self.training.to_dict(),
            "eval": self.eval.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Schema-validated inverse of :meth:`to_dict`.

        The model section may omit ``n_entities``/``n_relations``; they are
        filled from the data section's deterministic catalog sizes.  File-backed
        data specs cannot be auto-filled (the vocabulary lives in the file), so
        there the model section must carry explicit sizes.
        """
        payload = _require_mapping(payload, "experiment")
        check_json_types(payload, "experiment", ints=("spec_version", "seed"))
        version = int(payload.get("spec_version", 1))  # type: ignore[arg-type]
        # Version gate first: a future spec's unknown fields are expected, and
        # "upgrade the library" is the useful error, not "unknown key".
        if version > CURRENT_SPEC_VERSION:
            raise ValueError(
                f"spec version {version} is newer than this library "
                f"supports ({CURRENT_SPEC_VERSION}); upgrade the library"
            )
        known = ("spec_version", "name", "seed", "tags",
                 "data", "model", "training", "eval")
        _reject_unknown_keys(payload, known, "experiment")
        if "model" not in payload:
            raise ValueError("experiment spec is missing the required 'model' section")
        data = DataSpec.from_dict(payload.get("data", {}))  # type: ignore[arg-type]

        model_payload = dict(_require_mapping(payload["model"], "model"))
        # ModelSpec.from_dict deliberately ignores unknown keys (checkpoint
        # forward-compat, and the legacy ``sparse_grads`` folded below);
        # hand-edited experiment specs get the strict check.
        _reject_unknown_keys(
            model_payload,
            ("spec_version", "model", "formulation", "n_entities", "n_relations",
             "embedding_dim", "relation_dim", "backend", "dissimilarity",
             "sparse_grads", "partitions", "ann", "nprobe"),
            "model")
        if "n_entities" not in model_payload or "n_relations" not in model_payload:
            sizes = data.vocab_sizes()
            if sizes is None:
                raise ValueError(
                    "the model section omits n_entities/n_relations and the "
                    "data section loads a triples file, so the sizes cannot be "
                    "inferred; set them explicitly (sptransx export-spec does)"
                )
            model_payload.setdefault("n_entities", sizes[0])
            model_payload.setdefault("n_relations", sizes[1])
        model = ModelSpec.from_dict(model_payload)

        training_payload = dict(_require_mapping(payload.get("training", {}),
                                                 "training"))
        # Older specs also set the gradient switch in the model section; it
        # is a training choice, so a legacy ``model.sparse_grads: true``
        # moves here.
        check_json_types(model_payload, "model", bools=("sparse_grads",))
        if model_payload.get("sparse_grads"):
            training_payload["sparse_grads"] = True
        training = TrainingConfig.from_dict(training_payload)
        eval_spec = EvalSpec.from_dict(payload.get("eval", {}))  # type: ignore[arg-type]
        return cls(
            model=model,
            data=data,
            training=training,
            eval=eval_spec,
            name=str(payload.get("name", "experiment")),
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            tags=tuple(str(t) for t in payload.get("tags", ())),  # type: ignore[union-attr]
            version=version,
        )

    # ------------------------------------------------------------------ #
    def to_file(self, path: str) -> str:
        """Write the spec as pretty-printed JSON; returns the path."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a JSON file (CLI-grade errors on malformed input)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
