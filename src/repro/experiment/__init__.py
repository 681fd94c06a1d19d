"""Spec-driven experiments: one JSON artifact = one reproducible paper run.

:class:`ExperimentSpec` declares the whole pipeline — dataset + negative
sampling (:class:`DataSpec`), model (:class:`~repro.registry.ModelSpec`),
hyperparameters (:class:`~repro.training.TrainingConfig`), and evaluation
protocols (:class:`EvalSpec`) — and :class:`Experiment` executes it, writing a
self-contained artifact directory that checkpoint loading and the serving
engine consume directly.  ``sptransx export-spec`` writes a spec from flags and
``sptransx run <spec.json>`` executes it; ``sptransx evaluate`` and ``serve``
read the artifact it writes, data spec included.

>>> from repro.experiment import DataSpec, ExperimentSpec, run_experiment
>>> from repro.registry import ModelSpec
>>> from repro.training import TrainingConfig
>>> spec = ExperimentSpec(
...     name="demo",
...     data=DataSpec(dataset="WN18RR", scale=0.003, test_fraction=0.1),
...     model=ModelSpec(model="transe", formulation="sparse",
...                     n_entities=2243, n_relations=2, embedding_dim=16),
...     training=TrainingConfig(epochs=2, batch_size=256, learning_rate=0.01),
... )
>>> result = run_experiment(spec)  # doctest: +SKIP
"""

from repro.experiment.spec import (
    CURRENT_SPEC_VERSION,
    DATA_GENERATORS,
    DATA_STORAGES,
    DataSpec,
    EvalSpec,
    ExperimentSpec,
)
from repro.experiment.runner import (
    Experiment,
    ExperimentArtifact,
    ExperimentResult,
    load_artifact,
    run_experiment,
)

__all__ = [
    "CURRENT_SPEC_VERSION",
    "DATA_GENERATORS",
    "DATA_STORAGES",
    "DataSpec",
    "EvalSpec",
    "ExperimentSpec",
    "Experiment",
    "ExperimentArtifact",
    "ExperimentResult",
    "load_artifact",
    "run_experiment",
]
