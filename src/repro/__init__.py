"""SparseTransX reproduction — sparse-matrix training of translational KG embeddings.

This library reproduces *SparseTransX: Efficient Training of Translation-Based
Knowledge Graph Embeddings Using Sparse Matrix Operations* (MLSys 2025) as a
self-contained Python package:

* a NumPy reverse-mode autograd engine (:mod:`repro.autograd`),
* sparse containers, SpMM backends, incidence builders, and semiring SpMM
  (:mod:`repro.sparse`),
* the SpTransX models (:mod:`repro.models`) and the dense gather/scatter
  baselines they are compared against (:mod:`repro.baselines`),
* data loading, synthetic benchmark-scale KGs, and negative sampling
  (:mod:`repro.data`),
* the training loop and checkpoints
  (:mod:`repro.training`), link-prediction evaluation
  (:mod:`repro.evaluation`), and the profiling substrate used by the
  benchmark harness (:mod:`repro.profiling`).

Quickstart
----------
>>> from repro.data import generate_synthetic_kg
>>> from repro.models import SpTransE
>>> from repro.training import Trainer, TrainingConfig
>>> kg = generate_synthetic_kg(200, 10, 1000, rng=0)
>>> model = SpTransE(kg.n_entities, kg.n_relations, embedding_dim=32, rng=0)
>>> result = Trainer(model, kg, TrainingConfig(epochs=5, batch_size=256)).train()
>>> result.final_loss < result.losses[0]
True
"""

from repro import autograd, baselines, data, evaluation, experiment, losses, models, nn, optim
from repro import profiling, sparse, training, utils
from repro.data import KGDataset, generate_synthetic_kg, make_dataset_like
from repro.models import SpTransE, SpTransH, SpTransR, SpTorusE
from repro.baselines import DenseTransE, DenseTransH, DenseTransR, DenseTorusE
from repro.training import Trainer, TrainingConfig
from repro.evaluation import evaluate_link_prediction

__version__ = "1.0.0"

__all__ = [
    "autograd",
    "sparse",
    "nn",
    "optim",
    "losses",
    "models",
    "baselines",
    "data",
    "training",
    "evaluation",
    "experiment",
    "profiling",
    "utils",
    "KGDataset",
    "generate_synthetic_kg",
    "make_dataset_like",
    "SpTransE",
    "SpTransR",
    "SpTransH",
    "SpTorusE",
    "DenseTransE",
    "DenseTransR",
    "DenseTransH",
    "DenseTorusE",
    "Trainer",
    "TrainingConfig",
    "evaluate_link_prediction",
    "__version__",
]
