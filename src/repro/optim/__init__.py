"""Optimizers.

The paper trains every framework with the same optimiser configuration
(learning rate 0.0004).  This package provides the optimisers the compared
frameworks use (SGD, Adam, Adagrad); ``TrainingConfig.optimizer`` picks one.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.adagrad import Adagrad

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "Adagrad",
]
