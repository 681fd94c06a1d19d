"""Dense gather/scatter baselines (the TorchKGE / DGL-KE / PyG computational pattern).

Each baseline computes exactly the same score function as its SpTransX
counterpart, but through the conventional path the paper compares against:
separate embedding tables for entities and relations, three (or more)
fine-grained row gathers per batch in the forward pass, and per-gather
scatter-add gradient kernels in the backward pass.  Keeping both families on
the same autograd engine isolates the formulation difference the paper
studies — sparse incidence SpMM versus fine-grained gather/scatter.
"""

from repro.baselines.transe import DenseTransE
from repro.baselines.transr import DenseTransR
from repro.baselines.transh import DenseTransH
from repro.baselines.toruse import DenseTorusE
from repro.baselines.transd import DenseTransD
from repro.baselines.semiring_models import DenseDistMult, DenseComplEx

__all__ = [
    "DenseTransE",
    "DenseTransR",
    "DenseTransH",
    "DenseTorusE",
    "DenseTransD",
    "DenseDistMult",
    "DenseComplEx",
]
