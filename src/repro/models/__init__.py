"""SpTransX models — the paper's primary contribution.

Every model here expresses its embedding extraction as one sparse-dense
matrix multiplication (SpMM) against an incidence matrix built from the
triplet batch, replacing the per-triplet gather/scatter of conventional
implementations:

* :class:`SpTransE` / :class:`SpTorusE` — ``hrt`` incidence (h + r − t).
* :class:`SpTransR` / :class:`SpTransH` — ``ht`` incidence (h − t) plus the
  model-specific projection.
* :class:`SpDistMult` / :class:`SpComplEx` / :class:`SpRotatE` — the
  Appendix-D semiring extension to non-translational scores.

All models share the :class:`~repro.models.base.KGEModel` interface (scores,
loss, link prediction) so the trainer, the evaluator, and the benchmarks can
swap sparse models and dense baselines freely.
"""

from repro.models.base import KGEModel, TranslationalModel
from repro.models.transe import SpTransE
from repro.models.transr import SpTransR
from repro.models.transh import SpTransH
from repro.models.toruse import SpTorusE
from repro.models.semiring_models import SpDistMult, SpComplEx, SpRotatE
from repro.models.extensions import SpTransA, SpTransC, SpTransM

__all__ = [
    "KGEModel",
    "TranslationalModel",
    "SpTransE",
    "SpTransR",
    "SpTransH",
    "SpTorusE",
    "SpTransM",
    "SpTransC",
    "SpTransA",
    "SpDistMult",
    "SpComplEx",
    "SpRotatE",
]
