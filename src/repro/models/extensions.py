"""Additional translational models expressed through the sparse formulation.

The paper's Table 2 lists several more translation-based score functions that
contain the same ``hrt`` expression and can therefore ride on the identical
single-SpMM machinery:

* **TransM** (Fan et al., 2014): ``w_r · ||h + r − t||`` — a per-relation
  scalar weight on the TransE distance.
* **TransC** (Lv et al., 2018), simplified to its score form in Table 2:
  ``||h + r − t||²₂``.
* **TransA** (Xiao et al., 2015): ``|h + r − t|ᵀ W_r |h + r − t|`` with a
  per-relation non-negative symmetric weight matrix (an adaptive Mahalanobis
  metric).

These classes demonstrate the paper's claim that "our proposed sparse approach
can be extended to accelerate other translation-based models": each one reuses
:class:`~repro.models.transe.SpTransE`'s ``hrt`` SpMM and only changes the
distance applied to the residual.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.models.transe import SpTransE
from repro.nn import init
from repro.nn.parameter import Parameter
from repro.registry import register_model
from repro.sparse.backends import DEFAULT_BACKEND
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@register_model("transm", "sparse")
class SpTransM(SpTransE):
    """TransM through the ``hrt`` SpMM: ``w_r · ||h + r − t||``.

    The per-relation weight down-weights one-to-many / many-to-one relations so
    their looser translations are penalised less.  Weights are stored as free
    parameters passed through a softplus to stay positive.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 dissimilarity: str = "L2", backend: str = DEFAULT_BACKEND,
                 fmt: str = "csr", rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim,
                         dissimilarity=dissimilarity, backend=backend, fmt=fmt, rng=rng)
        # softplus(log(e - 1)) == 1, so training starts at the TransE metric.
        self.relation_weights = Parameter(np.full(n_relations, np.log(np.e - 1.0)),
                                          name="relation_weights")

    def scores(self, triples: np.ndarray) -> Tensor:
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        distances = self.dissimilarity(self.residuals(triples))
        weights = ops.softplus(ops.gather_rows(
            self.relation_weights.reshape(-1, 1), triples[:, 1]
        ))
        return distances * weights.reshape(-1)


@register_model("transc", "sparse")
class SpTransC(SpTransE):
    """TransC's score form through the ``hrt`` SpMM: ``||h + r − t||²₂``.

    Only the squared-distance score of the paper's Table 2 is modelled; the
    full TransC concept/instance sphere machinery is out of scope.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 backend: str = DEFAULT_BACKEND, fmt: str = "csr", rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim,
                         dissimilarity="squared_L2", backend=backend, fmt=fmt, rng=rng)


@register_model("transa", "sparse")
class SpTransA(SpTransE):
    """TransA through the ``hrt`` SpMM: ``|h + r − t|ᵀ W_r |h + r − t|``.

    ``W_r`` is parameterised as ``M_r M_rᵀ`` (always symmetric positive
    semi-definite) and initialised at the identity, so training starts from the
    squared-L2 TransE metric and learns an adaptive per-relation metric.
    """

    def __init__(self, n_entities: int, n_relations: int, embedding_dim: int,
                 backend: str = DEFAULT_BACKEND, fmt: str = "csr", rng=None) -> None:
        super().__init__(n_entities, n_relations, embedding_dim,
                         dissimilarity="L2", backend=backend, fmt=fmt, rng=rng)
        rng = new_rng(rng)
        metric = Parameter(np.empty((n_relations, embedding_dim, embedding_dim)),
                           name="metric_factors")
        init.identity_stack_(metric)
        self.metric_factors = metric

    def scores(self, triples: np.ndarray) -> Tensor:
        triples = check_triples(triples, n_entities=self.n_entities,
                                n_relations=self.n_relations)
        abs_residual = ops.absolute(self.residuals(triples))          # (B, d)
        factors = ops.gather_rows(self.metric_factors, triples[:, 1])  # (B, d, d)
        projected = ops.bmm_vec(factors, abs_residual)                 # (B, d) = M_rᵀ|res|? see below
        # |res|ᵀ (M M^T) |res| == ||M^T |res|||²; bmm_vec computes M |res| with M
        # as stored, so the factor stack holds M^T directly (identity init makes
        # the distinction moot at start).
        return ops.squared_l2(projected)
