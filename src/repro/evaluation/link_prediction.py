"""Link-prediction evaluation (MR, MRR, Hits@k; raw and filtered).

The paper reports filtered Hits@10 (Figure 5, Section 6.2.5, Appendix E); the
evaluator here ranks both directions (replace-head and replace-tail) and
averages, the standard protocol of Bordes et al. (2013).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.data.known import KnownTriples
# ``compute_ranks`` is no longer called here, but stays importable under this
# module's name: the ``eval_rank`` benchmark's tracer wraps it by that name.
from repro.evaluation.ranks import (  # noqa: F401
    RankingProtocol,
    compute_ranks,
    hits_at_k,
    mean_rank,
    mean_reciprocal_rank,
)
from repro.models.base import KGEModel
from repro.utils.validation import check_triples


@dataclass
class LinkPredictionResult:
    """Aggregated link-prediction metrics."""

    mean_rank: float
    mrr: float
    hits: Dict[int, float]
    protocol: str = RankingProtocol.FILTERED.value
    head_ranks: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64), repr=False)
    tail_ranks: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64), repr=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record; every evaluation result dataclass carries one.

        All three evaluators (link prediction, triple classification, relation
        categories) expose the same shape — a ``task`` discriminator plus flat
        metric keys — so a ``metrics.json`` aggregating them stays uniform.
        """
        out: Dict[str, object] = {"task": "link_prediction",
                                  "protocol": self.protocol,
                                  "mean_rank": self.mean_rank, "mrr": self.mrr}
        out.update({f"hits@{k}": v for k, v in self.hits.items()})
        return out


def evaluate_link_prediction(
    model: KGEModel,
    triples: np.ndarray,
    known_triples: Optional[Iterable[Tuple[int, int, int]]] = None,
    ks: Sequence[int] = (1, 3, 10),
    protocol: RankingProtocol = RankingProtocol.FILTERED,
    batch_size: int = 64,
) -> LinkPredictionResult:
    """Evaluate link prediction on ``triples``.

    Parameters
    ----------
    model:
        Trained model; each chunk's tails and heads are ranked together by
        :meth:`~repro.models.base.KGEModel.rank_triples`, which a closed-form
        model answers in one walk of its entity table.
    triples:
        Evaluation triples ``(B, 3)``.
    known_triples:
        Full set of known positives (train+valid+test) used by the filtered
        protocol; required when ``protocol`` is FILTERED.  Pass the
        :class:`~repro.data.KnownTriples` from ``dataset.known_triples()``
        (reuse one across calls); a plain set of tuples is indexed on entry.
    ks:
        Hits@k cutoffs.
    protocol:
        RAW or FILTERED ranking.
    batch_size:
        Triples ranked per chunk; must be positive.  A closed-form model
        counts a chunk's ``2 · batch_size`` ranks tile by tile and never
        holds a ``(batch_size, n_entities)`` block; any other model scores
        one such block per direction.
    """
    batch_size = int(batch_size)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    triples = check_triples(triples, n_entities=model.n_entities,
                            n_relations=model.n_relations)
    protocol = RankingProtocol(protocol)
    known = None
    if protocol is RankingProtocol.FILTERED:
        if known_triples is None:
            raise ValueError("filtered evaluation requires known_triples")
        known = KnownTriples.coerce(known_triples)

    head_rank_chunks = []
    tail_rank_chunks = []
    for start in range(0, triples.shape[0], batch_size):
        chunk = triples[start:start + batch_size]
        heads, rels, tails = chunk[:, 0], chunk[:, 1], chunk[:, 2]

        filters = ((known.exclusions("tail", heads, rels),
                    known.exclusions("head", tails, rels))
                   if known is not None else (None, None))
        tail_chunk, head_chunk = model.rank_triples(heads, rels, tails, *filters)
        tail_rank_chunks.append(tail_chunk)
        head_rank_chunks.append(head_chunk)

    tail_ranks = (np.concatenate(tail_rank_chunks) if tail_rank_chunks
                  else np.empty(0, dtype=np.float64))
    head_ranks = (np.concatenate(head_rank_chunks) if head_rank_chunks
                  else np.empty(0, dtype=np.float64))
    all_ranks = np.concatenate([tail_ranks, head_ranks])

    return LinkPredictionResult(
        mean_rank=mean_rank(all_ranks),
        mrr=mean_reciprocal_rank(all_ranks),
        hits={int(k): hits_at_k(all_ranks, int(k)) for k in ks},
        protocol=protocol.value,
        head_ranks=head_ranks,
        tail_ranks=tail_ranks,
    )
