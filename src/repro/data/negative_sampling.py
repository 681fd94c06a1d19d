"""Negative sampling strategies.

Translational KGE training contrasts each positive triplet with a corrupted
one.  The paper pre-generates one negative per positive outside the training
loop; both samplers here support that mode (:meth:`NegativeSampler.corrupt`)
plus on-the-fly multi-negative sampling.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.data.dataset import KGDataset
from repro.data.known import KnownTriples
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


class NegativeSampler:
    """Base class: corrupt the head or tail of positive triplets.

    Parameters
    ----------
    n_entities:
        Entity vocabulary size to draw replacements from.
    rng:
        Seed or generator.
    filtered:
        When True, corrupted triplets that collide with known positives are
        re-sampled (best effort, bounded retries) so "negatives" are true
        negatives — the protocol used for filtered evaluation setups.
    known_triples:
        Known ``(h, r, t)`` positives used by the filter: the
        :class:`KnownTriples` from ``dataset.known_triples()``, or any set of
        tuples (indexed once here).
    """

    #: Upper bound on re-sampling rounds in filtered mode.
    MAX_RETRIES = 16

    def __init__(self, n_entities: int, rng=None, filtered: bool = False,
                 known_triples: Optional[Set[Tuple[int, int, int]]] = None) -> None:
        if n_entities < 2:
            raise ValueError(f"need at least 2 entities to corrupt, got {n_entities}")
        self.n_entities = int(n_entities)
        self.rng = new_rng(rng)
        self.filtered = bool(filtered)
        self.known_triples = KnownTriples.coerce(
            known_triples if known_triples is not None else ())
        if self.filtered and not self.known_triples:
            raise ValueError("filtered sampling requires known_triples")

    # ------------------------------------------------------------------ #
    def _head_corruption_probability(self, relations: np.ndarray) -> np.ndarray:
        """Probability of corrupting the head (vs the tail) per triplet."""
        return np.full(relations.shape[0], 0.5)

    def corrupt(self, triples: np.ndarray) -> np.ndarray:
        """Return one corrupted triple per positive triple (same shape)."""
        triples = check_triples(triples, n_entities=self.n_entities)
        m = triples.shape[0]
        if m == 0:
            return triples.copy()
        corrupted = triples.copy()
        corrupt_head = self.rng.random(m) < self._head_corruption_probability(triples[:, 1])
        replacements = self.rng.integers(0, self.n_entities, size=m)
        corrupted[corrupt_head, 0] = replacements[corrupt_head]
        corrupted[~corrupt_head, 2] = replacements[~corrupt_head]
        self._avoid_identity(corrupted, triples, corrupt_head)
        if self.filtered:
            self._filter_known(corrupted, corrupt_head)
        return corrupted

    # ------------------------------------------------------------------ #
    def _avoid_identity(self, corrupted: np.ndarray, originals: np.ndarray,
                        corrupt_head: np.ndarray) -> None:
        """Re-draw replacements that accidentally reproduced the original entity."""
        for _ in range(self.MAX_RETRIES):
            same = np.all(corrupted == originals, axis=1)
            if not same.any():
                return
            redraw = self.rng.integers(0, self.n_entities, size=int(same.sum()))
            rows = np.flatnonzero(same)
            heads = corrupt_head[rows]
            corrupted[rows[heads], 0] = redraw[heads]
            corrupted[rows[~heads], 2] = redraw[~heads]

    def _filter_known(self, corrupted: np.ndarray, corrupt_head: np.ndarray) -> None:
        """Re-sample corrupted triples that are actually known positives."""
        for _ in range(self.MAX_RETRIES):
            collisions = self.known_triples.contains(corrupted)
            if not collisions.any():
                return
            rows = np.flatnonzero(collisions)
            redraw = self.rng.integers(0, self.n_entities, size=rows.size)
            heads = corrupt_head[rows]
            corrupted[rows[heads], 0] = redraw[heads]
            corrupted[rows[~heads], 2] = redraw[~heads]


class UniformNegativeSampler(NegativeSampler):
    """Corrupt head or tail with equal probability (TransE's original recipe)."""


class BernoulliNegativeSampler(NegativeSampler):
    """Relation-aware corruption probabilities (Wang et al., 2014).

    For each relation the head-corruption probability is
    ``tph / (tph + hpt)`` where ``tph`` is the average number of tails per
    head and ``hpt`` the average number of heads per tail.  This reduces
    false negatives for 1-to-N / N-to-1 relations and is the sampler TransH's
    original paper (and TorchKGE) uses.

    Parameters
    ----------
    dataset:
        Training data used to estimate the per-relation statistics.
    """

    def __init__(self, dataset: KGDataset, rng=None, filtered: bool = False,
                 known_triples: Optional[Set[Tuple[int, int, int]]] = None) -> None:
        super().__init__(dataset.n_entities, rng=rng, filtered=filtered,
                         known_triples=known_triples)
        self.head_probabilities = self._estimate(dataset)

    @staticmethod
    def _estimate(dataset: KGDataset) -> np.ndarray:
        triples = dataset.split.train
        n_relations = dataset.n_relations
        probs = np.full(n_relations, 0.5)
        for r in range(n_relations):
            rel_triples = triples[triples[:, 1] == r]
            if rel_triples.shape[0] == 0:
                continue
            heads = rel_triples[:, 0]
            tails = rel_triples[:, 2]
            tails_per_head = rel_triples.shape[0] / max(len(np.unique(heads)), 1)
            heads_per_tail = rel_triples.shape[0] / max(len(np.unique(tails)), 1)
            denom = tails_per_head + heads_per_tail
            if denom > 0:
                probs[r] = tails_per_head / denom
        return probs

    def _head_corruption_probability(self, relations: np.ndarray) -> np.ndarray:
        return self.head_probabilities[relations]


#: Sampler strategy names accepted by :func:`make_negative_sampler` (and by a
#: :class:`~repro.experiment.DataSpec`'s ``negative_sampler`` field).
SAMPLER_STRATEGIES = ("uniform", "bernoulli")


def make_negative_sampler(
    strategy: str,
    dataset: KGDataset,
    rng=None,
    filtered: bool = False,
    known_triples: Optional[Set[Tuple[int, int, int]]] = None,
) -> NegativeSampler:
    """Instantiate the sampler named by ``strategy`` for ``dataset``.

    The single constructor the declarative layers (experiment specs, CLI)
    go through, so sampler wiring lives in one place.  ``"uniform"`` corrupts
    head or tail with equal probability; ``"bernoulli"`` uses the
    relation-aware probabilities of Wang et al. (2014), estimated from the
    dataset's training split.
    """
    strategy = str(strategy).lower()
    if strategy == "uniform":
        return UniformNegativeSampler(dataset.n_entities, rng=rng,
                                      filtered=filtered, known_triples=known_triples)
    if strategy == "bernoulli":
        return BernoulliNegativeSampler(dataset, rng=rng,
                                        filtered=filtered, known_triples=known_triples)
    raise ValueError(
        f"unknown negative-sampler strategy {strategy!r}; "
        f"available: {list(SAMPLER_STRATEGIES)}"
    )
