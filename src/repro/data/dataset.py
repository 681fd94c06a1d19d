"""The :class:`KGDataset` container and train/valid/test splitting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.known import KnownTriples
from repro.data.vocab import Vocabulary
from repro.utils.seeding import new_rng
from repro.utils.validation import check_triples


@dataclass
class TripleSplit:
    """Train / validation / test triple arrays of one knowledge graph."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self) -> None:
        self.train = check_triples(self.train, name="train")
        self.valid = check_triples(self.valid, name="valid")
        self.test = check_triples(self.test, name="test")

    @property
    def n_train(self) -> int:
        return self.train.shape[0]

    @property
    def n_valid(self) -> int:
        return self.valid.shape[0]

    @property
    def n_test(self) -> int:
        return self.test.shape[0]

    def all_triples(self) -> np.ndarray:
        """Concatenate every split (used to build the filtered-ranking set)."""
        return np.concatenate([self.train, self.valid, self.test], axis=0)


class KGDataset:
    """A knowledge graph: integer triples plus vocabulary metadata.

    Parameters
    ----------
    triples:
        ``(M, 3)`` integer array of ``(head, relation, tail)`` indices.
        When splits are not given, all triples are treated as training data.
    n_entities, n_relations:
        Vocabulary sizes.  Inferred from the triples when omitted.
    entity_vocab, relation_vocab:
        Optional label vocabularies (present when loaded from files).
    name:
        Human-readable dataset name (used in benchmark reports).
    split:
        Optional pre-computed :class:`TripleSplit`; overrides ``triples``.
    """

    def __init__(
        self,
        triples: Optional[np.ndarray] = None,
        n_entities: Optional[int] = None,
        n_relations: Optional[int] = None,
        entity_vocab: Optional[Vocabulary] = None,
        relation_vocab: Optional[Vocabulary] = None,
        name: str = "kg",
        split: Optional[TripleSplit] = None,
    ) -> None:
        if split is None:
            if triples is None:
                raise ValueError("either triples or split must be provided")
            triples = check_triples(triples)
            split = TripleSplit(
                train=triples,
                valid=np.empty((0, 3), dtype=np.int64),
                test=np.empty((0, 3), dtype=np.int64),
            )
        self.split = split
        all_triples = split.all_triples()
        inferred_entities = int(all_triples[:, [0, 2]].max()) + 1 if all_triples.size else 0
        inferred_relations = int(all_triples[:, 1].max()) + 1 if all_triples.size else 0
        self.n_entities = int(n_entities) if n_entities is not None else inferred_entities
        self.n_relations = int(n_relations) if n_relations is not None else inferred_relations
        if self.n_entities < inferred_entities:
            raise ValueError(
                f"n_entities={self.n_entities} is smaller than the largest entity index "
                f"({inferred_entities - 1})"
            )
        if self.n_relations < inferred_relations:
            raise ValueError(
                f"n_relations={self.n_relations} is smaller than the largest relation index "
                f"({inferred_relations - 1})"
            )
        if entity_vocab is not None and len(entity_vocab) != self.n_entities:
            raise ValueError("entity vocabulary size does not match n_entities")
        if relation_vocab is not None and len(relation_vocab) != self.n_relations:
            raise ValueError("relation vocabulary size does not match n_relations")
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.name = str(name)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def triples(self) -> np.ndarray:
        """Training triples (alias kept for the common single-split case)."""
        return self.split.train

    @property
    def n_triples(self) -> int:
        """Number of training triples."""
        return self.split.n_train

    def __len__(self) -> int:
        return self.n_triples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KGDataset(name={self.name!r}, entities={self.n_entities}, "
            f"relations={self.n_relations}, train={self.split.n_train}, "
            f"valid={self.split.n_valid}, test={self.split.n_test})"
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labeled_triples(
        cls,
        labeled: Iterable[Tuple[str, str, str]],
        name: str = "kg",
    ) -> "KGDataset":
        """Build a dataset (and vocabularies) from ``(head, relation, tail)`` labels."""
        entity_vocab = Vocabulary()
        relation_vocab = Vocabulary()
        rows: List[Tuple[int, int, int]] = []
        for head, relation, tail in labeled:
            rows.append(
                (entity_vocab.add(head), relation_vocab.add(relation), entity_vocab.add(tail))
            )
        triples = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        return cls(
            triples=triples,
            n_entities=len(entity_vocab),
            n_relations=len(relation_vocab),
            entity_vocab=entity_vocab.freeze(),
            relation_vocab=relation_vocab.freeze(),
            name=name,
        )

    def split_train_valid_test(
        self,
        valid_fraction: float = 0.05,
        test_fraction: float = 0.05,
        rng=None,
    ) -> "KGDataset":
        """Return a new dataset with the training triples re-split.

        The split is random over triples (the standard protocol for the
        benchmark KGs).  Fractions apply to the current *training* split.
        """
        if valid_fraction < 0 or test_fraction < 0 or valid_fraction + test_fraction >= 1:
            raise ValueError("fractions must be non-negative and sum to < 1")
        rng = new_rng(rng)
        triples = self.split.train
        order = rng.permutation(triples.shape[0])
        n_valid = int(round(valid_fraction * triples.shape[0]))
        n_test = int(round(test_fraction * triples.shape[0]))
        valid = triples[order[:n_valid]]
        test = triples[order[n_valid:n_valid + n_test]]
        train = triples[order[n_valid + n_test:]]
        return KGDataset(
            n_entities=self.n_entities,
            n_relations=self.n_relations,
            entity_vocab=self.entity_vocab,
            relation_vocab=self.relation_vocab,
            name=self.name,
            split=TripleSplit(train=train, valid=valid, test=test),
        )

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #
    def known_triples(self) -> KnownTriples:
        """Every (h, r, t) across all splits — the filtered-ranking set.

        Built on each call (the splits are mutable): hold on to the returned
        index and hand it to the evaluator, the sampler and the engine.
        """
        return KnownTriples(self.split.all_triples())

    def relation_frequencies(self) -> np.ndarray:
        """Training-split frequency of each relation (length ``n_relations``)."""
        return np.bincount(self.split.train[:, 1], minlength=self.n_relations)

    def entity_degrees(self) -> np.ndarray:
        """Training-split degree (as head or tail) of each entity."""
        heads = np.bincount(self.split.train[:, 0], minlength=self.n_entities)
        tails = np.bincount(self.split.train[:, 2], minlength=self.n_entities)
        return heads + tails

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by reports and the synthetic generator."""
        degrees = self.entity_degrees()
        rel_freq = self.relation_frequencies()
        return {
            "n_entities": float(self.n_entities),
            "n_relations": float(self.n_relations),
            "n_train": float(self.split.n_train),
            "n_valid": float(self.split.n_valid),
            "n_test": float(self.split.n_test),
            "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
            "max_degree": float(degrees.max()) if degrees.size else 0.0,
            "mean_relation_frequency": float(rel_freq.mean()) if rel_freq.size else 0.0,
        }
