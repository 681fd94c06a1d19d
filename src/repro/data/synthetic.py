"""Synthetic knowledge-graph generation.

The paper's experiments run on seven public KGs; in this offline environment
we generate synthetic graphs with matching (or proportionally scaled)
entity / relation / triple counts and realistic skew:

* entity participation follows a Zipf-like distribution (a few hub entities,
  a long tail), matching the degree skew of Freebase/WordNet-derived KGs;
* relation frequencies follow a power law (a handful of dominant relations);
* no duplicate triples and no self-loop (head == tail) triples are emitted.

Both generators draw triples in chunks and keep, per chunk, the first
occurrence of each new triple in draw order.  Each triple is packed into the
int64 key ``(h·R + r)·N + t``, and one sort per chunk against the sorted keys
kept so far does what a Python ``set`` of tuples did one triple at a time, so
a (shape, seed) gives the same triples, in the same order, as that loop (the
tests keep it as the reference).  What is left of the cost is the random
draws themselves.

Because the sparse-vs-dense comparison depends only on the index structure
(how many rows are gathered, how many unique rows are touched), these graphs
exercise exactly the same code paths as the originals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.catalog import DatasetSpec, get_dataset_spec
from repro.data.dataset import KGDataset, TripleSplit
from repro.utils.seeding import new_rng


def _zipf_probabilities(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized Zipf-like weights over ``n`` items with randomized order."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


#: Packed triple keys ``(h·R + r)·N + t`` are int64, so ``N²·R`` must stay below this.
_KEY_SPACE_LIMIT = 2 ** 63

#: Float64 elements per temporary of the learnable generator's tail sampling;
#: rows are processed in blocks of at most this many ``(entity, latent)`` cells.
_TAIL_BLOCK_ELEMENTS = 1 << 20


def _check_shape(n_entities: int, n_relations: int, n_triples: int) -> None:
    """Refuse shapes with too few distinct triples or keys beyond int64."""
    capacity = n_entities * (n_entities - 1) * n_relations
    if n_triples > capacity:
        raise ValueError(
            f"cannot place {n_triples} unique triples in a graph with capacity {capacity}"
        )
    key_space = int(n_entities) ** 2 * int(n_relations)
    if key_space >= _KEY_SPACE_LIMIT:
        raise ValueError(
            f"n_entities**2 * n_relations = {key_space} does not fit the int64 "
            f"triple keys; it must be below 2**63 = {_KEY_SPACE_LIMIT}"
        )


def _triple_keys(heads: np.ndarray, rels: np.ndarray, tails: np.ndarray,
                 n_entities: int, n_relations: int) -> np.ndarray:
    """Packed keys ``(h·R + r)·N + t`` of the non-self-loop draws, in draw order.

    The packing preserves order: sorting keys sorts triples by (h, r, t).
    """
    keys = (heads * n_relations + rels) * n_entities + tails
    return keys[heads != tails]


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Position of each distinct key's first occurrence, in key order."""
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    # Rebinding drops the sorted copy before the group starts are built.
    boundaries = keys[order]
    boundaries = boundaries[1:] != boundaries[:-1]
    starts = np.flatnonzero(np.concatenate(([True], boundaries)))
    # The sort is not stable, so a key's first occurrence is its least position.
    return np.minimum.reduceat(order, starts)


def _append_first_new(rows: np.ndarray, filled: int, seen: np.ndarray,
                      keys: np.ndarray, n_entities: int, n_relations: int) -> tuple:
    """Append a chunk of drawn triple keys to ``rows[filled:]`` without repeats.

    Keeps the first occurrence, in draw order, of each key not in ``seen``
    (sorted keys of the rows so far), up to the rows left; the same triples a
    one-at-a-time ``set`` loop keeps.  Returns the new fill count and ``seen``
    with the kept keys merged in.
    """
    firsts = _first_occurrences(keys)
    if seen.size:
        unique = keys[firsts]
        at = np.minimum(np.searchsorted(seen, unique), seen.size - 1)
        firsts = firsts[seen[at] != unique]
    kept = keys[np.sort(firsts)[:rows.shape[0] - filled]]
    end = filled + kept.size
    pairs, rows[filled:end, 2] = np.divmod(kept, n_entities)
    rows[filled:end, 0], rows[filled:end, 1] = np.divmod(pairs, n_relations)
    return end, np.sort(np.concatenate((seen, kept)))


def _softmax_tails(positions: np.ndarray, targets: np.ndarray, heads: np.ndarray,
                   draws: np.ndarray, temperature: float) -> np.ndarray:
    """One tail per row from a softmax over ``−||target − z_t||² / τ``.

    Inverse-CDF sampling with ``draws`` (shape ``(rows, 1)``), one block of
    rows at a time so no temporary exceeds ``_TAIL_BLOCK_ELEMENTS`` cells;
    each row's arithmetic does not depend on the block it is in.
    """
    n_entities, latent_dim = positions.shape
    block = max(1, _TAIL_BLOCK_ELEMENTS // (n_entities * latent_dim))
    tails = np.empty(targets.shape[0], dtype=np.int64)
    for lo in range(0, targets.shape[0], block):
        hi = min(lo + block, targets.shape[0])
        sq_dists = ((targets[lo:hi, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        # A head can never be its own tail.
        sq_dists[np.arange(hi - lo, dtype=np.int64), heads[lo:hi]] = np.inf
        logits = -sq_dists / temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        tails[lo:hi] = np.minimum((draws[lo:hi] > cdf).sum(axis=1), n_entities - 1)
    return tails


def generate_synthetic_kg(
    n_entities: int,
    n_relations: int,
    n_triples: int,
    rng=None,
    entity_skew: float = 0.8,
    relation_skew: float = 1.1,
    name: str = "synthetic",
    valid_fraction: float = 0.0,
    test_fraction: float = 0.0,
) -> KGDataset:
    """Generate a random KG with skewed entity and relation usage.

    Parameters
    ----------
    n_entities, n_relations, n_triples:
        Target sizes.  The generator retries collisions, so the returned
        training split has exactly ``n_triples`` unique triples whenever the
        space allows it.  Shapes with ``n_entities² · n_relations ≥ 2⁶³``
        (beyond the int64 triple keys) raise :class:`ValueError`.
    entity_skew, relation_skew:
        Zipf exponents controlling hubbiness; 0 gives uniform sampling.
    valid_fraction, test_fraction:
        Optional held-out splits carved from the generated triples.

    Returns
    -------
    :class:`~repro.data.dataset.KGDataset`
    """
    if n_entities < 2:
        raise ValueError(f"n_entities must be >= 2, got {n_entities}")
    if n_relations < 1:
        raise ValueError(f"n_relations must be >= 1, got {n_relations}")
    if n_triples < 1:
        raise ValueError(f"n_triples must be >= 1, got {n_triples}")
    _check_shape(n_entities, n_relations, n_triples)
    rng = new_rng(rng)
    ent_probs = _zipf_probabilities(n_entities, entity_skew, rng) if entity_skew > 0 else None
    rel_probs = _zipf_probabilities(n_relations, relation_skew, rng) if relation_skew > 0 else None

    seen = np.empty(0, dtype=np.int64)
    rows = np.empty((n_triples, 3), dtype=np.int64)
    filled = 0
    # Rejection sampling: draw in chunks, keep each chunk's new triples.
    while filled < n_triples:
        chunk = max(1024, 2 * (n_triples - filled))
        heads = rng.choice(n_entities, size=chunk, p=ent_probs)
        tails = rng.choice(n_entities, size=chunk, p=ent_probs)
        rels = rng.choice(n_relations, size=chunk, p=rel_probs)
        keys = _triple_keys(heads, rels, tails, n_entities, n_relations)
        # Drop the draws before the dedup sorts: they would hold three
        # chunk-sized arrays through its peak.
        del heads, tails, rels
        filled, seen = _append_first_new(rows, filled, seen, keys, n_entities, n_relations)

    dataset = KGDataset(
        triples=rows,
        n_entities=n_entities,
        n_relations=n_relations,
        name=name,
    )
    if valid_fraction > 0 or test_fraction > 0:
        dataset = dataset.split_train_valid_test(valid_fraction, test_fraction, rng=rng)
    return dataset


def generate_learnable_kg(
    n_entities: int,
    n_relations: int,
    n_triples: int,
    latent_dim: int = 16,
    noise: float = 0.05,
    rng=None,
    name: str = "synthetic-learnable",
    valid_fraction: float = 0.0,
    test_fraction: float = 0.0,
) -> KGDataset:
    """Generate a KG whose edges are realisable by a translational embedding.

    Entities are placed at latent positions ``z_e`` and each relation is a
    latent translation ``z_r``; for a sampled head and relation the tail is
    drawn from a softmax over ``−||z_h + z_r − z_t||² / τ``, so entities close
    to the translated point are strongly preferred but a long tail of
    alternatives keeps the graph diverse.  The resulting graph has exactly the
    structure TransE-family models assume, so held-out link prediction is
    learnable — which is what the accuracy experiments (Hits@10 vs embedding
    size, sparse/dense parity) need.  Pure training-time experiments use
    :func:`generate_synthetic_kg` instead, where structure is irrelevant.

    Parameters
    ----------
    latent_dim:
        Dimensionality of the generating latent space.
    noise:
        Softmax temperature scale; larger values flatten the tail distribution
        and make the link-prediction task harder.

    Shapes are limited as in :func:`generate_synthetic_kg`.
    """
    if n_entities < 4:
        raise ValueError(f"n_entities must be >= 4, got {n_entities}")
    if n_relations < 1 or n_triples < 1:
        raise ValueError("n_relations and n_triples must be positive")
    if noise <= 0:
        raise ValueError(f"noise must be positive, got {noise}")
    _check_shape(n_entities, n_relations, n_triples)
    rng = new_rng(rng)
    positions = rng.standard_normal((n_entities, latent_dim))
    translations = rng.standard_normal((n_relations, latent_dim)) * 0.5
    # Temperature relative to the typical squared inter-entity distance, so the
    # task difficulty is insensitive to latent_dim.
    typical_sq = 2.0 * latent_dim
    temperature = noise * typical_sq

    seen = np.empty(0, dtype=np.int64)
    rows = np.empty((n_triples, 3), dtype=np.int64)
    filled = 0
    max_chunks = 500
    for _ in range(max_chunks):
        if filled >= n_triples:
            break
        chunk = max(256, n_triples - filled)
        heads = rng.integers(0, n_entities, size=chunk)
        rels = rng.integers(0, n_relations, size=chunk)
        targets = positions[heads] + translations[rels]
        draws = rng.random((chunk, 1))
        tails = _softmax_tails(positions, targets, heads, draws, temperature)
        before = filled
        keys = _triple_keys(heads, rels, tails, n_entities, n_relations)
        filled, seen = _append_first_new(rows, filled, seen, keys, n_entities, n_relations)
        # When a sharp (low-temperature) distribution saturates its capacity,
        # anneal towards a flatter one so the requested size is always reached;
        # only the over-quota remainder loses structure.
        if filled - before < max(1, chunk // 100):
            temperature *= 2.0
    if filled < n_triples:
        raise RuntimeError(
            f"could only realise {filled}/{n_triples} unique triples; "
            "increase n_entities, n_relations, or noise"
        )
    dataset = KGDataset(triples=rows, n_entities=n_entities, n_relations=n_relations,
                        name=name)
    if valid_fraction > 0 or test_fraction > 0:
        dataset = dataset.split_train_valid_test(valid_fraction, test_fraction, rng=rng)
    return dataset


def make_dataset_like(
    name: str,
    scale: float = 1.0,
    rng=None,
    valid_fraction: float = 0.0,
    test_fraction: float = 0.0,
    spec: Optional[DatasetSpec] = None,
) -> KGDataset:
    """Generate a synthetic stand-in for one of the paper's datasets.

    Parameters
    ----------
    name:
        Catalog name (``"FB15K"``, ``"WN18"``, ...); ignored when ``spec`` is
        given explicitly.
    scale:
        Proportional down-scaling (1.0 reproduces the published sizes, which
        can take a while on a laptop; benchmarks default to ~0.01-0.05).
    valid_fraction, test_fraction:
        Held-out splits for accuracy experiments.
    """
    spec = spec if spec is not None else get_dataset_spec(name)
    spec = spec.scaled(scale)
    return generate_synthetic_kg(
        n_entities=spec.n_entities,
        n_relations=spec.n_relations,
        n_triples=spec.n_training_triples,
        rng=rng,
        name=spec.name,
        valid_fraction=valid_fraction,
        test_fraction=test_fraction,
    )
