"""Shared pieces of the paper-reproduction harness.

A :class:`Case` is one checkable statement of the paper: a name, where the
paper makes the claim, the claim in one sentence, a ``run(scale, seeds)``
function that regenerates the table or figure as rows, and a ``holds(rows)``
predicate that reads the claim off the rows.  ``benchmarks/reproduce.py`` is
the only runner; it owns the one argument parser and the one output format.

Because the paper's runs use an A100 + 64-core EPYC for hours, every case
takes a *scale* multiplier on its default workload (1.0 = the checked-in
``REPRODUCTION.json``; ``toy`` is the tier-1 smoke size).  Dataset shapes
always come from the paper's Table 3 catalog, shrunk proportionally, so the
relative workload mix across datasets is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    DenseComplEx,
    DenseDistMult,
    DenseTorusE,
    DenseTransE,
    DenseTransH,
    DenseTransR,
)
from repro.data import (
    KGDataset,
    TripletBatch,
    UniformNegativeSampler,
    make_dataset_like,
)
from repro.data.catalog import BENCHMARK_DATASETS
from repro.models import SpComplEx, SpDistMult, SpTorusE, SpTransE, SpTransH, SpTransR
from repro.training import TrainingConfig

#: Fraction of the paper's dataset sizes used at ``scale == 1.0``.
DEFAULT_FRACTION = 0.004
#: Datasets averaged over by the paper's headline tables (Table 3).
DATASETS = list(BENCHMARK_DATASETS)
#: Embedding dimension of the timing and model cases (the paper uses up to 1024).
DEFAULT_DIM = 64
#: The four models the paper implements: (sparse class, dense class).
MODEL_PAIRS: Dict[str, Tuple[type, type]] = {
    "TransE": (SpTransE, DenseTransE),
    "TransR": (SpTransR, DenseTransR),
    "TransH": (SpTransH, DenseTransH),
    "TorusE": (SpTorusE, DenseTorusE),
}

Rows = List[Dict[str, object]]


@dataclass(frozen=True)
class Case:
    """One claim of the paper (or of this repo) with its measurement and verdict rule."""

    name: str
    claim: str
    columns: Tuple[str, ...]
    run: Callable[[float, Sequence[int]], Rows]
    holds: Callable[[Rows], Tuple[bool, str]]
    paper_ref: str = ""
    repo_ref: str = ""
    #: The verdict depends on no wall-clock reading, so every run at every
    #: scale on every machine must reproduce the checked-in one.
    deterministic: bool = False


def scaled(value: float, scale: float, floor: int = 1) -> int:
    """``value * scale`` as a count, never below ``floor``."""
    return max(floor, int(round(value * scale)))


def load_scaled_dataset(name: str, scale: float = 1.0, seed: int = 0) -> KGDataset:
    """Synthetic stand-in for one catalog dataset at ``DEFAULT_FRACTION * scale``."""
    return make_dataset_like(name, scale=min(1.0, DEFAULT_FRACTION * scale), rng=seed)


def build_model(model_name: str, formulation: str, kg: KGDataset,
                dim: int = DEFAULT_DIM, seed: int = 0):
    """Instantiate the sparse or dense variant of one of the paper's models."""
    sparse_cls, dense_cls = MODEL_PAIRS[model_name]
    cls = dense_cls if formulation == "dense" else sparse_cls
    kwargs = {"relation_dim": max(2, dim // 2)} if model_name == "TransR" else {}
    return cls(kg.n_entities, kg.n_relations, dim, rng=seed, **kwargs)


def paired_models(model_name: str, kg: KGDataset, seed: int = 0, dim: int = DEFAULT_DIM):
    """``(sparse, dense)`` built from *identical* initial parameters.

    The paper's sparse-vs-dense claims are about the formulation, not the
    initialisation, so the dense model's tables are copied into the sparse
    model (the protocol of ``tests/models/test_equivalence.py``).
    """
    sparse = build_model(model_name, "sparse", kg, dim, seed)
    dense = build_model(model_name, "dense", kg, dim, seed)
    if model_name in ("TransE", "TorusE"):
        sparse.embeddings.load_pretrained(dense.entity_embeddings.weight.data,
                                          dense.relation_embeddings.weight.data)
    elif model_name == "TransH":
        sparse.entity_embeddings.weight.data[...] = dense.entity_embeddings.weight.data
        sparse.translations.weight.data[...] = dense.translations.weight.data
        sparse.normals.weight.data[...] = dense.normals.weight.data
    else:
        sparse.entity_embeddings.weight.data[...] = dense.entity_embeddings.weight.data
        sparse.relation_embeddings.weight.data[...] = dense.relation_embeddings.weight.data
        sparse.projections.data[...] = dense.projections.data
    return sparse, dense


def semiring_pairs(kg: KGDataset, seed: int = 0, dim: int = DEFAULT_DIM):
    """Appendix D's ``{name: (sparse, dense)}`` DistMult and ComplEx pairs.

    As in :func:`paired_models`, the dense model's tables are copied into the
    semiring model's stacked ones, so both start from identical parameters.
    """
    dense_dm = DenseDistMult(kg.n_entities, kg.n_relations, dim, rng=seed)
    sparse_dm = SpDistMult(kg.n_entities, kg.n_relations, dim, rng=seed)
    sparse_dm.embeddings.load_pretrained(dense_dm.entity_embeddings.weight.data,
                                         dense_dm.relation_embeddings.weight.data)
    dense_cx = DenseComplEx(kg.n_entities, kg.n_relations, dim, rng=seed)
    sparse_cx = SpComplEx(kg.n_entities, kg.n_relations, dim, rng=seed)
    sparse_cx.real.load_pretrained(dense_cx.entity_real.weight.data,
                                   dense_cx.relation_real.weight.data)
    sparse_cx.imag.load_pretrained(dense_cx.entity_imag.weight.data,
                                   dense_cx.relation_imag.weight.data)
    return {"DistMult": (sparse_dm, dense_dm), "ComplEx": (sparse_cx, dense_cx)}


def make_batch(kg: KGDataset, batch_size: int, seed: int = 0) -> TripletBatch:
    """A fixed positive/negative batch (negatives pre-generated, paper protocol)."""
    sampler = UniformNegativeSampler(kg.n_entities, rng=seed)
    positives = kg.split.train[:batch_size]
    return TripletBatch(positives=positives, negatives=sampler.corrupt(positives))


def paper_training_config(epochs: int = 2, batch_size: int = 4096,
                          seed: int = 0) -> TrainingConfig:
    """The paper's Section-5.3 configuration (lr 4e-4, margin 0.5, Adam)."""
    return TrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=4e-4,
                          margin=0.5, optimizer="adam", seed=seed)


def interleave(steps: Sequence[Callable[[], object]], warmup: int = 1,
               rounds: int = 4, clock: Callable[[], float] = time.perf_counter
               ) -> List[List[Tuple[float, object]]]:
    """Time several steps against each other so box drift and cold starts cancel.

    Each step runs ``warmup`` untimed times (the first call on a fresh shape
    costs up to 10x a steady one), then ``rounds`` timed times; the order of
    the steps reverses every round (ABAB → AB BA AB BA), so no step is always
    the one that runs first.  Returns, per step, its ``(seconds, value)``
    samples — the lesson of ``benchmarks/e2e``.  ``clock`` reads the time in
    seconds.
    """
    for step in steps:
        for _ in range(warmup):
            step()
    samples: List[List[Tuple[float, object]]] = [[] for _ in steps]
    order = list(range(len(steps)))
    for _ in range(rounds):
        for i in order:
            start = clock()
            value = steps[i]()
            samples[i].append((clock() - start, value))
        order.reverse()
    return samples


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range of a sample."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q2), float(q3 - q1)


def interleaved_ratio(step_a: Callable[[], object], step_b: Callable[[], object],
                      warmup: int = 1, rounds: int = 4,
                      clock: Callable[[], float] = time.perf_counter
                      ) -> Dict[str, object]:
    """``median(a) / median(b)`` of interleaved wall-clock, with both IQRs.

    ``a_values`` / ``b_values`` are what the steps returned in the timed
    rounds, for steps that time their own phases.
    """
    a, b = interleave([step_a, step_b], warmup, rounds, clock)
    a_s, a_iqr = median_iqr([seconds for seconds, _ in a])
    b_s, b_iqr = median_iqr([seconds for seconds, _ in b])
    return {"a_s": a_s, "a_iqr_s": a_iqr, "a_values": [value for _, value in a],
            "b_s": b_s, "b_iqr_s": b_iqr, "b_values": [value for _, value in b],
            "ratio": a_s / max(b_s, 1e-12)}


def format_table(rows: List[Dict[str, object]], columns: List[str],
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) if rows else len(c)
              for c in columns}
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def geometric_mean(values) -> float:
    """Geometric mean used for averaging speedup factors across datasets."""
    values = np.asarray(list(values), dtype=float)
    values = values[values > 0]
    return float(np.exp(np.log(values).mean())) if values.size else float("nan")
