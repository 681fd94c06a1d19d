"""Accuracy cases: Table 8, Figures 5 and 9, Appendix D.

Random graphs carry no signal, so the Hits@10 cases train on
``generate_learnable_kg`` (a synthetic KG with translational structure), over
every seed the runner passes.  Sparse-vs-dense comparisons start both
formulations from :func:`benchmarks.common.paired_models`, so what is compared
is the formulation and not two initialisations; their verdicts involve no
clock and are deterministic.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from benchmarks.common import (
    MODEL_PAIRS,
    Case,
    Rows,
    build_model,
    load_scaled_dataset,
    make_batch,
    paired_models,
    scaled,
    semiring_pairs,
)
from repro.baselines import DenseComplEx, DenseDistMult
from repro.data import generate_learnable_kg
from repro.evaluation import evaluate_link_prediction
from repro.models import SpComplEx, SpDistMult, SpRotatE
from repro.optim import Adam
from repro.training import Trainer, TrainingConfig


def _learnable_kg(seed: int, n_relations: int, scale: float):
    return generate_learnable_kg(scaled(300, scale, floor=40), n_relations,
                                 scaled(3000, scale, floor=300), latent_dim=16, noise=0.05,
                                 rng=seed, test_fraction=0.1)


def _hits_at_10(model, kg, seed: int, epochs: int) -> float:
    """Train with the accuracy protocol, return filtered Hits@10 on the test split."""
    config = TrainingConfig(epochs=epochs, batch_size=1024, learning_rate=0.05,
                            margin=0.5, optimizer="adam", seed=seed)
    Trainer(model, kg, config).train()
    return evaluate_link_prediction(model, kg.split.test,
                                    known_triples=kg.known_triples(), ks=(10,)).hits[10]


# --------------------------------------------------------------------- #
TABLE8_MODELS = ("TransE", "TransH", "TorusE")


def _run_table8(scale: float, seeds: Sequence[int]) -> Rows:
    epochs = scaled(30, scale, floor=3)
    rows = []
    for model_name in TABLE8_MODELS:
        scores = {"sparse": [], "dense": []}
        for seed in seeds:
            kg = _learnable_kg(seed, 10, scale)
            sparse, dense = paired_models(model_name, kg, seed, dim=32)
            scores["sparse"].append(_hits_at_10(sparse, kg, seed, epochs))
            scores["dense"].append(_hits_at_10(dense, kg, seed, epochs))
        rows.append({
            "model": model_name,
            "sparse_hits@10": float(np.mean(scores["sparse"])),
            "sparse_std": float(np.std(scores["sparse"])),
            "dense_hits@10": float(np.mean(scores["dense"])),
            "dense_std": float(np.std(scores["dense"])),
            "gap": float(np.mean(scores["sparse"]) - np.mean(scores["dense"])),
        })
    return rows


def _holds_table8(rows: Rows) -> Tuple[bool, str]:
    outside = [r["model"] for r in rows
               if abs(r["gap"]) > max(r["sparse_std"], r["dense_std"])]
    detail = "; ".join(
        f"{r['model']} {r['sparse_hits@10']:.3f} sparse vs {r['dense_hits@10']:.3f} dense "
        f"(gap {r['gap']:+.3f}, seed std {max(r['sparse_std'], r['dense_std']):.3f})"
        for r in rows)
    if outside:
        detail += f"; gap outside seed noise for {', '.join(outside)}"
    return not outside, detail


# --------------------------------------------------------------------- #
FIG5_DIMS = (4, 8, 16, 32, 64)


def _run_fig5(scale: float, seeds: Sequence[int]) -> Rows:
    epochs = scaled(30, scale, floor=3)
    hits = {(model_name, dim): [] for model_name in MODEL_PAIRS for dim in FIG5_DIMS}
    for seed in seeds:
        kg = _learnable_kg(seed, 12, scale)
        for (model_name, dim), scores in hits.items():
            model = build_model(model_name, "sparse", kg, dim, seed)
            scores.append(_hits_at_10(model, kg, seed, epochs))
    return [{"model": model_name, "dim": dim,
             "hits@10": float(np.mean(scores)), "std": float(np.std(scores))}
            for (model_name, dim), scores in hits.items()]


def _holds_fig5(rows: Rows) -> Tuple[bool, str]:
    failures, parts = [], []
    for model in MODEL_PAIRS:
        series = [r["hits@10"] for r in rows if r["model"] == model]
        parts.append(f"{model} " + " ".join(f"{h:.3f}" for h in series))
        if series[-1] <= series[0]:
            failures.append(f"{model} does not rise")
        elif series[-1] - series[-2] >= series[-2] - series[0]:
            failures.append(f"{model} has not saturated")
    detail = f"Hits@10 at dim {'/'.join(str(d) for d in FIG5_DIMS)}: " + "; ".join(parts)
    if failures:
        detail += "; " + ", ".join(failures)
    return not failures, detail


# --------------------------------------------------------------------- #
def _loss_curve(model, kg, epochs: int, seed: int) -> List[float]:
    config = TrainingConfig(epochs=epochs, batch_size=4096, learning_rate=0.01,
                            margin=0.5, optimizer="adam", seed=seed)
    return Trainer(model, kg, config).train().losses


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _run_fig9(scale: float, seeds: Sequence[int]) -> Rows:
    seed = seeds[0]
    kg = load_scaled_dataset("WN18", scale, seed)
    probe = make_batch(kg, 4096, seed)
    epochs = scaled(10, scale, floor=2)
    rows = []
    for model_name in MODEL_PAIRS:
        sparse, dense = paired_models(model_name, kg, seed)
        first = {"sparse": sparse.loss(probe).item(), "dense": dense.loss(probe).item()}
        curves = {"sparse": _loss_curve(sparse, kg, epochs, seed),
                  "dense": _loss_curve(dense, kg, epochs, seed)}
        rows.append({
            "model": model_name,
            "first_step_rel_gap": _rel_gap(first["sparse"], first["dense"]),
            "sparse_final": curves["sparse"][-1],
            "dense_final": curves["dense"][-1],
            "final_rel_gap": _rel_gap(curves["sparse"][-1], curves["dense"][-1]),
            "sparse_curve": curves["sparse"],
            "dense_curve": curves["dense"],
        })
    return rows


def _holds_fig9(rows: Rows) -> Tuple[bool, str]:
    ok = all(r["first_step_rel_gap"] <= 1e-8 and r["final_rel_gap"] <= 1e-2 for r in rows)
    detail = "; ".join(
        f"{r['model']} final loss {r['sparse_final']:.4f} sparse vs {r['dense_final']:.4f} "
        f"dense (rel. gap {r['final_rel_gap']:.1e}, first step {r['first_step_rel_gap']:.1e})"
        for r in rows)
    return ok, detail


# --------------------------------------------------------------------- #
def _run_appendix_d(scale: float, seeds: Sequence[int]) -> Rows:
    seed = seeds[0]
    kg = load_scaled_dataset("FB15K237", scale, seed)
    batch = make_batch(kg, min(4096, kg.n_triples), seed)
    probe = batch.positives[:512]
    dim = 64

    # Score equivalence under shared parameters.
    gaps = {type(sparse).__name__: float(np.max(np.abs(sparse.score_triples(probe)
                                                       - dense.score_triples(probe))))
            for sparse, dense in semiring_pairs(kg, seed + 2, dim).values()}

    rows = []
    for cls in (SpDistMult, DenseDistMult, SpComplEx, DenseComplEx, SpRotatE):
        model = cls(kg.n_entities, kg.n_relations, dim, rng=seed)
        optimizer = Adam(model.parameters(), lr=4e-4)
        start = time.perf_counter()
        for _ in range(3):
            model.zero_grad()
            loss = model.loss(batch)
            loss.backward()
            optimizer.step()
        rows.append({"model": cls.__name__,
                     "max_score_gap": gaps.get(cls.__name__),
                     "step_ms": 1e3 * (time.perf_counter() - start) / 3,
                     "loss_after_3_steps": float(loss.item())})
    return rows


def _holds_appendix_d(rows: Rows) -> Tuple[bool, str]:
    semiring = [r for r in rows if r["model"].startswith("Sp")]
    gaps = [r for r in semiring if r["max_score_gap"] is not None]
    ok = (all(r["max_score_gap"] <= 1e-8 for r in gaps)
          and all(np.isfinite(r["loss_after_3_steps"]) for r in semiring))
    detail = ("semiring vs dense max score gap: "
              + ", ".join(f"{r['model']} {r['max_score_gap']:.1e}" for r in gaps)
              + "; training steps: "
              + ", ".join(f"{r['model']} {r['step_ms']:.1f} ms" for r in rows))
    return ok, detail


CASES = [
    Case(
        name="fig5", paper_ref="Figure 5",
        claim="Filtered Hits@10 \"rising with embedding size before saturating\": for every "
              "sparse model the largest dimension beats the smallest, and the last doubling "
              "adds less than all the earlier ones together.",
        columns=("model", "dim", "hits@10", "std"),
        run=_run_fig5, holds=_holds_fig5,
    ),
    Case(
        name="table8", paper_ref="Section 6.2.5 / Appendix E, Table 8", deterministic=True,
        claim="The sparse formulation does not change accuracy: filtered Hits@10 of the sparse "
              "and dense columns \"should agree within noise\" — the gap of the seed means "
              "stays within the seed standard deviation for every model.",
        columns=("model", "sparse_hits@10", "sparse_std", "dense_hits@10", "dense_std", "gap"),
        run=_run_table8, holds=_holds_table8,
    ),
    Case(
        name="fig9", paper_ref="Figure 9", deterministic=True,
        claim="Loss curves from the same initialisation on the same batches: the sparse curve "
              "\"converges to the same loss value\" — final losses within 1 % for every model "
              "(and first-step losses equal to 1e-8, or the pairing is broken).",
        columns=("model", "first_step_rel_gap", "sparse_final", "dense_final", "final_rel_gap",
                 "sparse_curve", "dense_curve"),
        run=_run_fig9, holds=_holds_fig9,
    ),
    Case(
        name="appendixD", paper_ref="Appendix D", deterministic=True,
        claim="The same incidence-matrix SpMM covers DistMult, ComplEx and RotatE once the "
              "semiring operators are swapped: semiring and dense scores agree to 1e-8 under "
              "shared parameters and all three models train end to end (finite loss).",
        columns=("model", "max_score_gap", "step_ms", "loss_after_3_steps"),
        run=_run_appendix_d, holds=_holds_appendix_d,
    ),
]
