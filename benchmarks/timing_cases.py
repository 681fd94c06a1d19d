"""Wall-clock cases: Table 1, Figures 2, 6, 7, 8, Table 9, ``appendixD_speed`` and
``rowsparse_scaling``.

Every time compared here comes out of :func:`benchmarks.common.interleave`:
one untimed warm-up per configuration, then alternating timed rounds, so a
ratio does not depend on which side ran first or on the box's speed drifting.
Their verdicts are readings of this machine on this day; the tier-1 test only
requires that each produces one.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from benchmarks.common import (
    DATASETS,
    DEFAULT_DIM,
    MODEL_PAIRS,
    Case,
    Rows,
    build_model,
    geometric_mean,
    interleave,
    interleaved_ratio,
    load_scaled_dataset,
    make_batch,
    paired_models,
    paper_training_config,
    scaled,
    semiring_pairs,
)
from repro.data import (
    BatchIterator,
    KGDataset,
    TripletBatch,
    UniformNegativeSampler,
    make_dataset_like,
)
from repro.losses import MarginRankingLoss
from repro.models import SpTransE
from repro.optim import Adam
from repro.profiling import profile_training_step, training_step_peak
from repro.registry import models_by_formulation
from repro.training import Trainer, TrainingConfig
from repro.utils.seeding import new_rng

PHASES = ("forward", "backward", "step")
#: The (dataset, model) pair whose ratio is also measured dense-first.
ORDER_CHECK = ("FB15K", "TransR")


# --------------------------------------------------------------------- #
# One measurement grid behind Table 1, Figure 7 and Figure 8
# --------------------------------------------------------------------- #
def _epoch_pair(model_name: str, kg: KGDataset, seed: int, dense_first: bool,
                rounds: int) -> Dict[str, Dict[str, float]]:
    """Interleaved epochs of a freshly built sparse/dense pair.

    Returns per formulation the median wall-clock of an epoch (``total``,
    with its IQR) and the median of each phase the trainer times inside it.
    """
    models = dict(zip(("sparse", "dense"), paired_models(model_name, kg, seed)))
    names = ("dense", "sparse") if dense_first else ("sparse", "dense")
    epochs = [functools.partial(
        Trainer(models[name], kg, paper_training_config(seed=seed)).train_epoch, 0)
        for name in names]
    timing = interleaved_ratio(*epochs, warmup=1, rounds=rounds)
    out = {}
    for name, side in zip(names, "ab"):
        out[name] = {"total": timing[f"{side}_s"], "iqr": timing[f"{side}_iqr_s"]}
        for phase in PHASES:
            out[name][phase] = float(np.median(
                [getattr(stats, f"{phase}_time") for stats in timing[f"{side}_values"]]))
    return out


@functools.lru_cache(maxsize=1)
def _training_grid(scale: float, seed: int) -> Tuple[dict, ...]:
    """Sparse vs dense epoch times for every (dataset, model) pair.

    Table 1, Figure 7 and Figure 8 are three readings of this one grid (the
    parent's three mains each re-measured it), so it is measured once per
    process and its cost lands on whichever of the three cases runs first.
    """
    rounds = scaled(4, scale, floor=2)
    grid = []
    for dataset in DATASETS:
        kg = load_scaled_dataset(dataset, scale, seed)
        for model_name in MODEL_PAIRS:
            cell = {"dataset": dataset, "model": model_name,
                    **_epoch_pair(model_name, kg, seed, False, rounds)}
            if (dataset, model_name) == ORDER_CHECK:
                cell["dense_first"] = _epoch_pair(model_name, kg, seed, True, rounds)
            grid.append(cell)
    return tuple(grid)


def _run_fig7(scale: float, seeds: Sequence[int]) -> Rows:
    rows = []
    for cell in _training_grid(scale, seeds[0]):
        flipped = cell.get("dense_first")
        rows.append({
            "dataset": cell["dataset"],
            "model": cell["model"],
            "sparse_ms": 1e3 * cell["sparse"]["total"],
            "sparse_iqr_ms": 1e3 * cell["sparse"]["iqr"],
            "dense_ms": 1e3 * cell["dense"]["total"],
            "dense_iqr_ms": 1e3 * cell["dense"]["iqr"],
            "speedup": cell["dense"]["total"] / cell["sparse"]["total"],
            "speedup_dense_first": (flipped["dense"]["total"] / flipped["sparse"]["total"]
                                    if flipped else None),
        })
    return rows


def _holds_fig7(rows: Rows) -> Tuple[bool, str]:
    geomeans = {model: geometric_mean(r["speedup"] for r in rows if r["model"] == model)
                for model in MODEL_PAIRS}
    losers = [f"{r['model']}/{r['dataset']} {r['speedup']:.2f}x at {r['sparse_ms']:.0f} vs "
              f"{r['dense_ms']:.0f} ms with IQRs {r['sparse_iqr_ms']:.0f} and "
              f"{r['dense_iqr_ms']:.0f} ms" for r in rows if r["speedup"] <= 1.0]
    widest = max(geomeans, key=geomeans.get)
    summary = ", ".join(f"{m} {g:.2f}x" for m, g in geomeans.items())
    detail = f"dense/sparse epoch time, geomean over {len(DATASETS)} datasets: {summary}"
    if losers:
        detail += (f"; sparse does not win on {len(losers)} of {len(rows)} pairs "
                   f"({', '.join(losers)})")
    if widest != "TransE":
        detail += f"; widest margin is {widest}, not TransE"
    checks = [r for r in rows if r["speedup_dense_first"] is not None]
    for r in checks:
        gap = abs(r["speedup"] / r["speedup_dense_first"] - 1.0)
        detail += (f"; order check {r['model']}/{r['dataset']}: sparse-first "
                   f"{r['speedup']:.2f}x, dense-first {r['speedup_dense_first']:.2f}x "
                   f"({100 * gap:.0f}% apart)")
    return not losers and widest == "TransE", detail


def _phase_rows(scale: float, seed: int, models: Sequence[str]) -> Rows:
    """Per (model, phase): epoch seconds averaged over the datasets."""
    grid = _training_grid(scale, seed)
    rows = []
    for model in models:
        cells = [c for c in grid if c["model"] == model]
        for phase in PHASES:
            sparse = float(np.mean([c["sparse"][phase] for c in cells]))
            dense = float(np.mean([c["dense"][phase] for c in cells]))
            rows.append({"model": model, "phase": phase, "sparse_ms": 1e3 * sparse,
                         "dense_ms": 1e3 * dense, "dense/sparse": dense / sparse})
    return rows


def _phase_verdict(rows: Rows, model: str, step_parity: float) -> Tuple[bool, str]:
    """Forward and backward faster sparse, backward the largest absolute gap."""
    by_phase = {r["phase"]: r for r in rows if r["model"] == model}
    gaps = {p: r["dense_ms"] - r["sparse_ms"] for p, r in by_phase.items()}
    ok = (by_phase["forward"]["dense/sparse"] > 1.0
          and by_phase["backward"]["dense/sparse"] > 1.0
          and by_phase["step"]["dense/sparse"] >= step_parity
          and max(gaps, key=gaps.get) == "backward")
    text = ", ".join(f"{p} {by_phase[p]['dense/sparse']:.2f}x ({gaps[p]:+.2f} ms)"
                     for p in PHASES)
    return ok, f"{model}: {text}"


def _run_table1(scale: float, seeds: Sequence[int]) -> Rows:
    return _phase_rows(scale, seeds[0], ["TransE"])


def _holds_table1(rows: Rows) -> Tuple[bool, str]:
    ok, text = _phase_verdict(rows, "TransE", step_parity=0.9)
    return ok, f"dense/sparse per phase (dense - sparse), mean over datasets — {text}"


def _run_fig8(scale: float, seeds: Sequence[int]) -> Rows:
    return _phase_rows(scale, seeds[0], list(MODEL_PAIRS))


def _holds_fig8(rows: Rows) -> Tuple[bool, str]:
    verdicts = [_phase_verdict(rows, model, step_parity=0.0) for model in MODEL_PAIRS]
    return all(ok for ok, _ in verdicts), "; ".join(text for _, text in verdicts)


# --------------------------------------------------------------------- #
# Figure 2: what the dense training loop spends its CPU time on
# --------------------------------------------------------------------- #
FIG2_MODELS = ("transe", "transh", "transr", "transd", "toruse")
FIG2_DATASETS = ("FB13", "FB15K")
#: Our counterparts of the paper's EmbeddingBackward / NormBackward / torus
#: dissimilarity: the row gather, the backward closures (the scatter-add among
#: them) with the gradient accumulation they feed, the L_p norm, and the torus
#: distance.
FIG2_FAMILY = ("gather_rows", "backward", "accumulate_grad", "lp_norm", "torus_distance")


def _run_fig2(scale: float, seeds: Sequence[int]) -> Rows:
    rows = []
    for dataset in FIG2_DATASETS:
        kg = load_scaled_dataset(dataset, scale, seeds[0])
        batch = make_batch(kg, 4096, seeds[0])
        for model_name in FIG2_MODELS:
            model = models_by_formulation("dense")[model_name](
                kg.n_entities, kg.n_relations, DEFAULT_DIM, rng=seeds[0])
            optimizer = Adam(model.parameters(), lr=4e-4)
            profile = profile_training_step(model, batch, optimizer=optimizer,
                                            steps=3, top=5)
            for rank, entry in enumerate(profile, start=1):
                rows.append({"model": model_name, "dataset": dataset, "rank": rank,
                             "function": entry.function, "share_%": 100.0 * entry.share})
    return rows


def _holds_fig2(rows: Rows) -> Tuple[bool, str]:
    failures, shares = [], []
    for dataset in FIG2_DATASETS:
        for model in FIG2_MODELS:
            cell = [r for r in rows if r["model"] == model and r["dataset"] == dataset]
            family = sum(r["share_%"] for r in cell if r["function"] in FIG2_FAMILY)
            other = sum(r["share_%"] for r in cell if r["function"] not in FIG2_FAMILY)
            shares.append(family)
            if family <= other:
                top = cell[0]
                failures.append(f"{model}/{dataset} {family:.0f}% vs {other:.0f}% "
                                f"(top: {top['function']} {top['share_%']:.0f}%)")
            if model == "toruse" and "torus_distance" not in [r["function"] for r in cell[:3]]:
                failures.append(f"toruse/{dataset}: torus_distance not in the top 3")
    detail = (f"gather/scatter, backward, norm and torus functions hold "
              f"{min(shares):.0f}-{max(shares):.0f}% of library CPU time within each cell's top 5")
    if failures:
        detail += "; they do not dominate in " + ", ".join(failures)
    return not failures, detail


# --------------------------------------------------------------------- #
# Figure 6: epoch time and memory against the batch size
# --------------------------------------------------------------------- #
FIG6_BATCHES = (256, 1024, 4096, 16384)


def _run_fig6(scale: float, seeds: Sequence[int]) -> Rows:
    seed = seeds[0]
    kg = load_scaled_dataset("FB15K", scale, seed)
    batches = sorted({min(scaled(b, scale, floor=16), kg.n_triples) for b in FIG6_BATCHES})
    rows = []
    for model_name in MODEL_PAIRS:
        trainers = [Trainer(build_model(model_name, "sparse", kg, seed=seed), kg,
                            TrainingConfig(epochs=1, batch_size=b, learning_rate=4e-4,
                                           seed=seed))
                    for b in batches]
        samples = interleave([functools.partial(t.train_epoch, 0) for t in trainers],
                             warmup=1, rounds=scaled(3, scale, floor=2))
        for batch_size, runs in zip(batches, samples):
            peak = training_step_peak(
                functools.partial(build_model, model_name, "sparse", kg, seed=seed),
                make_batch(kg, batch_size, seed))
            rows.append({"model": model_name, "batch": batch_size,
                         "epoch_ms": 1e3 * float(np.median([s for s, _ in runs])),
                         "memory_mb": peak / 1e6})
    return rows


def _holds_fig6(rows: Rows) -> Tuple[bool, str]:
    failures, parts = [], []
    for model in MODEL_PAIRS:
        series = [r for r in rows if r["model"] == model]
        times = [r["epoch_ms"] for r in series]
        memory = [r["memory_mb"] for r in series]
        parts.append(f"{model} {times[0]:.1f} -> {times[-1]:.1f} ms, "
                     f"{memory[0]:.1f} -> {memory[-1]:.1f} MB")
        if times[-1] != min(times):
            failures.append(f"{model}: largest batch is not the fastest")
        if memory != sorted(memory):
            failures.append(f"{model}: memory does not grow with the batch")
    detail = (f"batch {rows[0]['batch']} -> {rows[-1]['batch']}: " + "; ".join(parts))
    if failures:
        detail += "; " + "; ".join(failures)
    return not failures, detail


# --------------------------------------------------------------------- #
# Table 9: data-parallel scaling, modeled from measured pieces
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CommunicationModel:
    """α–β cost model of a ring all-reduce across ``W`` workers.

    Both constants are assumed, not fitted to any interconnect: a
    NVLink/IB-class 25 GB/s per-link bandwidth and a 15 µs per-message
    latency.
    """

    bandwidth_bytes_per_s: float = 25e9
    latency_s: float = 15e-6

    def allreduce_time(self, n_workers: int, nbytes: int) -> float:
        """Estimated seconds to all-reduce ``nbytes`` across ``n_workers``."""
        if n_workers <= 1:
            return 0.0
        volume = 2.0 * (n_workers - 1) / n_workers * nbytes
        return volume / self.bandwidth_bytes_per_s + 2.0 * (n_workers - 1) * self.latency_s


TABLE9_WORKERS = (1, 2, 4, 8, 16, 32, 64)
TABLE9_COMM = CommunicationModel()


def _run_table9(scale: float, seeds: Sequence[int]) -> Rows:
    """Per worker count, the modeled data-parallel step time.

    The model is built from measurements of the real pieces: a forward +
    backward on one ``B / W`` shard of a global batch, the optimizer step on
    the merged row-sparse gradient every replica applies, and the α–β ring
    all-reduce of :data:`TABLE9_COMM` charged for that gradient's *measured*
    bytes.  No worker count is run for real, so nothing checks the model.
    """
    seed = seeds[0]
    kg = make_dataset_like("COVID19", scale=min(1.0, 0.05 * scale), rng=seed)
    config = TrainingConfig(epochs=1, batch_size=min(16384, kg.n_triples),
                            learning_rate=4e-4, seed=seed, sparse_grads=True)
    rng = new_rng(seed)
    batch = next(iter(BatchIterator(kg, batch_size=config.batch_size,
                                    sampler=UniformNegativeSampler(kg.n_entities, rng=rng),
                                    shuffle=config.shuffle,
                                    regenerate_negatives=config.regenerate_negatives,
                                    rng=rng)))
    model = SpTransE(kg.n_entities, kg.n_relations, DEFAULT_DIM, rng=seed)
    model.set_sparse_grads(True)
    criterion = MarginRankingLoss(margin=config.margin)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)

    def backward_on(rows: int) -> None:
        model.zero_grad()
        model.loss(TripletBatch(positives=batch.positives[:rows],
                                negatives=batch.negatives[:rows]), criterion).backward()

    def update() -> float:
        backward_on(batch.size)
        start = time.perf_counter()
        optimizer.step()
        return time.perf_counter() - start

    shard_rows = [-(-batch.size // w) for w in TABLE9_WORKERS]
    samples = interleave([functools.partial(backward_on, rows) for rows in shard_rows]
                         + [update], warmup=1, rounds=scaled(5, scale, floor=2))
    update_s = float(np.median([seconds for _, seconds in samples.pop()]))
    backward_on(batch.size)
    grad_nbytes = sum(p.sparse_grad.nbytes for p in model.parameters())

    rows = []
    for w, n_rows, runs in zip(TABLE9_WORKERS, shard_rows, samples):
        compute_s = float(np.median([seconds for seconds, _ in runs]))
        comm_s = TABLE9_COMM.allreduce_time(w, grad_nbytes)
        rows.append({"workers": w, "shard_rows": n_rows, "compute_ms": 1e3 * compute_s,
                     "update_ms": 1e3 * update_s, "comm_ms": 1e3 * comm_s,
                     "modeled_ms": 1e3 * (compute_s + update_s + comm_s),
                     "allreduce_mb": grad_nbytes / 1e6})
    return rows


def _holds_table9(rows: Rows) -> Tuple[bool, str]:
    sweep = [r for r in rows if r["workers"] >= 4]
    totals = [r["modeled_ms"] for r in sweep]
    first, last = sweep[0], sweep[-1]
    speedup = first["modeled_ms"] / last["modeled_ms"]
    linear = last["workers"] / first["workers"]
    monotone = all(b < a for a, b in zip(totals, totals[1:]))
    comm_share = last["comm_ms"] / last["modeled_ms"]
    detail = (f"modeled step {first['modeled_ms']:.2f} ms at {first['workers']} workers -> "
              f"{last['modeled_ms']:.2f} ms at {last['workers']} ({speedup:.2f}x of a linear "
              f"{linear:.0f}x), {'monotone' if monotone else 'NOT monotone'}; all-reduce of "
              f"{last['allreduce_mb']:.2f} MB is {100 * comm_share:.0f}% of the "
              f"{last['workers']}-worker step; uncalibrated α–β model: "
              f"α = {1e6 * TABLE9_COMM.latency_s:.0f} µs and "
              f"β = {TABLE9_COMM.bandwidth_bytes_per_s / 1e9:.0f} GB/s are assumed, not fitted")
    return monotone and 1.0 < speedup < linear and comm_share < 0.5, detail


# --------------------------------------------------------------------- #
# appendixD_speed: the semiring models against their dense twins
# --------------------------------------------------------------------- #
def _train_step(model, optimizer, batch: TripletBatch) -> None:
    model.zero_grad()
    model.loss(batch).backward()
    optimizer.step()


def _run_appendix_d_speed(scale: float, seeds: Sequence[int]) -> Rows:
    seed = seeds[0]
    kg = load_scaled_dataset("FB15K237", scale, seed)
    batch = make_batch(kg, min(4096, kg.n_triples), seed)
    rows = []
    for name, pair in semiring_pairs(kg, seed).items():
        steps = [functools.partial(_train_step, model, Adam(model.parameters(), lr=4e-4), batch)
                 for model in pair]
        timing = interleaved_ratio(*steps, warmup=1, rounds=scaled(10, scale, floor=3))
        rows.append({"model": name,
                     "sparse_ms": 1e3 * timing["a_s"], "sparse_iqr_ms": 1e3 * timing["a_iqr_s"],
                     "dense_ms": 1e3 * timing["b_s"], "dense_iqr_ms": 1e3 * timing["b_iqr_s"],
                     "dense/sparse": 1.0 / timing["ratio"]})
    return rows


def _holds_appendix_d_speed(rows: Rows) -> Tuple[bool, str]:
    detail = "median training step, semiring SpMM vs dense gather (IQR): " + ", ".join(
        f"{r['model']} {r['sparse_ms']:.2f} ({r['sparse_iqr_ms']:.2f}) vs {r['dense_ms']:.2f} "
        f"({r['dense_iqr_ms']:.2f}) ms, {r['dense/sparse']:.2f}x" for r in rows)
    return all(r["sparse_ms"] <= r["dense_ms"] for r in rows), detail


# --------------------------------------------------------------------- #
# rowsparse_scaling: the repo's own PR 1 claim
# --------------------------------------------------------------------- #
ROWSPARSE_ENTITIES = (5_000, 10_000, 20_000, 50_000)


def _uniform_kg(n_entities: int, seed: int) -> KGDataset:
    """Uniform random triples: a shape-only workload for the vocabulary sweep."""
    rng = np.random.default_rng(seed)
    n_relations, n_triples = 64, 20_000
    triples = np.column_stack([
        rng.integers(0, n_entities, n_triples),
        rng.integers(0, n_relations, n_triples),
        rng.integers(0, n_entities, n_triples),
    ]).astype(np.int64)
    return KGDataset(triples, n_entities=n_entities, n_relations=n_relations,
                     name=f"uniform-N{n_entities}")


def _run_rowsparse_scaling(scale: float, seeds: Sequence[int]) -> Rows:
    seed = seeds[0]
    rows = []
    for n_entities in (scaled(n, scale, floor=200) for n in ROWSPARSE_ENTITIES):
        kg = _uniform_kg(n_entities, seed)
        steps = []
        for sparse_grads in (False, True):
            model = SpTransE(kg.n_entities, kg.n_relations, 128, rng=seed)
            trainer = Trainer(model, kg, TrainingConfig(
                epochs=1, batch_size=1024, optimizer="adam", seed=seed,
                sparse_grads=sparse_grads))
            steps.append(functools.partial(trainer.train_step, next(iter(trainer.batches))))
        dense, sparse = interleave(steps, warmup=1, rounds=scaled(5, scale, floor=3))
        row = {"n_entities": n_entities}
        for name, runs in (("dense", dense), ("sparse", sparse)):
            row[f"{name}_bwd_ms"] = 1e3 * float(np.median([s.backward_time for _, s in runs]))
            row[f"{name}_step_ms"] = 1e3 * float(np.median([s.step_time for _, s in runs]))
        row["speedup"] = ((row["dense_bwd_ms"] + row["dense_step_ms"])
                          / (row["sparse_bwd_ms"] + row["sparse_step_ms"]))
        rows.append(row)
    return rows


def _holds_rowsparse_scaling(rows: Rows) -> Tuple[bool, str]:
    first, last = rows[0], rows[-1]
    growth = {name: (last[f"{name}_bwd_ms"] + last[f"{name}_step_ms"])
              / (first[f"{name}_bwd_ms"] + first[f"{name}_step_ms"])
              for name in ("dense", "sparse")}
    n_growth = last["n_entities"] / first["n_entities"]
    detail = (f"N {first['n_entities']} -> {last['n_entities']} ({n_growth:.0f}x): backward + "
              f"step grew {growth['sparse']:.2f}x row-sparse and {growth['dense']:.2f}x dense; "
              f"row-sparse is {last['speedup']:.1f}x faster at the largest N")
    return growth["sparse"] <= 1.5 and growth["dense"] >= n_growth / 2, detail


CASES: List[Case] = [
    Case(
        name="table1", paper_ref="Table 1",
        claim="TransE training-time breakdown: \"sparse < dense in every phase, with the "
              "backward phase showing the largest gap\" — read as forward and backward "
              "faster sparse, the optimiser step at parity (>= 0.9x; the paper's own 15 s vs "
              "16 s), and backward the largest absolute gap.",
        columns=("model", "phase", "sparse_ms", "dense_ms", "dense/sparse"),
        run=_run_table1, holds=_holds_table1,
    ),
    Case(
        name="fig2", paper_ref="Figure 2",
        claim="In the non-sparse training loop \"the embedding gradient computation, norm "
              "backward, and — for TorusE — the torus dissimilarity dominate CPU time\": in "
              "every (model, dataset) cell those functions outweigh the rest of the top 5, "
              "and torus_distance is in TorusE's top 3.",
        columns=("model", "dataset", "rank", "function", "share_%"),
        run=_run_fig2, holds=_holds_fig2,
    ),
    Case(
        name="fig6", paper_ref="Figure 6",
        claim="\"Per-epoch time falls and memory grows roughly linearly as the batch size "
              "increases\": for every sparse model the largest batch is the fastest epoch and "
              "the measured peak traced bytes of one warm step are monotone in the batch.",
        columns=("model", "batch", "epoch_ms", "memory_mb"),
        run=_run_fig6, holds=_holds_fig6,
    ),
    Case(
        name="fig7", paper_ref="Figure 7",
        claim="Total training time: \"the sparse formulation wins on every (dataset, model) "
              "pair, TransE by the widest margin\" (widest = largest geometric-mean speedup).",
        columns=("dataset", "model", "sparse_ms", "sparse_iqr_ms", "dense_ms", "dense_iqr_ms",
                 "speedup", "speedup_dense_first"),
        run=_run_fig7, holds=_holds_fig7,
    ),
    Case(
        name="fig8", paper_ref="Figure 8",
        claim="\"SpTransX improves forward and backward time for every model, with the "
              "backward phase showing the largest absolute reduction.\"",
        columns=("model", "phase", "sparse_ms", "dense_ms", "dense/sparse"),
        run=_run_fig8, holds=_holds_fig8,
    ),
    Case(
        name="table9", paper_ref="Appendix F, Table 9",
        claim="Data-parallel SpTransE on the COVID-19-shaped KG, 4-64 workers: \"monotone "
              "speedup with diminishing returns as the worker count grows\", and "
              "\"communication is not the bottleneck up to 64 workers\" (< 50 % of the step).",
        columns=("workers", "shard_rows", "compute_ms", "update_ms", "comm_ms", "modeled_ms",
                 "allreduce_mb"),
        run=_run_table9, holds=_holds_table9,
    ),
    Case(
        name="appendixD_speed", paper_ref="Appendix D",
        claim="The semiring extension keeps the sparse formulation's speed: a training step "
              "(forward, backward, Adam) of the semiring-SpMM model is no slower than its dense "
              "gather twin's — sparse <= dense median step time for DistMult and ComplEx.",
        columns=("model", "sparse_ms", "sparse_iqr_ms", "dense_ms", "dense_iqr_ms",
                 "dense/sparse"),
        run=_run_appendix_d_speed, holds=_holds_appendix_d_speed,
    ),
    Case(
        name="rowsparse_scaling", repo_ref="CHANGES.md PR 1 (row-sparse gradient pipeline)",
        claim="With sparse_grads the backward + optimiser-step time is \"flat in N while the "
              "dense path grows linearly\": over a 10x vocabulary growth the row-sparse path "
              "grows <= 1.5x and the dense path >= 5x.",
        columns=("n_entities", "dense_bwd_ms", "dense_step_ms", "sparse_bwd_ms",
                 "sparse_step_ms", "speedup"),
        run=_run_rowsparse_scaling, holds=_holds_rowsparse_scaling,
    ),
]
