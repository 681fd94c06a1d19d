"""Step-profile cases: Tables 5, 6 and 7.

The paper measures device memory, hardware FLOPs and cache misses of whole
frameworks; here one training step of each (dataset, model, formulation) is
read by ``repro.profiling``: the measured peak traced bytes of a warm step and
the first-principles operation count.  No clock is read, so the verdicts are
deterministic: each case reads one of those yardsticks against the claim the
paper makes for the measured quantity.  Table 7's cache-miss rate needs
hardware counters, which this repository does not read, so that case reports
the claim as not measured and never holds.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Sequence, Tuple

from benchmarks.common import (
    DATASETS,
    MODEL_PAIRS,
    Case,
    Rows,
    build_model,
    load_scaled_dataset,
    make_batch,
)
from repro.optim import Adam
from repro.profiling import count_training_flops, training_step_peak


def _dataset_means(scale: float, seed: int,
                   measure: Callable[[Callable[[], object], object], Dict[str, float]]
                   ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{model: {formulation: {metric: mean over the seven datasets}}}``.

    ``measure`` gets a zero-argument model builder, so a measurement can
    decide where the model is built (Table 5 builds it inside its traced
    region).
    """
    out = {model_name: {"sparse": {}, "dense": {}} for model_name in MODEL_PAIRS}
    for dataset in DATASETS:
        kg = load_scaled_dataset(dataset, scale, seed)
        batch = make_batch(kg, min(4096, kg.n_triples), seed)
        for model_name, means in out.items():
            for formulation in ("sparse", "dense"):
                build = functools.partial(build_model, model_name, formulation, kg, seed=seed)
                for metric, value in measure(build, batch).items():
                    means[formulation][metric] = (means[formulation].get(metric, 0.0)
                                                  + value / len(DATASETS))
    return out


# --------------------------------------------------------------------- #
def _run_table5(scale: float, seeds: Sequence[int]) -> Rows:
    def measure(build, batch):
        return {"peak": training_step_peak(build, batch)}

    rows = []
    for model_name, means in _dataset_means(scale, seeds[0], measure).items():
        sparse, dense = means["sparse"]["peak"], means["dense"]["peak"]
        rows.append({"model": model_name, "sparse_mb": sparse / 1e6,
                     "dense_mb": dense / 1e6, "dense/sparse": dense / sparse})
    return rows


def _holds_table5(rows: Rows) -> Tuple[bool, str]:
    smaller = all(r["dense/sparse"] > 1.0 for r in rows)
    largest = max(rows, key=lambda r: r["dense/sparse"])
    ratios = ", ".join(f"{r['model']} {r['dense/sparse']:.2f}x" for r in rows)
    detail = (f"dense/sparse measured step peak: {ratios} — sparse is "
              f"{'smaller for every model' if smaller else 'NOT smaller for every model'}; "
              f"the largest relative gap is {largest['model']}"
              f"{'' if largest['model'] == 'TransH' else ', not TransH'} (paper context, "
              "assumed: fp32 tensors under the CUDA caching allocator on an A100; here "
              "fp64 numpy buffers)")
    return smaller and largest["model"] == "TransH", detail


# --------------------------------------------------------------------- #
def _run_table6(scale: float, seeds: Sequence[int]) -> Rows:
    def measure(build, batch):
        model = build()
        optimizer = Adam(model.parameters(), lr=4e-4)
        return {"flops": count_training_flops(model, batch, optimizer).total}

    rows = []
    for model_name, means in _dataset_means(scale, seeds[0], measure).items():
        sparse, dense = means["sparse"]["flops"], means["dense"]["flops"]
        rows.append({"model": model_name, "sparse_gflops": sparse / 1e9,
                     "dense_gflops": dense / 1e9, "sparse/dense": sparse / dense})
    return rows


def _holds_table6(rows: Rows) -> Tuple[bool, str]:
    ratios = ", ".join(f"{r['model']} {r['sparse/dense']:.2f}x" for r in rows)
    higher = [r["model"] for r in rows if r["sparse/dense"] >= 1.0]
    detail = f"sparse/dense analytic FLOPs of one step: {ratios}"
    if higher:
        detail += (f"; not lower for {', '.join(higher)} — the paper counts hardware FLOPs of "
                   "whole frameworks, whose baselines run auxiliary kernels the SpMM path "
                   "avoids; this counter sees only the arithmetic of score, loss, gradients "
                   "and update")
    return not higher, detail


# --------------------------------------------------------------------- #
def _run_table7(scale: float, seeds: Sequence[int]) -> Rows:
    return [{"quantity": "LLC miss rate, sparse vs dense", "reading": "not measured"}]


def _holds_table7(rows: Rows) -> Tuple[bool, str]:
    return False, ("not measured: the miss rate is a hardware-counter reading (perf), and "
                   "this repository has no hardware-counter reader")


CASES = [
    Case(
        name="table5", paper_ref="Table 5", deterministic=True,
        claim="Device memory of a training step: \"sparse is smaller for every model, with "
              "TransH showing the largest relative gap\" (paper: ~11x), read as the measured "
              "peak traced bytes of one warm step.",
        columns=("model", "sparse_mb", "dense_mb", "dense/sparse"),
        run=_run_table5, holds=_holds_table5,
    ),
    Case(
        name="table6", paper_ref="Table 6", deterministic=True,
        claim="FLOPs of a training step: \"SpTransX is lower than every baseline for every "
              "model\" (paper: 220 vs 483.87 x10^10 for TransE against TorchKGE).",
        columns=("model", "sparse_gflops", "dense_gflops", "sparse/dense"),
        run=_run_table6, holds=_holds_table6,
    ),
    Case(
        name="table7", paper_ref="Table 7", deterministic=True,
        claim="Cache-miss rate: \"sparse at or below dense for the SpMM-dominated models "
              "[TransE, TransR, TorusE], with TransH the closest call\".",
        columns=("quantity", "reading"),
        run=_run_table7, holds=_holds_table7,
    ),
]
