"""Large-batch training and measured step memory (paper Section 6.2.2 / Figure 6).

Run with::

    python examples/large_batch_memory.py

The paper's third contribution is that the sparse formulation's smaller
intermediate footprint lets memory-limited GPUs train with much larger
batches.  This example sweeps the batch size, measures the peak traced bytes
of one warm Adam step for the sparse and dense TransE formulations (model,
gradients, optimizer state and tape intermediates, as numpy allocates them),
and prints the largest batch each formulation could fit under a fixed memory
budget.
"""

import functools

from repro.baselines import DenseTransE
from repro.data import TripletBatch, UniformNegativeSampler, make_dataset_like
from repro.models import SpTransE
from repro.profiling import training_step_peak

BUDGET_GB = 0.25           # pretend device capacity
BATCH_SIZES = [512, 1024, 2048, 4096, 8192]  # at most the 9663 training triples
DIM = 256


def main() -> None:
    kg = make_dataset_like("FB15K", scale=0.02, rng=0)
    sampler = UniformNegativeSampler(kg.n_entities, rng=0)
    print(f"dataset: {kg}; embedding dim {DIM}; budget {BUDGET_GB} GB\n")

    header = f"{'batch':>7s} {'sparse (GB)':>12s} {'dense (GB)':>12s} {'dense/sparse':>13s}"
    print(header)
    print("-" * len(header))

    largest = {"sparse": 0, "dense": 0}
    for batch_size in BATCH_SIZES:
        positives = kg.split.train[:batch_size]
        batch = TripletBatch(positives=positives, negatives=sampler.corrupt(positives))
        peak_gb = {}
        for name, cls in (("sparse", SpTransE), ("dense", DenseTransE)):
            build = functools.partial(cls, kg.n_entities, kg.n_relations, DIM, rng=0)
            peak_gb[name] = training_step_peak(build, batch) / 1024 ** 3
            if peak_gb[name] <= BUDGET_GB:
                largest[name] = batch_size
        print(f"{batch_size:7d} {peak_gb['sparse']:12.3f} {peak_gb['dense']:12.3f} "
              f"{peak_gb['dense'] / peak_gb['sparse']:13.2f}x")

    print(f"\nlargest batch fitting in {BUDGET_GB} GB:")
    print(f"  sparse formulation: {largest['sparse']}")
    print(f"  dense  formulation: {largest['dense']}")
    print("\nThe sparse path keeps one (2B, d) SpMM output alive per step; the dense")
    print("path retains the three gathered operand blocks plus their partial sums,")
    print("which is what caps its usable batch size first.")


if __name__ == "__main__":
    main()
