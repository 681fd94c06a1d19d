"""Ablation: SpMM backend and incidence-format choices inside the sparse path.

Paper reference
---------------
Section 5.5: the framework lets the user plug any high-performance SpMM
(iSpLib with CSR on CPU, DGL g-SpMM with COO on GPU) and automatically builds
the minibatch incidence matrices in the right format.  The choice of kernel is
a design knob of the system rather than a headline result, so this harness is
an *ablation* over our registered backends and formats.

What this harness does
----------------------
* pytest-benchmark entries time a raw SpMM call per backend on an ``hrt``
  incidence matrix;
* ``main()`` trains SpTransE with every (backend, incidence format)
  combination on the same data and prints the total training time, so the cost
  of choosing a naive kernel (the pure-NumPy reference) over a compiled one
  (SciPy CSR) is visible — the gap that motivates the paper's reliance on
  optimized SpMM libraries.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from benchmarks.common import DEFAULT_SCALE, format_table, load_scaled_dataset, paper_training_config
from repro.models import SpTransE
from repro.sparse import available_backends, build_hrt_incidence, get_backend
from repro.training import Trainer

BACKENDS = sorted(available_backends())
FORMATS = ["csr", "coo"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_raw_spmm_kernel(benchmark, backend):
    """Time one hrt-incidence SpMM per registered backend."""
    kg = load_scaled_dataset("FB15K")
    triples = kg.split.train[: min(8192, kg.n_triples)]
    A = build_hrt_incidence(triples, kg.n_entities, kg.n_relations, fmt="csr")
    E = np.random.default_rng(0).standard_normal((kg.n_entities + kg.n_relations, 64))
    kernel = get_backend(backend)
    benchmark.group = "ablation-spmm-kernel"
    benchmark.extra_info["backend"] = backend
    out = benchmark(kernel, A, E)
    assert out.shape == (triples.shape[0], 64)


def run(scale: float = DEFAULT_SCALE, epochs: int = 2, dim: int = 64,
        batch_size: int = 4096) -> list[dict]:
    """Train SpTransE under every backend/format combination."""
    kg = load_scaled_dataset("FB15K", scale=scale)
    rows = []
    for backend in BACKENDS:
        for fmt in FORMATS:
            model = SpTransE(kg.n_entities, kg.n_relations, dim, backend=backend,
                             fmt=fmt, rng=0)
            result = Trainer(model, kg, paper_training_config(epochs, batch_size)).train()
            rows.append({
                "backend": backend,
                "format": fmt,
                "total_s": result.total_time,
                "final_loss": result.final_loss,
            })
    fastest = min(rows, key=lambda r: r["total_s"])
    for row in rows:
        row["vs_fastest"] = row["total_s"] / fastest["total_s"]
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--dim", type=int, default=64)
    args = parser.parse_args()
    rows = run(scale=args.scale, epochs=args.epochs, dim=args.dim)
    print(format_table(rows, ["backend", "format", "total_s", "final_loss", "vs_fastest"],
                       title="Ablation: SpMM backend and incidence format for SpTransE"))
    losses = {round(r["final_loss"], 6) for r in rows}
    print(f"\nDistinct final losses across configurations: {len(losses)} "
          "(all configurations compute the same math; only speed differs).")


if __name__ == "__main__":
    main()
