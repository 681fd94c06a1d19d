"""Partitioned entity tables: resident-set RSS and step time vs partition count.

For each ``P`` this harness trains the same SpTransE workload with the entity
table split into ``P`` LRU-paged buckets (``max_resident=2``, the bucket-pair
schedule's bound) and reports, per run:

* peak RSS (``ru_maxrss``) of a fresh subprocess — the resident-set headline
  partitioning exists for;
* mean step time and the table's fault/write-back counters;
* **measured vs α–β-modeled bucket-exchange cost**: every fault/write-back
  moves one bucket slab *and the optimiser-state slabs that page with it*
  (one accumulator for Adagrad, two moments and a step counter for Adam —
  most of the bytes) between disk and the resident set, so the paging
  traffic is modeled with the same
  :class:`~repro.training.distributed.CommunicationModel` the distributed
  trainer uses — ``latency × transfers + (slab + state bytes) / bandwidth`` —
  and printed next to the measured paging wall-clock (the slab's
  ``fault_seconds + writeback_seconds`` plus the state's
  ``state_fault_seconds + state_writeback_seconds``).  The default bandwidth
  is NVLink/IB-class; pass ``--bandwidth-gb`` ≈ your disk (or page-cache)
  throughput to calibrate.

Run directly for a sweep, or through pytest-benchmark for the quick entry
point::

    PYTHONPATH=src python -m benchmarks.bench_partitioned --quick
    PYTHONPATH=src python -m benchmarks.bench_partitioned \
        --partitions 1 2 4 8 --scale 0.05 --dim 128 --epochs 2
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

_WORKER = """
import json, resource, sys, time
sys.path.insert(0, "src")
import numpy as np
from repro.data import make_dataset_like
from repro.models import SpTransE
from repro.training import Trainer, TrainingConfig

cfg = json.loads(sys.argv[1])
kg = make_dataset_like(cfg["dataset"], scale=cfg["scale"], rng=0)
model = SpTransE(kg.n_entities, kg.n_relations, cfg["dim"], rng=7,
                 partitions=cfg["partitions"], max_resident=2)
config = TrainingConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                        optimizer="adagrad", sparse_grads=True,
                        learning_rate=0.01)
trainer = Trainer(model, kg, config)
start = time.perf_counter()
result = trainer.train()
elapsed = time.perf_counter() - start
steps = sum(1 for _ in trainer.batches) * cfg["epochs"] or 1
stats = model.embeddings.stats() if cfg["partitions"] > 1 else {}
print(json.dumps({
    "partitions": cfg["partitions"],
    "n_entities": kg.n_entities,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "train_s": elapsed,
    "step_ms": 1000.0 * elapsed / steps,
    "final_loss": result.final_loss,
    "stats": {k: float(v) for k, v in stats.items()
              if isinstance(v, (int, float))},  # "quantized" is a mode name or None
}))
"""


def _run_case(partitions: int, dataset: str, scale: float, dim: int,
              epochs: int, batch_size: int) -> Dict[str, object]:
    payload = json.dumps({"partitions": partitions, "dataset": dataset,
                          "scale": scale, "dim": dim, "epochs": epochs,
                          "batch_size": batch_size})
    out = subprocess.run([sys.executable, "-c", _WORKER, payload],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"benchmark worker failed:\n{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(partitions: Optional[List[int]] = None, dataset: str = "FB15K",
        scale: float = 0.02, dim: int = 64, epochs: int = 1,
        batch_size: int = 2048, bandwidth_gb: float = 1.0,
        latency_ms: float = 5.0) -> List[Dict[str, object]]:
    """Sweep partition counts; returns one record per run (printed as a table)."""
    from repro.training.distributed import CommunicationModel

    partitions = partitions if partitions else [1, 2, 4, 8]
    comm = CommunicationModel(bandwidth_bytes_per_s=bandwidth_gb * 1e9,
                              latency_s=latency_ms / 1e3)
    rows = []
    header = (f"{'P':>3} {'peak RSS MB':>12} {'step ms':>9} {'faults':>7} "
              f"{'writebacks':>10} {'slab GB':>8} {'state GB':>9} "
              f"{'measured s':>11} {'modeled s':>10}")
    print(header)
    print("-" * len(header))
    for p in partitions:
        record = _run_case(p, dataset, scale, dim, epochs, batch_size)
        stats = record["stats"]
        transfers = stats.get("faults", 0.0) + stats.get("writebacks", 0.0)
        slab_bytes = stats.get("bytes_loaded", 0.0) + stats.get("bytes_written", 0.0)
        state_bytes = (stats.get("state_bytes_loaded", 0.0)
                       + stats.get("state_bytes_written", 0.0))
        measured = sum(stats.get(key, 0.0) for key in (
            "fault_seconds", "writeback_seconds",
            "state_fault_seconds", "state_writeback_seconds"))
        # α–β view of the paging traffic: one latency per bucket transfer (its
        # state rides along) plus the slab + state volume over the bandwidth.
        modeled = (transfers * comm.latency_s
                   + (slab_bytes + state_bytes) / comm.bandwidth_bytes_per_s)
        record["paging"] = {"transfers": transfers, "bytes": slab_bytes + state_bytes,
                            "slab_bytes": slab_bytes, "state_bytes": state_bytes,
                            "measured_s": measured, "modeled_s": modeled}
        rows.append(record)
        print(f"{p:>3} {record['peak_rss_mb']:>12.1f} {record['step_ms']:>9.2f} "
              f"{int(stats.get('faults', 0)):>7} "
              f"{int(stats.get('writebacks', 0)):>10} "
              f"{slab_bytes / 1e9:>8.3f} {state_bytes / 1e9:>9.3f} "
              f"{measured:>11.3f} {modeled:>10.3f}")
    if len(rows) > 1 and rows[0]["partitions"] == 1:
        dense = rows[0]["peak_rss_mb"]
        best = min(r["peak_rss_mb"] for r in rows[1:])
        print(f"\npeak RSS: dense {dense:.1f} MB -> best partitioned "
              f"{best:.1f} MB ({dense / max(best, 1e-9):.2f}x)")
    return rows


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (quick scale)
# --------------------------------------------------------------------- #
def test_partitioned_step(benchmark):
    import numpy as np

    from repro.data import make_dataset_like
    from repro.models import SpTransE
    from repro.training import Trainer, TrainingConfig

    kg = make_dataset_like("FB15K", scale=0.004, rng=0)
    model = SpTransE(kg.n_entities, kg.n_relations, 16, rng=7, partitions=4)
    trainer = Trainer(model, kg, TrainingConfig(
        epochs=1, batch_size=512, sparse_grads=True, learning_rate=0.01))
    batch = next(iter(trainer.batches))
    benchmark(lambda: trainer.train_step(batch))
    model.embeddings.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--partitions", type=int, nargs="+", default=None)
    parser.add_argument("--dataset", default="FB15K")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=2048)
    parser.add_argument("--bandwidth-gb", type=float, default=1.0,
                        help="modeled paging bandwidth in GB/s (disk or page cache)")
    parser.add_argument("--latency-ms", type=float, default=5.0,
                        help="modeled per-transfer latency in milliseconds")
    parser.add_argument("--quick", action="store_true",
                        help="small sweep (P in {1, 2, 4}, tiny scale)")
    args = parser.parse_args()
    if args.quick:
        run(partitions=[1, 2, 4], scale=0.008, dim=32, epochs=1,
            batch_size=1024, bandwidth_gb=args.bandwidth_gb,
            latency_ms=args.latency_ms)
    else:
        run(partitions=args.partitions, dataset=args.dataset, scale=args.scale,
            dim=args.dim, epochs=args.epochs, batch_size=args.batch_size,
            bandwidth_gb=args.bandwidth_gb, latency_ms=args.latency_ms)


if __name__ == "__main__":
    main()
