"""Small helpers shared by the orchestrator and the pass workers (stdlib only)."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Callable, Dict, Sequence

#: BLAS/OpenMP pins; set before numpy is imported anywhere in the benchmark.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env: Dict[str, str]) -> Dict[str, str]:
    """Pin the BLAS/OpenMP pools to one thread in ``env`` (returned)."""
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_ms(fn: Callable[[], object], repeat: int = 9, warmup: int = 2) -> float:
    """Median wall time of ``fn()`` in ms; the result is consumed by the call."""
    for _ in range(warmup):
        fn()
    gc.collect()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)
