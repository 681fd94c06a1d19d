"""Profiling substrate: FLOP counting, measured step memory, cache model.

These modules stand in for the measurement tools the paper uses on its
hardware testbed:

* :mod:`repro.profiling.flops` — analytic FLOP counts per training phase
  (replaces ``perf``'s FLOP counters; Table 6).
* :mod:`repro.profiling.memory` — the measured peak traced bytes of one
  warm training step (replaces ``torch.cuda.max_memory_allocated``; Table 5,
  Figure 6).
* :mod:`repro.profiling.cache` — a cache-behaviour model built from the
  byte-traffic counters of each kernel (replaces ``perf``'s cache-miss rate;
  Table 7).
* :mod:`repro.profiling.report` — function-level CPU profile of a training
  step (Figure 2).
"""

from repro.profiling.flops import count_training_flops, FlopsBreakdown
from repro.profiling.memory import peak_traced_bytes, training_step_peak
from repro.profiling.cache import CacheModel, CacheReport, measure_cache_behaviour
from repro.profiling.report import profile_training_step, FunctionProfile

__all__ = [
    "count_training_flops",
    "FlopsBreakdown",
    "peak_traced_bytes",
    "training_step_peak",
    "CacheModel",
    "CacheReport",
    "measure_cache_behaviour",
    "profile_training_step",
    "FunctionProfile",
]
