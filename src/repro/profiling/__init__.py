"""Profiling substrate: FLOP counting, measured step memory, function profile.

These modules stand in for the measurement tools the paper uses on its
hardware testbed:

* :mod:`repro.profiling.flops` — analytic FLOP counts per training phase
  (replaces ``perf``'s FLOP counters; Table 6).
* :mod:`repro.profiling.memory` — the measured peak traced bytes of one
  warm training step (replaces ``torch.cuda.max_memory_allocated``; Table 5,
  Figure 6).
* :mod:`repro.profiling.report` — function-level CPU profile of a training
  step (Figure 2).

Table 7's cache-miss rate has no counterpart: it needs hardware counters,
which this package does not read.
"""

from repro.profiling.flops import count_training_flops, FlopsBreakdown
from repro.profiling.memory import peak_traced_bytes, training_step_peak
from repro.profiling.report import profile_training_step, FunctionProfile

__all__ = [
    "count_training_flops",
    "FlopsBreakdown",
    "peak_traced_bytes",
    "training_step_peak",
    "profile_training_step",
    "FunctionProfile",
]
