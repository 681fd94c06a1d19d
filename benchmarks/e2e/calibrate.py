"""How fast the box ran while a pass measured: a fixed kernel timed between ops.

The reference box is a 2-vCPU guest whose speed moves in phases: the same
``train_mem`` step takes 48 to 103 ms within ten minutes, because a neighbour
on the host shares the core.  A fixed kernel run between ops slows down with
the workload, so ``time x reference / kernel median`` is what the pass would
have measured on the box in a calm phase.  One sample is ~3 ms against ops of
25 to 130 ms, and the median of a pass's samples is steady to ~2 %, unlike a
single sample.

The kernel has two halves, for the two things that move on this box.  Two
256 x 256 matrix products are core-bound (0.5 MB of operands; an untimed
product first pulls them back into cache, so that what the program's ops left
in the cache, which a later change to the program may alter, does not move
the kernel's time).  The first write to 8 MB of newly mapped memory is bound
by the first touch of new pages, which under the hypervisor drifts on its own
and which every op of the program pays for its temporaries.  The README
("Baseline and steadiness") has the ten-seed spreads as measured, scaled by
the products alone, and scaled by both halves.
"""

from __future__ import annotations

import mmap
import time
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

FRESH_BYTES = 8 << 20


def _touch_fresh_pages() -> None:
    """Map 8 MB of new memory the way numpy maps a large array (private,
    anonymous, huge pages advised), write to all of it, and unmap it."""
    region = mmap.mmap(-1, FRESH_BYTES, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    region.madvise(mmap.MADV_HUGEPAGE)
    view = np.frombuffer(region, dtype=np.float64)
    view.fill(1.0)
    del view  # the map cannot close while an array exports its buffer
    region.close()


class BoxSpeed:
    """Times the fixed kernel.  ``run.py`` scales the times measured next to
    the samples by ``spec.CALIBRATION_REFERENCE_S / sum(drain().values())``."""

    def __init__(self) -> None:
        self._square = np.random.default_rng(12345).standard_normal((256, 256))
        self.samples: List[Tuple[float, float]] = []
        self.spent_s = 0.0  # total time in sample(), to keep it out of set-up

    def sample(self, count: int = 1) -> None:
        begin = time.perf_counter()
        for _ in range(count):
            self._square @ self._square
            start = time.perf_counter()
            self._square @ self._square
            self._square @ self._square
            middle = time.perf_counter()
            _touch_fresh_pages()
            self.samples.append((middle - start, time.perf_counter() - middle))
        self.spent_s += time.perf_counter() - begin

    def drain(self) -> Dict[str, float]:
        """Median of each half over the samples since the last drain, which it
        forgets."""
        halves = {"core_s": median(s[0] for s in self.samples),
                  "fresh_pages_s": median(s[1] for s in self.samples)}
        self.samples = []
        return halves
