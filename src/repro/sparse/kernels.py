"""Hot-path kernels outside the SpMM: cache-block sizing and the margin loss.

SpMM itself has one production kernel (``scipy`` CSR, see
:mod:`repro.sparse.backends`); what lives here is the rest of the step's
streaming arithmetic:

* :func:`block_rows` sizes the row blocks of the optimizers' in-place updates
  so every scratch buffer stays in cache;
* :func:`split_rows` hands contiguous shares of a row range to one worker
  thread per CPU, each pinned to its CPU: the optimizers' row walk and the
  CSR SpMM run on every core, bit-identical at any worker count;
* the margin-ranking loss evaluates the hinge and its backward mask in one pass
  over the batch instead of four (sub, add, relu, mean).  The numpy form runs
  the reference's elementwise operations in the same order and is
  bit-identical to it, which the parity suite asserts; with **numba**
  importable the reduced forward is a single ``@njit(cache=True)`` loop.

numba is an optional dependency: nothing in this module imports it at call
time when it is absent, and every consumer falls back to the numpy path.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
from typing import Callable, List, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default CI environment
    njit = None
    HAVE_NUMBA = False


#: Bytes per block of the cache-blocked numpy updates (~512 KB): sized so one
#: block and its scratch buffers sit inside a typical L2 cache.
BLOCK_BYTES = 1 << 19


def block_rows(dim: int, itemsize: int = 8) -> int:
    """Rows per cache block for a ``dim``-wide matrix (at least 64)."""
    return max(64, BLOCK_BYTES // max(1, int(dim) * int(itemsize)))


# --------------------------------------------------------------------------- #
# Row split: one pinned worker per CPU
# --------------------------------------------------------------------------- #
class _Workers:
    """One daemon thread per CPU of the process's affinity set, each pinned.

    Started on the first split that needs them.  The pool is looked up by
    pid, so a process forked afterwards starts its own (a fork copies only the
    forking thread).  Each worker owns an inbox and runs one task at a time;
    a task is dropped before its completion is posted, so nothing a task
    referenced outlives the split that handed it out.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inboxes: List[queue.SimpleQueue] = []
        self.started = False

    def start(self) -> None:
        with self.lock:
            cpus = sorted(os.sched_getaffinity(0))
            if self.started or len(cpus) < 2:
                self.started = True
                return
            for cpu in cpus:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(cpu, inbox), daemon=True,
                                 name=f"repro-rows-cpu{cpu}").start()
                self.inboxes.append(inbox)
            self.started = True


_WORKERS: dict = {}


def _serve(cpu: int, inbox: queue.SimpleQueue) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the CPU left the process's set since it was read
        pass
    while True:
        task, done = inbox.get()
        try:
            task()
            error = None
        except BaseException as exc:  # handed to the caller, which re-raises
            error = exc
        del task
        done.put(error)
        error = None


def _workers() -> _Workers:
    pid = os.getpid()
    workers = _WORKERS.get(pid)
    if workers is None:
        for stale in [other for other in _WORKERS if other != pid]:
            _WORKERS.pop(stale, None)  # a forked child's copy has no threads
        workers = _WORKERS.setdefault(pid, _Workers())
    return workers


def split_rows(n_rows: int, block: int,
               task: Callable[[int, int, int, int], None]) -> None:
    """Run ``task(start, stop, share, shares)`` over ``range(n_rows)``.

    With W CPUs in ``os.sched_getaffinity(0)`` and at least ``block`` rows per
    CPU, share ``k`` of ``W`` is the contiguous ``[n_rows·k // W,
    n_rows·(k+1) // W)``, run by the worker pinned to the k-th CPU while the
    caller waits; a worker's exception is re-raised here once every share is
    done.  Otherwise — one CPU (``taskset -c 0``), a short or empty range, a
    call from inside a worker, or another thread's split in progress — the
    same ``task`` runs inline as ``task(0, n_rows, 0, 1)``.  (A split holds
    the pool for its duration, so one started inside a worker finds it busy.)

    A task must give every row the same operations in the same order whatever
    its share, so results are bit-identical at any worker count.  The caller
    allocates all scratch (a worker that allocates its own grows the heap
    through glibc's per-thread arenas) and resolves everything that is not
    thread-safe before the split: workers never read a ``BucketParameter``'s
    ``.data`` (it faults and moves the LRU) and never call ``count_flops``
    (its counters are thread-local).
    """
    workers = _workers()
    if n_rows >= 2 * block and not workers.started:
        workers.start()
    shares = len(workers.inboxes)
    if shares < 2 or n_rows < shares * block \
            or not workers.lock.acquire(blocking=False):
        task(0, n_rows, 0, 1)
        return
    try:
        done: queue.SimpleQueue = queue.SimpleQueue()
        for share, inbox in enumerate(workers.inboxes):
            inbox.put((functools.partial(task, n_rows * share // shares,
                                         n_rows * (share + 1) // shares,
                                         share, shares), done))
        errors = [done.get() for _ in range(shares)]
    finally:
        workers.lock.release()
    for error in errors:
        if error is not None:
            raise error


# --------------------------------------------------------------------------- #
# Fused margin-ranking loss (forward + backward mask in one pass)
# --------------------------------------------------------------------------- #
if HAVE_NUMBA:  # pragma: no cover - compiled path, exercised by the numba CI job

    @njit(cache=True)
    def _numba_margin_fused(pos_scores, neg_scores, margin, mask):
        n = pos_scores.shape[0]
        total = 0.0
        for i in range(n):
            v = pos_scores[i] - neg_scores[i] + margin
            if v > 0.0:
                mask[i] = True
                total += v
            else:
                mask[i] = False
        return total


def margin_loss_forward(pos: np.ndarray, neg: np.ndarray, margin: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(relu(pos − neg + margin), mask)`` computed in one batch pass.

    The mask is the backward pass: ``d/d pos = mask``, ``d/d neg = −mask``
    (scaled by the reduction).  The op sequence mirrors the reference exactly
    (same subtract, add, compare, multiply), so the fused loss is bit-identical
    to the unfused one.
    """
    pre = pos - neg + margin
    mask = pre > 0
    return pre * mask, mask


def margin_loss_sum(pos: np.ndarray, neg: np.ndarray, margin: float
                    ) -> Tuple[float, np.ndarray]:
    """``(Σ relu(pos − neg + margin), mask)`` — the reduced forward.

    With numba the subtract, hinge, mask write, and sum run as a single
    compiled loop over the batch (no intermediate arrays at all); the numpy
    path computes the same reduction from :func:`margin_loss_forward`'s
    output, keeping bit-identity with the reference ``.sum()``.
    """
    if HAVE_NUMBA and pos.ndim == 1:  # pragma: no cover - numba CI job
        mask = np.empty(pos.shape[0], dtype=np.bool_)
        pos64 = np.ascontiguousarray(pos, dtype=np.float64)
        neg64 = np.ascontiguousarray(neg, dtype=np.float64)
        total = _numba_margin_fused(pos64, neg64, float(margin), mask)
        return float(total), mask
    raw, mask = margin_loss_forward(pos, neg, margin)
    return raw.sum(), mask


def margin_loss_flops(n: int) -> int:
    """Analytic FLOPs of one fused margin-loss evaluation over ``n`` pairs."""
    # sub + add + compare + mask-multiply + sum
    return int(5 * n)
