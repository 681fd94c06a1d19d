"""Hot-path kernels outside the SpMM: cache-block sizing and the margin loss.

SpMM itself has one production kernel (``scipy`` CSR, see
:mod:`repro.sparse.backends`); what lives here is the rest of the step's
streaming arithmetic:

* :func:`block_rows` sizes the row blocks of the optimizers' in-place updates
  so every scratch buffer stays in cache;
* the margin-ranking loss evaluates the hinge and its backward mask in one pass
  over the batch instead of four (sub, add, relu, mean).  The numpy form runs
  the reference's elementwise operations in the same order and is
  bit-identical to it, which the parity suite asserts; with **numba**
  importable the reduced forward is a single ``@njit(cache=True)`` loop.

numba is an optional dependency: nothing in this module imports it at call
time when it is absent, and every consumer falls back to the numpy path.
"""

from __future__ import annotations

from typing import Tuple

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
