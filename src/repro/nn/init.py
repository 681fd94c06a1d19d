"""Parameter initializers.

The paper (and TorchKGE, which it compares against) initialises entity and
relation embeddings with Xavier/Glorot uniform; the initializers below operate
in place on any tensor-like object exposing ``.data``.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Iterator, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.utils.seeding import new_rng


class _InitMode(threading.local):
    def __init__(self) -> None:
        self.skip = False


_init_mode = _InitMode()


@contextlib.contextmanager
def skip_init() -> Iterator[None]:
    """Suspend parameter initialisation inside the block.

    Every initializer below becomes a no-op, leaving parameters as the
    untouched ``np.empty`` allocations their modules created — allocated
    virtual memory whose pages are never written, so they never become
    resident.  This is how a model can be *constructed* for memory-mapped
    serving without first materialising (and filling) every dense table that
    the caller is about to replace with on-disk arrays.
    """
    previous = _init_mode.skip
    _init_mode.skip = True
    try:
        yield
    finally:
        _init_mode.skip = previous


def skipping_init() -> bool:
    """Whether a :func:`skip_init` block is active on this thread.

    Modules whose initialisation has side effects beyond filling an array —
    :class:`~repro.nn.partitioned.PartitionedEmbedding` creates its on-disk
    bucket files — consult this so construction under :func:`skip_init`
    (the attach-to-existing-storage path) touches neither memory nor disk.
    """
    return _init_mode.skip


def _fan_in_out(shape) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fan for a scalar parameter")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = int(shape[0])
    return fan_in, fan_out


def uniform_(tensor: Tensor, low: float = 0.0, high: float = 1.0,
             rng: Optional[np.random.Generator] = None) -> Tensor:
    """Fill with samples from ``U(low, high)``."""
    if _init_mode.skip:
        return tensor
    rng = new_rng(rng)
    tensor.data[...] = rng.uniform(low, high, size=tensor.shape)
    return tensor


def xavier_uniform_(tensor: Tensor, gain: float = 1.0,
                    rng: Optional[np.random.Generator] = None) -> Tensor:
    """Glorot/Xavier uniform initialisation (TorchKGE's embedding default)."""
    fan_in, fan_out = _fan_in_out(tensor.shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(tensor, -bound, bound, rng=rng)


def identity_stack_(tensor: Tensor) -> Tensor:
    """Fill a ``(R, k, d)`` stack of projection matrices with identities.

    TransR initialises every relation projection to the identity map (padded
    or truncated when ``k != d``) so training starts from the TransE geometry.
    """
    if tensor.ndim != 3:
        raise ValueError(f"expected a (R, k, d) parameter, got shape {tensor.shape}")
    if _init_mode.skip:
        return tensor
    _, k, d = tensor.shape
    eye = np.eye(k, d)
    tensor.data[...] = eye[None, :, :]
    return tensor
