"""Reproducible random-state management.

Every stochastic component in the library (initializers, negative samplers,
synthetic data generators, training loops) accepts either an integer seed or a
:class:`numpy.random.Generator`.  These helpers centralise how seeds are turned
into generators so experiments are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import random
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def seed_everything(seed: int) -> None:
    """Seed Python's ``random`` and NumPy's legacy global state.

    The library itself always threads explicit generators, but user code and
    third-party helpers may rely on global state; this makes whole-script runs
    reproducible.

    Parameters
    ----------
    seed:
        Non-negative integer seed.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    random.seed(seed)
    np.random.seed(seed % (2**32))


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator, an ``int`` yields a
    deterministic one, and an existing generator is passed through unchanged
    (so callers can share a stream).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")
