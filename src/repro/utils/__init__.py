"""Shared utilities: seeding, triple and spec-type validation, and logging."""

from repro.utils.seeding import seed_everything, new_rng
from repro.utils.validation import check_triples
from repro.utils.logging import get_logger

__all__ = [
    "seed_everything",
    "new_rng",
    "check_triples",
    "get_logger",
]
