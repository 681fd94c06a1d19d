"""Built-in checkers; importing this package registers them all."""

from repro.analysis.checkers import (  # noqa: F401
    ann_recall,
    dtype,
    fork_taint,
    kernel_parity,
    lock_state,
    registry_checks,
    resource_lifecycle,
    suppression_unused,
    unreachable_public,
)
