"""Runtime tape sanitizer: NaN/Inf, dtype-widening, and shape guards.

``sptransx check`` enforces the dtype and safety invariants statically; this
module enforces the *runtime* half.  With :func:`sanitize` enabled, every
tape node built through ``Tensor._make`` is audited as it is created and
again when its backward closure runs:

* **no NaN/Inf** in any forward output or any gradient — the failing op is
  named, so a NaN injected deep inside a fused kernel surfaces as
  ``margin_loss[fused]`` rather than as a garbage metric three layers up;
* **no silent dtype widening** — a floating output (or gradient) must not
  be wider than the widest floating input it was computed from, the
  runtime twin of the ``dtype-ctor``/``dtype-promotion`` static rules;
* **gradient/output shape agreement** — the upstream gradient entering a
  backward closure must match the output's shape, and each parent's
  accumulated dense gradient must match that parent's data shape.

The checks are O(output size) per op and only run while enabled, so the CI
smoke jobs turn them on wholesale (``sptransx run --sanitize``,
``TrainingConfig(sanitize=True)``) while production training pays nothing.

State is thread-local (mirroring the ``no_grad`` machinery).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["SanitizerError", "sanitize", "sanitize_enabled"]


class SanitizerError(RuntimeError):
    """An invariant violation caught by the autograd sanitizer."""


class _SanitizeMode(threading.local):
    def __init__(self) -> None:
        self.enabled = False


_MODE = _SanitizeMode()


def sanitize_enabled() -> bool:
    """True when tape sanitation is active on this thread."""
    return _MODE.enabled


class _SanitizeToggle:
    """Return value of :func:`sanitize`: usable as a context manager."""

    def __init__(self, previous: bool):
        self._previous = previous

    def __enter__(self) -> "_SanitizeToggle":
        return self

    def __exit__(self, *exc) -> None:
        _MODE.enabled = self._previous


def sanitize(enabled: bool = True) -> _SanitizeToggle:
    """Switch tape sanitation on (or off).

    Takes effect immediately for the calling thread and stays set; the
    returned object may also be used as a context manager to restore the
    previous state on exit::

        repro.autograd.sanitize(enabled=True)      # sticky
        with repro.autograd.sanitize():            # scoped
            loss.backward()
    """
    toggle = _SanitizeToggle(_MODE.enabled)
    _MODE.enabled = bool(enabled)
    return toggle


def _describe(op: str, parents: Iterable) -> str:
    names = [p.name or "?" for p in parents]
    return f"op '{op}' (inputs: {', '.join(names) if names else 'none'})"


def _widest_float(arrays: Iterable[np.ndarray]) -> Optional[np.dtype]:
    widest: Optional[np.dtype] = None
    for arr in arrays:
        if np.issubdtype(arr.dtype, np.floating):
            if widest is None or arr.dtype.itemsize > widest.itemsize:
                widest = arr.dtype
    return widest


def _assert_finite(arr: np.ndarray, what: str, context: str) -> None:
    if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise SanitizerError(
            f"sanitize: {bad} non-finite value{'s' if bad != 1 else ''} in "
            f"{what} of {context}"
        )


def check_forward(data: np.ndarray, parents: Tuple, op: str) -> None:
    """Audit a freshly computed forward output."""
    context = _describe(op, parents)
    _assert_finite(data, "forward output", context)
    if np.issubdtype(data.dtype, np.floating):
        widest = _widest_float(p.data for p in parents)
        if widest is not None and data.dtype.itemsize > widest.itemsize:
            raise SanitizerError(
                f"sanitize: silent dtype widening in {context}: inputs are "
                f"{widest} but the output is {data.dtype}"
            )


def wrap_backward(backward, parents: Tuple, op: str,
                  out_shape: Tuple[int, ...], out_dtype: np.dtype):
    """Wrap a backward closure with upstream- and parent-gradient audits."""

    def sanitized_backward(upstream: np.ndarray) -> None:
        context = _describe(op, parents)
        if upstream.shape != out_shape:
            raise SanitizerError(
                f"sanitize: upstream gradient shape {upstream.shape} does "
                f"not match output shape {out_shape} in backward of {context}"
            )
        _assert_finite(upstream, "upstream gradient", context)
        if (
            np.issubdtype(upstream.dtype, np.floating)
            and np.issubdtype(out_dtype, np.floating)
            and upstream.dtype.itemsize > out_dtype.itemsize
        ):
            raise SanitizerError(
                f"sanitize: gradient dtype {upstream.dtype} is wider than "
                f"the {out_dtype} forward output in backward of {context}"
            )
        backward(upstream)
        for parent in parents:
            if not parent.requires_grad:
                continue
            grad = parent._grad
            if grad is not None:
                if grad.shape != parent.data.shape:
                    raise SanitizerError(
                        f"sanitize: gradient shape {grad.shape} does not "
                        f"match parameter shape {parent.data.shape} after "
                        f"backward of {context}"
                    )
                _assert_finite(grad, "accumulated gradient", context)
                if (
                    np.issubdtype(grad.dtype, np.floating)
                    and np.issubdtype(parent.data.dtype, np.floating)
                    and grad.dtype.itemsize > parent.data.dtype.itemsize
                ):
                    raise SanitizerError(
                        f"sanitize: gradient dtype {grad.dtype} widens the "
                        f"{parent.data.dtype} parameter after backward of "
                        f"{context}"
                    )
            sparse = parent._sparse_grad
            if sparse is not None:
                values = getattr(sparse, "values", None)
                if isinstance(values, np.ndarray):
                    _assert_finite(values, "row-sparse gradient", context)

    return sanitized_backward
