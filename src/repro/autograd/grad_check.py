"""Finite-difference gradient verification.

Used throughout the test-suite to certify that every analytic backward rule —
including the SpMM backward of Appendix G (``dL/dX = A^T dL/dC``) — matches a
central-difference estimate.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int = 0,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[wrt]``.

    Parameters
    ----------
    fn:
        Function mapping tensors to a tensor; its output is reduced with a sum
        so the Jacobian collapses to a gradient.
    inputs:
        Input tensors; only ``inputs[wrt]`` is perturbed.
    eps:
        Perturbation half-width.
    """
    target = inputs[wrt]
    base = target.data.astype(np.float64).copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    grad_flat = grad.reshape(-1)

    def evaluate() -> float:
        out = fn(*inputs)
        return float(np.asarray(out.data, dtype=np.float64).sum())

    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        target.data = flat.reshape(base.shape)
        plus = evaluate()
        flat[i] = original - eps
        target.data = flat.reshape(base.shape)
        minus = evaluate()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    target.data = base
    return grad


# Tests check every op's backward against it: the oracle of a reached path.
def gradcheck(  # repro: ignore[unreachable-public]
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-5,
    rtol: float = 1e-3,
) -> Tuple[bool, float]:
    """Compare analytic and numerical gradients for every grad-requiring input.

    Returns
    -------
    ok, max_error:
        ``ok`` is True when every gradient matches within tolerance;
        ``max_error`` is the largest absolute deviation observed.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.sum().backward()

    max_err = 0.0
    ok = True
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, wrt=i, eps=eps)
        err = np.max(np.abs(analytic - numeric)) if analytic.size else 0.0
        max_err = max(max_err, float(err))
        tol = atol + rtol * np.max(np.abs(numeric)) if numeric.size else atol
        if err > tol:
            ok = False
    return ok, max_err
