"""Adam optimizer (the optimiser used by the paper's training scripts)."""

from __future__ import annotations

import functools
from typing import Iterable, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer, row_blocks


class Adam(Optimizer):
    """Adam with bias correction.

    Row-sparse gradients take a *lazy* update in the style of PyTorch's
    ``SparseAdam``: only the rows a batch touched have their moments decayed
    and their bias correction advanced, tracked by a per-row step counter.
    Untouched rows keep stale moments instead of decaying toward zero, so the
    trajectory differs from dense Adam by the (tiny) updates dense Adam would
    apply to zero-gradient rows — loss curves match within tolerance, not
    bit-for-bit.  Weight decay couples every row into every step and therefore
    falls back to the dense path.

    Parameters
    ----------
    params:
        Parameters to optimise.
    lr:
        Learning rate (the paper uses 4e-4 for every framework).
    betas:
        Exponential decay rates for the first and second moment estimates.
    eps:
        Denominator fuzz factor.
    weight_decay:
        Optional decoupled-style L2 penalty added to the gradient.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 4e-4,
                 betas: Tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)

    def _moments(self, param: Parameter) -> dict:
        state = self._param_state(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param.data)
            state["v"] = np.zeros_like(param.data)
        return state

    def _update(self, param: Parameter) -> None:
        state = self._moments(param)
        # The sparse path keeps "t" in sync on every step, so whenever
        # "row_t" exists "t" does too; a fresh parameter starts at 0.
        state.setdefault("t", 0)
        state["t"] += 1
        t = state["t"]
        row_t = state.get("row_t")
        if row_t is not None:
            # A dense step decays and bias-corrects every row at the global
            # step count; advance the per-row counters with it so a later
            # return to the sparse path does not undercount the decays.
            row_t.fill(t)
        corrections = (1 - self.beta1 ** t, 1 - self.beta2 ** t)
        row_blocks(functools.partial(self._apply, corrections),
                   param, param.grad, state["m"], state["v"])
        self._count_update_flops(param, 10)

    def _update_sparse(self, param: Parameter, grad) -> None:
        if self.weight_decay:
            # Decay applies to every row every step; densify for correctness.
            super()._update_sparse(param, grad)
            return
        state = self._moments(param)
        if "row_t" not in state:
            # Taking over from the dense path: every row has seen ``t`` steps.
            state["row_t"] = np.full(param.data.shape[0], int(state.get("t", 0)),
                                     dtype=np.int64)
        row_t = state["row_t"]
        rows, vals = grad.indices, grad.values
        row_t[rows] += 1
        t = row_t[rows]
        # Keep the dense step counter in sync (cheap: max over touched rows
        # only) so a later switch back to the dense path resumes with a bias
        # correction consistent with how far the moments have decayed.
        state["t"] = max(int(state.get("t", 0)), int(t.max(initial=0)))
        # Per-row bias corrections, shaped to broadcast over the value rows.
        expand = (-1,) + (1,) * (vals.ndim - 1)
        dtype = state["m"].dtype
        corrections = [(1 - beta ** t).astype(dtype, copy=False).reshape(expand)
                       for beta in (self.beta1, self.beta2)]
        row_blocks(functools.partial(self._apply, ()), param, vals, state["m"],
                   state["v"], rows=rows, per_row=corrections)
        self._count_sparse_update_flops(vals.size, 10)

    def _apply(self, corrections: Tuple[float, ...], a, b, data, grad, m, v,
               *per_row) -> None:
        """One ``row_blocks`` block of the Adam update: the two scalar bias
        corrections on the dense path, the block's own per-row ones on the
        lazy path."""
        correction1, correction2 = per_row or corrections
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=a)
            grad = np.add(grad, a, out=a)
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=b)
        v *= self.beta2
        np.multiply(grad, grad, out=b)
        v += np.multiply(b, 1 - self.beta2, out=b)
        # lr * m_hat / (sqrt(v_hat) + eps); grad (maybe in ``a``) is spent.
        np.divide(m, correction1, out=a)
        np.multiply(a, self.lr, out=a)
        np.divide(v, correction2, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        data -= np.divide(a, b, out=a)
