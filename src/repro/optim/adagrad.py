"""Adagrad optimizer (used by DGL-KE's default training recipe)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer, row_blocks


class Adagrad(Optimizer):
    """Adagrad with per-coordinate accumulated squared gradients.

    Row-sparse gradients update only the touched rows of both the parameter
    and the accumulator.  This is *exactly* equivalent to the dense step: a
    zero gradient row adds zero to ``sum_sq`` and produces a zero update, so
    skipping untouched rows changes nothing but the cost.

    Parameters
    ----------
    params:
        Parameters to optimise.
    lr:
        Learning rate.
    eps:
        Denominator fuzz factor.
    initial_accumulator:
        Starting value of the squared-gradient accumulator.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2,
                 eps: float = 1e-10, initial_accumulator: float = 0.0) -> None:
        super().__init__(params, lr)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if initial_accumulator < 0:
            raise ValueError(f"initial_accumulator must be non-negative, got {initial_accumulator}")
        self.eps = float(eps)
        self.initial_accumulator = float(initial_accumulator)

    def _update(self, param: Parameter) -> None:
        self._apply(param, param.grad)
        self._count_update_flops(param, 6)

    def _update_sparse(self, param: Parameter, grad) -> None:
        self._apply(param, grad.values, rows=grad.indices)
        self._count_sparse_update_flops(grad.values.size, 6)

    def _apply(self, param: Parameter, grad: np.ndarray, rows=None) -> None:
        state = self._param_state(param)
        if "sum_sq" not in state:
            state["sum_sq"] = np.full_like(param.data, self.initial_accumulator)
        row_blocks(self._block, param, grad, state["sum_sq"], rows=rows)

    def _block(self, a, b, data, grad, sum_sq) -> None:
        """One ``row_blocks`` block of the update."""
        sum_sq += np.multiply(grad, grad, out=a)
        # lr * grad / (sqrt(sum_sq) + eps)
        np.multiply(grad, self.lr, out=a)
        np.sqrt(sum_sq, out=b)
        np.add(b, self.eps, out=b)
        data -= np.divide(a, b, out=a)
