"""Stochastic gradient descent with optional momentum and weight decay."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.optimizer import Optimizer, row_blocks


class SGD(Optimizer):
    """Plain SGD: ``p <- p - lr * (grad + weight_decay * p)`` with momentum.

    Row-sparse gradients take a scatter update over only the touched rows,
    which is *exactly* equivalent to the dense step (untouched rows have zero
    gradient, so dense SGD leaves them unchanged anyway).  Momentum and weight
    decay couple every row into every step, so those configurations fall back
    to the dense path.

    Parameters
    ----------
    params:
        Parameters to optimise.
    lr:
        Learning rate.
    momentum:
        Classical momentum coefficient (0 disables the velocity buffer).
    weight_decay:
        L2 penalty coefficient added to the gradient.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

    def _update(self, param: Parameter) -> None:
        self._apply(param, param.grad)
        self._count_update_flops(param, 2 + (2 if self.momentum else 0))

    def _update_sparse(self, param: Parameter, grad) -> None:
        if self.momentum or self.weight_decay:
            # Both touch every row every step; densify for exactness.
            super()._update_sparse(param, grad)
            return
        self._apply(param, grad.values, rows=grad.indices)
        self._count_sparse_update_flops(grad.values.size, 2)

    def _apply(self, param: Parameter, grad: np.ndarray, rows=None) -> None:
        state = []
        if self.momentum:
            buffers = self._param_state(param)
            if buffers.get("velocity") is None:
                buffers["velocity"] = np.zeros_like(param.data)
            state.append(buffers["velocity"])
        row_blocks(self._block, param, grad, *state, rows=rows)

    def _block(self, a, b, data, grad, *velocity) -> None:
        """One ``row_blocks`` block of the update."""
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=a)
            grad = np.add(grad, a, out=a)
        if self.momentum:
            buffer, = velocity
            buffer *= self.momentum
            buffer += grad
            grad = buffer
        data -= np.multiply(grad, self.lr, out=b)
