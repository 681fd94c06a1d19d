"""Optimizer base class."""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.autograd.function import count_flops
from repro.nn.parameter import Parameter
from repro.sparse.kernels import block_rows, split_rows


def row_blocks(body: Callable[..., None], param: Parameter, grad: np.ndarray,
               *state: np.ndarray, rows: Optional[np.ndarray] = None,
               per_row: Sequence[np.ndarray] = ()) -> None:
    """Run an update over ``param`` in cache-sized row blocks, on every CPU.

    Calls ``body(scratch_a, scratch_b, data, grad, *state, *per_row)`` per
    block: two scratch buffers of the block's shape and the parameter's dtype,
    then aligned blocks of ``param.data``, the gradient, each optimiser-state
    array and each ``per_row`` factor.  An update written as ``out=`` ufuncs
    over these blocks performs the textbook expression's elementwise
    operations in the same order — results are bit-identical — while its only
    temporaries are block-sized instead of several table- or gradient-sized
    arrays.

    ``grad`` and the ``per_row`` arrays are aligned with the walk and come as
    views.  Dense (``rows`` is ``None``): the walk is over every row, ``grad``
    has the parameter's shape, and the ``data``/``state`` blocks are writable
    views too.  Row-sparse: ``rows`` holds the gradient's sorted unique row
    indices (in range — :class:`~repro.sparse.rowsparse.RowSparseGrad` checks)
    and ``grad`` its packed values, one entry per touched row; the touched rows
    of ``param.data`` and of each ``state`` array are gathered into block-sized
    scratch and scattered back once ``body`` has run.

    The walk is split by :func:`~repro.sparse.kernels.split_rows`: each share
    walks its own contiguous rows in blocks of ``step // shares`` rows through
    its own window of the scratch allocated here, the serial walk's total.
    Every element sees the same operations whatever its block, so the result
    does not depend on the worker count.  ``body`` runs on a worker thread: it
    may touch only the arrays it is handed (``param.data`` is read here, once).
    """
    data = param.data
    if data.ndim == 0:
        data = data.reshape(1)
        grad = grad.reshape(1)
        state = tuple(a.reshape(1) for a in state)
    n_rows = data.shape[0] if rows is None else rows.size
    step = block_rows(math.prod(data.shape[1:]), data.itemsize)
    scratch_rows = min(step, n_rows)
    scratch_shape = (scratch_rows,) + data.shape[1:]
    tables = (data,) + state
    scratch = [np.empty(scratch_shape, dtype=data.dtype) for _ in range(2)]
    if rows is not None:
        scratch += [np.empty(scratch_shape, dtype=table.dtype) for table in tables]

    def walk(start: int, stop: int, share: int, shares: int) -> None:
        width = max(1, scratch_rows // shares)
        a, b, *gathered = [buffer[share * width:(share + 1) * width]
                           for buffer in scratch]
        for lo in range(start, stop, width):
            block = slice(lo, min(stop, lo + width))
            n = block.stop - block.start
            if rows is None:
                blocks = [table[block] for table in tables]
            else:
                touched = rows[block]
                # mode="clip": the default checks bounds through a copy of ``out``.
                blocks = [np.take(table, touched, axis=0, out=buffer[:n], mode="clip")
                          for table, buffer in zip(tables, gathered)]
            body(a[:n], b[:n], blocks[0], grad[block], *blocks[1:],
                 *(factor[block] for factor in per_row))
            if rows is not None:
                for table, updated in zip(tables, blocks):
                    table[touched] = updated

    split_rows(n_rows, step, walk)


class Optimizer:
    """Base class holding the parameter list and common bookkeeping.

    Parameters
    ----------
    params:
        Iterable of :class:`~repro.nn.parameter.Parameter` objects (typically
        ``model.parameters()``).
    lr:
        Learning rate; subclasses may expose more hyperparameters.
    """

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        for p in self.params:
            if not isinstance(p, Parameter):
                raise TypeError(f"expected Parameter, got {type(p)!r}")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self._step_count = 0

    @property
    def step_count(self) -> int:
        """Number of completed optimisation steps."""
        return self._step_count

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        Parameters holding a row-sparse gradient (see
        :class:`~repro.sparse.rowsparse.RowSparseGrad`) dispatch to
        :meth:`_update_sparse`, so per-step cost scales with the rows a batch
        touched; everything else takes the dense :meth:`_update` path.
        """
        for p in self.params:
            if not p.has_grad:
                continue
            sparse = p.sparse_grad
            if sparse is not None:
                self._update_sparse(p, sparse)
            else:
                self._update(p)
        self._step_count += 1

    def _update(self, param: Parameter) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _update_sparse(self, param: Parameter, grad) -> None:
        """Row-sparse update; the default densifies and reuses :meth:`_update`.

        Subclasses that can do better run their :meth:`_update` body through
        ``row_blocks(body, param, grad.values, ..., rows=grad.indices)``.  Reading
        ``param.grad`` here triggers the transparent densification, so
        unmodified third-party optimizers keep working with sparse-gradient
        models.
        """
        self._update(param)

    def _param_state(self, param: Parameter) -> Dict[str, np.ndarray]:
        """Per-parameter optimiser state (allocated on first use).

        Parameters that page their state to disk — the bucket parameters of a
        :class:`~repro.nn.partitioned.PartitionedEmbedding`, whose Adam /
        Adagrad moment slabs are evicted alongside their bucket — expose a
        ``restore_opt_state(optimizer, state)`` hook.  It is invoked exactly
        when a fresh state dict is allocated, so a bucket whose state was
        paged out resumes from its persisted buffers instead of silently
        restarting from zeros.
        """
        key = id(param)
        if key not in self.state:
            self.state[key] = {}
            restore = getattr(param, "restore_opt_state", None)
            if restore is not None:
                restore(self, self.state[key])
        return self.state[key]

    def set_lr(self, lr: float) -> None:
        """Change the learning rate (a resumed run restores its saved one)."""
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)

    def _count_update_flops(self, param: Parameter, flops_per_element: int) -> None:
        count_flops(f"optim[{type(self).__name__}]", flops_per_element * param.size)

    def _count_sparse_update_flops(self, n_elements: int, flops_per_element: int) -> None:
        """FLOP accounting for a scatter update touching ``n_elements``."""
        count_flops(f"optim[{type(self).__name__}:rowsparse]",
                    flops_per_element * n_elements)
