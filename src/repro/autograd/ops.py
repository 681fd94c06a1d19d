"""Functional differentiable operators built on :class:`~repro.autograd.tensor.Tensor`.

These are the building blocks used by the embedding layers, the translational
score functions, and the losses.  Each op computes its forward value with
vectorized NumPy, registers an analytic FLOP count, and installs a backward
closure that pushes gradients to its inputs.

The two operators central to the paper are here:

* :func:`gather_rows` — the fine-grained embedding lookup whose backward is a
  scatter-add; this is the *dense baseline* path (TorchKGE-style).
* batched projections (:func:`bmm_vec`, :func:`row_dot`) and the distance
  functions shared by both the sparse and dense paths.

The SpMM operator itself lives in :mod:`repro.sparse.spmm` because it needs
the sparse-matrix containers; it produces ordinary :class:`Tensor` nodes that
interoperate with everything below.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.function import count_flops
from repro.autograd.tensor import Tensor, _unbroadcast, is_grad_enabled

ArrayLike = Union[np.ndarray, Sequence, float, int]


def _to_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


# --------------------------------------------------------------------------- #
# Elementwise ops
# --------------------------------------------------------------------------- #
def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = _to_tensor(x)
    out_data = np.exp(x.data)
    count_flops("exp", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * out_data)

    return Tensor._make(out_data, (x,), backward, "exp")


def log(x: Tensor, eps: float = 0.0) -> Tensor:
    """Elementwise natural logarithm of ``x + eps``."""
    x = _to_tensor(x)
    out_data = np.log(x.data + eps)
    count_flops("log", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad / (x.data + eps))

    return Tensor._make(out_data, (x,), backward, "log")


def sqrt(x: Tensor, eps: float = 0.0) -> Tensor:
    """Elementwise square root of ``x + eps`` (``eps`` guards the grad at 0)."""
    x = _to_tensor(x)
    out_data = np.sqrt(x.data + eps)
    count_flops("sqrt", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            safe = np.where(out_data > 0, out_data, 1.0)
            x.accumulate_grad(grad * 0.5 / safe)

    return Tensor._make(out_data, (x,), backward, "sqrt")


def absolute(x: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    x = _to_tensor(x)
    out_data = np.abs(x.data)
    count_flops("abs", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * np.sign(x.data))

    return Tensor._make(out_data, (x,), backward, "abs")


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    x = _to_tensor(x)
    mask = x.data > 0
    out_data = x.data * mask
    count_flops("relu", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * mask)

    return Tensor._make(out_data, (x,), backward, "relu")


def clamp_min(x: Tensor, minimum: float) -> Tensor:
    """Elementwise ``max(x, minimum)``."""
    x = _to_tensor(x)
    mask = x.data > minimum
    out_data = np.where(mask, x.data, minimum)
    count_flops("clamp_min", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * mask)

    return Tensor._make(out_data, (x,), backward, "clamp_min")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum with broadcasting; ties route the gradient to ``a``."""
    a, b = _to_tensor(a), _to_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)
    count_flops("maximum", out_data.size)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * (~take_a), b.data.shape))

    return Tensor._make(out_data, (a, b), backward, "maximum")


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum with broadcasting; ties route the gradient to ``a``."""
    a, b = _to_tensor(a), _to_tensor(b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)
    count_flops("minimum", out_data.size)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * (~take_a), b.data.shape))

    return Tensor._make(out_data, (a, b), backward, "minimum")


def sigmoid(x: Tensor) -> Tensor:
    """Numerically-stable logistic sigmoid."""
    x = _to_tensor(x)
    out_data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x.data, -60, 60))),
        np.exp(np.clip(x.data, -60, 60)) / (1.0 + np.exp(np.clip(x.data, -60, 60))),
    )
    count_flops("sigmoid", 4 * x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward, "sigmoid")


def softplus(x: Tensor) -> Tensor:
    """Numerically-stable ``log(1 + exp(x))``."""
    x = _to_tensor(x)
    out_data = np.logaddexp(0.0, x.data)
    count_flops("softplus", 4 * x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60, 60)))
            x.accumulate_grad(grad * sig)

    return Tensor._make(out_data, (x,), backward, "softplus")


def logsigmoid(x: Tensor) -> Tensor:
    """Numerically-stable ``log(sigmoid(x)) = -softplus(-x)``."""
    return -softplus(-_to_tensor(x))


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _to_tensor(x)
    out_data = np.tanh(x.data)
    count_flops("tanh", 4 * x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), backward, "tanh")


def sin(x: Tensor) -> Tensor:
    """Elementwise sine (used by the RotatE phase parameterisation)."""
    x = _to_tensor(x)
    out_data = np.sin(x.data)
    count_flops("sin", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * np.cos(x.data))

    return Tensor._make(out_data, (x,), backward, "sin")


def cos(x: Tensor) -> Tensor:
    """Elementwise cosine (used by the RotatE phase parameterisation)."""
    x = _to_tensor(x)
    out_data = np.cos(x.data)
    count_flops("cos", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * -np.sin(x.data))

    return Tensor._make(out_data, (x,), backward, "cos")


def frac(x: Tensor) -> Tensor:
    """Fractional part ``x - floor(x)``.

    The floor is piecewise constant, so the gradient passes straight through —
    exactly the behaviour TorusE relies on when training on the torus.
    """
    x = _to_tensor(x)
    out_data = x.data - np.floor(x.data)
    count_flops("frac", 2 * x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad)

    return Tensor._make(out_data, (x,), backward, "frac")


# --------------------------------------------------------------------------- #
# Gathers, batched products, reductions
# --------------------------------------------------------------------------- #
def gather_rows(weight: Tensor, indices: np.ndarray,
                sparse_grad: bool = False) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward.

    This is the fine-grained embedding extraction the paper identifies as the
    training bottleneck (Figure 2): the forward copies one row per index and
    the backward scatters one gradient row per index (``EmbeddingBackward``).
    Byte-traffic counters feed the cache-behaviour model.

    With ``sparse_grad=True`` (and a leaf ``weight``) the backward skips the
    full-table densification and emits a
    :class:`~repro.sparse.rowsparse.RowSparseGrad` over just the gathered
    rows, so the gradient cost scales with ``len(indices)`` instead of the
    table height.
    """
    weight = _to_tensor(weight)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise IndexError(
            f"index out of range: min={idx.min()}, max={idx.max()}, rows={weight.shape[0]}"
        )
    out_data = weight.data[idx]
    count_flops("gather", 0)

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        if sparse_grad and weight.is_leaf:
            from repro.sparse.rowsparse import RowSparseGrad

            rsg = RowSparseGrad.from_rows(idx, grad, weight.data.shape)
            count_flops("scatter_add[rowsparse]", grad.size)
            weight.accumulate_grad(rsg)
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, grad)
        count_flops("scatter_add", grad.size)
        weight.accumulate_grad(full, owned=True)

    return Tensor._make(out_data, (weight,), backward, "gather")


def bmm_vec(mats: Tensor, vecs: Tensor) -> Tensor:
    """Batched matrix-vector product: ``(B, k, d) x (B, d) -> (B, k)``.

    Used by TransR's per-relation projection ``M_r (h - t)`` and by TransD's
    dynamic mapping.
    """
    mats, vecs = _to_tensor(mats), _to_tensor(vecs)
    if mats.ndim != 3 or vecs.ndim != 2:
        raise ValueError(
            f"bmm_vec expects (B,k,d) and (B,d), got {mats.shape} and {vecs.shape}"
        )
    if mats.shape[0] != vecs.shape[0] or mats.shape[2] != vecs.shape[1]:
        raise ValueError(f"incompatible shapes {mats.shape} and {vecs.shape}")
    out_data = np.einsum("bkd,bd->bk", mats.data, vecs.data, optimize=True)
    count_flops("bmm_vec", 2 * out_data.size * mats.shape[2])

    def backward(grad: np.ndarray) -> None:
        if mats.requires_grad:
            mats.accumulate_grad(np.einsum("bk,bd->bkd", grad, vecs.data, optimize=True))
        if vecs.requires_grad:
            vecs.accumulate_grad(np.einsum("bk,bkd->bd", grad, mats.data, optimize=True))

    return Tensor._make(out_data, (mats, vecs), backward, "bmm_vec")


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product: ``(B, d) x (B, d) -> (B,)``.

    Used by TransH's hyperplane projection ``(w_r . x) w_r``.
    """
    a, b = _to_tensor(a), _to_tensor(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"row_dot expects matching (B,d) inputs, got {a.shape} and {b.shape}")
    out_data = np.einsum("bd,bd->b", a.data, b.data, optimize=True)
    count_flops("row_dot", 2 * a.size)

    def backward(grad: np.ndarray) -> None:
        g = grad[:, None]
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return Tensor._make(out_data, (a, b), backward, "row_dot")


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; the gradient splits back."""
    tensors = [_to_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concatenate requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t.accumulate_grad(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward, "concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis; the gradient unstacks."""
    tensors = [_to_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate_grad(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward, "stack")


# --------------------------------------------------------------------------- #
# Distances / norms used by the translational score functions
# --------------------------------------------------------------------------- #
def lp_norm(x: Tensor, p: int = 2, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Row-wise L1 or L2 norm along ``axis``.

    ``p=2`` uses a small ``eps`` under the square root so the gradient stays
    finite at exactly-zero rows (the same guard PyTorch's ``vector_norm``
    applies to subgradients).
    """
    x = _to_tensor(x)
    if p == 1:
        out_data = np.abs(x.data).sum(axis=axis)
        count_flops("l1_norm", 2 * x.size)

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                g = np.expand_dims(grad, axis=axis)
                x.accumulate_grad(g * np.sign(x.data), owned=True)

        return Tensor._make(out_data, (x,), backward, "l1_norm")
    if p == 2:
        sq = (x.data ** 2).sum(axis=axis)
        out_data = np.sqrt(sq + eps)
        count_flops("l2_norm", 3 * x.size)

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                g = np.expand_dims(grad / out_data, axis=axis)
                x.accumulate_grad(g * x.data, owned=True)

        return Tensor._make(out_data, (x,), backward, "l2_norm")
    raise ValueError(f"p must be 1 or 2, got {p}")


def squared_l2(x: Tensor, axis: int = -1) -> Tensor:
    """Row-wise squared L2 norm (no square root), used by TransC-style scores."""
    x = _to_tensor(x)
    out_data = (x.data ** 2).sum(axis=axis)
    count_flops("squared_l2", 2 * x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = np.expand_dims(grad, axis=axis)
            x.accumulate_grad(2.0 * g * x.data)

    return Tensor._make(out_data, (x,), backward, "squared_l2")


def torus_distance(x: Tensor, p: int = 2, axis: int = -1) -> Tensor:
    """Toroidal (wraparound) L1/L2 dissimilarity used by TorusE.

    Each component is first wrapped to the unit torus with ``frac`` and the
    per-component distance is ``min(y, 1 - y)``; components are then reduced
    with an L1 sum (``p=1``) or a squared-L2 sum (``p=2``), matching the
    ``l2_torus_dissimilarity`` kernel highlighted in the paper's Figure 2.
    """
    x = _to_tensor(x)
    y = x.data - np.floor(x.data)
    # ``min(y, 1 − y)`` is ``y`` exactly when ``y <= 0.5``; the fold mask is
    # built only when the tape will keep the backward that reads it.
    d = np.minimum(y, 1.0 - y)
    take_y = y <= 0.5 if is_grad_enabled() and x.requires_grad else None
    if p == 1:
        out_data = d.sum(axis=axis)
    elif p == 2:
        out_data = (d ** 2).sum(axis=axis)
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    count_flops("torus_distance", 5 * x.size)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = np.expand_dims(grad, axis=axis)
        # d/dy min(y, 1-y) is +1 below the fold and -1 above; frac passes
        # the gradient through unchanged.
        local = np.where(take_y, 1.0, -1.0)
        if p == 1:
            x.accumulate_grad(g * local)
        else:
            x.accumulate_grad(g * 2.0 * d * local)

    return Tensor._make(out_data, (x,), backward, "torus_distance")


def normalize_rows(x: Tensor, p: int = 2, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Differentiable row normalisation ``x / ||x||_p`` (used by TransH's normals)."""
    x = _to_tensor(x)
    norms = lp_norm(x, p=p, axis=axis, eps=eps)
    # Reshape norms for broadcasting against x.
    expand_shape = list(x.shape)
    expand_shape[axis] = 1
    return x * (norms.reshape(expand_shape) ** -1.0)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator] = None,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``rate`` is 0."""
    x = _to_tensor(x)
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out_data = x.data * mask
    count_flops("dropout", x.size)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * mask)

    return Tensor._make(out_data, (x,), backward, "dropout")
