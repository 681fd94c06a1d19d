"""Dense tensor with tape-based reverse-mode automatic differentiation.

Design
------
Each :class:`Tensor` wraps a ``numpy.ndarray`` and, when gradients are
enabled, remembers the tensors it was computed from plus a closure that
propagates an upstream gradient to them.  :meth:`Tensor.backward` performs a
topological sort of that tape and runs the closures in reverse order — the
same define-by-run model PyTorch uses, restricted to what translational KGE
training needs.

Broadcasting is fully supported: gradients flowing into a broadcast operand
are reduced back to the operand's shape with :func:`_unbroadcast`.

The engine is deliberately small (a few dozen primitives).  Everything the
models need that is not a method here lives as a functional op in
:mod:`repro.autograd.ops`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import sanitizer as _sanitizer
from repro.autograd.function import count_flops

Number = Union[int, float, np.integer, np.floating]
TensorLike = Union["Tensor", np.ndarray, Number, Sequence]


class _GradMode(threading.local):
    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables tape construction (like ``torch.no_grad``)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting.

    The gradient of a broadcast operand is the upstream gradient summed over
    every axis that was expanded.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: TensorLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == object:
        raise TypeError(f"cannot build a Tensor from object array: {value!r}")
    return arr


class Tensor:
    """A dense array node in the autograd tape.

    Parameters
    ----------
    data:
        Array-like payload.  Integer inputs are kept as integers (useful for
        index tensors); floating-point inputs keep their dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional identifier used in error messages and profiling reports.
    """

    __slots__ = ("data", "_grad", "_sparse_grad", "requires_grad", "name",
                 "_parents", "_backward", "_op")

    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor.__radd__

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        arr = _as_array(data)
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self._grad: Optional[np.ndarray] = None
        self._sparse_grad = None  # Optional[RowSparseGrad]
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.name = name
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._op: str = "leaf"

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create a non-leaf tensor recording its provenance when grads are on."""
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        if _sanitizer.sanitize_enabled():
            # Every op funnels through _make, so this one hook audits the
            # whole tape: forward finiteness/dtype now, gradients when the
            # wrapped closure fires.
            _sanitizer.check_forward(out.data, parents, op)
            if requires:
                backward = _sanitizer.wrap_backward(
                    backward, parents, op, out.data.shape, out.data.dtype
                )
        if requires:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    @classmethod
    def zeros(cls, shape, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        """All-zeros tensor of ``shape``."""
        return cls(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @classmethod
    def ones(cls, shape, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        """All-ones tensor of ``shape``."""
        return cls(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python scalar."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self):
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def copy(self) -> "Tensor":
        """Return a leaf tensor with a copied payload."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        name = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op}{grad_flag}{name})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Gradient plumbing
    # ------------------------------------------------------------------ #
    @property
    def grad(self) -> Optional[np.ndarray]:
        """The accumulated gradient as a dense array.

        Row-sparse gradients (see :class:`~repro.sparse.rowsparse.RowSparseGrad`)
        are densified transparently on first access, so code written against the
        dense contract keeps working unchanged.  Sparse-aware consumers (the
        optimizers) should read :attr:`sparse_grad` *before* touching this
        property — the densification is one-way.
        """
        if self._grad is None and self._sparse_grad is not None:
            self._grad = self._sparse_grad.to_dense(dtype=self.data.dtype)
            self._sparse_grad = None
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            self._grad = None
            self._sparse_grad = None
        elif getattr(value, "is_row_sparse", False):
            if tuple(value.shape) != self.data.shape:
                raise ValueError(
                    f"row-sparse gradient shape {tuple(value.shape)} does not "
                    f"match tensor shape {self.data.shape}"
                )
            self._sparse_grad = value
            self._grad = None
        else:
            self._grad = np.asarray(value)
            self._sparse_grad = None

    @property
    def sparse_grad(self):
        """The accumulated gradient in row-sparse form, or ``None``.

        Returns a :class:`~repro.sparse.rowsparse.RowSparseGrad` only when
        *every* gradient contribution this backward pass was row-sparse;
        any dense contribution collapses the accumulation to dense.
        """
        return self._sparse_grad

    @property
    def has_grad(self) -> bool:
        """Whether any gradient (dense or row-sparse) has been accumulated.

        Cheaper than ``tensor.grad is not None``, which densifies a pending
        row-sparse gradient as a side effect.
        """
        return self._grad is not None or self._sparse_grad is not None

    def zero_grad(self) -> None:
        """Clear the accumulated gradient (dense and row-sparse)."""
        self._grad = None
        self._sparse_grad = None

    def accumulate_grad(self, grad, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`, allocating on first use.

        Accepts a dense ``ndarray`` or a row-sparse gradient (any object with
        ``is_row_sparse = True`` following the
        :class:`~repro.sparse.rowsparse.RowSparseGrad` contract).  Sparse
        contributions stay sparse until a dense contribution arrives, at which
        point the accumulation collapses to a dense array.

        ``owned=True`` hands the array over: the caller computed it for this
        call, holds no other use for it, and passes it to no other tensor.  A
        first contribution is then adopted as the accumulator instead of being
        copied — later contributions add into it in place.  Closures that
        forward one upstream array to several parents (``add``, ``sub``,
        ``reshape``) must leave it ``False``: the accumulator of one parent
        would alias the other's.
        """
        if getattr(grad, "is_row_sparse", False):
            if tuple(grad.shape) != self.data.shape:
                raise ValueError(
                    f"row-sparse gradient shape {tuple(grad.shape)} does not match "
                    f"tensor shape {self.data.shape}"
                )
            if self._grad is not None:
                grad.add_to_dense(self._grad)
            elif self._sparse_grad is not None:
                self._sparse_grad = self._sparse_grad.merge(grad)
            else:
                self._sparse_grad = grad
            return
        if grad.shape != self.data.shape:
            grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self._sparse_grad is not None:
            # Mixed accumulation: densify the pending sparse part first.
            self._grad = self._sparse_grad.to_dense(dtype=self.data.dtype)
            self._sparse_grad = None
        if self._grad is not None:
            self._grad += grad
        elif (owned and isinstance(grad, np.ndarray)
              and grad.dtype == self.data.dtype and grad.flags.writeable):
            self._grad = grad
        else:
            self._grad = np.array(grad, dtype=self.data.dtype, copy=True)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` for scalar tensors; it is
            required for non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only valid for scalar "
                    f"outputs, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        def build(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        build(self)

        # Seed and propagate.  ``accumulate_grad`` on intermediates stores the
        # running upstream gradient; backward closures read it from there.
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is None:
                continue
            upstream = node.grad
            if upstream is None:
                continue
            node._backward(upstream)
            if not node.is_leaf and node is not self:
                # Free intermediate gradients eagerly; leaves keep theirs.
                node.grad = None
        if not self.is_leaf:
            self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic primitives
    # ------------------------------------------------------------------ #
    def _coerce(self, other: TensorLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, dtype=self.data.dtype))

    def __add__(self, other: TensorLike) -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data + other_t.data
        count_flops("add", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t.accumulate_grad(_unbroadcast(grad, other_t.data.shape))

        return Tensor._make(out_data, (self, other_t), backward, "add")

    def __radd__(self, other: TensorLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data - other_t.data
        count_flops("sub", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t.accumulate_grad(_unbroadcast(-grad, other_t.data.shape))

        return Tensor._make(out_data, (self, other_t), backward, "sub")

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data * other_t.data
        count_flops("mul", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(
                    _unbroadcast(grad * other_t.data, self.data.shape), owned=True)
            if other_t.requires_grad:
                other_t.accumulate_grad(
                    _unbroadcast(grad * self.data, other_t.data.shape), owned=True)

        return Tensor._make(out_data, (self, other_t), backward, "mul")

    def __rmul__(self, other: TensorLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data / other_t.data
        count_flops("div", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad / other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t.accumulate_grad(
                    _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.data.shape)
                )

        return Tensor._make(out_data, (self, other_t), backward, "div")

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        count_flops("neg", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(-grad)

        return Tensor._make(out_data, (self,), backward, "neg")

    def __pow__(self, exponent: Number) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("Tensor exponents are not supported; use a Python scalar")
        out_data = self.data ** exponent
        count_flops("pow", out_data.size * 2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data @ other_t.data
        # 2*m*n*k flops for (m,k) @ (k,n)
        if self.data.ndim >= 2 and other_t.data.ndim >= 2:
            k = self.data.shape[-1]
            count_flops("matmul", 2 * out_data.size * k)
        else:
            count_flops("matmul", 2 * max(self.data.size, other_t.data.size))

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 2:
                    self.accumulate_grad(grad @ b.T)
                elif a.ndim == 2 and b.ndim == 1:
                    self.accumulate_grad(np.outer(grad, b))
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                    self.accumulate_grad(_unbroadcast(grad_a, a.shape))
            if other_t.requires_grad:
                if a.ndim == 1 and b.ndim == 2:
                    other_t.accumulate_grad(np.outer(a, grad))
                elif a.ndim == 2 and b.ndim == 1:
                    other_t.accumulate_grad(a.T @ grad)
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                    other_t.accumulate_grad(_unbroadcast(grad_b, b.shape))

        return Tensor._make(out_data, (self, other_t), backward, "matmul")

    # ------------------------------------------------------------------ #
    # Reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``axis is None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        count_flops("sum", self.data.size)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self.accumulate_grad(np.broadcast_to(g, self.data.shape).astype(self.data.dtype))

        return Tensor._make(np.asarray(out_data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            denom = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            denom = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def reshape(self, *shape) -> "Tensor":
        """Reshape without copying; gradient reshapes back."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (reverse order when no axes given)."""
        if len(axes) == 0:
            axes_tuple = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_tuple = tuple(axes[0])
        else:
            axes_tuple = tuple(axes)
        out_data = np.transpose(self.data, axes_tuple)
        inverse = tuple(np.argsort(axes_tuple))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        """Basic/advanced indexing; the backward scatters into the source shape."""
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self.accumulate_grad(full, owned=True)

        return Tensor._make(np.array(out_data, copy=True), (self,), backward, "getitem")

    # ------------------------------------------------------------------ #
    # Comparison helpers (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: TensorLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: TensorLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: TensorLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: TensorLike) -> np.ndarray:
        return self.data <= _as_array(other)
