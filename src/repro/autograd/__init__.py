"""A minimal, NumPy-backed reverse-mode automatic differentiation engine.

The paper's framework is built on PyTorch autograd; this subpackage provides
the equivalent substrate so the sparse (SpMM) and dense (gather/scatter)
training paths can be expressed and compared on identical machinery.

Public surface
--------------
:class:`Tensor`
    Dense N-dimensional array node participating in a dynamically-built tape.
:func:`no_grad` / :func:`is_grad_enabled`
    Context manager disabling tape construction (inference / evaluation).
:mod:`repro.autograd.ops`
    Functional operators (norms, gathers, batched matmul, torus distances, ...)
    used by the models and losses.
:func:`gradcheck`
    Finite-difference verification used heavily in the test-suite, including
    the Appendix-G property that the SpMM backward is another SpMM.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, enable_grad
from repro.autograd.function import flop_counter, count_flops
from repro.autograd.sanitizer import SanitizerError, sanitize, sanitize_enabled
from repro.autograd import ops
from repro.autograd.grad_check import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "ops",
    "gradcheck",
    "numerical_gradient",
    "flop_counter",
    "count_flops",
    "SanitizerError",
    "sanitize",
    "sanitize_enabled",
]
