"""Module base class: parameter registration and traversal."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Tuple

from repro.nn.parameter import Parameter


class Module:
    """Base class for every model component.

    Mirrors the small subset of ``torch.nn.Module`` the framework needs:
    attribute-based registration of :class:`Parameter` and sub-``Module``
    objects, recursive parameter iteration and ``zero_grad``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            if value.name is None:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            # Re-assigning a non-parameter over an old registration removes it.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter (recursively, depth-first)."""
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # ------------------------------------------------------------------ #
    # Gradients
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        children = ", ".join(self._modules)
        return f"{type(self).__name__}(params={len(self._parameters)}, children=[{children}])"
