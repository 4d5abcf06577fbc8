"""Module/Parameter abstractions: composable layers with parameter discovery.

Mirrors the (small) subset of ``torch.nn.Module`` the reproduction needs:
attribute-based registration of parameters and sub-modules, recursive
``parameters()`` iteration, train/eval mode, and a flat ``state_dict``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` registered as a trainable leaf (requires grad)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Assigning a :class:`Parameter`, :class:`Module` or :class:`ModuleList` to
    an attribute registers it; discovery is recursive.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer output; subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # -- registration / discovery ----------------------------------------------

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """Yield direct sub-modules with their attribute names."""
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield attr, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{attr}.{i}", child

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs recursively."""
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                yield f"{prefix}{attr}", value
        for name, child in self.named_children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants (pre-order)."""
        yield self
        for _, child in self.named_children():
            yield from child.modules()

    # -- modes / gradients -------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects batch-norm statistics)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization --------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name->array snapshot of all parameters and buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict` (strict matching)."""
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for name, value in state.items():
            if name in params:
                target = params[name].data
            elif name in buffers:
                target = buffers[name]
            else:
                raise ConfigurationError(f"unknown entry {name!r} in state dict")
            if target.shape != np.asarray(value).shape:
                raise ConfigurationError(
                    f"shape mismatch for {name!r}: model {target.shape}, state {np.asarray(value).shape}"
                )
            target[...] = value
            if name in params:
                params[name].bump_version()
        for module in self.modules():
            if getattr(module, "_buffers", None):
                module.buffers_version += 1
        missing = (set(params) | set(buffers)) - set(state)
        if missing:
            raise ConfigurationError(f"state dict is missing entries: {sorted(missing)}")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield non-trainable persistent arrays (e.g. batch-norm running stats)."""
        for attr in getattr(self, "_buffers", ()):  # registered by register_buffer
            yield f"{prefix}{attr}", getattr(self, attr)
        for name, child in self.named_children():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Attach a persistent non-trainable array under ``name``.

        Buffers are plain arrays, so the module keeps one version counter
        for all of them, ``buffers_version``: every repo code path that
        writes a buffer (batch-norm's training forwards,
        :meth:`load_state_dict`) bumps it, and caches derived from the
        buffers key on it.  Code that edits a buffer in place by hand must
        bump it itself.
        """
        if not hasattr(self, "_buffers"):
            self._buffers: list[str] = []
            self.buffers_version = 0
        setattr(self, name, np.asarray(value, dtype=np.float64))
        self._buffers.append(name)

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())


class ModuleList(list):
    """A list of modules whose entries are registered for discovery."""

    def __init__(self, modules=()) -> None:
        modules = list(modules)
        for m in modules:
            if not isinstance(m, Module):
                raise ConfigurationError(f"ModuleList entries must be Modules, got {type(m).__name__}")
        super().__init__(modules)

    def append(self, module: Module) -> None:
        if not isinstance(module, Module):
            raise ConfigurationError(f"ModuleList entries must be Modules, got {type(module).__name__}")
        super().append(module)
