"""Module base class: parameter registration, traversal, and state dicts."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Parameter


class Module:
    """Base class for neural-network components.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, mirroring the PyTorch convention so model code stays
    familiar.
    """

    def parameters(self) -> Iterator[Parameter]:
        """Yield every learnable parameter of this module and its children."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full_name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full_name}.{i}")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{i}", item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return int(sum(p.size for p in self.parameters()))

    def flat_parameters(self) -> np.ndarray:
        """One new flat array holding every parameter, in :meth:`parameters` order."""
        return np.concatenate([param.data.reshape(-1) for param in self.parameters()])

    def parameter_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` (laid out by :meth:`flat_parameters`), one per
        parameter in its shape."""
        views, start = [], 0
        for param in self.parameters():
            views.append(flat[start: start + param.size].reshape(param.shape))
            start += param.size
        return views

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            # Cast to the parameter's existing dtype: a model configured for
            # float32 (or float16 tables) must not be silently promoted to
            # float64 by a checkpoint restore.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
