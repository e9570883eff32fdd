"""Dense layers: Linear and MLP stacks used by the recommendation models."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.init import DTypeLike, kaiming_uniform
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor, get_default_dtype
from repro.utils.rng import SeedLike, make_rng


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    ``dtype`` is the precision of the parameters (and so of everything
    computed from them); ``None`` is the autograd default, float64.  The
    weights are drawn in float64 and rounded, so one seed gives the same
    layer at every precision up to that rounding.
    """

    def __init__(
        self, in_features: int, out_features: int, rng: SeedLike = None, dtype: DTypeLike = None
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        generator = make_rng(rng)
        dtype = np.dtype(dtype or get_default_dtype())
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            kaiming_uniform((in_features, out_features), generator, dtype=dtype), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class MLP(Module):
    """A stack of Linear layers with ReLU activations between them.

    ``sigmoid_output=True`` applies a sigmoid to the final layer, which the
    reference DLRM uses for its top MLP when producing probabilities; in this
    library the models return raw logits and apply the loss' own sigmoid, so
    the flag exists mainly for API parity and custom use.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        rng: SeedLike = None,
        sigmoid_output: bool = False,
        dtype: DTypeLike = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        generator = make_rng(rng)
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.sigmoid_output = bool(sigmoid_output)
        self.layers = [
            Linear(self.layer_sizes[i], self.layer_sizes[i + 1], rng=generator, dtype=dtype)
            for i in range(len(self.layer_sizes) - 1)
        ]

    def forward(self, x: Tensor) -> Tensor:
        out = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            out = layer(out)
            if i < last:
                out = F.relu(out)
        if self.sigmoid_output:
            out = F.sigmoid(out)
        return out
