"""Feature-interaction layers used by DLRM, WDL and DCN.

The three models in the paper (Section 5.1.1) differ only in how they combine
field embeddings with the dense features:

* DLRM performs pairwise dot products between embeddings (``DotInteraction``),
* DCN multiplies embeddings with learned projections producing element-level
  cross terms (``CrossNetwork``),
* WDL feeds the concatenated embeddings to a wide (single linear) part and a
  deep MLP and sums the two predictions (handled in ``repro.models.wdl``).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.init import DTypeLike
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor, get_default_dtype
from repro.utils.rng import SeedLike, make_rng


class DotInteraction(Module):
    """DLRM's pairwise dot-product interaction.

    Input is the per-field embedding tensor of shape ``(batch, fields, dim)``
    (optionally with the projected dense features appended as an extra "field")
    and the output is the flattened strictly-lower-triangular part of the
    per-sample Gram matrix, shape ``(batch, fields*(fields-1)/2)``.
    """

    def forward(self, embeddings: Tensor) -> Tensor:
        return F.batched_outer_interaction(embeddings)

    @staticmethod
    def output_dim(num_fields: int) -> int:
        return num_fields * (num_fields - 1) // 2


class CrossNetwork(Module):
    """DCN cross network: ``x_{l+1} = x_0 * (x_l w_l) + b_l + x_l``.

    Each layer produces element-level feature crosses of increasing degree
    while keeping the dimensionality fixed.
    """

    def __init__(
        self, input_dim: int, num_layers: int, rng: SeedLike = None, dtype: DTypeLike = None
    ):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        generator = make_rng(rng)
        dtype = np.dtype(dtype or get_default_dtype())
        self.input_dim = int(input_dim)
        self.num_layers = int(num_layers)
        scale = 1.0 / np.sqrt(input_dim)
        self.weights = [
            Parameter(
                generator.uniform(-scale, scale, size=(input_dim, 1)).astype(dtype, copy=False),
                name=f"cross_w{i}",
            )
            for i in range(num_layers)
        ]
        self.biases = [
            Parameter(np.zeros(input_dim, dtype=dtype), name=f"cross_b{i}")
            for i in range(num_layers)
        ]

    def forward(self, x0: Tensor) -> Tensor:
        x = x0
        for weight, bias in zip(self.weights, self.biases):
            # (batch, 1) scalar per sample = x_l . w_l
            projected = F.matmul(x, weight)
            crossed = F.mul(x0, projected)  # broadcast over the feature axis
            x = F.add(F.add(crossed, bias), x)
        return x
