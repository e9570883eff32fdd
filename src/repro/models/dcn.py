"""Deep & Cross Network (Wang et al., 2017)."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn import functional as F
from repro.nn.interactions import CrossNetwork
from repro.nn.layers import MLP, Linear
from repro.nn.tensor import Tensor
from repro.store import EmbeddingStore
from repro.utils.rng import SeedLike, make_rng


class DCN(RecommendationModel):
    """Cross network + deep network over the stacked input vector.

    The cross layers multiply the input with its learned projections to build
    element-level cross terms (paper §5.1.1); their output is concatenated
    with the deep MLP output and mapped to the final logit.
    """

    def __init__(
        self,
        embedding: CompressedEmbedding | EmbeddingStore,
        num_fields: int,
        num_numerical: int,
        num_cross_layers: int = 3,
        deep_mlp: list[int] | None = None,
        rng: SeedLike = None,
    ):
        super().__init__(embedding, num_fields, num_numerical)
        generator = make_rng(rng)
        input_dim = num_fields * self.dim + num_numerical
        deep_sizes = [input_dim] + (deep_mlp or [64, 32])
        self.cross = CrossNetwork(input_dim, num_cross_layers, rng=generator, dtype=self.dtype)
        self.deep = MLP(deep_sizes, rng=generator, dtype=self.dtype)
        self.output = Linear(input_dim + deep_sizes[-1], 1, rng=generator, dtype=self.dtype)

    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        batch = embeddings.shape[0]
        flat = F.reshape(embeddings, (batch, self.num_fields * self.dim))
        if self.num_numerical > 0:
            features = F.concat([flat, self._numerical_tensor(numerical)], axis=1)
        else:
            features = flat
        cross_out = self.cross(features)
        deep_out = F.relu(self.deep(features))
        combined = F.concat([cross_out, deep_out], axis=1)
        logits = self.output(combined)
        return F.reshape(logits, (batch,))
