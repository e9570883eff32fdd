"""Wide & Deep Learning (Cheng et al., 2016)."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn import functional as F
from repro.nn.layers import MLP, Linear
from repro.nn.tensor import Tensor
from repro.store import EmbeddingStore
from repro.utils.rng import SeedLike, make_rng


class WDL(RecommendationModel):
    """Wide (single linear layer) + Deep (MLP) model, predictions summed.

    Both parts consume the concatenation of the field embeddings and the raw
    numerical features, matching the architecture sketch in the paper's
    §5.1.1 ("embeddings are fed into a wide network (1 FC layer) and a deep
    network (several FC layers), and finally the results are summed").
    """

    def __init__(
        self,
        embedding: CompressedEmbedding | EmbeddingStore,
        num_fields: int,
        num_numerical: int,
        deep_mlp: list[int] | None = None,
        rng: SeedLike = None,
    ):
        super().__init__(embedding, num_fields, num_numerical)
        generator = make_rng(rng)
        input_dim = num_fields * self.dim + num_numerical
        self.wide = Linear(input_dim, 1, rng=generator, dtype=self.dtype)
        deep_sizes = [input_dim] + (deep_mlp or [64, 32]) + [1]
        self.deep = MLP(deep_sizes, rng=generator, dtype=self.dtype)

    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        batch = embeddings.shape[0]
        flat = F.reshape(embeddings, (batch, self.num_fields * self.dim))
        if self.num_numerical > 0:
            features = F.concat([flat, self._numerical_tensor(numerical)], axis=1)
        else:
            features = flat
        wide_logit = self.wide(features)
        deep_logit = self.deep(features)
        return F.reshape(F.add(wide_logit, deep_logit), (batch,))
