"""DLRM (Naumov et al., 2019): dot-product interaction architecture."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn import functional as F
from repro.nn.interactions import DotInteraction
from repro.nn.layers import MLP
from repro.nn.tensor import Tensor
from repro.store import EmbeddingStore
from repro.utils.rng import SeedLike, make_rng


class DLRM(RecommendationModel):
    """Deep Learning Recommendation Model with pairwise dot interactions.

    Numerical features pass through a bottom MLP whose output is treated as an
    additional "field" in the interaction; the interaction terms are then
    concatenated with that dense vector and fed to the top MLP, following the
    reference implementation.
    """

    def __init__(
        self,
        embedding: CompressedEmbedding | EmbeddingStore,
        num_fields: int,
        num_numerical: int,
        bottom_mlp: list[int] | None = None,
        top_mlp: list[int] | None = None,
        rng: SeedLike = None,
    ):
        super().__init__(embedding, num_fields, num_numerical)
        generator = make_rng(rng)
        dim = self.dim
        self.has_dense_field = num_numerical > 0
        if self.has_dense_field:
            bottom_sizes = [num_numerical] + (bottom_mlp or [64, 32]) + [dim]
            self.bottom = MLP(bottom_sizes, rng=generator, dtype=self.dtype)
        else:
            self.bottom = None
        interaction_fields = num_fields + (1 if self.has_dense_field else 0)
        interaction_dim = DotInteraction.output_dim(interaction_fields)
        top_input = interaction_dim + (dim if self.has_dense_field else 0)
        top_sizes = [top_input] + (top_mlp or [64, 32]) + [1]
        self.interaction = DotInteraction()
        self.top = MLP(top_sizes, rng=generator, dtype=self.dtype)

    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        batch = embeddings.shape[0]
        if self.has_dense_field:
            dense_vector = self.bottom(self._numerical_tensor(numerical))
            dense_as_field = F.reshape(dense_vector, (batch, 1, self.dim))
            all_fields = F.concat([embeddings, dense_as_field], axis=1)
            interactions = self.interaction(all_fields)
            top_input = F.concat([dense_vector, interactions], axis=1)
        else:
            interactions = self.interaction(embeddings)
            top_input = interactions
        logits = self.top(top_input)
        return F.reshape(logits, (batch,))
