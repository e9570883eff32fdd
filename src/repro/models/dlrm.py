"""DLRM (Naumov et al., 2019): dot-product interaction architecture."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn.interactions import DotInteraction
from repro.nn.layers import MLP, Workspace
from repro.store import ShardedEmbeddingStore
from repro.utils.rng import SeedLike, make_rng

#: Hidden widths of the bottom (numerical) and top MLPs.
BOTTOM_MLP = (64, 32)
TOP_MLP = (64, 32)


class DLRM(RecommendationModel):
    """Deep Learning Recommendation Model with pairwise dot interactions.

    Numerical features pass through a bottom MLP whose output is treated as an
    additional "field" in the interaction; the interaction terms are then
    concatenated with that dense vector and fed to the top MLP, following the
    reference implementation.
    """

    def __init__(
        self,
        embedding: CompressedEmbedding | ShardedEmbeddingStore,
        num_fields: int,
        num_numerical: int,
        rng: SeedLike = None,
    ):
        super().__init__(embedding, num_fields, num_numerical)
        generator = make_rng(rng)
        dim = self.dim
        self.has_dense_field = num_numerical > 0
        if self.has_dense_field:
            bottom_sizes = [num_numerical, *BOTTOM_MLP, dim]
            self.bottom = MLP(bottom_sizes, rng=generator, dtype=self.dtype)
        else:
            self.bottom = None
        interaction_fields = num_fields + (1 if self.has_dense_field else 0)
        interaction_dim = DotInteraction.output_dim(interaction_fields)
        top_input = interaction_dim + (dim if self.has_dense_field else 0)
        top_sizes = [top_input, *TOP_MLP, 1]
        self.interaction = DotInteraction()
        self.top = MLP(top_sizes, rng=generator, dtype=self.dtype)

    def dense_forward(self, weights, embeddings, numerical, ws: Workspace) -> np.ndarray:
        split = self._bottom_arrays()
        if self.bottom is None:
            top_input = self.interaction.forward_array(embeddings, ws)
        else:
            dense = self.bottom.forward_array(weights[:split], numerical, ws)
            fields = ws((self, "fields"), self.num_fields + 1, self.dim)
            fields[:, : self.num_fields] = embeddings
            fields[:, self.num_fields] = dense
            interactions = self.interaction.forward_array(fields, ws)
            # The interaction's Gram region is free until its backward.
            top_input = ws(self.interaction.gram, self.dim + interactions.shape[1])
            top_input[:, : self.dim] = dense
            top_input[:, self.dim:] = interactions
        return self.top.forward_array(weights[split:], top_input, ws)

    def dense_backward(self, weights, embeddings, numerical, dlogits, ws: Workspace, grads):
        split = self._bottom_arrays()
        if self.bottom is None:
            top_input = ws((self.interaction, "x"), DotInteraction.output_dim(self.num_fields))
            dtop = self.top.backward_array(weights[split:], top_input, dlogits, ws, grads[split:])
            return self._leaf_gradient(self.interaction.backward_array(embeddings, dtop, ws), ws)
        fields = ws((self, "fields"), self.num_fields + 1, self.dim)
        top_input = ws(self.interaction.gram, self.dim + DotInteraction.output_dim(self.num_fields + 1))
        dtop = self.top.backward_array(weights[split:], top_input, dlogits, ws, grads[split:])
        dfields = self.interaction.backward_array(fields, dtop[:, self.dim:], ws)
        # The dense vector is both the top MLP's first columns and the extra field.
        ddense = np.add(dtop[:, : self.dim], dfields[:, self.num_fields], out=ws((self, "ddense"), self.dim))
        self.bottom.backward_array(weights[:split], numerical, ddense, ws, grads[:split], need_dx=False)
        return self._leaf_gradient(dfields, ws)

    def _bottom_arrays(self) -> int:
        """How many of the parameter arrays are the bottom MLP's (it comes first)."""
        return 0 if self.bottom is None else 2 * len(self.bottom.layers)
