"""Deep & Cross Network (Wang et al., 2017)."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn.interactions import CrossNetwork
from repro.nn.layers import MLP, Linear, Workspace
from repro.store import ShardedEmbeddingStore
from repro.utils.rng import SeedLike, make_rng

#: Cross layers, and the hidden widths of the deep MLP.
NUM_CROSS_LAYERS = 3
DEEP_MLP = (64, 32)


class DCN(RecommendationModel):
    """Cross network + deep network over the stacked input vector.

    The cross layers multiply the input with its learned projections to build
    element-level cross terms (paper §5.1.1); their output is concatenated
    with the deep MLP output and mapped to the final logit.
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
        input_dim = num_fields * self.dim + num_numerical
        deep_sizes = [input_dim, *DEEP_MLP]
        self.cross = CrossNetwork(input_dim, NUM_CROSS_LAYERS, rng=generator, dtype=self.dtype)
        self.deep = MLP(deep_sizes, rng=generator, dtype=self.dtype)
        self.output = Linear(input_dim + deep_sizes[-1], 1, rng=generator, dtype=self.dtype)

    def dense_forward(self, weights, embeddings, numerical, ws: Workspace) -> np.ndarray:
        cross_end, deep_end = self._splits()
        features = self._flat_features(embeddings, numerical, ws)
        cross_out = self.cross.forward_array(weights[:cross_end], features, ws)
        deep_out = self.deep.forward_array(weights[cross_end:deep_end], features, ws)
        np.maximum(deep_out, 0, out=deep_out)
        combined = ws((self, "combined"), self.output.in_features)
        combined[:, : cross_out.shape[1]] = cross_out
        combined[:, cross_out.shape[1]:] = deep_out
        return self.output.forward_array(weights[deep_end:], combined, ws)

    def dense_backward(self, weights, embeddings, numerical, dlogits, ws: Workspace, grads):
        cross_end, deep_end = self._splits()
        width = self.cross.input_dim
        features = self._flat_features(embeddings, numerical, ws, fill=False)
        combined = ws((self, "combined"), self.output.in_features)
        dcombined = self.output.backward_array(weights[deep_end:], combined, dlogits, ws, grads[deep_end:])
        deep_out = ws(self.deep.layers[-1], self.deep.layers[-1].out_features)
        mask = np.greater(deep_out, 0, out=ws((self, "mask"), deep_out.shape[1], dtype=np.bool_))
        ddeep_out = np.multiply(dcombined[:, width:], mask, out=ws((self, "ddeep"), deep_out.shape[1]))
        dfeatures = self.cross.backward_array(
            weights[:cross_end], features, dcombined[:, :width], ws, grads[:cross_end]
        )
        ddeep = self.deep.backward_array(
            weights[cross_end:deep_end], features, ddeep_out, ws, grads[cross_end:deep_end]
        )
        dfeatures += ddeep  # the deep MLP's contribution comes last in the per-op graph too
        return self._leaf_gradient(dfeatures, ws)

    def _splits(self) -> tuple[int, int]:
        """Where the cross network's and the deep MLP's parameter arrays end."""
        cross_end = 2 * self.cross.num_layers
        return cross_end, cross_end + 2 * len(self.deep.layers)
