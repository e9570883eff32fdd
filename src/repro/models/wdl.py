"""Wide & Deep Learning (Cheng et al., 2016)."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.nn.layers import MLP, Linear, Workspace
from repro.store import ShardedEmbeddingStore
from repro.utils.rng import SeedLike, make_rng

#: Hidden widths of the deep MLP.
DEEP_MLP = (64, 32)


class WDL(RecommendationModel):
    """Wide (single linear layer) + Deep (MLP) model, predictions summed.

    Both parts consume the concatenation of the field embeddings and the raw
    numerical features, matching the architecture sketch in the paper's
    §5.1.1 ("embeddings are fed into a wide network (1 FC layer) and a deep
    network (several FC layers), and finally the results are summed").
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
        self.wide = Linear(input_dim, 1, rng=generator, dtype=self.dtype)
        deep_sizes = [input_dim, *DEEP_MLP, 1]
        self.deep = MLP(deep_sizes, rng=generator, dtype=self.dtype)

    def dense_forward(self, weights, embeddings, numerical, ws: Workspace) -> np.ndarray:
        features = self._flat_features(embeddings, numerical, ws)
        wide_logit = self.wide.forward_array(weights[:2], features, ws)
        deep_logit = self.deep.forward_array(weights[2:], features, ws)
        return np.add(wide_logit, deep_logit, out=ws(self, 1))

    def dense_backward(self, weights, embeddings, numerical, dlogits, ws: Workspace, grads):
        features = self._flat_features(embeddings, numerical, ws, fill=False)
        dwide = self.wide.backward_array(weights[:2], features, dlogits, ws, grads[:2])
        ddeep = self.deep.backward_array(weights[2:], features, dlogits, ws, grads[2:])
        dwide += ddeep
        return self._leaf_gradient(dwide, ws)
