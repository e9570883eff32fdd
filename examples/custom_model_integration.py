"""Integrating CAFE into a custom recommendation model.

The paper implements CAFE as "a plug-in embedding layer module ... [that] can
directly replace the original Embedding module in any PyTorch-based
recommendation model" (§4).  The same is true here: any model built on
``repro.nn`` can swap its embedding storage for a ``CafeEmbedding`` (or any
other ``CompressedEmbedding``) without touching the dense network, as long as
it routes the per-lookup gradients back through ``apply_gradients``.

This example defines a small custom two-tower-style model from scratch —
without using ``repro.models`` — and trains it with three named embedding
backends plus one brought by the example itself.

Bringing your own backend: subclass ``CompressedEmbedding`` and implement
``lookup_unique`` / ``apply_unique`` / ``memory_floats``; build instances
directly (there is nothing to register) and, to shard them, pass them to
``ShardedEmbeddingStore([...])``.  What the class implements of the rest of
the contract is what it can do: ``state_dict`` / ``load_state_dict`` make it
checkpointable and ``merged_sketch`` gives it a hot-feature sketch.  An
adaptive scheme migrates on its own schedule inside ``apply_unique``, as
CAFE and AdaEmbed do.

Run with:  python examples/custom_model_integration.py
"""

from __future__ import annotations

import numpy as np

from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.embeddings import CompressedEmbedding, create_embedding
from repro.nn import MLP, Adam, Tensor, functional as F
from repro.nn.module import Module
from repro.store import ShardedEmbeddingStore
from repro.training.metrics import roc_auc

BATCH_SIZE = 128
SEED = 11


class PlainSGDTable(CompressedEmbedding):
    """A backend of our own: one row per feature, plain SGD, no checkpoint.

    Plain SGD needs a far larger step than the built-ins' Adagrad at 0.1.
    """

    def __init__(self, num_features: int, dim: int, learning_rate: float = 2.0, rng=None):
        super().__init__(num_features, dim)
        self.learning_rate = learning_rate
        init = np.random.default_rng(rng).standard_normal((num_features, dim)) * 0.01
        self.table = init.astype(self.dtype)

    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        return self.table[uids]

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        self.table[uids] -= self.learning_rate * grad_sums
        self._step += 1

    def memory_floats(self) -> int:
        return int(self.table.size)


class TwoTowerModel(Module):
    """A minimal custom model: user tower and item tower of pooled embeddings.

    The first half of the categorical fields feeds the "user" tower, the rest
    the "item" tower; the prediction is the dot product of the tower outputs.
    The embedding backend is any :class:`CompressedEmbedding`.
    """

    def __init__(self, embedding: CompressedEmbedding, num_fields: int, tower_dim: int = 16, rng=None):
        self.embedding = embedding
        self.num_fields = num_fields
        self.split = num_fields // 2
        self.user_tower = MLP([embedding.dim, 32, tower_dim], rng=rng)
        self.item_tower = MLP([embedding.dim, 32, tower_dim], rng=rng)

    def forward(self, categorical: np.ndarray) -> tuple[Tensor, Tensor]:
        vectors = self.embedding.lookup(categorical)  # (batch, fields, dim)
        leaf = Tensor(vectors, requires_grad=True)
        user_fields = F.mean(
            F.reshape(leaf, (categorical.shape[0], self.num_fields, self.embedding.dim)), axis=1
        )
        # Average the first / second half of the fields per tower by slicing the
        # pooled representation — kept simple on purpose; a production model
        # would pool each tower's fields separately.
        user = self.user_tower(user_fields)
        item = self.item_tower(user_fields)
        logits = F.sum(F.mul(user, item), axis=1)
        return logits, leaf


def make_embedding(backend: str, schema, compression_ratio: float) -> CompressedEmbedding:
    if backend == "own":
        # Two shards of our own class behind one store: built, not registered.
        return ShardedEmbeddingStore(
            [PlainSGDTable(schema.num_features, schema.embedding_dim, rng=SEED + i) for i in range(2)]
        )
    return create_embedding(
        backend,
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        compression_ratio=compression_ratio,
        optimizer="adagrad",
        learning_rate=0.1,
        rng=np.random.default_rng(SEED),
    )


def train(backend: str, dataset: SyntheticCTRDataset, compression_ratio: float) -> float:
    schema = dataset.schema
    embedding = make_embedding(backend, schema, compression_ratio)
    model = TwoTowerModel(embedding, schema.num_fields, rng=np.random.default_rng(SEED + 1))
    optimizer = Adam(list(model.parameters()), lr=0.01)

    for batch in dataset.training_stream(BATCH_SIZE):
        logits, leaf = model.forward(batch.categorical)
        loss = F.binary_cross_entropy_with_logits(logits, batch.labels)
        model.zero_grad()
        loss.backward()
        # The integration contract: hand the per-lookup gradient back to the
        # embedding layer.  For CAFE this is also where HotSketch learns the
        # importance scores and migrations happen.
        embedding.apply_gradients(batch.categorical, leaf.grad)
        optimizer.step()

    test = dataset.test_batch(2048)
    logits, _ = model.forward(test.categorical)
    probabilities = 1.0 / (1.0 + np.exp(-logits.data))
    return roc_auc(test.labels, probabilities)


def main() -> None:
    schema = make_preset("avazu", base_cardinality=300, seed=SEED)
    schema.num_days = 5
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=3000, seed=SEED))

    print("custom two-tower model with interchangeable embedding backends")
    print(f"dataset: {schema.name} preset, {schema.num_features} features\n")
    for backend, ratio in [("full", 1.0), ("hash", 50.0), ("cafe", 50.0), ("own", 1.0)]:
        auc = train(backend, dataset, ratio)
        print(f"backend={backend:<6} compression={ratio:>6.0f}x  test AUC = {auc:.4f}")
    store = make_embedding("own", dataset.schema, 1.0)
    try:
        store.state_dict()
    except NotImplementedError as error:
        print(f"\nown backend: not checkpointable ({error}); define state_dict to make it so")
    print("\nThe point of this example is the integration contract, not the absolute")
    print("numbers: any CompressedEmbedding drops into a hand-written model as long")
    print("as the per-lookup gradients are routed back through apply_gradients().")


if __name__ == "__main__":
    main()
