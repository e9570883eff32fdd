"""Integrating CAFE into a custom recommendation model.

The paper implements CAFE as "a plug-in embedding layer module ... [that] can
directly replace the original Embedding module in any PyTorch-based
recommendation model" (§4).  The same is true here: a model of your own
subclasses ``RecommendationModel``, writes its dense forward and backward
over arrays from the ``repro.nn`` layers' ``forward_array`` /
``backward_array``, and trains through the one training path every model
uses, ``Trainer.train_step``.  The trainer hands the per-lookup gradient
back to the embedding store's ``apply_gradients``, so any
``CompressedEmbedding`` (CAFE included) drops in without touching the dense
network.

This example defines a small two-tower model from scratch — no
``repro.models`` architecture — and trains it with three named embedding
backends plus one brought by the example itself.

Bringing your own backend: subclass ``CompressedEmbedding`` and implement
``gather`` / ``apply`` / ``memory_floats`` (and ``routes``, when the table
hashes or locates ids: the store routes each step's ids once, and
``gather`` and ``apply`` both receive that routing), build an instance
directly (there is nothing to register) and hand it to the model, which
wraps it in a one-shard store.  Only ``cafe`` shards: a store of several
shards is one CAFE stack, so ``ShardedEmbeddingStore([...])`` of two tables
of your own raises ``ConfigurationError``.  What the class implements of the
rest of the contract is what it can do: ``state_dict`` / ``load_state_dict``
make it checkpointable.
An adaptive scheme migrates on its own schedule inside ``apply``, as CAFE
and AdaEmbed do (and calls ``invalidate_plan()`` when routing changes).

Run with:  python examples/custom_model_integration.py
"""

from __future__ import annotations

import numpy as np

from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.embeddings import CompressedEmbedding, create_embedding
from repro.models.base import RecommendationModel
from repro.nn import MLP
from repro.training import Trainer

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

    def gather(self, uids: np.ndarray, routes: dict) -> np.ndarray:
        return self.table[uids]

    def apply(self, plan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        self.table[uids] -= self.learning_rate * grad_sums
        self._step += 1

    def memory_floats(self) -> int:
        return int(self.table.size)


class TwoTowerModel(RecommendationModel):
    """A minimal custom model: a user tower and an item tower.

    The first half of the categorical fields is the user, the rest the item;
    each tower is an MLP over the mean of its fields' embeddings, and the
    logit is the dot product of the two tower outputs.  The embedding
    backend is any :class:`CompressedEmbedding` or store.
    """

    def __init__(self, embedding, num_fields: int, tower_dim: int = 16, rng=None):
        super().__init__(embedding, num_fields, num_numerical=0)
        generator = np.random.default_rng(rng)
        self.split = num_fields // 2
        self.user_tower = MLP([self.dim, 32, tower_dim], rng=generator, dtype=self.dtype)
        self.item_tower = MLP([self.dim, 32, tower_dim], rng=generator, dtype=self.dtype)

    def dense_forward(self, weights, embeddings, numerical, ws):
        half = len(weights) // 2  # the towers are alike: user's parameters, then item's
        user_weights, item_weights = weights[:half], weights[half:]
        user_in = np.mean(embeddings[:, : self.split], axis=1, out=ws((self, "user"), self.dim))
        item_in = np.mean(embeddings[:, self.split:], axis=1, out=ws((self, "item"), self.dim))
        user = self.user_tower.forward_array(user_weights, user_in, ws)
        item = self.item_tower.forward_array(item_weights, item_in, ws)
        product = np.multiply(user, item, out=ws((self, "product"), user.shape[1]))
        return np.sum(product, axis=1, keepdims=True, out=ws((self, "logits"), 1))

    def dense_backward(self, weights, embeddings, numerical, dlogits, ws, grads):
        user_in, item_in = ws((self, "user"), self.dim), ws((self, "item"), self.dim)
        user = ws(self.user_tower.layers[-1], self.user_tower.layer_sizes[-1])
        item = ws(self.item_tower.layers[-1], self.item_tower.layer_sizes[-1])
        # d(user . item) / d user = item, and the other way round.
        half = len(weights) // 2
        duser = self.user_tower.backward_array(
            weights[:half], user_in, dlogits * item, ws, grads[:half]
        )
        ditem = self.item_tower.backward_array(
            weights[half:], item_in, dlogits * user, ws, grads[half:]
        )
        # A mean's gradient reaches each of its fields divided by their count.
        dx = ws.handout(self, self.num_fields, self.dim)
        np.divide(duser[:, None], float(self.split), out=dx[:, : self.split])
        np.divide(ditem[:, None], float(self.num_fields - self.split), out=dx[:, self.split:])
        return dx


def make_embedding(backend: str, schema, compression_ratio: float) -> CompressedEmbedding:
    if backend == "own":  # our own class: built, not registered
        return PlainSGDTable(schema.num_features, schema.embedding_dim, rng=SEED)
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
    model = TwoTowerModel(embedding, schema.num_fields, rng=SEED + 1)
    trainer = Trainer(model, dense_learning_rate=0.01)
    # Lookup, dense forward, loss, dense backward, apply_gradients (where
    # CAFE's HotSketch learns importance scores and migrates rows) and the
    # dense update: the step every built-in model trains with.
    trainer.train_stream(dataset.training_stream(BATCH_SIZE))
    return trainer.evaluate_auc(dataset.test_batch(2048))


def main() -> None:
    schema = make_preset("avazu", base_cardinality=300, seed=SEED)
    schema.num_days = 5
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=3000, seed=SEED))

    print("custom two-tower model with interchangeable embedding backends")
    print(f"dataset: {schema.name} preset, {schema.num_features} features\n")
    for backend, ratio in [("full", 1.0), ("hash", 50.0), ("cafe", 50.0), ("own", 1.0)]:
        auc = train(backend, dataset, ratio)
        print(f"backend={backend:<6} compression={ratio:>6.0f}x  test AUC = {auc:.4f}")
    own = make_embedding("own", dataset.schema, 1.0)
    try:
        own.state_dict()
    except NotImplementedError as error:
        print(f"\nown backend: not checkpointable ({error}); define state_dict to make it so")
    print("\nThe point of this example is the integration contract, not the absolute")
    print("numbers: any CompressedEmbedding drops into a model of your own, and")
    print("Trainer.train_step routes the per-lookup gradients back through")
    print("apply_gradients().")


if __name__ == "__main__":
    main()
