"""Base class shared by the DLRM / WDL / DCN recommendation models.

A model owns (a) an embedding *store* — anything satisfying
:class:`repro.store.EmbeddingStore`, from a bare
:class:`repro.embeddings.CompressedEmbedding` (wrapped in a bit-exact
single-shard store) to a multi-shard :class:`repro.store.
ShardedEmbeddingStore` — and (b) a dense network built from :mod:`repro.nn`
modules.  The training loop drives them through
:meth:`RecommendationModel.forward`, which returns both the logits tensor and
the leaf embedding tensor so that, after ``loss.backward()``, the per-lookup
gradient (the quantity CAFE scores features by) can be handed back to the
store.

Precision follows the store: the dense network computes in
``np.promote_types(store.dtype, float32)`` — float32 over float16/float32
tables, float64 only over float64 tables — fixed at construction and carried
by parameters, activations, gradients and the dense optimizer state.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import CompressedEmbedding
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.store import EmbeddingStore, ensure_store


class RecommendationModel(Module):
    """Common scaffolding: embedding lookup + dense forward."""

    def __init__(
        self,
        embedding: CompressedEmbedding | EmbeddingStore,
        num_fields: int,
        num_numerical: int,
    ):
        if num_fields <= 0:
            raise ValueError(f"num_fields must be positive, got {num_fields}")
        if num_numerical < 0:
            raise ValueError(f"num_numerical must be non-negative, got {num_numerical}")
        #: The store is what the forward pass and trainer talk to; a bare
        #: embedding layer is adapted via a delegating single-shard store.
        self.store: EmbeddingStore = ensure_store(embedding)
        #: The object the caller handed in, kept for introspection (e.g.
        #: reaching a CAFE layer's sketch in experiments).
        self.embedding = embedding
        self.num_fields = int(num_fields)
        self.num_numerical = int(num_numerical)
        self.dim = self.store.dim
        #: Compute dtype of the dense network (see the module docstring).
        self.dtype = np.promote_types(self.store.dtype, np.float32)

    @classmethod
    def from_schema(
        cls,
        schema,
        spec: str | None = None,
        compression_ratio: float = 1.0,
        num_shards: int = 1,
        executor=None,
        optimizer: str = "sgd",
        learning_rate: float = 0.05,
        dtype="float32",
        seed: int = 0,
        rng=None,
        **model_kwargs,
    ) -> "RecommendationModel":
        """Build the model plus its embedding store from a dataset schema.

        ``spec`` selects the store: a plain method name gives one uniform
        (optionally sharded) table, a table-group spec such as
        ``"full:tiny,cafe:tail"`` gives a heterogeneous per-field
        :class:`~repro.store.table_group.TableGroupStore`; ``None`` follows
        the schema's attached ``field_configs``.  The model's training
        contract is unchanged — it still talks to the
        :class:`~repro.store.EmbeddingStore` interface.
        """
        from repro.embeddings import create_embedding_store

        store = create_embedding_store(
            schema,
            spec=spec,
            compression_ratio=compression_ratio,
            num_shards=num_shards,
            executor=executor,
            optimizer=optimizer,
            learning_rate=learning_rate,
            dtype=dtype,
            seed=seed,
        )
        return cls(
            store,
            num_fields=schema.num_fields,
            num_numerical=schema.num_numerical,
            rng=rng if rng is not None else seed,
            **model_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Dense part (implemented by subclasses)
    # ------------------------------------------------------------------ #
    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        """Map ``(batch, fields, dim)`` embeddings + numerical features to logits.

        ``numerical`` may arrive in any float dtype; implementations bring it
        to the model's own through :meth:`_numerical_tensor`.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _numerical_tensor(self, numerical: np.ndarray) -> Tensor:
        return Tensor(np.asarray(numerical, dtype=self.dtype))

    # ------------------------------------------------------------------ #
    # Full forward pass
    # ------------------------------------------------------------------ #
    def forward(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Return ``(logits, embedding_leaf)``.

        ``categorical`` holds global feature ids of shape ``(batch, fields)``;
        ``numerical`` holds dense features of shape ``(batch, num_numerical)``
        (may be ``None``/empty when the dataset has no numerical fields).
        The embedding leaf is a ``requires_grad`` tensor wrapping the looked-up
        vectors; after backward its ``grad`` is passed to
        ``embedding.apply_gradients``.
        """
        categorical = np.asarray(categorical, dtype=np.int64)
        if categorical.ndim != 2 or categorical.shape[1] != self.num_fields:
            raise ValueError(
                f"categorical input must have shape (batch, {self.num_fields}), got {categorical.shape}"
            )
        numerical = self._check_numerical(numerical, categorical.shape[0])
        vectors = self.store.lookup(categorical)
        leaf = Tensor(vectors, requires_grad=True, name="embedding_leaf")
        logits = self.forward_dense(leaf, numerical)
        return logits, leaf

    def predict_proba(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> np.ndarray:
        """Click probabilities for a batch (no gradient bookkeeping)."""
        logits, _ = self.forward(categorical, numerical)
        z = logits.data.reshape(-1)
        out = np.empty_like(z)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    def _check_numerical(self, numerical: np.ndarray | None, batch_size: int) -> np.ndarray:
        if self.num_numerical == 0:
            return np.zeros((batch_size, 0), dtype=self.dtype)
        if numerical is None:
            raise ValueError(f"model expects {self.num_numerical} numerical features, got none")
        numerical = np.asarray(numerical, dtype=self.dtype)
        if numerical.shape != (batch_size, self.num_numerical):
            raise ValueError(
                f"numerical input must have shape ({batch_size}, {self.num_numerical}), "
                f"got {numerical.shape}"
            )
        return numerical

    def dense_parameter_count(self) -> int:
        """Number of parameters in the dense network (excludes embeddings)."""
        return self.num_parameters()
