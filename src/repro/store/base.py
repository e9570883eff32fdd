"""The embedding *store* interface the models and trainer program against.

Historically the models held a bare :class:`~repro.embeddings.base.
CompressedEmbedding` and called ``lookup`` / ``apply_gradients`` on it
directly.  That couples the model to one in-process table and closes the door
on horizontal scaling.  An :class:`EmbeddingStore` is the seam between the
two: it has the same training-time surface as an embedding layer (so the
single-shard case stays bit-exact with the direct path) plus the serving
operations a scalable deployment needs:

* :meth:`EmbeddingStore.snapshot` — a copy-on-write, read-only view of the
  current parameters that inference can use while training keeps mutating
  the live store;
* shard introspection (``num_shards``, per-shard memory) so benchmarks and
  experiments can measure scaling behaviour.

:func:`ensure_store` adapts a bare embedding layer by wrapping it in a
single-shard :class:`~repro.store.sharded.ShardedEmbeddingStore`, which
delegates straight through to the layer — no re-partitioning, no copies —
so existing fixed-seed runs reproduce exactly.
"""

from __future__ import annotations

import abc

import numpy as np


class EmbeddingStore(abc.ABC):
    """Abstract interface of a (possibly sharded) embedding parameter store.

    A store has the training-time surface of an embedding layer (``lookup``
    then ``apply_gradients``, once each per step) plus :meth:`snapshot` for
    serving.  Implementations are single-writer: exactly one thread (the
    trainer) may call ``apply_gradients``; any number of threads may read
    from *snapshots* concurrently, because snapshots are immutable by
    contract.  Calling ``lookup`` on the live store from a second thread is
    not safe — route concurrent readers through a snapshot instead.
    """

    #: Embedding dimension served by the store.
    dim: int
    #: Size of the global feature-id space.
    num_features: int
    #: Storage dtype of the tables; ``lookup`` returns it and the model built
    #: on the store derives its compute dtype from it.
    dtype: np.dtype

    @abc.abstractmethod
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Return embeddings of shape ``ids.shape + (dim,)``.

        Reads the *live* parameters (training's most recent writes).  Not
        thread-safe against a concurrent ``apply_gradients``; serving paths
        must read through :meth:`snapshot` views instead.
        """

    @abc.abstractmethod
    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        """Apply per-lookup gradients of shape ``ids.shape + (dim,)``.

        The store's only mutating operation (checkpoint restore aside).
        Must be called from a single writer thread; triggers the lazy
        copy-on-write of any shard still shared with a snapshot before the
        shard is touched.
        """

    @abc.abstractmethod
    def memory_floats(self) -> int:
        """Total footprint in float32-equivalent parameters, all shards."""

    @abc.abstractmethod
    def snapshot(self):
        """Return a read-only, copy-on-write view of the current parameters.

        The view keeps serving the parameter values from the moment of the
        call even while training continues on the store (the store copies a
        shard lazily on its first write after the snapshot).  Snapshots are
        therefore safe to read from any number of threads while exactly one
        thread keeps training the live store — the mechanism that makes
        serve-while-train work without locks.  Taking a snapshot is O(1);
        memory is only spent when training first rewrites a frozen shard.
        """


def ensure_store(embedding) -> EmbeddingStore:
    """Adapt ``embedding`` to the store interface.

    Stores pass through unchanged; a bare embedding layer is wrapped in a
    single-shard sharded store that delegates to it directly (bit-exact with
    calling the layer itself).

    >>> from repro.embeddings.hash_embedding import HashEmbedding
    >>> store = ensure_store(HashEmbedding(100, 4, num_rows=10, rng=0))
    >>> store.num_shards, store.num_features, store.dim
    (1, 100, 4)
    >>> ensure_store(store) is store
    True
    """
    if isinstance(embedding, EmbeddingStore):
        return embedding
    from repro.store.sharded import ShardedEmbeddingStore

    return ShardedEmbeddingStore([embedding])
