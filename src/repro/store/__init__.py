"""Embedding stores: the scalable layer between models and embedding tables.

``repro.store`` decouples the models/trainer from any single in-process
embedding table.  :class:`ShardedEmbeddingStore` is the hash-partitioned
store (one shard is the bit-exact default; :func:`ensure_store` wraps a bare
layer in one), and :class:`StoreSnapshot` the copy-on-write read view that
the serving engine consumes.
"""

from repro.store.sharded import DEFAULT_SHARD_SEED, ShardedEmbeddingStore, ensure_store
from repro.store.snapshot import StoreSnapshot

__all__ = [
    "ensure_store",
    "ShardedEmbeddingStore",
    "StoreSnapshot",
    "DEFAULT_SHARD_SEED",
]
