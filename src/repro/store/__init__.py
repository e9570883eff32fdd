"""Embedding stores: the scalable layer between models and embedding tables.

``repro.store`` decouples the models/trainer from any single in-process
embedding table.  :class:`EmbeddingStore` is the interface,
:class:`ShardedEmbeddingStore` the hash-partitioned implementation (one shard
is the bit-exact default), and :class:`StoreSnapshot` the copy-on-write read
view that the serving engine consumes.
"""

from repro.store.base import EmbeddingStore, ensure_store
from repro.store.sharded import DEFAULT_SHARD_SEED, ShardedEmbeddingStore
from repro.store.snapshot import StoreSnapshot, partition_by_shard

__all__ = [
    "EmbeddingStore",
    "ensure_store",
    "ShardedEmbeddingStore",
    "StoreSnapshot",
    "partition_by_shard",
    "DEFAULT_SHARD_SEED",
]
