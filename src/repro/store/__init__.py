"""Embedding stores: the scalable layer between models and embedding tables.

``repro.store`` decouples the models/trainer from any single in-process
embedding table.  :class:`EmbeddingStore` is the interface,
:class:`ShardedEmbeddingStore` the hash-partitioned implementation (one shard
is the bit-exact default), :class:`TableGroupStore` the per-field
heterogeneous-policy implementation (tiny fields uncompressed, skewed tails
on CAFE, mid fields hashed — one backend per field group, shardable within a
group), and :class:`StoreSnapshot` / :class:`TableGroupSnapshot` the
copy-on-write read views that the serving engine consumes.
"""

from repro.store.base import EmbeddingStore, ensure_store
from repro.store.sharded import DEFAULT_SHARD_SEED, ShardedEmbeddingStore
from repro.store.snapshot import StoreSnapshot, partition_by_shard
from repro.store.table_group import TableGroup, TableGroupSnapshot, TableGroupStore

__all__ = [
    "EmbeddingStore",
    "ensure_store",
    "ShardedEmbeddingStore",
    "StoreSnapshot",
    "TableGroup",
    "TableGroupSnapshot",
    "TableGroupStore",
    "partition_by_shard",
    "DEFAULT_SHARD_SEED",
]
