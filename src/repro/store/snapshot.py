"""Read-only snapshot views over a sharded embedding store.

A :class:`StoreSnapshot` captures the shard objects that were live when
:meth:`~repro.store.sharded.ShardedEmbeddingStore.snapshot` ran.  The store
guarantees those objects are never written again (copy-on-write: training
swaps in private copies before mutating), so the snapshot can serve lookups
indefinitely at the frozen parameter values — the serving engine reads from
snapshots while online training keeps advancing the live store.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings.plan import UniqueBatch, as_id_array
from repro.kernels.ops import stable_sort
from repro.utils.hashing import hash_to_range


def partition_by_shard(
    flat_ids: np.ndarray, num_shards: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group a flat id batch by owning shard.

    Returns ``(order, starts)``: ``order`` is a stable permutation sorting
    the batch by shard, and ``starts`` has ``num_shards + 1`` entries so that
    ``order[starts[s]:starts[s + 1]]`` indexes shard ``s``'s sub-batch.
    """
    order, sorted_shards = stable_sort(hash_to_range(flat_ids, num_shards, seed=seed))
    return order, np.searchsorted(sorted_shards, np.arange(num_shards + 1))


class ShardPartition:
    """A batch's sorted unique ids grouped by owning shard.

    The grouping is stable, so ids stay ascending inside each shard — the
    precondition of every backend's ``lookup_unique`` / ``apply_unique``.
    Every shard's share of a per-id array is one contiguous slice of the
    regrouped array (:meth:`split`), and shard results land in slices of one
    buffer that a single gather puts back in id order (:meth:`merge`).
    """

    __slots__ = ("order", "rank", "shards", "spans", "shard_uids")

    def __init__(self, uids: np.ndarray, num_shards: int, seed: int):
        self.order, starts = partition_by_shard(uids, num_shards, seed)
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.order.shape[0])
        #: Indices of the shards that own at least one id, and their spans.
        self.shards = [s for s in range(num_shards) if starts[s + 1] > starts[s]]
        self.spans = [slice(int(starts[s]), int(starts[s + 1])) for s in self.shards]
        self.shard_uids = self.split(uids)

    def split(self, per_id: np.ndarray) -> list[np.ndarray]:
        """Each owning shard's contiguous slice of a ``(U, ...)`` array."""
        grouped = np.take(per_id, self.order, axis=0)
        return [grouped[span] for span in self.spans]

    def merge(self, shard_rows: Sequence[np.ndarray], dim: int, dtype: np.dtype) -> np.ndarray:
        """``(U, dim)`` rows in id order from one ``(u_s, dim)`` block per shard."""
        grouped = np.empty((self.order.shape[0], dim), dtype=dtype)
        for span, rows in zip(self.spans, shard_rows):
            grouped[span] = rows
        return np.take(grouped, self.rank, axis=0)


class StoreSnapshot:
    """Immutable lookup view over frozen embedding shards."""

    __slots__ = ("_shards", "shard_seed", "dim", "num_features", "dtype", "version", "step")

    def __init__(
        self,
        shards: Sequence,
        shard_seed: int,
        dim: int,
        num_features: int,
        dtype: np.dtype,
        version: int = 0,
        step: int = 0,
    ):
        self._shards = tuple(shards)
        self.shard_seed = int(shard_seed)
        self.dim = int(dim)
        self.num_features = int(num_features)
        self.dtype = np.dtype(dtype)
        #: Monotonic snapshot counter of the owning store (for cache keys).
        self.version = int(version)
        #: Training step of the store at snapshot time.
        self.step = int(step)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple:
        """The frozen shard objects (immutable by the copy-on-write contract).

        The delta publisher compares consecutive snapshots shard by shard:
        identical objects mean the shard was never written between the two
        (copy-on-write swaps in a private copy on the first write), so the
        identity check alone clears unchanged shards in O(1).
        """
        return self._shards

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Embeddings of shape ``ids.shape + (dim,)`` at the frozen values."""
        if self.num_shards == 1:
            return self._shards[0].lookup(ids)
        batch = UniqueBatch.build(as_id_array(ids), self.num_features)
        if not len(batch):
            return np.empty(batch.ids_shape + (self.dim,), dtype=self.dtype)
        partition = ShardPartition(batch.uids, self.num_shards, self.shard_seed)
        rows = partition.merge(
            [
                self._shards[shard].lookup_unique(uids)
                for shard, uids in zip(partition.shards, partition.shard_uids)
            ],
            self.dim,
            self.dtype,
        )
        return np.take(rows, batch.inverse, axis=0).reshape(batch.ids_shape + (self.dim,))

    def memory_floats(self) -> int:
        """Footprint of the frozen shards (shared with the live store until
        copy-on-write copies diverge).
        """
        return int(sum(shard.memory_floats() for shard in self._shards))
