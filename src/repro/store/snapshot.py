"""Read-only snapshot views over a sharded embedding store.

A :class:`StoreSnapshot` holds the one table that was live when
:meth:`~repro.store.sharded.ShardedEmbeddingStore.snapshot` ran: the backend
of a one-shard store, or the :class:`~repro.embeddings.cafe.CafeStack` of a
sharded one.  The store guarantees that table is never written again
(copy-on-write: training swaps in a private copy before mutating), so the
snapshot can serve lookups indefinitely at the frozen parameter values — the
serving engine reads from snapshots while online training keeps advancing
the live store.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.stream import as_id_array
from repro.embeddings.plan import UniqueBatch


class StoreSnapshot:
    """Immutable lookup view over one frozen table."""

    __slots__ = ("table", "dim", "num_features", "dtype", "version", "step")

    def __init__(
        self,
        table: Any,
        dim: int,
        num_features: int,
        dtype: np.dtype,
        version: int = 0,
        step: int = 0,
    ):
        #: The frozen table (immutable by the copy-on-write contract).  The
        #: delta publisher compares consecutive snapshots' tables: the same
        #: object means nothing was written between the two, in O(1).
        self.table = table
        self.dim = int(dim)
        self.num_features = int(num_features)
        self.dtype = np.dtype(dtype)
        #: Monotonic snapshot counter of the owning store (for cache keys).
        self.version = int(version)
        #: Training step of the store at snapshot time.
        self.step = int(step)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Embeddings of shape ``ids.shape + (dim,)`` at the frozen values;
        routed without a plan cache, so a read writes nothing the store holds."""
        table = self.table
        return UniqueBatch.build(as_id_array(ids), self.num_features).broadcast(
            lambda uids: table.gather(uids, table.routes(uids)), self.dim, self.dtype
        )

    def memory_floats(self) -> int:
        """Footprint of the frozen table (shared with the live store until
        copy-on-write copies diverge).
        """
        return int(self.table.memory_floats())
