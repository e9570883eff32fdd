"""Latency-simulated shards for exercising the fan-out runtime.

On a single in-process core, CPU-bound NumPy shard work cannot run faster
under threads (the GIL serializes it).  What a threaded
:class:`~repro.runtime.executor.ShardExecutor` *does* buy is overlap of
per-shard stalls — the dominant cost once shards live behind an RPC, a
memory-mapped file, or any GIL-releasing kernel.  A
:class:`LatencySimulatedShard` makes that deployment shape testable on a
laptop: it delegates every store operation to a real in-memory backend but
sleeps ``stall_s`` first, emulating the round-trip to a remote shard server.

``time.sleep`` releases the GIL, so stalls on different shards genuinely
overlap under the thread-pool executor; the ``shard_parallel`` section of
``repro.bench`` uses this to measure fan-out speedup deterministically.
"""

from __future__ import annotations

import time

import numpy as np

from repro.embeddings.base import CompressedEmbedding


class LatencySimulatedShard(CompressedEmbedding):
    """Wrap an embedding backend, charging a fixed stall per operation.

    The wrapper is itself a :class:`~repro.embeddings.base.
    CompressedEmbedding`, so a :class:`~repro.store.sharded.
    ShardedEmbeddingStore` accepts it anywhere a real shard goes.  Reads and
    writes are delegated to ``inner`` after the stall; attributes the wrapper
    does not define (``sketch``, ``state_dict``, …) resolve on ``inner``.
    """

    def __init__(self, inner: CompressedEmbedding, stall_s: float = 0.001):
        if stall_s < 0:
            raise ValueError(f"stall_s must be non-negative, got {stall_s}")
        super().__init__(inner.num_features, inner.dim, dtype=inner.dtype)
        self.inner = inner
        self.use_frequency = inner.use_frequency
        self.stall_s = float(stall_s)
        self.stalled_calls = 0

    def _stall(self) -> None:
        self.stalled_calls += 1
        if self.stall_s:
            time.sleep(self.stall_s)

    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        self._stall()
        return self.inner.lookup_unique(uids)

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        self._stall()
        self.inner.apply_unique(uids, grad_sums, scores)
        self._step += 1

    def rebalance(self) -> bool:
        self._stall()
        return self.inner.rebalance()

    def memory_floats(self) -> int:
        return self.inner.memory_floats()

    def __getattr__(self, name: str):
        # Only reached for attributes not found on the wrapper itself;
        # forwards introspection (sketch, state_dict, ...).
        try:
            inner = self.__dict__["inner"]
        except KeyError:  # during __init__, before ``inner`` is bound
            raise AttributeError(name) from None
        return getattr(inner, name)
