"""Snapshot-backed inference serving with request micro-batching.

The engine separates the *serving* path from the *training* path that shares
a process with it:

* On :meth:`ServingEngine.refresh` the engine takes a copy-on-write
  :class:`~repro.store.snapshot.StoreSnapshot` of the model's embedding
  store and a frozen copy of the dense network, so in-flight requests see
  one consistent parameter version while online training keeps mutating the
  live store.
* Incoming requests queue up and are executed as one batched forward pass
  once ``max_batch_size`` rows are pending (or on an explicit
  :meth:`ServingEngine.flush`) — the standard micro-batching trade of a
  little queueing latency for a large throughput win on vectorized
  backends.  The queue is :class:`~repro.serving.batcher.MicroBatcher`,
  the one implementation this class shares with
  :class:`~repro.serving.replica.Replica`.
* Per-request wall times feed a :class:`~repro.serving.stats.
  LatencyTracker`, giving the p50/p95/p99 columns the fig13 experiment and
  ``python -m repro serve`` report.
"""

from __future__ import annotations

import copy

from repro.serving.batcher import MicroBatcher


class ServingEngine(MicroBatcher):
    """Micro-batching prediction server over embedding-store snapshots.

    Consistency model: every request is answered from the engine's current
    :class:`~repro.store.snapshot.StoreSnapshot` and frozen dense network —
    training the live store between :meth:`refresh` calls never changes
    served answers (the copy-on-write contract).  The engine itself is not
    internally locked: drive one engine from one thread, or synchronize
    callers externally.  Serving *while* another thread trains is safe
    because reads go through the immutable snapshot, not the live store;
    :class:`~repro.runtime.pipeline.OnlinePipeline` builds the train→publish
    loop on exactly this guarantee.
    """

    def __init__(self, model, max_batch_size: int = 256):
        super().__init__(max_batch_size)
        self.model = model
        self.snapshot = None
        self._frozen_model = None
        self.refresh()

    # ------------------------------------------------------------------ #
    # Snapshot management
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Re-snapshot the store and freeze the dense network ("publish").

        Call after (or periodically during) training to publish the newest
        parameters.  Requests already queued are flushed first so no request
        spans two parameter versions.  The snapshot half is O(1)
        copy-on-write; the dense network is deep-copied (it is small), so
        publish latency is dominated by that copy, not by table sizes.
        """
        self.flush()
        store = self.model.store
        self.snapshot = store.snapshot()
        # Deep-copy the dense network but splice the snapshot in where the
        # model references its store/embedding, so the frozen model's forward
        # reads embeddings from the snapshot without copying any table.
        memo = {id(store): self.snapshot, id(self.model.embedding): self.snapshot}
        self._frozen_model = copy.deepcopy(self.model, memo)

    @property
    def snapshot_version(self) -> int:
        return self.snapshot.version if self.snapshot is not None else 0

    def _serving_model(self):
        return self._frozen_model

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float | int]:
        """Latency percentiles plus micro-batching behaviour."""
        summary = self.latency.summary()
        summary["requests_served"] = self.requests_served
        summary["micro_batches"] = self.micro_batches
        summary["avg_micro_batch_rows"] = (
            round(self.rows_served / self.micro_batches, 2) if self.micro_batches else 0.0
        )
        summary["snapshot_version"] = self.snapshot_version
        return summary
