"""Delta-snapshot extraction: publish the store's table only when it changed.

The single-engine serve path publishes by handing the engine a whole
copy-on-write snapshot.  That is O(1) *in process* but it is the wrong
currency for a replicated tier: shipping a snapshot to N replicas costs
N × (whole table) regardless of whether anything changed between
publishes.  The publisher here ships a *versioned* payload instead:

``full``
    The frozen snapshot (+ flat dense weights).  Sent for the first publish
    and after every ``rebase_every`` deltas (so a fresh replica can always
    catch up from the latest full).

``delta``
    Flat dense weights against an explicit ``base_version``, plus the frozen
    snapshot when the store's table changed since the previous payload.
    Replicas refuse a delta whose base is not their current version (see
    :mod:`repro.errors`), which turns dropped or duplicated publishes into
    loud protocol errors instead of silent staleness.

A store holds one table — the backend at one shard, the
:class:`~repro.embeddings.cafe.CafeStack` at two or more — and ships it
whole, or nothing:

1. **Copy-on-write identity**: a table shared by both snapshots was never
   written between them (the store swaps in a private copy before the first
   write), so it is skipped in O(1).
2. **A changed table ships whole**, and replicas copy it privately.  In CAFE
   the HotSketch decides which row answers an id and it trains, so a changed
   lookup is not confined to changed rows; the whole table is always correct.

Payloads are numbered by the publisher, 1, 2, 3, …, independent of the
other snapshots the store takes (a :class:`~repro.serving.engine.
ServingEngine` refresh takes one too), so a gap in the chain is exactly the
number of dropped publishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.store.snapshot import StoreSnapshot


@dataclass(frozen=True)
class SnapshotPayload:
    """One versioned publish: a full snapshot or a delta against a base.

    ``payload_floats`` accounts what a transport would actually ship (the
    snapshot's table, or nothing); ``payload_rows`` is that in rows of the
    store's width, the figure ``perf/`` reports as
    ``serving.delta_rows_per_publish``.
    """

    kind: str  # "full" | "delta"
    version: int
    step: int
    #: The trained model, for its architecture only (replicas never read
    #: its live parameters) ...
    architecture: Any
    #: ... and one flat copy of its dense weights at this version
    #: (:meth:`~repro.nn.module.Module.flat_parameters`).
    dense_weights: np.ndarray
    base_version: int | None = None
    #: The frozen snapshot, when its table changed since the previous
    #: payload (always, for a full); ``None`` ships no table.
    snapshot: StoreSnapshot | None = None
    payload_rows: int = 0
    payload_floats: int = 0


@dataclass
class PublisherStats:
    """Publish accounting: payload kinds and what they shipped."""

    publishes: int = 0
    full_publishes: int = 0
    delta_publishes: int = 0
    rows_shipped: int = 0
    floats_shipped: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "publishes": self.publishes,
            "full_publishes": self.full_publishes,
            "delta_publishes": self.delta_publishes,
            "rows_shipped": self.rows_shipped,
            "floats_shipped": self.floats_shipped,
        }


class DeltaSnapshotPublisher:
    """Builds versioned full/delta payloads from consecutive store snapshots.

    One publisher per trained model; it keeps the previous snapshot (frozen,
    so holding it is free until training diverges) and, on ``publish()``,
    snapshots again and ships the new snapshot unless its table is the
    previous snapshot's object.  Replicas (:class:`~repro.serving.replica.
    Replica`) are fed the payloads in order; the publisher itself holds no
    replica state, so one payload can fan out to any number of replicas.

    ``rebase_every`` bounds the delta chain: every ``rebase_every``-th
    publish is a full snapshot, so at most ``rebase_every - 1`` deltas sit
    between two fulls (``1`` = every publish is full — the whole-snapshot
    baseline; ``0`` = never rebase).
    """

    def __init__(self, model: Any, rebase_every: int = 8):
        if rebase_every < 0:
            raise ValueError(f"rebase_every must be >= 0, got {rebase_every}")
        self.model = model
        self.store = model.store
        self.rebase_every = int(rebase_every)
        self.stats = PublisherStats()
        #: Number of the most recent payload (0 before the first).
        self.version = 0
        self._prev: StoreSnapshot | None = None
        self._deltas_since_full = 0

    def publish(self) -> SnapshotPayload:
        """Snapshot the live store and emit the next payload in the chain."""
        snapshot = self.store.snapshot()
        dense = self.model.flat_parameters()
        version = self.version + 1
        rebase_due = (
            self.rebase_every and self._deltas_since_full + 1 >= self.rebase_every
        )
        if self._prev is not None and not rebase_due:
            # Copy-on-write: the same table object was never written.
            changed = snapshot.table is not self._prev.table
            payload = self._payload("delta", version, snapshot, dense, changed)
            self._deltas_since_full += 1
            self.stats.delta_publishes += 1
        else:
            payload = self._payload("full", version, snapshot, dense, True)
            self._deltas_since_full = 0
            self.stats.full_publishes += 1

        self.stats.publishes += 1
        self.stats.rows_shipped += payload.payload_rows
        self.stats.floats_shipped += payload.payload_floats
        self.version = version
        self._prev = snapshot
        return payload

    def _payload(self, kind, version, snapshot, dense, ships) -> SnapshotPayload:
        floats = snapshot.memory_floats() if ships else 0
        return SnapshotPayload(
            kind=kind,
            version=version,
            step=snapshot.step,
            architecture=self.model,
            dense_weights=dense,
            base_version=None if kind == "full" else self.version,
            snapshot=snapshot if ships else None,
            payload_rows=floats // snapshot.dim,
            payload_floats=floats,
        )
