"""Delta-snapshot extraction: publish only the rows training touched.

The single-engine serve path publishes by handing the engine a whole
copy-on-write snapshot.  That is O(1) *in process* but it is the wrong
currency for a replicated tier: shipping a snapshot to N replicas costs
N × (whole table) regardless of how little actually changed between
publishes.  Online recommendation traffic is Zipfian, so between two
publishes a few thousand hot rows change out of millions — the publisher
here extracts exactly those rows and ships them as a *versioned delta*:

``full``
    A complete snapshot (shard objects + frozen dense network).  Sent for
    the first publish, after every ``rebase_every`` deltas (so a fresh
    replica can always catch up from the latest full), and whenever delta
    extraction cannot prove correctness.

``delta``
    Per-shard row updates against an explicit ``base_version``.  Replicas
    refuse a delta whose base is not their current version (see
    :mod:`repro.errors`), which turns dropped or duplicated publishes into
    loud protocol errors instead of silent staleness.

Correctness is layered, cheapest proof first:

1. **Copy-on-write identity**: a shard object shared by both snapshots was
   never written between them (the store swaps in a private copy before the
   first write) — skipped in O(1).
2. **Write log**: :class:`~repro.store.sharded.ShardedEmbeddingStore`
   records the fused-scatter row sets of every ``apply_gradients`` between
   publishes; when the log is clean, only those rows are compared, so
   extraction is O(churn).
3. **Row diff**: without a clean log the changed shard's serving arrays are
   compared row-wise (vectorized O(table) compare, no allocation of the
   table) — always correct, used for stores that keep no write log and any
   backend whose log was poisoned by a rebalance or checkpoint restore.
4. **Replacement**: backends with no :meth:`~repro.embeddings.base.
   CompressedEmbedding.serving_state` (CAFE and friends: their *routing*
   trains, so changed lookups are not confined to changed rows) ship the
   whole frozen shard for replicas to rebuild.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.store.snapshot import StoreSnapshot


class _StoreSlot:
    """Placeholder spliced where the dense network references its store.

    The publisher deep-copies the dense network once per publish with this
    sentinel memoised in place of the (arbitrarily large) store; each
    replica re-splices its own view over the sentinel at cutover.  Deep
    copies of the sentinel are the sentinel itself, so the id survives the
    round trip.
    """

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<STORE_SLOT>"


#: The one shared sentinel instance payloads are built around.
STORE_SLOT = _StoreSlot()


@dataclass(frozen=True)
class RowDelta:
    """Changed rows of one serving-state array (``key`` names the array)."""

    key: str
    rows: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ShardUpdate:
    """One changed shard: either row deltas or a whole replacement object."""

    index: int
    row_deltas: tuple[RowDelta, ...] | None = None
    #: Frozen shard to rebuild from when row deltas cannot be proven
    #: correct (no serving_state); replicas deep-copy it privately.
    replacement: Any | None = None


@dataclass(frozen=True)
class SnapshotPayload:
    """One versioned publish: a full snapshot or a delta against a base.

    ``payload_rows`` / ``payload_floats`` account what a transport would
    actually ship (delta rows, or every table row for a full) — the figure
    ``perf/`` reports as ``serving.delta_rows_per_publish``.
    """

    kind: str  # "full" | "delta"
    version: int
    step: int
    dense_model: Any
    base_version: int | None = None
    #: Full payloads carry the whole frozen snapshot (replicas rebuild from
    #: it); deltas carry per-shard updates instead.
    snapshot: Any | None = None
    updates: tuple[ShardUpdate, ...] = ()
    payload_rows: int = 0
    payload_floats: int = 0

    def describe(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "version": self.version,
            "step": self.step,
            "base_version": self.base_version,
            "updated_shards": len(self.updates),
            "payload_rows": self.payload_rows,
            "payload_floats": self.payload_floats,
        }


def serving_state_of(shard: Any) -> dict[str, np.ndarray] | None:
    """The shard's serving arrays, or ``None`` when not delta-capable."""
    probe = getattr(shard, "serving_state", None)
    if not callable(probe):
        return None
    return probe()


@dataclass
class PublisherStats:
    """Publish accounting: how often each extraction tier actually ran."""

    publishes: int = 0
    full_publishes: int = 0
    delta_publishes: int = 0
    unchanged_shards: int = 0
    logged_diffs: int = 0
    row_diffs: int = 0
    replacements: int = 0
    rows_shipped: int = 0
    floats_shipped: int = 0
    publish_latencies_s: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "publishes": self.publishes,
            "full_publishes": self.full_publishes,
            "delta_publishes": self.delta_publishes,
            "unchanged_shards": self.unchanged_shards,
            "logged_diffs": self.logged_diffs,
            "row_diffs": self.row_diffs,
            "replacements": self.replacements,
            "rows_shipped": self.rows_shipped,
            "floats_shipped": self.floats_shipped,
        }


class DeltaSnapshotPublisher:
    """Builds versioned full/delta payloads from consecutive store snapshots.

    One publisher per trained model; it keeps the previous snapshot (frozen,
    so holding it is free until training diverges) and, on ``publish()``,
    snapshots again, diffs the two, and emits the smallest payload it can
    prove correct.  Replicas (:class:`~repro.serving.replica.Replica`) are
    fed the payloads in order; the publisher itself holds no replica state,
    so one payload can fan out to any number of replicas.

    ``rebase_every`` bounds the delta chain: every ``rebase_every``-th
    publish is a full snapshot, so at most ``rebase_every - 1`` deltas sit
    between two fulls (``1`` = every publish is full — the whole-snapshot
    baseline; ``0`` = never rebase).
    """

    def __init__(self, model: Any, rebase_every: int = 8):
        if rebase_every < 0:
            raise ValueError(f"rebase_every must be >= 0, got {rebase_every}")
        self.model = model
        store = getattr(model, "store", None)
        if store is None:
            store = model.embedding
        self.store = store
        self.rebase_every = int(rebase_every)
        self.stats = PublisherStats()
        self._prev: Any | None = None
        self._prev_states: list[dict[str, np.ndarray] | None] = []
        self._prev_tokens: list[Any] = []
        self._deltas_since_full = 0
        enable = getattr(store, "enable_write_log", None)
        self._write_log_enabled = bool(enable()) if callable(enable) else False

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Version of the most recent payload (0 before the first)."""
        return int(getattr(self._prev, "version", 0)) if self._prev is not None else 0

    def publish(self) -> SnapshotPayload:
        """Snapshot the live store and emit the next payload in the chain."""
        snapshot = self.store.snapshot()
        dense = self._frozen_dense()
        version = int(getattr(snapshot, "version", self.stats.publishes + 1))
        step = int(getattr(snapshot, "step", 0))
        log = self._drain_write_log()

        prev = self._prev
        diffable = (
            prev is not None
            and isinstance(prev, StoreSnapshot)
            and isinstance(snapshot, StoreSnapshot)
            and prev.num_shards == snapshot.num_shards
        )
        rebase_due = (
            self.rebase_every and self._deltas_since_full + 1 >= self.rebase_every
        )

        if diffable and not rebase_due:
            payload = self._delta_payload(prev, snapshot, version, step, dense, log)
            self._deltas_since_full += 1
            self.stats.delta_publishes += 1
        else:
            payload = self._full_payload(snapshot, version, step, dense)
            self._deltas_since_full = 0
            self.stats.full_publishes += 1

        self.stats.publishes += 1
        self.stats.rows_shipped += payload.payload_rows
        self.stats.floats_shipped += payload.payload_floats
        self._remember(snapshot)
        return payload

    def _frozen_dense(self) -> Any:
        """Dense network copy with the store replaced by :data:`STORE_SLOT`."""
        memo = {id(self.store): STORE_SLOT}
        embedding = getattr(self.model, "embedding", None)
        if embedding is not None:
            memo[id(embedding)] = STORE_SLOT
        return copy.deepcopy(self.model, memo)

    def _remember(self, snapshot: Any) -> None:
        self._prev = snapshot
        if isinstance(snapshot, StoreSnapshot):
            self._prev_states = [serving_state_of(s) for s in snapshot.shards]
            self._prev_tokens = [
                getattr(s, "_routing_version", None) for s in snapshot.shards
            ]
        else:
            self._prev_states = []
            self._prev_tokens = []

    def _drain_write_log(self) -> list[np.ndarray | None] | None:
        if not self._write_log_enabled:
            return None
        drain = getattr(self.store, "drain_write_log", None)
        return drain() if callable(drain) else None

    # ------------------------------------------------------------------ #
    # Payload construction
    # ------------------------------------------------------------------ #
    def _full_payload(self, snapshot, version, step, dense) -> SnapshotPayload:
        rows = 0
        floats = 0
        shards = getattr(snapshot, "shards", None)
        units = shards if shards is not None else [snapshot]
        for unit in units:
            state = serving_state_of(unit)
            if state:
                rows += int(sum(arr.shape[0] for arr in state.values()))
            memory = getattr(unit, "memory_floats", None)
            floats += int(memory()) if callable(memory) else 0
        return SnapshotPayload(
            kind="full",
            version=version,
            step=step,
            dense_model=dense,
            snapshot=snapshot,
            payload_rows=rows,
            payload_floats=floats,
        )

    def _delta_payload(self, prev, snapshot, version, step, dense, log) -> SnapshotPayload:
        updates: list[ShardUpdate] = []
        rows_total = 0
        floats_total = 0
        for index, (old, new) in enumerate(zip(prev.shards, snapshot.shards)):
            if new is old:
                # Copy-on-write guarantee: the object was never written.
                self.stats.unchanged_shards += 1
                continue
            logged = log[index] if log is not None and index < len(log) else None
            update, rows, floats = self._diff_shard(index, old, new, logged)
            if update is not None:
                updates.append(update)
                rows_total += rows
                floats_total += floats
        return SnapshotPayload(
            kind="delta",
            version=version,
            step=step,
            base_version=int(prev.version),
            dense_model=dense,
            updates=tuple(updates),
            payload_rows=rows_total,
            payload_floats=floats_total,
        )

    def _diff_shard(
        self, index, old, new, logged
    ) -> tuple[ShardUpdate | None, int, int]:
        """Smallest provably-correct update for one changed shard."""
        new_state = serving_state_of(new)
        old_state = self._prev_states[index] if index < len(self._prev_states) else None
        old_token = self._prev_tokens[index] if index < len(self._prev_tokens) else None
        compatible = (
            new_state is not None
            and old_state is not None
            and set(new_state) == set(old_state)
            and all(
                new_state[k].shape == old_state[k].shape
                and new_state[k].dtype == old_state[k].dtype
                for k in new_state
            )
            and getattr(new, "_routing_version", None) == old_token
        )
        if not compatible:
            self.stats.replacements += 1
            memory = getattr(new, "memory_floats", None)
            floats = int(memory()) if callable(memory) else 0
            rows = int(sum(a.shape[0] for a in new_state.values())) if new_state else 0
            return ShardUpdate(index=index, replacement=new), rows, floats

        # The write log narrows the compare to rows training scattered into;
        # it only applies when the shard's whole serving state is the single
        # fused table those scatters target.
        candidates = logged if set(new_state) == {"table"} else None
        deltas: list[RowDelta] = []
        rows_total = 0
        floats_total = 0
        for key in sorted(new_state):
            old_arr = old_state[key]
            new_arr = new_state[key]
            axes = tuple(range(1, new_arr.ndim))
            if candidates is not None:
                self.stats.logged_diffs += 1
                cand = candidates
                changed = np.any(old_arr[cand] != new_arr[cand], axis=axes)
                rows = cand[changed]
            else:
                self.stats.row_diffs += 1
                rows = np.flatnonzero(np.any(old_arr != new_arr, axis=axes))
            if not rows.size:
                continue
            values = new_arr[rows]
            deltas.append(RowDelta(key=key, rows=rows, values=values))
            rows_total += int(rows.size)
            floats_total += int(values.size)
        if not deltas:
            return None, 0, 0
        return ShardUpdate(index=index, row_deltas=tuple(deltas)), rows_total, floats_total
