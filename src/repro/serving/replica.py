"""Replicated serving: N snapshot replicas behind a router.

One :class:`~repro.serving.engine.ServingEngine` tops out at one core's
forward-pass throughput.  The replicated tier scales horizontally: a
:class:`ReplicaSet` holds N :class:`Replica` instances — each a private,
micro-batching serving engine — and routes requests across them
round-robin.  Replicas are fed by the :class:`~repro.serving.delta.
DeltaSnapshotPublisher`: a *full* payload
rebuilds a replica's entire view, a *delta* payload replaces only the shards
training changed, and every payload is versioned so the chain is checked,
not assumed.

Cutover is atomic and all-or-nothing per replica: a payload is staged into
a completely new view (fresh shard list, private copy of the flat dense
weights, bound as a :class:`~repro.models.base.ServedModel`) while
readers keep using the current one, and the switch is a single reference
assignment — a replica that stalls (or dies) mid-cutover keeps serving the
old version, never a half-applied one.  Version checks happen before any
staging, so a refused payload (duplicate, replay, or a gap from a dropped
delta) raises one of the :mod:`repro.errors` delta-protocol errors and
leaves the replica exactly as it was.

Replicas deliberately *materialize* their state (deep copies of every
shipped shard, a copy of the dense weights) instead of aliasing the
publisher's frozen snapshots: a
replica models a process on another machine, so applying a payload pays
the real shipping cost.  A replica keeps one copy of its state: a new view
shares the unchanged shards of the one it replaces.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Callable

import numpy as np

from repro.errors import DeltaChainGapError, DeltaProtocolError, VersionRegressionError
from repro.serving.batcher import MicroBatcher, PendingPrediction
from repro.serving.delta import DeltaSnapshotPublisher, SnapshotPayload
from repro.store.snapshot import StoreSnapshot


class _Published:
    """One installed parameter version: the atomic unit readers see.

    Readers grab the current ``_Published`` once per operation; because the
    view and the dense model travel inside one object swapped by a single
    reference assignment, no request can ever mix two versions.
    """

    __slots__ = ("view", "model", "version", "step")

    def __init__(self, view: Any, model: Any, version: int, step: int):
        self.view = view
        self.model = model
        self.version = int(version)
        self.step = int(step)


def _view(template: StoreSnapshot, shards: list, payload: SnapshotPayload) -> StoreSnapshot:
    """A snapshot over ``shards`` laid out like ``template``, at ``payload``'s version."""
    return StoreSnapshot(
        shards=shards,
        shard_seed=template.shard_seed,
        dim=template.dim,
        num_features=template.num_features,
        dtype=template.dtype,
        version=payload.version,
        step=payload.step,
    )


class Replica(MicroBatcher):
    """One serving replica: a micro-batching engine over shipped payloads.

    Unlike :class:`~repro.serving.engine.ServingEngine`, a replica never
    touches the live model — it owns private copies of everything it
    serves, built from :class:`~repro.serving.delta.SnapshotPayload`
    objects via :meth:`apply`.

    ``before_cutover`` is a fault-injection hook: when set, it is called
    after a payload is fully staged but *before* the atomic switch, with
    ``(replica, payload)``.  Tests use it to stall or crash a replica
    mid-cutover and assert readers keep seeing the old version.
    """

    def __init__(self, index: int = 0, max_batch_size: int = 64):
        super().__init__(max_batch_size)
        self.index = int(index)
        self.before_cutover: Callable[["Replica", SnapshotPayload], None] | None = None
        self._serving: _Published | None = None
        self.full_applies = 0
        self.delta_applies = 0
        self.rows_applied = 0

    # ------------------------------------------------------------------ #
    # Payload ingestion
    # ------------------------------------------------------------------ #
    @property
    def ready(self) -> bool:
        return self._serving is not None

    @property
    def version(self) -> int:
        return self._serving.version if self._serving is not None else 0

    @property
    def step(self) -> int:
        return self._serving.step if self._serving is not None else 0

    def apply(self, payload: SnapshotPayload) -> None:
        """Stage ``payload`` into a new view and cut over atomically.

        Raises :class:`~repro.errors.VersionRegressionError` for duplicate
        or out-of-order payloads and :class:`~repro.errors.
        DeltaChainGapError` when a delta's base proves an earlier publish
        was dropped.  On any raise the replica is untouched and keeps
        serving its current version.
        """
        self._check_version(payload)
        view = self._stage_full(payload) if payload.kind == "full" else self._stage_delta(payload)
        model = payload.architecture.served(view, payload.dense_weights.copy())
        self.flush()  # no queued request may span two parameter versions
        if self.before_cutover is not None:
            self.before_cutover(self, payload)
        # The actual cutover: one reference assignment, all-or-nothing.
        self._serving = _Published(view, model, payload.version, payload.step)
        if payload.kind == "full":
            self.full_applies += 1
        else:
            self.delta_applies += 1
            self.rows_applied += payload.payload_rows

    def _check_version(self, payload: SnapshotPayload) -> None:
        current = self.version
        if payload.kind == "full":
            if self._serving is not None and payload.version <= current:
                raise VersionRegressionError(
                    f"replica {self.index} is at version {current} but received a "
                    f"full snapshot for version {payload.version}; refusing the "
                    "duplicate/rollback (replays must never silently rewind "
                    "served parameters)"
                )
            return
        if payload.kind != "delta":
            raise DeltaProtocolError(
                f"replica {self.index} received unknown payload kind "
                f"{payload.kind!r}; expected 'full' or 'delta'"
            )
        if self._serving is None:
            raise DeltaChainGapError(
                f"replica {self.index} has no base snapshot but received delta "
                f"v{payload.base_version}->v{payload.version}; ship a full "
                "snapshot first"
            )
        if payload.version <= current:
            raise VersionRegressionError(
                f"replica {self.index} is at version {current} but received "
                f"delta v{payload.base_version}->v{payload.version}; refusing "
                "the duplicate (re-applying a delta would corrupt served rows)"
            )
        if payload.base_version != current:
            missing = payload.base_version - current
            raise DeltaChainGapError(
                f"replica {self.index} is at version {current} but delta "
                f"v{payload.base_version}->v{payload.version} needs base "
                f"{payload.base_version}: {missing} intermediate publish(es) "
                "were dropped; request a full-snapshot rebase instead of "
                "serving silently stale rows"
            )

    def _stage_full(self, payload: SnapshotPayload):
        snapshot = payload.snapshot
        if isinstance(snapshot, StoreSnapshot):
            # Materialize private shard copies: the replica models a remote
            # process, so a full payload pays the whole-table shipping cost.
            shards = [copy.deepcopy(shard) for shard in snapshot.shards]
            return _view(snapshot, shards, payload)
        # Generic snapshot (e.g. TableGroupSnapshot): served whole.
        return copy.deepcopy(snapshot)

    def _stage_delta(self, payload: SnapshotPayload) -> StoreSnapshot:
        current = self._serving.view
        if not isinstance(current, StoreSnapshot):
            raise DeltaProtocolError(
                f"replica {self.index} serves a whole-snapshot view that "
                "cannot take shard deltas; the publisher must send full "
                "payloads for this store type"
            )
        shards = list(current.shards)
        for update in payload.updates:
            shards[update.index] = copy.deepcopy(update.shard)
        return _view(current, shards, payload)

    # ------------------------------------------------------------------ #
    # Request path (submit / flush / predict are the shared MicroBatcher's)
    # ------------------------------------------------------------------ #
    def _serving_model(self):
        serving = self._serving
        if serving is None:
            raise RuntimeError(
                f"replica {self.index} has no published snapshot; apply a full "
                "payload before serving"
            )
        return serving.model

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        summary = self.latency.summary()
        summary.update(
            index=self.index,
            version=self.version,
            step=self.step,
            requests_served=self.requests_served,
            micro_batches=self.micro_batches,
            full_applies=self.full_applies,
            delta_applies=self.delta_applies,
            rows_applied=self.rows_applied,
        )
        return summary


class ReplicaSet:
    """N replicas behind one round-robin router."""

    def __init__(self, num_replicas: int, max_batch_size: int = 64):
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        self.replicas = [Replica(i, max_batch_size) for i in range(num_replicas)]
        self._next = 0

    def __len__(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self, payload: SnapshotPayload) -> None:
        """Apply one payload to every replica (errors name the replica)."""
        for replica in self.replicas:
            replica.apply(payload)

    def versions(self) -> list[int]:
        return [replica.version for replica in self.replicas]

    @property
    def ready(self) -> bool:
        """True once every replica has a published snapshot to serve."""
        return all(replica.ready for replica in self.replicas)

    @property
    def version(self) -> int:
        """The lowest replica version (what the whole set is guaranteed at)."""
        return min(self.versions())

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self) -> Replica:
        """Pick the replica the next request goes to."""
        replica = self.replicas[self._next]
        self._next = (self._next + 1) % len(self.replicas)
        return replica

    def submit(
        self, categorical: np.ndarray, numerical: np.ndarray | None = None
    ) -> PendingPrediction:
        return self.route().submit(categorical, numerical)

    def predict(
        self, categorical: np.ndarray, numerical: np.ndarray | None = None
    ) -> np.ndarray:
        return self.route().predict(categorical, numerical)

    def flush(self) -> int:
        return sum(replica.flush() for replica in self.replicas)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        per_replica = [replica.stats() for replica in self.replicas]
        return {
            "num_replicas": len(self.replicas),
            "versions": self.versions(),
            "requests_served": sum(r["requests_served"] for r in per_replica),
            "replicas": per_replica,
        }


class ReplicaTier:
    """Publisher + replica set as one unit (what the pipeline drives).

    ``publish()`` extracts the next payload from the live model and fans it
    out to every replica; requests go through the set's router.
    """

    def __init__(
        self,
        model: Any,
        num_replicas: int = 2,
        max_batch_size: int = 64,
        rebase_every: int = 8,
    ):
        self.publisher = DeltaSnapshotPublisher(model, rebase_every=rebase_every)
        self.replicas = ReplicaSet(num_replicas, max_batch_size=max_batch_size)

    def publish(self) -> SnapshotPayload:
        start = time.perf_counter()
        payload = self.publisher.publish()
        self.replicas.publish(payload)
        self.publisher.stats.publish_latencies_s.append(time.perf_counter() - start)
        return payload

    def submit(self, categorical, numerical=None) -> PendingPrediction:
        return self.replicas.submit(categorical, numerical)

    def predict(self, categorical, numerical=None) -> np.ndarray:
        return self.replicas.predict(categorical, numerical)

    def flush(self) -> int:
        return self.replicas.flush()

    @property
    def version(self) -> int:
        return self.replicas.version

    @property
    def ready(self) -> bool:
        return self.replicas.ready

    def stats(self) -> dict[str, Any]:
        stats = self.replicas.stats()
        stats["publisher"] = {"version": self.publisher.version} | self.publisher.stats.as_dict()
        return stats
