"""Fault injection for the replicated serve path.

Two failure families the delta protocol must turn into *defined* behaviour:

* a replica that stalls (or dies) mid-cutover keeps serving the old version
  — readers never observe a half-applied view;
* dropped or duplicated payloads raise descriptive protocol errors instead
  of silently serving stale or corrupted rows.
"""

import threading

import numpy as np
import pytest

from repro.errors import DeltaChainGapError, VersionRegressionError
from repro.models.dlrm import DLRM
from repro.serving import DeltaSnapshotPublisher, ReplicaSet, ServingEngine
from repro.store import ShardedEmbeddingStore

DIM = 8
NUM_FEATURES = 1200
FIELDS = 3
NUMERICAL = 2


def make_model(seed=0):
    store = ShardedEmbeddingStore.build(
        "hash",
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=1,
        compression_ratio=8.0,
        seed=seed,
    )
    return DLRM(store, FIELDS, NUMERICAL, rng=seed)


def train_some(model, rng, steps=2):
    for _ in range(steps):
        ids = rng.integers(0, NUM_FEATURES, size=(48, FIELDS))
        grads = rng.normal(scale=0.1, size=(48, FIELDS, DIM)).astype(np.float32)
        model.store.lookup(ids)
        model.store.apply_gradients(ids, grads)


def probe_rows(seed=5, rows=16):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, NUM_FEATURES, size=(rows, FIELDS)),
        rng.normal(size=(rows, NUMERICAL)),
    )


def publish_chain(rebase_every=0, rounds=1, seed=0):
    """Model + publisher + a single-replica set that has applied ``rounds``
    payloads; returns (model, publisher, replica, rng)."""
    model = make_model(seed)
    publisher = DeltaSnapshotPublisher(model, rebase_every=rebase_every)
    replicas = ReplicaSet(1)
    rng = np.random.default_rng(17)
    for _ in range(rounds):
        train_some(model, rng)
        replicas.publish(publisher.publish())
    return model, publisher, replicas.replicas[0], rng


class TestStalledCutover:
    def test_stall_mid_cutover_serves_old_version(self):
        """The before_cutover hook runs with the payload fully staged; any
        read issued there must still hit the previous version."""
        model, publisher, replica, rng = publish_chain(rounds=1)
        cat, num = probe_rows()
        old_version = replica.version
        old_prediction = replica.predict(cat, num)

        train_some(model, rng)
        payload = publisher.publish()
        observed = {}

        def stall(rep, incoming):
            observed["version"] = rep.version
            observed["prediction"] = rep.predict(cat, num)

        replica.before_cutover = stall
        replica.apply(payload)

        assert observed["version"] == old_version
        assert np.array_equal(observed["prediction"], old_prediction), (
            "a read during a stalled cutover must see the old view bit-exact"
        )
        # ... and once the cutover completes, the new version serves.
        assert replica.version == payload.version
        assert not np.array_equal(replica.predict(cat, num), old_prediction)

    def test_reader_thread_during_stalled_cutover(self):
        """Same property under real concurrency: a reader thread samples the
        replica while apply() is parked inside the cutover hook."""
        model, publisher, replica, rng = publish_chain(rounds=1)
        cat, num = probe_rows()
        old_prediction = replica.predict(cat, num)
        train_some(model, rng)
        payload = publisher.publish()

        stalled = threading.Event()
        release = threading.Event()
        reads = []

        def reader():
            stalled.wait(timeout=5.0)
            for _ in range(3):
                probabilities = replica.predict(cat, num)
                reads.append((replica.version, probabilities))
            release.set()

        def stall(rep, incoming):
            stalled.set()
            assert release.wait(timeout=5.0), "reader never finished"

        replica.before_cutover = stall
        thread = threading.Thread(target=reader)
        thread.start()
        replica.apply(payload)
        thread.join(timeout=5.0)

        assert len(reads) == 3
        for version, probabilities in reads:
            assert version == 1
            assert np.array_equal(probabilities, old_prediction)
        assert replica.version == payload.version

    def test_crash_mid_cutover_leaves_replica_untouched(self):
        """A replica that dies in the hook (exception) rolls back to exactly
        the old version — cutover is all-or-nothing."""
        model, publisher, replica, rng = publish_chain(rounds=1)
        cat, num = probe_rows()
        old_version = replica.version
        old_prediction = replica.predict(cat, num)
        train_some(model, rng)
        payload = publisher.publish()

        def crash(rep, incoming):
            raise RuntimeError("simulated replica crash mid-cutover")

        replica.before_cutover = crash
        with pytest.raises(RuntimeError, match="simulated replica crash"):
            replica.apply(payload)

        assert replica.version == old_version
        assert np.array_equal(replica.predict(cat, num), old_prediction)
        # Recovery: removing the fault and re-applying the same payload works
        # (the version was never consumed).
        replica.before_cutover = None
        replica.apply(payload)
        assert replica.version == payload.version


class TestDeltaProtocolFaults:
    def test_dropped_delta_raises_chain_gap(self):
        model, publisher, replica, rng = publish_chain(rounds=1)
        cat, num = probe_rows()
        before = replica.predict(cat, num)
        train_some(model, rng)
        dropped = publisher.publish()  # never delivered
        train_some(model, rng)
        following = publisher.publish()

        with pytest.raises(DeltaChainGapError) as excinfo:
            replica.apply(following)
        message = str(excinfo.value)
        assert "dropped" in message and "rebase" in message, (
            f"gap errors must say what happened and how to recover: {message}"
        )
        # No silent staleness: the replica still serves its old version.
        assert replica.version == 1
        assert np.array_equal(replica.predict(cat, num), before)
        # Delivering the missing link repairs the chain.
        replica.apply(dropped)
        replica.apply(following)
        assert replica.version == following.version

    def test_gap_counts_publishes_not_engine_refreshes(self):
        """An engine refreshing the same store takes snapshots of its own
        between publishes; the gap a replica reports still counts publishes."""
        model = make_model()
        engine = ServingEngine(model)
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replica = ReplicaSet(1).replicas[0]
        rng = np.random.default_rng(17)
        payloads = []
        for _ in range(3):
            train_some(model, rng)
            engine.refresh()
            payloads.append(publisher.publish())
        assert [payload.version for payload in payloads] == [1, 2, 3]
        assert publisher.version == 3
        replica.apply(payloads[0])
        with pytest.raises(DeltaChainGapError, match=r"\b1 intermediate publish\(es\) were dropped"):
            replica.apply(payloads[2])

    def test_duplicated_delta_raises_version_regression(self):
        model, publisher, replica, rng = publish_chain(rounds=1)
        train_some(model, rng)
        delta = publisher.publish()
        replica.apply(delta)
        served = replica.predict(*probe_rows())
        with pytest.raises(VersionRegressionError, match="duplicate"):
            replica.apply(delta)
        assert replica.version == delta.version
        assert np.array_equal(replica.predict(*probe_rows()), served), (
            "a refused duplicate must not have touched served rows"
        )

    def test_duplicated_full_raises_version_regression(self):
        model, publisher, replica, rng = publish_chain(rebase_every=1, rounds=1)
        train_some(model, rng)
        full = publisher.publish()
        assert full.kind == "full"
        replica.apply(full)
        with pytest.raises(VersionRegressionError, match="rollback|duplicate"):
            replica.apply(full)

    def test_delta_without_base_raises_chain_gap(self):
        model = make_model()
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(17)
        train_some(model, rng)
        publisher.publish()  # full, never delivered to this replica
        train_some(model, rng)
        delta = publisher.publish()
        fresh = ReplicaSet(1).replicas[0]
        with pytest.raises(DeltaChainGapError, match="full snapshot first"):
            fresh.apply(delta)
        assert not fresh.ready

