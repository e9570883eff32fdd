"""Snapshot immutability while training keeps mutating the live store.

The copy-on-write contract behind serve-while-train: a snapshot taken
mid-training must stay bit-identical no matter how much `apply_gradients`
traffic (CAFE migrating rows on every step) hits the live store afterwards,
also when a reader thread hammers the snapshot *while* the writer thread
trains.
"""

import threading

import numpy as np
import pytest

from repro.models.dlrm import DLRM
from repro.serving.engine import ServingEngine
from repro.store import ShardedEmbeddingStore

DIM = 8
NUM_FEATURES = 3000


def make_store(num_shards=3, method="cafe"):
    # CAFE runs its migration pass after every step, so every write below
    # also moves rows between the hot and shared tables.
    migrate = {"rebalance_interval": 1} if method == "cafe" else {}
    return ShardedEmbeddingStore.build(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=8.0,
        seed=0,
        **migrate,
    )


def training_traffic(seed, steps=6, batch=96, fields=3):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        ids = rng.integers(0, NUM_FEATURES, size=(batch, fields))
        grads = rng.normal(scale=0.1, size=(batch, fields, DIM)).astype(np.float32)
        yield ids, grads


@pytest.mark.parametrize("method", ["hash", "cafe"])
class TestSnapshotBitIdentical:
    def test_mid_training_snapshot_survives_updates_and_migration(self, method):
        store = make_store(num_shards=3 if method == "cafe" else 1, method=method)
        probe = np.random.default_rng(99).integers(0, NUM_FEATURES, size=(64, 3))

        # Warm up, snapshot mid-training, capture the frozen values.
        for ids, grads in training_traffic(1):
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        snapshot = store.snapshot()
        frozen = snapshot.lookup(probe).copy()

        # Keep mutating the live store through every write path.
        for ids, grads in training_traffic(2):
            store.lookup(ids)
            store.apply_gradients(ids, grads)

        assert np.array_equal(snapshot.lookup(probe), frozen), (
            "snapshot drifted while the live store trained"
        )
        # The live store did diverge (the snapshot is not a stale alias bug).
        assert not np.array_equal(store.lookup(probe), frozen)
        assert store.cow_copies > 0


def test_reader_thread_sees_stable_snapshot_during_training():
    """Genuine concurrency: a reader hammers the snapshot while the writer
    trains; every read must be bit-identical to the first."""
    store = make_store()
    for ids, grads in training_traffic(3):
        store.lookup(ids)
        store.apply_gradients(ids, grads)
    snapshot = store.snapshot()
    probe = np.random.default_rng(7).integers(0, NUM_FEATURES, size=(128, 3))
    frozen = snapshot.lookup(probe).copy()

    stop = threading.Event()
    mismatches = []

    def reader():
        while not stop.is_set():
            if not np.array_equal(snapshot.lookup(probe), frozen):
                mismatches.append("drift")
                return

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for ids, grads in training_traffic(4, steps=10):
            store.lookup(ids)
            store.apply_gradients(ids, grads)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not mismatches


def test_engine_answers_stable_while_training():
    """Through the full serving engine: answers from a published snapshot
    do not move while the live store trains (they move after refresh)."""
    store = make_store(num_shards=2)
    model = DLRM(store, num_fields=3, num_numerical=0, rng=0)
    engine = ServingEngine(model, max_batch_size=16)
    probe = np.random.default_rng(11).integers(0, NUM_FEATURES, size=(32, 3))

    first = engine.predict(probe).copy()
    for ids, grads in training_traffic(5):
        store.lookup(ids)
        store.apply_gradients(ids, grads)
    assert np.array_equal(engine.predict(probe), first)

    engine.refresh()
    assert not np.array_equal(engine.predict(probe), first)
