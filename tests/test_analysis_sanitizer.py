"""Sanitizer tests: write-after-seal and single-writer violations must raise."""

import copy
import threading

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    SanitizerViolation,
    SingleWriterViolation,
    freeze_arrays,
    single_writer,
)
from repro.data.schema import DatasetSchema, FieldSchema
from repro.embeddings.cafe import CafeEmbedding
from repro.store import ShardedEmbeddingStore

DIM = 8


def make_cafe(num_features=300, seed=0):
    return CafeEmbedding(
        num_features=num_features,
        dim=DIM,
        num_hot_rows=12,
        num_shared_rows=24,
        rebalance_interval=3,
        learning_rate=0.1,
        rng=seed,
    )


def make_store(num_shards=2):
    return ShardedEmbeddingStore([make_cafe(seed=i) for i in range(num_shards)])


def batch(rng, n=32, num_features=300):
    return rng.integers(0, num_features, size=(n,), dtype=np.int64)


class TestFreezeArrays:
    def test_freezes_nested_containers(self):
        arrays = {"a": np.zeros(3, dtype=np.float32), "b": [np.ones(2, dtype=np.float32)]}
        count = freeze_arrays(arrays)
        assert count == 2
        assert not arrays["a"].flags.writeable
        with pytest.raises(ValueError):
            arrays["b"][0][0] = 5.0

    def test_walks_repro_objects_but_not_foreign_ones(self):
        layer = make_cafe()
        assert freeze_arrays(layer) > 0
        assert not layer.hot_table.flags.writeable

    def test_deepcopy_of_frozen_array_is_writable_again(self):
        layer = make_cafe()
        freeze_arrays(layer)
        thawed = copy.deepcopy(layer)
        thawed.hot_table[0, 0] = 1.0  # must not raise


class TestAssertUnaliased:
    def test_views_of_the_buffer_are_found_wherever_they_hide(self):
        buffer = np.zeros((8, 4), dtype=np.float32)
        layer = make_cafe()
        sanitizer.assert_unaliased((layer, [np.ones(3)]), (buffer,), "block")  # no overlap
        for holder in ({"kept": buffer[2:4]}, [("x", buffer[:, 1])], (buffer.reshape(-1)[5:6],)):
            with pytest.raises(SanitizerViolation, match="reusable block"):
                sanitizer.assert_unaliased((layer, holder), (buffer,), "block")
        layer.stashed = buffer[0]  # behind a repro object's __dict__
        with pytest.raises(SanitizerViolation):
            sanitizer.assert_unaliased(layer, (np.empty(2), buffer), "block")

    def test_a_copy_is_not_an_alias(self):
        buffer = np.arange(12.0).reshape(3, 4)
        sanitizer.assert_unaliased([buffer[1].copy(), buffer.sum(axis=0)], (buffer,), "block")


class TestWriteAfterSnapshotRaises:
    def test_snapshot_arrays_are_read_only(self):
        store = make_store()
        snapshot = store.snapshot()
        table = snapshot.shards[0].hot_table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 123.0

    def test_training_continues_after_snapshot_via_cow(self):
        rng = np.random.default_rng(0)
        store = make_store()
        snapshot = store.snapshot()
        before = snapshot.lookup(batch(rng))
        for _ in range(4):
            ids = batch(rng)
            grads = np.asarray(
                rng.normal(size=(len(ids), DIM)), dtype=store.dtype
            )
            store.apply_gradients(ids, grads)
        assert store.cow_copies >= 1
        # The published view still serves the values visible at snapshot time.
        np.testing.assert_array_equal(before, snapshot.lookup(batch(np.random.default_rng(0))))


class TestSingleWriter:
    class Mutable:
        """Minimal stand-in for a store with a guarded mutation."""

        def __init__(self):
            self.entered = threading.Event()
            self.proceed = threading.Event()
            self.calls = 0

        @single_writer
        def mutate(self, wait=False):
            self.calls += 1
            if wait:
                self.entered.set()
                assert self.proceed.wait(timeout=5.0)

        @single_writer
        def outer(self):
            self.mutate()  # reentrant same-thread call

    def test_concurrent_mutators_raise_descriptively(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        target = self.Mutable()
        first = threading.Thread(target=target.mutate, kwargs={"wait": True}, name="writer-a")
        first.start()
        assert target.entered.wait(timeout=5.0)
        try:
            with pytest.raises(SingleWriterViolation) as excinfo:
                target.mutate()
            message = str(excinfo.value)
            assert "single-writer violation" in message
            assert "writer-a" in message and "mutate" in message
            assert "one writer, many readers" in message
        finally:
            target.proceed.set()
            first.join(timeout=5.0)

    def test_reentrant_same_thread_call_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        target = self.Mutable()
        target.outer()
        assert target.calls == 1

    def test_sequential_threads_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        target = self.Mutable()
        errors = []

        def run():
            try:
                target.mutate()
            except Exception as error:
                errors.append(error)

        for _ in range(3):
            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
        assert not errors and target.calls == 3

    def test_disabled_mode_never_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        target = self.Mutable()
        first = threading.Thread(target=target.mutate, kwargs={"wait": True})
        first.start()
        assert target.entered.wait(timeout=5.0)
        try:
            target.mutate()  # no violation without opt-in
        finally:
            target.proceed.set()
            first.join(timeout=5.0)

    def test_store_race_raises_on_real_mutation_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rng = np.random.default_rng(1)
        store = make_store()
        ids = batch(rng)
        grads = np.asarray(rng.normal(size=(len(ids), DIM)), dtype=store.dtype)

        started = threading.Event()
        release = threading.Event()
        # The first thing the guarded apply_gradients wrapper does.
        original = ShardedEmbeddingStore._unique_batch

        def stalling_check(self, checked_ids):
            started.set()
            assert release.wait(timeout=5.0)
            return original(self, checked_ids)

        monkeypatch.setattr(ShardedEmbeddingStore, "_unique_batch", stalling_check)
        background = threading.Thread(
            target=store.apply_gradients, args=(ids, grads), name="trainer"
        )
        background.start()
        assert started.wait(timeout=5.0)
        monkeypatch.setattr(ShardedEmbeddingStore, "_unique_batch", original)
        try:
            with pytest.raises(SingleWriterViolation, match="trainer"):
                store.apply_gradients(ids, grads)
        finally:
            release.set()
            background.join(timeout=5.0)
