"""Process-parallel shard runtime: parity, sealed snapshots, lifecycle.

The contract under test: putting shards (or table groups) behind the
:class:`~repro.runtime.process.ProcessShardExecutor` changes *where* the
arithmetic runs, never *what* it computes — lookups, gradient updates and
checkpoints stay bit-exact against the serial executor, snapshots stay
frozen while workers keep training, and tearing the executor down releases
every shared-memory segment it created.
"""

import gc
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.errors import ShardWorkerCrashed
from repro.runtime import create_executor
from repro.store import ShardedEmbeddingStore
from repro.store.table_group import TableGroupStore

DIM = 8
NUM_FEATURES = 4000


def shm_segments() -> set[str]:
    """Names currently present in /dev/shm (POSIX shared memory)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def make_sharded(kind: str, num_shards: int = 3, method: str = "hash"):
    return ShardedEmbeddingStore.build(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=10.0,
        seed=0,
        executor=create_executor(kind),
    )


def group_schema() -> DatasetSchema:
    return DatasetSchema(
        name="proc",
        fields=[
            FieldSchema("tiny_a", 8),
            FieldSchema("mid_a", 900),
            FieldSchema("tail_a", 5000),
        ],
        num_numerical=0,
        embedding_dim=DIM,
    )


def make_grouped(kind: str):
    return TableGroupStore.from_schema(
        group_schema(),
        spec="full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid",
        seed=0,
        executor=create_executor(kind),
    )


def sharded_workload(steps: int = 5, batch: int = 64):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, NUM_FEATURES, size=(steps, batch))
    grads = rng.normal(scale=0.1, size=(steps, batch, DIM)).astype(np.float32)
    return ids, grads


def grouped_workload(schema, steps: int = 5, batch: int = 32):
    rng = np.random.default_rng(11)
    cards = np.array([f.cardinality for f in schema.fields])
    local = rng.integers(0, cards, size=(steps, batch, schema.num_fields))
    # The store takes global ids: each field's range sits at its offset.
    ids = local + np.asarray(schema.field_offsets[: schema.num_fields])
    grads = rng.normal(
        scale=0.1, size=(steps, batch, schema.num_fields, DIM)
    ).astype(np.float32)
    return ids, grads


def assert_state_equal(a, b, path="state"):
    """Recursive bit-exact comparison of nested state_dict payloads."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key mismatch"
        for key in a:
            assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype mismatch"
        assert np.array_equal(a, b), f"{path}: array values differ"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length mismatch"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestShardedParity:
    """serial vs processes on the hash-sharded store."""

    @pytest.mark.parametrize("kind", ["processes"])
    def test_train_lookup_state_dict_bit_exact(self, kind):
        reference = make_sharded("serial")
        candidate = make_sharded(kind)
        ids, grads = sharded_workload()
        try:
            for step in range(ids.shape[0]):
                expect = reference.lookup(ids[step])
                actual = candidate.lookup(ids[step])
                assert np.array_equal(expect, actual), f"lookup diverged at step {step}"
                reference.apply_gradients(ids[step], grads[step])
                candidate.apply_gradients(ids[step], grads[step])
            assert_state_equal(reference.state_dict(), candidate.state_dict())
        finally:
            reference.executor.close()
            candidate.executor.close()

    def test_remote_rebalance_and_sketch_match_serial(self):
        reference = make_sharded("serial", method="cafe")
        candidate = make_sharded("processes", method="cafe")
        ids, grads = sharded_workload()
        try:
            for step in range(ids.shape[0]):
                reference.lookup(ids[step])
                candidate.lookup(ids[step])
                reference.apply_gradients(ids[step], grads[step])
                candidate.apply_gradients(ids[step], grads[step])
            assert reference.rebalance() == candidate.rebalance()
            expect, actual = reference.merged_sketch(), candidate.merged_sketch()
            assert expect.total_insertions == actual.total_insertions
            assert_state_equal(reference.state_dict(), candidate.state_dict())
        finally:
            reference.executor.close()
            candidate.executor.close()

    @pytest.mark.parametrize("method", ["hash", "cafe"])
    def test_set_executor_round_trip_is_bit_exact(self, method):
        store = make_sharded("serial", method=method)
        ids, grads = sharded_workload()
        store.lookup(ids[0])
        store.apply_gradients(ids[0], grads[0])
        # CAFE shards stack while local; remote ones are stacks of one
        # inside their worker, and come back into a fresh stack.
        assert store.describe()["stacked"] == (method == "cafe")

        store.set_executor("processes")
        assert store.remote and not store.describe()["stacked"]
        remote_out = store.lookup(ids[1])
        store.apply_gradients(ids[1], grads[1])

        store.set_executor("serial")
        assert not store.remote
        assert store.describe()["stacked"] == (method == "cafe")
        try:
            reference = make_sharded("serial", method=method)
            reference.lookup(ids[0])
            reference.apply_gradients(ids[0], grads[0])
            assert np.array_equal(remote_out, reference.lookup(ids[1]))
            reference.apply_gradients(ids[1], grads[1])
            # One more step after returning to in-process execution.
            store.apply_gradients(ids[2], grads[2])
            reference.apply_gradients(ids[2], grads[2])
            assert_state_equal(reference.state_dict(), store.state_dict())
        finally:
            store.executor.close()
            reference.executor.close()

    def test_describe_reports_worker_breakdown(self):
        store = make_sharded("processes")
        ids, grads = sharded_workload(steps=2)
        try:
            store.lookup(ids[0])
            store.apply_gradients(ids[0], grads[0])
            info = store.describe()
            stats = info["executor_stats"]
            assert stats["fanouts"] >= 2
            assert "worker_ms" in stats and "ipc_overhead_ms" in stats
            assert all("worker_ms" in row for row in stats["per_shard"].values())
        finally:
            store.executor.close()


class TestGroupedParity:
    """serial vs processes on the per-field table-group store."""

    @pytest.mark.parametrize("kind", ["processes"])
    def test_train_lookup_state_dict_bit_exact(self, kind):
        reference = make_grouped("serial")
        candidate = make_grouped(kind)
        schema = group_schema()
        ids, grads = grouped_workload(schema)
        try:
            for step in range(ids.shape[0]):
                expect = reference.lookup(ids[step])
                actual = candidate.lookup(ids[step])
                assert np.array_equal(expect, actual), f"lookup diverged at step {step}"
                reference.apply_gradients(ids[step], grads[step])
                candidate.apply_gradients(ids[step], grads[step])
            assert_state_equal(reference.state_dict(), candidate.state_dict())
        finally:
            reference.executor.close()
            candidate.executor.close()

    def test_serial_checkpoint_loads_into_remote_store(self):
        reference = make_grouped("serial")
        schema = group_schema()
        ids, grads = grouped_workload(schema, steps=3)
        for step in range(ids.shape[0]):
            reference.lookup(ids[step])
            reference.apply_gradients(ids[step], grads[step])
        state = reference.state_dict()

        restored = make_grouped("processes")
        try:
            restored.load_state_dict(state)
            probe = ids[0]
            assert np.array_equal(reference.lookup(probe), restored.lookup(probe))
            # Training continues identically after the restore.
            reference.apply_gradients(probe, grads[0])
            restored.apply_gradients(probe, grads[0])
            assert_state_equal(reference.state_dict(), restored.state_dict())
        finally:
            reference.executor.close()
            restored.executor.close()


class TestSealedSnapshots:
    def test_snapshot_stays_frozen_while_workers_train(self):
        store = make_sharded("processes")
        ids, grads = sharded_workload(steps=12)
        probe = ids[0]
        try:
            store.lookup(probe)
            store.apply_gradients(probe, grads[0])
            snapshot = store.snapshot()
            frozen = snapshot.lookup(probe).copy()

            drift = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    if not np.array_equal(snapshot.lookup(probe), frozen):
                        drift.append("snapshot drifted")
                        return
                    time.sleep(0.001)

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                for step in range(1, ids.shape[0]):
                    store.lookup(ids[step])
                    store.apply_gradients(ids[step], grads[step])
            finally:
                stop.set()
                thread.join()
            assert not drift, "sealed snapshot changed while workers trained"
            assert np.array_equal(snapshot.lookup(probe), frozen)
            assert not np.array_equal(store.lookup(probe), frozen), (
                "live store never diverged; the stability check proved nothing"
            )
        finally:
            store.executor.close()

    def test_grouped_snapshot_matches_serial_snapshot(self):
        reference = make_grouped("serial")
        candidate = make_grouped("processes")
        schema = group_schema()
        ids, grads = grouped_workload(schema, steps=3)
        try:
            for step in range(ids.shape[0]):
                reference.lookup(ids[step])
                candidate.lookup(ids[step])
                reference.apply_gradients(ids[step], grads[step])
                candidate.apply_gradients(ids[step], grads[step])
            probe = ids[0]
            expect = reference.snapshot().lookup(probe)
            actual = candidate.snapshot().lookup(probe)
            assert np.array_equal(expect, actual)
        finally:
            reference.executor.close()
            candidate.executor.close()


class TestLifecycle:
    def test_close_releases_every_shm_segment(self):
        before = shm_segments()
        store = make_sharded("processes")
        ids, grads = sharded_workload(steps=3)
        store.lookup(ids[0])
        store.apply_gradients(ids[0], grads[0])
        snapshot = store.snapshot()
        snapshot.lookup(ids[0])
        store.apply_gradients(ids[1], grads[1])
        del snapshot
        gc.collect()
        store.executor.close()
        gc.collect()
        leaked = shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_killed_worker_raises_descriptive_error(self):
        store = make_sharded("processes")
        ids, grads = sharded_workload(steps=2)
        try:
            store.lookup(ids[0])
            pid = store.executor.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            with pytest.raises(ShardWorkerCrashed, match="shard worker"):
                for step in range(ids.shape[0]):
                    store.lookup(ids[step])
                    store.apply_gradients(ids[step], grads[step])
        finally:
            store.executor.close()

    def test_adopting_unpicklable_backend_is_a_clear_error(self):
        from repro.api.registry import BackendCapabilities, register_backend, unregister_backend
        from repro.embeddings.hash_embedding import HashEmbedding

        class SocketBackend(HashEmbedding):
            pass

        register_backend(
            "proc_test_socket",
            lambda **kw: None,
            capabilities=BackendCapabilities(supports_process_parallel=False),
            backend_class=SocketBackend,
        )
        try:
            shards = [
                SocketBackend(NUM_FEATURES, DIM, num_rows=NUM_FEATURES // 10, rng=i)
                for i in range(2)
            ]
            with pytest.raises(ValueError, match="supports_process_parallel"):
                ShardedEmbeddingStore(shards, executor=create_executor("processes"))
        finally:
            unregister_backend("proc_test_socket")


class TestExecutorSelection:
    @pytest.mark.parametrize("retired", ["threads", "thread", "process"])
    def test_retired_spellings_are_configuration_errors(self, retired):
        from repro.api.config import SystemConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=r"\['processes', 'serial'\]"):
            SystemConfig.from_dict({"store": {"executor": retired}})

    def test_config_accepts_executor_and_worker_count(self):
        from repro.api.config import SystemConfig
        from repro.errors import ConfigurationError

        config = SystemConfig.from_dict(
            {"store": {"executor": "processes", "executor_workers": 2}}
        )
        assert config.store.executor == "processes"
        with pytest.raises(ConfigurationError, match="executor_workers"):
            SystemConfig.from_dict({"store": {"executor_workers": 0}})
        with pytest.raises(ConfigurationError, match="executor"):
            SystemConfig.from_dict({"store": {"executor": "gpu"}})
