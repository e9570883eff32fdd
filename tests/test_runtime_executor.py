"""Tests for the shard executors and the fan-out wiring in the store."""

import copy

import numpy as np
import pytest

from repro.runtime import ProcessShardExecutor, SerialShardExecutor, create_executor
from repro.embeddings.hash_embedding import HashEmbedding
from repro.store import ShardedEmbeddingStore

DIM = 8
NUM_FEATURES = 4000
KINDS = ["serial", "processes"]


def make_store(num_shards, executor):
    shards = [
        HashEmbedding(NUM_FEATURES, DIM, num_rows=NUM_FEATURES // 10, rng=index)
        for index in range(num_shards)
    ]
    return ShardedEmbeddingStore(shards, executor=executor)


class TestExecutorBasics:
    @pytest.mark.parametrize("kind", KINDS)
    def test_results_keep_task_order(self, kind):
        executor = create_executor(kind)
        tasks = [(i, lambda i=i: i * 10) for i in (3, 0, 2)]
        assert executor.run(tasks) == [30, 0, 20]
        executor.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_shard_stats_recorded(self, kind):
        executor = create_executor(kind)
        executor.run([(0, lambda: None), (2, lambda: None)])
        executor.run([(0, lambda: None)])
        stats = executor.stats.as_dict()
        assert stats["fanouts"] == 2
        assert stats["per_shard"][0]["calls"] == 2
        assert stats["per_shard"][2]["calls"] == 1
        executor.stats.reset()
        assert executor.stats.fanouts == 0
        executor.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_exceptions_propagate(self, kind):
        executor = create_executor(kind)

        def boom():
            raise RuntimeError("shard failure")

        with pytest.raises(RuntimeError, match="shard failure"):
            executor.run([(0, lambda: 1), (1, boom)])
        executor.close()

    @pytest.mark.parametrize("kind", ["gpu", "threads", "thread", "process"])
    def test_factory_accepts_exactly_serial_and_processes(self, kind):
        with pytest.raises(ValueError, match="unknown executor kind.*serial.*processes"):
            create_executor(kind)

    def test_factory_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            create_executor("processes", max_workers=0)

    def test_deepcopy_yields_fresh_working_executor(self):
        executor = create_executor("processes", max_workers=2)
        executor.run([(0, lambda: 1), (1, lambda: 2)])
        clone = copy.deepcopy(executor)
        assert clone is not executor
        assert clone.max_workers == 2
        assert clone.stats.fanouts == 0
        assert clone.run([(0, lambda: 5), (1, lambda: 6)]) == [5, 6]
        executor.close()
        clone.close()


class TestStoreFanOut:
    def test_serial_and_process_stores_are_bit_exact(self):
        ids = np.random.default_rng(0).integers(0, NUM_FEATURES, size=(32, 4))
        grads = np.random.default_rng(1).normal(size=(32, 4, DIM)).astype(np.float32)
        serial = make_store(4, "serial")
        remote = make_store(4, "processes")
        try:
            for _ in range(4):
                assert np.array_equal(serial.lookup(ids), remote.lookup(ids))
                serial.apply_gradients(ids, grads)
                remote.apply_gradients(ids, grads)
            assert np.array_equal(serial.lookup(ids), remote.lookup(ids))
        finally:
            remote.executor.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_store_rebalance_fans_out_and_reports(self, kind):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=NUM_FEATURES, dim=DIM, num_shards=3,
            compression_ratio=10.0, executor=kind,
        )
        ids = np.random.default_rng(3).integers(0, NUM_FEATURES, size=(64, 2))
        grads = np.random.default_rng(4).normal(size=(64, 2, DIM)).astype(np.float32)
        try:
            store.lookup(ids)
            store.apply_gradients(ids, grads)
            assert store.rebalance() is True  # CAFE shards support rebalancing
            assert store.executor.stats.per_shard[2].calls > 0
        finally:
            store.executor.close()

    def test_static_backend_rebalance_is_noop(self):
        store = make_store(2, "serial")
        store.snapshot()  # freeze shards: a real write would trigger COW
        assert store.rebalance() is False
        # No-op on static backends must not pay copy-on-write either.
        assert store.cow_copies == 0
        assert store.executor.stats.fanouts == 0

    def test_set_executor_swaps_runtime(self):
        store = make_store(2, "serial")
        assert isinstance(store.executor, SerialShardExecutor)
        ids = np.arange(16).reshape(4, 4)
        before = store.lookup(ids)
        store.set_executor("processes")
        try:
            assert isinstance(store.executor, ProcessShardExecutor)
            assert np.array_equal(store.lookup(ids), before)
            store.set_executor("serial")
            assert isinstance(store.executor, SerialShardExecutor)
            assert np.array_equal(store.lookup(ids), before)
        finally:
            store.executor.close()

    @pytest.mark.parametrize("kind, name", [("serial", "SerialShardExecutor"),
                                            ("processes", "ProcessShardExecutor")])
    def test_describe_names_executor(self, kind, name):
        store = make_store(2, kind)
        try:
            assert store.describe()["executor"] == name
        finally:
            store.executor.close()
