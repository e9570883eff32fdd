"""Tests for the shard executor and the fan-out wiring in the store."""

import copy
import pickle

import numpy as np
import pytest

from repro.runtime import SerialShardExecutor
from repro.runtime.executor import ExecutorStats, ShardTiming
from repro.embeddings.hash_embedding import HashEmbedding
from repro.store import ShardedEmbeddingStore
from repro.utils.hashing import hash_to_range

DIM = 8
NUM_FEATURES = 4000


def make_store(num_shards):
    shards = [
        HashEmbedding(NUM_FEATURES, DIM, num_rows=NUM_FEATURES // 10, rng=index)
        for index in range(num_shards)
    ]
    return ShardedEmbeddingStore(shards)


class TestExecutorBasics:
    def test_results_keep_task_order(self):
        executor = SerialShardExecutor()
        tasks = [(i, lambda i=i: i * 10) for i in (3, 0, 2)]
        assert executor.run(tasks) == [30, 0, 20]

    def test_per_shard_stats_recorded(self):
        executor = SerialShardExecutor()
        executor.run([(0, lambda: None), (2, lambda: None)])
        executor.run([(0, lambda: None)])
        stats = executor.stats.as_dict()
        assert stats["fanouts"] == 2
        assert stats["per_shard"][0]["calls"] == 2
        assert stats["per_shard"][2]["calls"] == 1
        executor.stats.reset()
        assert executor.stats.fanouts == 0

    def test_exceptions_propagate(self):
        executor = SerialShardExecutor()

        def boom():
            raise RuntimeError("shard failure")

        with pytest.raises(RuntimeError, match="shard failure"):
            executor.run([(0, lambda: 1), (1, boom)])

    def test_deepcopy_yields_fresh_working_executor(self):
        executor = SerialShardExecutor()
        executor.run([(0, lambda: 1), (1, lambda: 2)])
        clone = copy.deepcopy(executor)
        assert clone is not executor
        assert clone.stats.fanouts == 0
        assert clone.run([(0, lambda: 5), (1, lambda: 6)]) == [5, 6]

    def test_pickle_round_trip_starts_with_fresh_stats(self):
        executor = SerialShardExecutor()
        executor.run([(0, lambda: 1)])
        executor.stats.record_grad_exchange(64)
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.stats.as_dict() == ExecutorStats().as_dict()
        assert clone.run([(1, lambda: 7)]) == [7]

    def test_empty_task_list_counts_one_fanout(self):
        executor = SerialShardExecutor()
        assert executor.run([]) == []
        assert executor.stats.fanouts == 1
        assert executor.stats.per_shard == {}

    def test_failing_task_stops_the_fan_out(self):
        executor = SerialShardExecutor()
        ran = []

        def boom():
            raise RuntimeError("shard failure")

        with pytest.raises(RuntimeError):
            executor.run([(0, lambda: ran.append(0)), (1, boom), (2, lambda: ran.append(2))])
        # Tasks run in order on the calling thread: nothing after the failure.
        assert ran == [0]


class TestExecutorStats:
    def test_grad_bytes_per_step_is_zero_before_any_step(self):
        stats = ExecutorStats()
        assert stats.grad_bytes_per_step == 0.0
        assert "grad_exchange" not in stats.as_dict()

    def test_grad_exchange_is_a_mean_over_steps(self):
        stats = ExecutorStats()
        stats.record_grad_exchange(100)
        stats.record_grad_exchange(300)
        assert stats.grad_bytes_per_step == 200.0
        assert stats.as_dict()["grad_exchange"] == {
            "steps": 2, "bytes_total": 400, "grad_bytes_per_step": 200.0,
        }

    def test_parallel_efficiency_is_zero_without_fanouts(self):
        stats = ExecutorStats()
        assert stats.parallel_efficiency == 0.0
        stats.record_task(0, 0.002)
        stats.record_fanout(0.004)
        assert stats.parallel_efficiency == pytest.approx(0.5)

    def test_shard_timing_tracks_calls_total_and_max(self):
        timing = ShardTiming()
        for seconds in (0.001, 0.003, 0.002):
            timing.record(seconds)
        assert timing.calls == 3
        assert timing.total_s == pytest.approx(0.006)
        assert timing.max_s == 0.003
        assert timing.as_dict() == {"calls": 3, "total_ms": 6.0, "max_ms": 3.0}

    def test_reset_clears_every_counter(self):
        stats = ExecutorStats()
        stats.record_task(1, 0.001)
        stats.record_fanout(0.001)
        stats.record_grad_exchange(48)
        stats.reset()
        assert stats.as_dict() == ExecutorStats().as_dict()
        assert stats.grad_bytes_per_step == 0.0


#: ``(method, compression_ratio)`` for every backend a store can shard.
FAN_OUT_BACKENDS = [
    ("full", 1.0),
    ("hash", 10.0),
    ("qr", 10.0),
    ("adaembed", 2.0),
    ("cafe", 10.0),
    ("cafe_ml", 10.0),
]
BACKEND_IDS = [method for method, _ in FAN_OUT_BACKENDS]
#: The checkpointable ones (tests/test_backends.py pins the matrix).
STATEFUL_BACKENDS = [
    (method, ratio) for method, ratio in FAN_OUT_BACKENDS
    if method in ("full", "hash", "cafe", "cafe_ml")
]


#: The backends that move features between rows on their own interval
#: during ``apply_gradients`` (CAFE's migration, AdaEmbed's reallocation):
#: the interval's keyword and the counter each pass advances.
ADAPTIVE_BACKENDS = [
    ("adaembed", 2.0, "reallocation_interval", "reallocation_count"),
    ("cafe", 10.0, "rebalance_interval", "migrations_in"),
    ("cafe_ml", 10.0, "rebalance_interval", "migrations_in"),
]
ADAPTIVE_IDS = [method for method, *_ in ADAPTIVE_BACKENDS]


def build_sharded(method, ratio, num_shards=3, seed=0, **kwargs):
    return ShardedEmbeddingStore.build(
        method, num_features=NUM_FEATURES, dim=DIM, num_shards=num_shards,
        compression_ratio=ratio, seed=seed, **kwargs,
    )


def workload(steps=5, batch=64):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, NUM_FEATURES, size=(steps, batch))
    grads = rng.normal(scale=0.1, size=(steps, batch, DIM)).astype(np.float32)
    return ids, grads


def train(store, ids, grads):
    for step_ids, step_grads in zip(ids, grads):
        store.lookup(step_ids)
        store.apply_gradients(step_ids, step_grads)


def assert_state_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), key


class TestFanOutOnEveryBackend:
    """What the store's fan-out must keep for every backend it shards."""

    @pytest.mark.parametrize("num_shards", [2, 3])
    @pytest.mark.parametrize("method,ratio", FAN_OUT_BACKENDS, ids=BACKEND_IDS)
    def test_lookup_returns_the_owning_shards_rows(self, method, ratio, num_shards):
        store = build_sharded(method, ratio, num_shards)
        ids, grads = workload()
        train(store, ids, grads)
        probe = np.random.default_rng(9).integers(0, NUM_FEATURES, size=256)
        out = store.lookup(probe)
        owner = hash_to_range(probe, num_shards, seed=store.shard_seed)
        for index, shard in enumerate(store.shards):
            mask = owner == index
            assert mask.any()
            assert np.array_equal(out[mask], shard.lookup(probe[mask]))

    @pytest.mark.parametrize("method,ratio", FAN_OUT_BACKENDS, ids=BACKEND_IDS)
    def test_one_task_per_shard_unless_stacked(self, method, ratio):
        store = build_sharded(method, ratio)
        ids, grads = workload(steps=1, batch=256)
        store.lookup(ids[0])
        store.apply_gradients(ids[0], grads[0])
        stats = store.executor.stats
        if store.describe()["stacked"]:
            # Plain-CAFE shards step in one pass over the stack.
            assert stats.fanouts == 0
        else:
            assert stats.fanouts == 2  # the lookup and the apply
            assert sorted(stats.per_shard) == [0, 1, 2]
            assert all(timing.calls == 2 for timing in stats.per_shard.values())

    @pytest.mark.parametrize("method,ratio", FAN_OUT_BACKENDS, ids=BACKEND_IDS)
    def test_grad_bytes_are_the_unique_payload(self, method, ratio):
        store = build_sharded(method, ratio)
        ids, grads = workload()
        train(store, ids, grads)
        store.apply_gradients(np.empty((0, 2), dtype=np.int64), np.empty((0, 2, DIM)))
        # Per step: unique int64 ids, one gradient sum per id, float64 scores.
        per_id = 8 + DIM * store.dtype.itemsize + 8
        expected = sum(np.unique(step_ids).size * per_id for step_ids in ids)
        stats = store.executor.stats
        assert stats.grad_steps == len(ids)  # the empty batch is not a step
        assert stats.grad_bytes == expected
        assert stats.grad_bytes_per_step == expected / len(ids)

    @pytest.mark.parametrize("method,ratio", FAN_OUT_BACKENDS, ids=BACKEND_IDS)
    def test_snapshot_stays_frozen_while_the_store_trains(self, method, ratio):
        store = build_sharded(method, ratio)
        ids, grads = workload(steps=8)
        train(store, ids[:1], grads[:1])
        probe = ids[0]
        snapshot = store.snapshot()
        frozen = snapshot.lookup(probe).copy()
        train(store, ids[1:], grads[1:])
        assert np.array_equal(snapshot.lookup(probe), frozen)
        assert not np.array_equal(store.lookup(probe), frozen), (
            "live store never diverged; the frozen check proved nothing"
        )

    @pytest.mark.parametrize("method,ratio", FAN_OUT_BACKENDS, ids=BACKEND_IDS)
    def test_copy_and_pickle_are_refused_and_the_store_trains_on(self, method, ratio):
        # A stacked store's shards are views into one stack: a copy would
        # sever them.  snapshot() and state_dict() are the copies there are.
        store = build_sharded(method, ratio)
        ids, grads = workload(steps=6)
        train(store, ids[:3], grads[:3])
        for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="snapshot"):
                duplicate(store)
        probe = ids[0]
        before = store.lookup(probe).copy()
        train(store, ids[3:], grads[3:])
        assert not np.array_equal(store.lookup(probe), before)

    @pytest.mark.parametrize(
        "method,ratio", STATEFUL_BACKENDS, ids=[method for method, _ in STATEFUL_BACKENDS]
    )
    def test_resumed_store_keeps_training_bit_exact(self, method, ratio):
        reference = build_sharded(method, ratio)
        ids, grads = workload(steps=6)
        train(reference, ids[:3], grads[:3])
        restored = build_sharded(method, ratio, seed=42)
        restored.load_state_dict(reference.state_dict())
        probe = ids[0]
        assert np.array_equal(reference.lookup(probe), restored.lookup(probe))
        train(reference, ids[3:], grads[3:])
        train(restored, ids[3:], grads[3:])
        assert_state_equal(reference.state_dict(), restored.state_dict())


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("method,ratio,interval,counter", ADAPTIVE_BACKENDS, ids=ADAPTIVE_IDS)
class TestIntervalMigration:
    """Migration has no store-level entry point: each shard runs it on its
    own interval inside ``apply_gradients``, stacked or not."""

    def test_every_shard_migrates_on_its_interval(
        self, method, ratio, interval, counter, num_shards
    ):
        store = build_sharded(method, ratio, num_shards, **{interval: 2})
        train(store, *workload(steps=6))
        for index, shard in enumerate(store.shards):
            assert getattr(shard, counter) > 0, f"shard {index} never migrated"
            if hasattr(shard, "check_row_invariants"):
                shard.check_row_invariants()

    def test_snapshot_stays_frozen_through_migration(
        self, method, ratio, interval, counter, num_shards
    ):
        store = build_sharded(method, ratio, num_shards, **{interval: 1})
        ids, grads = workload(steps=8)
        train(store, ids[:1], grads[:1])
        probe = np.unique(ids)
        snapshot = store.snapshot()
        frozen = snapshot.lookup(probe).copy()
        before = [getattr(shard, counter) for shard in store.shards]
        train(store, ids[1:], grads[1:])
        after = [getattr(shard, counter) for shard in store.shards]
        assert all(b > a for a, b in zip(before, after)), (
            "no shard migrated after the snapshot; the frozen check proved little"
        )
        assert np.array_equal(snapshot.lookup(probe), frozen)
        assert not np.array_equal(store.lookup(probe), frozen)


class TestStoreFanOut:
    def test_describe_names_executor(self):
        assert make_store(2).describe()["executor"] == "SerialShardExecutor"
