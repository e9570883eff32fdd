"""A sharded store is one CAFE stack: what sharding keeps, and what it refuses.

One shard of any backend is that backend behind the store.  ``N ≥ 2`` shards
must be plain ``cafe`` layers of one geometry and row optimizer (one
``CafeStack``); any other set of shards is a ``ConfigurationError`` at
construction, and so at ``build()``.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.api.cli import main
from repro.api.config import SystemConfig
from repro.api.session import build
from repro.embeddings import METHOD_NAMES, CompressedEmbedding, create_embedding, get_backend
from repro.embeddings.ada_embed import REALLOCATION_INTERVAL
from repro.errors import ConfigurationError, MemoryBudgetError
from repro.store import ShardedEmbeddingStore
from repro.store.sharded import ExecutorStats
from repro.utils.hashing import hash_to_range

DIM = 8
NUM_FEATURES = 4000

#: ``(method, compression_ratio)`` for every backend a one-shard store takes.
BACKENDS = [
    ("full", 1.0),
    ("hash", 10.0),
    ("qr", 10.0),
    ("adaembed", 2.0),
    ("mde", 2.0),
    ("offline", 2.0),
    ("cafe", 10.0),
    ("cafe_ml", 10.0),
]
#: The side inputs a backend's ``requires`` names (MDE, offline separation).
SIDE_INPUTS = {
    "field_cardinalities": [NUM_FEATURES // 2, NUM_FEATURES // 2],
    "frequencies": np.arange(NUM_FEATURES, 0, -1).astype(np.float64),
}
#: Every backend but ``cafe`` that a config can name without side inputs
#: (``offline`` needs a frequency profile no config carries).  At CR 1.5 each
#: of three shards fits its per-shard budget, so the refusal is what stops it.
SESSION_SPECS = ["hash", "full", "qr", "mde", "adaembed", "cafe_ml"]
#: ``(method, ratio, num_shards)``: every backend at one shard, CAFE stacked.
CASES = [(method, ratio, 1) for method, ratio in BACKENDS] + [
    ("cafe", 10.0, 2), ("cafe", 10.0, 3), ("cafe", 10.0, 4),
]
CASE_IDS = [f"{method}-{num_shards}" for method, _, num_shards in CASES]
#: The checkpointable ones (tests/test_backends.py pins the matrix).
STATEFUL = [case for case in CASES if case[0] in ("full", "hash", "cafe", "cafe_ml")]
STATEFUL_IDS = [f"{method}-{num_shards}" for method, _, num_shards in STATEFUL]

#: The backends that move features between rows on their own interval
#: during ``apply_gradients`` (CAFE's migration, AdaEmbed's reallocation):
#: the interval's keyword (``None``: AdaEmbed's fixed
#: ``REALLOCATION_INTERVAL``) and the counter each pass advances.
ADAPTIVE = [
    ("adaembed", 2.0, 1, None, "reallocation_count"),
    ("cafe", 10.0, 1, "rebalance_interval", "migrations_in"),
    ("cafe", 10.0, 2, "rebalance_interval", "migrations_in"),
    ("cafe", 10.0, 3, "rebalance_interval", "migrations_in"),
    ("cafe_ml", 10.0, 1, "rebalance_interval", "migrations_in"),
]
ADAPTIVE_IDS = [f"{method}-{num_shards}" for method, _, num_shards, *_ in ADAPTIVE]


def build_sharded(method, ratio, num_shards=3, seed=0, **kwargs):
    side_inputs = {key: SIDE_INPUTS[key] for key in get_backend(method).requires}
    return ShardedEmbeddingStore.build(
        method, num_features=NUM_FEATURES, dim=DIM, num_shards=num_shards,
        compression_ratio=ratio, seed=seed, **side_inputs, **kwargs,
    )


def build_adaptive(method, ratio, num_shards, interval, every):
    """The store with its pass every ``every`` steps where the interval is a
    keyword, and the steps between its passes."""
    if interval is None:
        return build_sharded(method, ratio, num_shards), REALLOCATION_INTERVAL
    return build_sharded(method, ratio, num_shards, **{interval: every}), every


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


class OwnTable(CompressedEmbedding):
    """A backend of one's own (as in examples/custom_model_integration.py)."""

    def __init__(self, num_features, dim):
        super().__init__(num_features, dim)
        self.table = np.zeros((num_features, dim), dtype=self.dtype)

    def gather(self, uids, routes):
        return self.table[uids]

    def apply(self, plan, uids, grad_sums, scores):
        self.table[uids] -= grad_sums
        self._step += 1

    def memory_floats(self):
        return int(self.table.size)


class TestOnlyCafeShards:
    @pytest.mark.parametrize("method", [name for name in METHOD_NAMES if name != "cafe"])
    def test_build_refuses_every_other_backend(self, method):
        assert build_sharded(method, 2.0, num_shards=1).num_shards == 1
        with pytest.raises(ConfigurationError, match="only 'cafe' shards"):
            build_sharded(method, 2.0, num_shards=2)

    def test_a_class_of_ones_own_does_not_shard(self):
        assert ShardedEmbeddingStore([OwnTable(100, 4)]).num_shards == 1
        with pytest.raises(ConfigurationError, match=r"'cafe'.*\['OwnTable'\]"):
            ShardedEmbeddingStore([OwnTable(100, 4), OwnTable(100, 4)])

    def test_cafe_shards_of_two_geometries_do_not_stack(self):
        shards = [
            create_embedding("cafe", num_features=NUM_FEATURES, dim=DIM, compression_ratio=ratio, rng=0)
            for ratio in (10.0, 20.0)
        ]
        with pytest.raises(ConfigurationError, match="one geometry"):
            ShardedEmbeddingStore(shards)

    @pytest.mark.parametrize("spec", SESSION_SPECS)
    def test_session_build_refuses_every_other_backend(self, spec):
        config = SystemConfig.from_dict({
            "data": {"dataset": "criteo", "scale": "tiny"},
            "store": {"spec": spec, "num_shards": 3, "compression_ratio": 1.5},
        })
        with pytest.raises(ConfigurationError, match="'cafe'"):
            build(config)

    @pytest.mark.parametrize("spec", SESSION_SPECS)
    def test_cli_names_the_error_and_exits_2(self, spec, capsys):
        argv = [
            "serve", "--set", f"store.spec={spec}", "--set", "store.num_shards=3",
            "--set", "store.compression_ratio=1.5",
        ]
        assert main(argv) == 2
        assert "error: ConfigurationError:" in capsys.readouterr().err

    def test_a_multi_shard_store_is_one_stack(self):
        store = build_sharded("cafe", 10.0, num_shards=3)
        assert store.describe()["stacked"] and "executor" not in store.describe()

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_a_ratio_below_one_is_refused_before_the_per_shard_scaling(self, num_shards, monkeypatch):
        # At 4 shards the per-shard ratio 0.5 * 4 = 2 would pass the backend
        # and build twice the full table's floats.
        built = []
        with monkeypatch.context() as patched:
            patched.setattr("repro.store.sharded.create_embedding",
                            lambda *args, **kwargs: built.append(kwargs))
            with pytest.raises(MemoryBudgetError, match="ratio must be at least 1, got 0.5"):
                ShardedEmbeddingStore.build(
                    "cafe", num_features=NUM_FEATURES, dim=DIM, num_shards=num_shards,
                    compression_ratio=0.5,
                )
        assert built == []
        full = ShardedEmbeddingStore.build("cafe", num_features=NUM_FEATURES, dim=DIM,
                                           num_shards=num_shards, compression_ratio=1.0)
        assert full.memory_floats() <= NUM_FEATURES * DIM


class TestExecutorStats:
    def test_grad_exchange_is_a_mean_over_steps(self):
        stats = ExecutorStats()
        assert stats.grad_bytes_per_step == 0.0
        stats.grad_bytes, stats.grad_steps = 400, 2
        assert stats.grad_bytes_per_step == 200.0
        stats.reset()
        assert (stats.grad_bytes, stats.grad_steps, stats.grad_bytes_per_step) == (0, 0, 0.0)

    def test_a_store_never_fans_out(self):
        store = build_sharded("cafe", 10.0, num_shards=4)
        train(store, *workload(steps=2))
        stats = store.executor.stats
        assert (stats.fanout_wall_s, stats.parallel_efficiency) == (0.0, 0.0)


@pytest.mark.parametrize("method,ratio,num_shards", CASES, ids=CASE_IDS)
class TestEveryShardLayout:
    """What a store keeps for every backend at one shard and for a stack."""

    def test_lookup_returns_the_owning_shards_rows(self, method, ratio, num_shards):
        store = build_sharded(method, ratio, num_shards)
        ids, grads = workload()
        train(store, ids, grads)
        probe = np.random.default_rng(9).integers(0, NUM_FEATURES, size=256)
        out = store.lookup(probe)
        owner = np.zeros(probe.shape, dtype=np.int64)
        if num_shards > 1:  # the id -> shard seed is the stack's
            owner = hash_to_range(probe, num_shards, seed=store._table.shard_seed)
        for index, shard in enumerate(store.shards):
            mask = owner == index
            assert mask.any()
            assert np.array_equal(out[mask], shard.lookup(probe[mask]))

    def test_grad_bytes_are_the_unique_payload(self, method, ratio, num_shards):
        store = build_sharded(method, ratio, num_shards)
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

    def test_snapshot_stays_frozen_while_the_store_trains(self, method, ratio, num_shards):
        store = build_sharded(method, ratio, num_shards)
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

    def test_copy_and_pickle_are_refused_and_the_store_trains_on(self, method, ratio, num_shards):
        # A stacked store's shards are views into one stack: a copy would
        # sever them.  snapshot() and state_dict() are the copies there are.
        store = build_sharded(method, ratio, num_shards)
        ids, grads = workload(steps=6)
        train(store, ids[:3], grads[:3])
        for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="snapshot"):
                duplicate(store)
        probe = ids[0]
        before = store.lookup(probe).copy()
        train(store, ids[3:], grads[3:])
        assert not np.array_equal(store.lookup(probe), before)


@pytest.mark.parametrize("method,ratio,num_shards", STATEFUL, ids=STATEFUL_IDS)
def test_resumed_store_keeps_training_bit_exact(method, ratio, num_shards):
    reference = build_sharded(method, ratio, num_shards)
    ids, grads = workload(steps=6)
    train(reference, ids[:3], grads[:3])
    restored = build_sharded(method, ratio, num_shards, seed=42)
    restored.load_state_dict(reference.state_dict())
    probe = ids[0]
    assert np.array_equal(reference.lookup(probe), restored.lookup(probe))
    train(reference, ids[3:], grads[3:])
    train(restored, ids[3:], grads[3:])
    assert_state_equal(reference.state_dict(), restored.state_dict())


@pytest.mark.parametrize("method,ratio,num_shards,interval,counter", ADAPTIVE, ids=ADAPTIVE_IDS)
class TestIntervalMigration:
    """Migration has no store-level entry point: each shard runs it on its
    own interval inside ``apply_gradients``, stacked or not."""

    def test_every_shard_migrates_on_its_interval(
        self, method, ratio, num_shards, interval, counter
    ):
        store, period = build_adaptive(method, ratio, num_shards, interval, 2)
        train(store, *workload(steps=3 * period))
        for index, shard in enumerate(store.shards):
            assert getattr(shard, counter) > 0, f"shard {index} never migrated"
            if hasattr(shard, "check_row_invariants"):
                shard.check_row_invariants()

    def test_snapshot_stays_frozen_through_migration(
        self, method, ratio, num_shards, interval, counter
    ):
        store, period = build_adaptive(method, ratio, num_shards, interval, 1)
        ids, grads = workload(steps=period + 7)
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
