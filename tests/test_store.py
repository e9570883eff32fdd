"""Tests for the sharded embedding store and its copy-on-write snapshots."""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.models.dlrm import DLRM
from repro.sketch.hotsketch import EMPTY_KEY
from repro.store import DEFAULT_SHARD_SEED, ShardedEmbeddingStore, StoreSnapshot, ensure_store
from repro.training.trainer import Trainer
from repro.utils.hashing import hash_to_range

DIM = 8


def tiny_dataset(seed=0, samples_per_day=512):
    schema = DatasetSchema(
        name="store",
        fields=[FieldSchema("a", 300), FieldSchema("b", 200), FieldSchema("c", 100)],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=3,
        zipf_exponent=1.3,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=samples_per_day, seed=seed))


def make_cafe(num_features, seed=0):
    return CafeEmbedding(
        num_features=num_features,
        dim=DIM,
        num_hot_rows=12,
        num_shared_rows=24,
        rebalance_interval=3,
        learning_rate=0.1,
        rng=seed,
    )


class TestSingleShardParity:
    def test_bit_exact_with_direct_embedding_on_fixed_seed_run(self):
        """The acceptance criterion: wrapping an embedding in a single-shard
        store must not change a single bit of a fixed-seed training run."""
        import repro.nn.functional as F
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor

        dataset = tiny_dataset()
        n = dataset.schema.num_features
        direct = make_cafe(n, seed=0)
        stored = make_cafe(n, seed=0)

        # Model B trains through the store (the default path after the refactor).
        model_b = DLRM(stored, dataset.schema.num_fields, dataset.schema.num_numerical, rng=1)
        trainer_b = Trainer(model_b)

        # Model A replicates the pre-store loop: raw embedding layer driven
        # directly, no store in between.
        model_a = DLRM(direct, dataset.schema.num_fields, dataset.schema.num_numerical, rng=1)
        optimizer_a = Adam(list(model_a.parameters()), 0.01)
        for batch in dataset.day_batches(0, 64):
            vectors = direct.lookup(batch.categorical)
            leaf = Tensor(vectors, requires_grad=True)
            logits = model_a.forward_dense(leaf, np.asarray(batch.numerical, dtype=np.float64))
            loss_a = F.binary_cross_entropy_with_logits(logits, batch.labels)
            model_a.zero_grad()
            loss_a.backward()
            direct.apply_gradients(batch.categorical, leaf.grad)
            optimizer_a.step()
            loss_b = trainer_b.train_step(batch)
            assert float(loss_a.data) == loss_b

        test = dataset.test_batch(256)
        assert np.array_equal(
            model_a.predict_proba(test.categorical, test.numerical),
            model_b.predict_proba(test.categorical, test.numerical),
        )
        # And the underlying parameters themselves match bitwise.
        assert np.array_equal(direct.hot_table, stored.hot_table)
        assert np.array_equal(direct.shared_table, stored.shared_table)

    def test_ensure_store_wraps_and_passes_through(self):
        embedding = HashEmbedding(100, DIM, num_rows=16, rng=0)
        store = ensure_store(embedding)
        assert isinstance(store, ShardedEmbeddingStore)
        assert store.num_shards == 1
        assert store.shards[0] is embedding
        assert ensure_store(store) is store
        # The routing-plan cache is the store's at one shard too: a step
        # counts one miss and one hit there, and never consults the backend's.
        assert store.plan_stats is not embedding.plan_stats
        ids = np.arange(8).reshape(2, 4)
        store.lookup(ids)
        store.apply_gradients(ids, np.ones(ids.shape + (DIM,), dtype=np.float32))
        assert store.plan_stats.as_dict() == {"hits": 1, "misses": 1, "reuse_rate": 0.5}
        assert embedding.plan_stats.as_dict() == {"hits": 0, "misses": 0, "reuse_rate": 0.0}


class TestSharding:
    def test_the_stack_routes_each_id_to_its_hash_owner(self):
        """The id -> shard hash lives in the stack, which holds the store's
        one shard seed: each id's buckets and rows fall in its owner's
        ranges."""
        from repro.utils.hashing import hash_to_range

        store = ShardedEmbeddingStore.build(
            "cafe", num_features=10_000, dim=DIM, num_shards=4, compression_ratio=10.0,
            seed=0,
        )
        stack = store._table
        assert stack.shard_seed == DEFAULT_SHARD_SEED and not hasattr(store, "shard_seed")
        uids = np.unique(np.random.default_rng(0).integers(0, 10_000, size=500))
        routes = stack.routes(uids)
        owner = hash_to_range(uids, 4, seed=DEFAULT_SHARD_SEED)
        np.testing.assert_array_equal(routes["shard"], owner)
        np.testing.assert_array_equal(routes["sketch_buckets"] // stack.buckets_per, owner)
        np.testing.assert_array_equal(routes["arena_rows"] // stack.rows_per, owner)

    def test_lookup_matches_per_shard_backends(self):
        """The store's scatter/gather must route every id to the shard the
        hash assigns and return that shard's vector, in original order."""
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=5000, dim=DIM, num_shards=4, compression_ratio=10.0, seed=0
        )
        ids = np.random.default_rng(1).integers(0, 5000, size=(32, 3))
        out = store.lookup(ids)
        assert out.shape == (32, 3, DIM)
        from repro.utils.hashing import hash_to_range

        flat = ids.reshape(-1)
        shard_of = hash_to_range(flat, 4, seed=store._table.shard_seed)
        flat_out = out.reshape(-1, DIM)
        for s, shard in enumerate(store.shards):
            mask = shard_of == s
            if mask.any():
                assert np.array_equal(flat_out[mask], shard.lookup(flat[mask]))

    def test_gradients_only_touch_owning_shard(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=2000, dim=DIM, num_shards=3, compression_ratio=10.0, seed=0
        )
        before = [shard._arena.copy() for shard in store.shards]
        ids = np.arange(64).reshape(8, 8)
        grads = np.ones((8, 8, DIM), dtype=np.float32)
        store.lookup(ids)
        store.apply_gradients(ids, grads)
        from repro.utils.hashing import hash_to_range

        shard_of = hash_to_range(ids.reshape(-1), 3, seed=store._table.shard_seed)
        for s, shard in enumerate(store.shards):
            touched = (shard_of == s).any()
            assert (not np.array_equal(before[s], shard._arena)) == touched

    def test_trains_end_to_end_with_plan_reuse(self):
        dataset = tiny_dataset()
        store = ShardedEmbeddingStore.build(
            "cafe",
            num_features=dataset.schema.num_features,
            dim=DIM,
            num_shards=4,
            compression_ratio=10.0,
            seed=0,
        )
        model = DLRM(store, dataset.schema.num_fields, dataset.schema.num_numerical, rng=0)
        trainer = Trainer(model)
        losses = [trainer.train_step(b) for b in dataset.day_batches(0, 64)]
        assert np.isfinite(losses).all()
        # Store-level partition is built in lookup and reused by apply_gradients.
        stats = trainer.embedding_plan_stats()
        assert stats["reuse_rate"] == 0.5
        # The shard hash splits the ids, so each shard's own sketch records
        # only the ids it owns: it is the whole hot view of them.
        for index, shard in enumerate(store.shards):
            recorded = shard.sketch.keys[shard.sketch.keys != EMPTY_KEY]
            assert recorded.size and shard.sketch.total_insertions > 0
            assert (hash_to_range(recorded, 4, seed=DEFAULT_SHARD_SEED) == index).all()

    def test_memory_and_describe_aggregate_shards(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=1000, dim=DIM, num_shards=2, compression_ratio=10.0, seed=0
        )
        assert store.memory_floats() == sum(s.memory_floats() for s in store.shards)
        info = store.describe()
        assert info["num_shards"] == 2
        assert info["backend"] == "CafeEmbedding"

    def test_mismatched_shards_rejected(self):
        a = HashEmbedding(100, DIM, num_rows=8, rng=0)
        b = HashEmbedding(100, DIM + 2, num_rows=8, rng=0)
        with pytest.raises(ValueError):
            ShardedEmbeddingStore([a, b])
        with pytest.raises(ValueError):
            ShardedEmbeddingStore([])
        with pytest.raises(ValueError):
            ShardedEmbeddingStore.build("hash", 100, DIM, num_shards=0)


class TestSnapshots:
    def test_snapshot_is_frozen_while_training_continues(self):
        dataset = tiny_dataset()
        store = ShardedEmbeddingStore.build(
            "cafe",
            num_features=dataset.schema.num_features,
            dim=DIM,
            num_shards=2,
            compression_ratio=10.0,
            seed=0,
        )
        model = DLRM(store, dataset.schema.num_fields, dataset.schema.num_numerical, rng=0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)

        snapshot = store.snapshot()
        assert isinstance(snapshot, StoreSnapshot)
        ids = dataset.test_batch(128).categorical
        frozen = snapshot.lookup(ids).copy()

        for batch in dataset.day_batches(1, 64):
            trainer.train_step(batch)

        assert np.array_equal(frozen, snapshot.lookup(ids))
        assert not np.array_equal(frozen, store.lookup(ids))
        # Copy-on-write, lazily and once: the two CAFE shards are stacked into
        # one allocation per kind, so they go private together in one copy.
        assert store.describe()["stacked"]
        assert store.cow_copies == 1

    def test_snapshot_without_writes_costs_no_copies(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=DIM, num_shards=2, compression_ratio=5.0, seed=0
        )
        snapshot = store.snapshot()
        ids = np.arange(32)
        assert np.array_equal(snapshot.lookup(ids), store.lookup(ids))
        assert store.cow_copies == 0

    def test_later_snapshot_sees_newer_parameters(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=DIM, num_shards=2, compression_ratio=5.0, seed=0
        )
        ids = np.arange(64)
        first = store.snapshot()
        store.lookup(ids)
        store.apply_gradients(ids, np.ones((64, DIM), dtype=np.float32))
        second = store.snapshot()
        assert first.version < second.version
        assert not np.array_equal(first.lookup(ids), second.lookup(ids))
        assert np.array_equal(second.lookup(ids), store.lookup(ids))

    def test_snapshot_rejects_out_of_range_ids(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=DIM, num_shards=2, compression_ratio=5.0, seed=0
        )
        with pytest.raises(ValueError):
            store.snapshot().lookup(np.asarray([500]))


class TestStoreCheckpointing:
    def test_state_dict_round_trip_with_cafe_shards(self):
        dataset = tiny_dataset()
        n = dataset.schema.num_features
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=n, dim=DIM, num_shards=2, compression_ratio=10.0, seed=0
        )
        ids = np.random.default_rng(0).integers(0, n, size=(16, 8))
        for _ in range(5):
            store.lookup(ids)
            store.apply_gradients(ids, np.ones((16, 8, DIM), dtype=np.float32))
        state = store.state_dict()

        restored = ShardedEmbeddingStore.build(
            "cafe", num_features=n, dim=DIM, num_shards=2, compression_ratio=10.0, seed=99
        )
        restored.load_state_dict(state)
        probe = np.random.default_rng(1).integers(0, n, size=200)
        assert np.array_equal(store.lookup(probe), restored.lookup(probe))

    def test_state_dict_shard_count_mismatch_rejected(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=DIM, num_shards=2, compression_ratio=10.0, seed=0
        )
        other = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=DIM, num_shards=3, compression_ratio=10.0, seed=0
        )
        with pytest.raises(ValueError):
            other.load_state_dict(store.state_dict())

    def test_stateless_backend_raises_not_implemented(self):
        # Q-R has no state_dict (hash and full grew one for table groups).
        store = ShardedEmbeddingStore.build(
            "qr", num_features=500, dim=DIM, num_shards=1, compression_ratio=5.0, seed=0
        )
        with pytest.raises(NotImplementedError):
            store.state_dict()

    def test_round_trip_of_a_stack_keeps_bits_and_dtype(self):
        """Saving and restoring a 4-shard stack must stay bit-exact and keep
        the configured table dtype."""
        n = 2000
        def build(seed):
            return ShardedEmbeddingStore.build(
                "cafe", num_features=n, dim=DIM, num_shards=4,
                compression_ratio=10.0, seed=seed, dtype="float32",
            )

        store = build(0)
        ids = np.random.default_rng(0).integers(0, n, size=(16, 8))
        for _ in range(5):
            store.lookup(ids)
            store.apply_gradients(ids, np.ones((16, 8, DIM), dtype=np.float32))
        state = store.state_dict()

        restored = build(99)
        restored.load_state_dict(state)
        # Bit-exact tables, shard by shard, and preserved dtype.
        for shard_a, shard_b in zip(store.shards, restored.shards):
            state_b = shard_b.state_dict()
            for key, value in shard_a.state_dict().items():
                assert np.array_equal(value, state_b[key]), key
            for table_key in {"table", "hot_table", "shared_table"} & state_b.keys():
                assert state_b[table_key].dtype == np.dtype("float32")
        probe = np.random.default_rng(1).integers(0, n, size=200)
        assert np.array_equal(store.lookup(probe), restored.lookup(probe))
        # The restored store keeps training (through its rebuilt stack).
        restored.apply_gradients(probe, np.ones((200, DIM), dtype=np.float32))

    def test_legacy_unprefixed_state_loads_into_single_shard_store(self):
        """Checkpoints written before the store refactor carry the bare
        layer's keys (no shard prefix); a single-shard store must still
        absorb them, a multi-shard store must refuse clearly."""
        n = 600
        trained = make_cafe(n, seed=0)
        ids = np.random.default_rng(0).integers(0, n, size=(16, 4))
        for _ in range(5):
            trained.lookup(ids)
            trained.apply_gradients(ids, np.ones((16, 4, DIM), dtype=np.float32))
        legacy_state = trained.state_dict()  # bare-layer format

        store = ShardedEmbeddingStore([make_cafe(n, seed=9)])
        store.load_state_dict(legacy_state)
        probe = np.arange(200)
        assert np.array_equal(store.lookup(probe), trained.lookup(probe))

        multi = ShardedEmbeddingStore([make_cafe(n, seed=1), make_cafe(n, seed=2)])
        with pytest.raises(ValueError):
            multi.load_state_dict(legacy_state)

    def test_load_state_dict_does_not_corrupt_snapshots(self):
        """Restoring a checkpoint is a write: outstanding snapshots must keep
        serving the pre-restore values (copy-on-write applies here too)."""
        n = 600
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=n, dim=DIM, num_shards=2, compression_ratio=10.0, seed=0
        )
        other = ShardedEmbeddingStore.build(
            "cafe", num_features=n, dim=DIM, num_shards=2, compression_ratio=10.0, seed=42
        )
        ids = np.random.default_rng(0).integers(0, n, size=(16, 4))
        for _ in range(3):
            other.lookup(ids)
            other.apply_gradients(ids, np.ones((16, 4, DIM), dtype=np.float32))

        snapshot = store.snapshot()
        probe = np.arange(200)
        frozen = snapshot.lookup(probe).copy()
        store.load_state_dict(other.state_dict())
        assert np.array_equal(frozen, snapshot.lookup(probe))
        assert np.array_equal(store.lookup(probe), other.lookup(probe))
