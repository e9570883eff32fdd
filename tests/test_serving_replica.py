"""Delta-chain parity for the replicated serving tier.

The replicated tier's core claim: a replica fed *only* versioned payloads
(one full base + any mix of deltas and rebases) serves bit-identically to a
:class:`~repro.serving.engine.ServingEngine` handed the whole snapshot at
every version.  These tests pin that down property-based (random
train/publish interleavings, random rebase cadence) on static and adaptive
backends alike: a delta skips every shard copy-on-write shows unwritten and
ships every changed shard whole.  Only CAFE shards (3, one stack); every
other backend runs on one shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.delta
from repro.embeddings.base import CompressedEmbedding
from repro.models.dlrm import DLRM
from repro.serving import DeltaSnapshotPublisher, ReplicaSet, ServingEngine
from repro.store import ShardedEmbeddingStore
from repro.utils.hashing import hash_to_range

DIM = 8
NUM_FEATURES = 1200
FIELDS = 3
NUMERICAL = 2


def make_model(method="hash", seed=0, compression_ratio=8.0):
    store = ShardedEmbeddingStore.build(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=3 if method == "cafe" else 1,
        compression_ratio=compression_ratio,
        seed=seed,
    )
    return DLRM(store, FIELDS, NUMERICAL, rng=seed)


def train_steps(model, rng, steps, hot):
    """Zipf-ish traffic: most writes hit the shared hot set."""
    for _ in range(steps):
        ids = np.where(
            rng.random((48, FIELDS)) < 0.8,
            hot,
            rng.integers(0, NUM_FEATURES, size=(48, FIELDS)),
        )
        grads = rng.normal(scale=0.1, size=(48, FIELDS, DIM)).astype(np.float32)
        model.store.lookup(ids)
        model.store.apply_gradients(ids, grads)


def probe_rows(seed=5, rows=24):
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, NUM_FEATURES, size=(rows, FIELDS))
    num = rng.normal(size=(rows, NUMERICAL))
    return cat, num


def assert_parity(engine, replicas, cat, num, context=""):
    want = engine.predict(cat, num)
    for replica in replicas.replicas:
        got = replica.predict(cat, num)
        assert np.array_equal(got, want), (
            f"replica {replica.index} diverged from whole-snapshot serving "
            f"{context} (version {replica.version})"
        )


class TestDeltaChainParity:
    @pytest.mark.parametrize("method", ["hash", "full", "cafe"])
    @given(
        plan=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=6),
        rebase_every=st.sampled_from([0, 1, 2, 3]),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_interleavings_stay_bit_exact(self, method, plan, rebase_every):
        """Any interleaving of train steps and publishes (including publishes
        with zero intervening steps) keeps every replica bit-identical to the
        engine at every version — across rebase boundaries too."""
        model = make_model(method)
        publisher = DeltaSnapshotPublisher(model, rebase_every=rebase_every)
        replicas = ReplicaSet(2)
        engine = ServingEngine(model, max_batch_size=64)
        rng = np.random.default_rng(123)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        cat, num = probe_rows()
        for round_index, steps in enumerate(plan):
            train_steps(model, rng, steps, hot)
            payload = publisher.publish()
            replicas.publish(payload)
            engine.refresh()
            assert_parity(
                engine, replicas, cat, num,
                context=f"after round {round_index} on {method} ({steps} steps, "
                        f"rebase_every={rebase_every}, kind={payload.kind})",
            )
        if rebase_every == 1:
            # rebase_every=1 is the always-full baseline by definition.
            assert publisher.stats.delta_publishes == 0

    @pytest.mark.parametrize("method", ["full", "hash", "qr", "cafe"])
    def test_parity_across_extraction_tiers(self, method):
        """Fixed seeded chain on static and adaptive backends: every delta
        ships its changed shards whole, whatever the backend (at 2x: Q-R
        cannot reach 8x over 1200 ids)."""
        model = make_model(method, compression_ratio=2.0)
        publisher = DeltaSnapshotPublisher(model, rebase_every=3)
        replicas = ReplicaSet(2)
        engine = ServingEngine(model, max_batch_size=64)
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        cat, num = probe_rows()
        kinds = []
        shipped = 0
        for round_index in range(5):
            train_steps(model, rng, 2, hot)
            payload = publisher.publish()
            kinds.append(payload.kind)
            shipped += len(payload.updates)
            assert all(update.shard is model.store.shards[update.index] for update in payload.updates)
            replicas.publish(payload)
            engine.refresh()
            assert_parity(engine, replicas, cat, num, context=f"round {round_index} on {method}")
        # full base, deltas, one rebase at the cadence boundary.
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        stats = publisher.stats
        assert stats.replacements == shipped > 0
        assert stats.replacements + stats.unchanged_shards == (
            model.store.num_shards * stats.delta_publishes
        )

    def test_versions_strictly_increase_and_chain(self):
        model = make_model()
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(11)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        versions = []
        bases = []
        for _ in range(4):
            train_steps(model, rng, 1, hot)
            payload = publisher.publish()
            versions.append(payload.version)
            bases.append(payload.base_version)
        # Payloads are numbered by the publisher, from 1.
        assert versions == [1, 2, 3, 4] and publisher.version == 4
        assert bases[0] is None  # the bootstrap full
        # Every delta names the previous payload as its base: the chain is
        # explicit, so a dropped publish is detectable, not silent.
        assert bases[1:] == versions[:-1]


class TestPayloadAccounting:
    def test_a_write_ships_the_stack_whole(self):
        """Copy-on-write privatises a stack in one copy, so training only ids
        one shard owns still replaces every shard: the delta ships all three
        whole and counts none as unchanged."""
        model = make_model("cafe")
        store = model.store
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(3)
        candidates = np.arange(NUM_FEATURES)
        owned = candidates[hash_to_range(candidates, 3, seed=store.shard_seed) == 1]
        full = publisher.publish()
        for _ in range(2):
            ids = rng.choice(owned, size=(48, FIELDS))
            grads = rng.normal(scale=0.1, size=(48, FIELDS, DIM)).astype(np.float32)
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        delta = publisher.publish()
        assert full.kind == "full" and delta.kind == "delta"
        assert [update.index for update in delta.updates] == [0, 1, 2]
        assert all(update.shard is shard for update, shard in zip(delta.updates, store.shards))
        assert delta.payload_floats == full.payload_floats == store.memory_floats()
        assert delta.payload_rows == store.memory_floats() // DIM
        assert publisher.stats.unchanged_shards == 0

    def test_publish_with_no_training_ships_nothing(self):
        model = make_model()
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(4)
        train_steps(model, rng, 1, rng.integers(0, 200, size=(48, FIELDS)))
        publisher.publish()
        idle = publisher.publish()
        assert idle.kind == "delta"
        assert idle.payload_rows == 0 and not idle.updates
        # Copy-on-write identity proves the skip in O(1), not by comparing.
        assert publisher.stats.unchanged_shards == model.store.num_shards == 1

    def test_replica_apply_counters(self):
        model = make_model()
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replicas = ReplicaSet(1)
        rng = np.random.default_rng(6)
        hot = rng.integers(0, 100, size=(48, FIELDS))
        for _ in range(3):
            train_steps(model, rng, 1, hot)
            replicas.publish(publisher.publish())
        replica = replicas.replicas[0]
        assert replica.full_applies == 1
        assert replica.delta_applies == 2
        assert replica.rows_applied > 0


def test_the_row_level_delta_tier_is_gone():
    """Publishes ship whole shards; the row-level tier has no API left."""
    assert not hasattr(ShardedEmbeddingStore, "enable_write_log")
    assert not hasattr(CompressedEmbedding, "serving_state")
    assert not hasattr(repro.serving.delta, "RowDelta")
