"""Delta-chain parity for the replicated serving tier.

The replicated tier's core claim: a replica fed *only* versioned payloads
(one full base + any mix of deltas and rebases) serves bit-identically to a
:class:`~repro.serving.engine.ServingEngine` handed the whole snapshot at
every version.  These tests pin that down property-based (random
train/publish interleavings, random rebase cadence) on static and adaptive
backends alike: a store ships its one table whole, or nothing when
copy-on-write shows it unwritten.  Only CAFE shards (3, one stack); every
other backend runs on one shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.delta
from repro.analysis.sanitizer import reachable_arrays
from repro.embeddings.base import CompressedEmbedding
from repro.embeddings.cafe import CafeStack
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
        """Fixed seeded chain on static and adaptive backends: every payload
        after training ships the store's table whole, whatever the backend
        (at 2x: Q-R cannot reach 8x over 1200 ids)."""
        model = make_model(method, compression_ratio=2.0)
        publisher = DeltaSnapshotPublisher(model, rebase_every=3)
        replicas = ReplicaSet(2)
        engine = ServingEngine(model, max_batch_size=64)
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        cat, num = probe_rows()
        kinds = []
        for round_index in range(5):
            train_steps(model, rng, 2, hot)
            payload = publisher.publish()
            kinds.append(payload.kind)
            assert payload.snapshot is not None
            assert payload.payload_floats == model.store.memory_floats()
            replicas.publish(payload)
            engine.refresh()
            assert_parity(engine, replicas, cat, num, context=f"round {round_index} on {method}")
        # full base, deltas, one rebase at the cadence boundary.
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        stats = publisher.stats
        assert stats.floats_shipped == 5 * model.store.memory_floats()
        assert stats.rows_shipped == 5 * (model.store.memory_floats() // DIM)

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
        one shard owns still replaces the whole stack: the delta ships it,
        all three shards."""
        model = make_model("cafe")
        store = model.store
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(3)
        candidates = np.arange(NUM_FEATURES)
        owned = candidates[hash_to_range(candidates, 3, seed=store._table.shard_seed) == 1]
        full = publisher.publish()
        for _ in range(2):
            ids = rng.choice(owned, size=(48, FIELDS))
            grads = rng.normal(scale=0.1, size=(48, FIELDS, DIM)).astype(np.float32)
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        delta = publisher.publish()
        assert full.kind == "full" and delta.kind == "delta"
        assert delta.snapshot.table is store._table
        assert delta.snapshot.table.members == list(store.shards)
        assert delta.payload_floats == full.payload_floats == store.memory_floats()
        assert delta.payload_rows == store.memory_floats() // DIM

    @pytest.mark.parametrize("method", ["hash", "cafe"])
    def test_publish_with_no_training_ships_nothing(self, method):
        """Copy-on-write identity proves the skip in O(1), not by comparing:
        the idle delta carries no table, and a replica keeps its own."""
        model = make_model(method)
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replicas = ReplicaSet(1)
        rng = np.random.default_rng(4)
        train_steps(model, rng, 1, rng.integers(0, 200, size=(48, FIELDS)))
        replicas.publish(publisher.publish())
        replica = replicas.replicas[0]
        kept = replica._serving.view.table
        idle = publisher.publish()
        assert idle.kind == "delta"
        assert idle.snapshot is None
        assert idle.payload_rows == idle.payload_floats == 0
        replicas.publish(idle)
        assert replica.version == idle.version
        assert replica._serving.view.table is kept

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


class TestReplicaStage:
    def test_a_replica_copies_the_stack_privately_in_one_piece(self):
        """A replica's staged stack is its own (no array shared with the
        publisher's frozen stack or another replica's), still one stack (its
        members view its arrays), and as large as the store."""
        model = make_model("cafe")
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replicas = ReplicaSet(2)
        rng = np.random.default_rng(9)
        train_steps(model, rng, 2, rng.integers(0, 200, size=(48, FIELDS)))
        payload = publisher.publish()
        replicas.publish(payload)
        frozen = list(reachable_arrays(payload.snapshot.table))
        staged = [replica._serving.view.table for replica in replicas.replicas]
        for stack in staged:
            assert isinstance(stack, CafeStack) and stack is not payload.snapshot.table
            assert stack.memory_floats() == model.store.memory_floats()
            for array in reachable_arrays(stack):
                assert not any(np.shares_memory(array, base) for base in frozen)
            for member in stack.members:
                assert np.shares_memory(member._arena, stack.arena)
                assert np.shares_memory(member.sketch.scores, stack.sketch.scores)
        assert not np.shares_memory(staged[0].arena, staged[1].arena)

    def test_a_delta_chain_on_a_stack_answers_like_a_fresh_engine(self):
        model = make_model("cafe")
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replicas = ReplicaSet(2)
        rng = np.random.default_rng(10)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        cat, num = probe_rows()
        for steps in (2, 0, 3, 1):
            train_steps(model, rng, steps, hot)
            replicas.publish(publisher.publish())
            fresh = ServingEngine(model, max_batch_size=64)
            assert_parity(fresh, replicas, cat, num, context=f"after {steps} steps")
        assert publisher.stats.delta_publishes == 3


def test_the_row_level_delta_tier_is_gone():
    """Publishes ship whole shards; the row-level tier has no API left."""
    assert not hasattr(ShardedEmbeddingStore, "enable_write_log")
    assert not hasattr(CompressedEmbedding, "serving_state")
    assert not hasattr(repro.serving.delta, "RowDelta")
