"""Delta-chain parity for the replicated serving tier.

The replicated tier's core claim: a replica fed *only* versioned payloads
(one full base + any mix of deltas and rebases) serves bit-identically to a
:class:`~repro.serving.engine.ServingEngine` handed the whole snapshot at
every version.  These tests pin that down property-based (random
train/publish interleavings, random rebase cadence), with and without the
store's write log (without it the row-diff fallback carries every delta),
and for the replacement path (CAFE shards train their routing, so deltas
cannot be proven row-local).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import DatasetSchema, FieldSchema
from repro.models.dlrm import DLRM
from repro.serving import DeltaSnapshotPublisher, ReplicaSet, ServingEngine
from repro.store import ShardedEmbeddingStore
from repro.store.table_group import TableGroupStore

DIM = 8
NUM_FEATURES = 1200
FIELDS = 3
NUMERICAL = 2


def make_model(method="hash", num_shards=3, seed=0):
    store = ShardedEmbeddingStore.build(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=8.0,
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
    @given(
        plan=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=6),
        rebase_every=st.sampled_from([0, 1, 2, 3]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_interleavings_stay_bit_exact(self, plan, rebase_every):
        """Any interleaving of train steps and publishes (including publishes
        with zero intervening steps) keeps every replica bit-identical to the
        engine at every version — across rebase boundaries too."""
        model = make_model()
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
                context=f"after round {round_index} ({steps} steps, "
                        f"rebase_every={rebase_every}, kind={payload.kind})",
            )
        if rebase_every == 1:
            # rebase_every=1 is the always-full baseline by definition.
            assert publisher.stats.delta_publishes == 0

    @pytest.mark.parametrize("write_log", [True, False])
    @pytest.mark.parametrize("method", ["hash", "cafe"])
    def test_parity_across_extraction_tiers(self, method, write_log, monkeypatch):
        """Fixed seeded chain with and without the store's write log; also
        pins which extraction tier each combination is expected to use."""
        model = make_model(method)
        if not write_log:
            monkeypatch.setattr(model.store, "enable_write_log", lambda: False)
        publisher = DeltaSnapshotPublisher(model, rebase_every=3)
        replicas = ReplicaSet(2, policy="least_loaded")
        engine = ServingEngine(model, max_batch_size=64)
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 200, size=(48, FIELDS))
        cat, num = probe_rows()
        kinds = []
        for round_index in range(5):
            train_steps(model, rng, 2, hot)
            payload = publisher.publish()
            kinds.append(payload.kind)
            replicas.publish(payload)
            engine.refresh()
            assert_parity(
                engine, replicas, cat, num,
                context=f"round {round_index} on {method}, write_log={write_log}",
            )
        # full base, deltas, one rebase at the cadence boundary.
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        stats = publisher.stats
        if method == "cafe":
            # Routing trains -> whole-shard replacements, never row deltas.
            assert stats.replacements > 0
            assert stats.logged_diffs == 0 and stats.row_diffs == 0
        elif not write_log:
            # No write log: the vectorized row-diff fallback carries every delta.
            assert stats.row_diffs > 0
            assert stats.logged_diffs == 0
        else:
            # The exact write log narrows every compare.
            assert stats.logged_diffs > 0
            assert stats.row_diffs == 0

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
        assert versions == sorted(set(versions)), "payload versions must increase"
        assert bases[0] is None  # the bootstrap full
        # Every delta names the previous payload as its base: the chain is
        # explicit, so a dropped publish is detectable, not silent.
        assert bases[1:] == versions[:-1]


class TestPayloadAccounting:
    def test_hot_set_delta_ships_a_fraction_of_the_table(self):
        """The reason the tier exists: a delta after hot-set training ships
        far fewer rows than the full snapshot it replaces.  The uncompressed
        backend makes the accounting exact: one feature = one table row."""
        model = make_model("full")
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        rng = np.random.default_rng(3)
        hot = rng.integers(0, 100, size=(48, FIELDS))

        def train_hot_only(steps):
            for _ in range(steps):
                ids = hot[rng.permutation(48)]
                grads = rng.normal(scale=0.1, size=(48, FIELDS, DIM)).astype(np.float32)
                model.store.lookup(ids)
                model.store.apply_gradients(ids, grads)

        train_hot_only(2)
        full = publisher.publish()
        train_hot_only(2)
        delta = publisher.publish()
        assert full.kind == "full" and delta.kind == "delta"
        assert 0 < delta.payload_rows < full.payload_rows / 2, (
            f"delta shipped {delta.payload_rows} rows vs {full.payload_rows} "
            "for the full snapshot; hot-set training should change few rows"
        )

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
        assert publisher.stats.unchanged_shards >= 1

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


class TestGroupedStoreFullOnly:
    """Per-field table groups snapshot as one opaque unit: the publisher
    must fall back to full payloads and replicas serve the whole view."""

    def grouped_model(self):
        schema = DatasetSchema(
            name="grouped",
            fields=[
                FieldSchema("tiny", 8),
                FieldSchema("mid", 400),
                FieldSchema("tail", 2000),
            ],
            num_numerical=0,
            embedding_dim=DIM,
        )
        store = TableGroupStore.from_schema(
            schema, spec="full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid", seed=0
        )
        return schema, DLRM(store, schema.num_fields, 0, rng=0)

    def grouped_ids(self, schema, rng, rows=32):
        cards = np.array([f.cardinality for f in schema.fields])
        local = rng.integers(0, cards, size=(rows, schema.num_fields))
        return local + np.asarray(schema.field_offsets[: schema.num_fields])

    def test_grouped_store_serves_full_payloads_bit_exact(self):
        schema, model = self.grouped_model()
        publisher = DeltaSnapshotPublisher(model, rebase_every=0)
        replicas = ReplicaSet(2)
        engine = ServingEngine(model, max_batch_size=64)
        rng = np.random.default_rng(9)
        cat = self.grouped_ids(schema, rng)
        for round_index in range(3):
            ids = self.grouped_ids(schema, rng)
            grads = rng.normal(scale=0.1, size=(32, schema.num_fields, DIM)).astype(
                np.float32
            )
            model.store.lookup(ids)
            model.store.apply_gradients(ids, grads)
            payload = publisher.publish()
            assert payload.kind == "full", (
                "non-sharded snapshots cannot prove row deltas; every publish "
                "must be a full rebase"
            )
            replicas.publish(payload)
            engine.refresh()
            want = engine.predict(cat, None)
            for replica in replicas.replicas:
                got = replica.predict(cat, None)
                assert np.array_equal(got, want), (
                    f"grouped replica {replica.index} diverged at round {round_index}"
                )
        assert publisher.stats.delta_publishes == 0
