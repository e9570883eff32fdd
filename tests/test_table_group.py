"""Tests for per-field table groups: config spec, fused planner, store."""

import numpy as np
import pytest

from repro.data.schema import (
    DatasetSchema,
    FieldConfig,
    FieldSchema,
    classify_fields,
    field_configs_from_spec,
    make_preset,
)
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings import create_embedding_store
from repro.embeddings.cafe import CafeEmbedding
from repro.errors import DataError
from repro.models.dlrm import DLRM
from repro.serving.engine import ServingEngine
from repro.store import ShardedEmbeddingStore, TableGroup, TableGroupSnapshot, TableGroupStore
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import Trainer

DIM = 8


def hetero_schema() -> DatasetSchema:
    return DatasetSchema(
        name="tg",
        fields=[
            FieldSchema("tiny_a", 8),
            FieldSchema("tiny_b", 40),
            FieldSchema("mid", 900),
            FieldSchema("tail_a", 5000),
            FieldSchema("tail_b", 9000),
        ],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=3,
        zipf_exponent=1.3,
    )


def hetero_dataset(seed=0, samples_per_day=512):
    return SyntheticCTRDataset(
        hetero_schema(), config=SyntheticConfig(samples_per_day=samples_per_day, seed=seed)
    )


MIXED_SPEC = "full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid"


def make_cafe(num_features, seed=0, dim=DIM):
    return CafeEmbedding(
        num_features=num_features,
        dim=dim,
        num_hot_rows=12,
        num_shared_rows=24,
        rebalance_interval=3,
        learning_rate=0.1,
        rng=seed,
    )


class TestFieldConfigSpec:
    def test_classify_fields_by_cardinality(self):
        schema = hetero_schema()
        assert classify_fields(schema) == ["tiny", "tiny", "mid", "tail", "tail"]
        # Thresholds are tunable; everything tiny under a huge tiny_max.
        assert classify_fields(schema, tiny_max=10_000, tail_min=20_000) == ["tiny"] * 5

    def test_spec_resolves_backends_options_and_fallback(self):
        schema = hetero_schema()
        configs = field_configs_from_spec(schema, "full:tiny,cafe[cr=20,shards=2]:tail")
        assert [c.backend for c in configs] == ["full", "full", "cafe", "cafe", "cafe"]
        # The mid field fell through to the last entry's backend.
        assert configs[2].compression_ratio == 20.0
        assert configs[3].num_shards == 2
        narrow = field_configs_from_spec(schema, "hash[dim=4,seed=23]:all")
        assert all(c.dim == 4 and c.hash_seed == 23 for c in narrow)

    def test_spec_errors(self):
        schema = hetero_schema()
        with pytest.raises(DataError):
            field_configs_from_spec(schema, "cafe:bogus_class")
        with pytest.raises(DataError):
            field_configs_from_spec(schema, "cafe[cr=8:tail")
        with pytest.raises(DataError):
            field_configs_from_spec(schema, "cafe[zoom=3]:all")
        with pytest.raises(DataError):
            field_configs_from_spec(schema, "  ,  ")

    def test_configure_fields_validates_coverage_and_dim(self):
        schema = hetero_schema()
        schema.configure_fields(MIXED_SPEC)
        assert [c.field for c in schema.field_configs] == [f.name for f in schema.fields]
        with pytest.raises(DataError):
            schema.configure_fields([FieldConfig(field="tiny_a")])  # not every field
        with pytest.raises(DataError):
            schema.configure_fields("hash[dim=99]:all")  # dim > embedding_dim

    def test_make_preset_attaches_field_configs(self):
        schema = make_preset("criteo", base_cardinality=300, field_spec="full:tiny,cafe:tail")
        assert schema.field_configs is not None
        assert len(schema.field_configs) == schema.num_fields
        backends = {c.backend for c in schema.field_configs}
        assert backends == {"full", "cafe"}


class TestFusedPlanner:
    def test_plan_reused_between_lookup_and_apply(self):
        store = TableGroupStore.from_schema(hetero_schema(), spec=MIXED_SPEC, seed=0)
        dataset = hetero_dataset()
        for batch in dataset.day_batches(0, 64):
            store.lookup(batch.categorical)
            store.apply_gradients(
                batch.categorical,
                np.ones(batch.categorical.shape + (DIM,), dtype=np.float32),
            )
        # One miss (lookup) + one hit (apply_gradients) per step, at the
        # store level and inside every group backend.
        assert store.plan_stats.reuse_rate == 0.5
        for group in store.groups:
            assert group.backend.plan_stats.hits >= group.backend.plan_stats.misses

    def test_group_sub_batches_are_handed_the_identical_array(self):
        """The fused planner stores each group's local-id matrix once; both
        halves of the step must hand the backend that same object so the
        intra-group plan cache hits on identity-equal content."""
        store = TableGroupStore.from_schema(hetero_schema(), spec=MIXED_SPEC, seed=0)
        ids = hetero_dataset().test_batch(32).categorical
        plan_a = store.plan_for(store._check_matrix(ids))
        store.lookup(ids)
        plan_b = store.plan_for(store._check_matrix(ids))
        assert plan_a is plan_b

    def test_empty_batch_lookup_and_apply(self):
        schema = hetero_schema()
        store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        empty = np.zeros((0, schema.num_fields), dtype=np.int64)
        out = store.lookup(empty)
        assert out.shape == (0, schema.num_fields, DIM)
        before = store.step()
        store.apply_gradients(empty, np.zeros((0, schema.num_fields, DIM), dtype=np.float32))
        # One behaviour for every store: an empty batch is a no-op, not a step.
        assert store.step() == before

    def test_rejects_non_field_aligned_ids(self):
        schema = hetero_schema()
        store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        with pytest.raises(ValueError):
            store.lookup(np.zeros(16, dtype=np.int64))  # 1-D: no field axis
        with pytest.raises(ValueError):
            store.lookup(np.zeros((4, schema.num_fields + 1), dtype=np.int64))


class TestSingleGroupParity:
    def test_single_group_store_is_bit_exact_with_bare_backend(self):
        """Mirrors the PR-2 single-shard parity test: one group spanning all
        fields, no projection, must reproduce the bare backend bit for bit
        over a fixed-seed training run."""
        schema = hetero_schema()
        n = schema.num_features
        bare = make_cafe(n, seed=0)
        grouped_backend = make_cafe(n, seed=0)
        store = TableGroupStore(
            [
                TableGroup(
                    "g0_cafe",
                    grouped_backend,
                    field_indices=np.arange(schema.num_fields),
                    global_shift=np.zeros(schema.num_fields, dtype=np.int64),
                )
            ],
            num_fields=schema.num_fields,
            num_features=n,
            dim=DIM,
        )
        dataset = hetero_dataset()
        rng = np.random.default_rng(7)
        for batch in dataset.day_batches(0, 64):
            ids = batch.categorical
            grads = rng.normal(scale=0.1, size=ids.shape + (DIM,)).astype(np.float32)
            assert np.array_equal(store.lookup(ids), bare.lookup(ids))
            store.apply_gradients(ids, grads)
            bare.apply_gradients(ids, grads)
        probe = dataset.test_batch(256).categorical
        assert np.array_equal(store.lookup(probe), bare.lookup(probe))
        assert np.array_equal(grouped_backend.hot_table, bare.hot_table)
        assert np.array_equal(grouped_backend.shared_table, bare.shared_table)


class TestMixedPolicyTraining:
    def test_mixed_store_trains_dlrm_end_to_end(self):
        dataset = hetero_dataset()
        schema = dataset.schema
        store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        assert store.num_groups == 3
        model = DLRM(store, schema.num_fields, schema.num_numerical, rng=0)
        trainer = Trainer(model)
        losses = [trainer.train_step(b) for b in dataset.day_batches(0, 64)]
        assert np.isfinite(losses).all()
        # The tiny group really is uncompressed; the tail group really is CAFE.
        by_name = {g.name: g for g in store.groups}
        assert by_name["g0_full"].backend.memory_floats() == 48 * DIM
        assert hasattr(by_name["g2_cafe"].backend, "sketch")

    def test_projected_group_trains_and_projects_up(self):
        """A group with a narrower native dim stores narrow rows and fuses
        at the schema dim through a trainable projection."""
        schema = hetero_schema()
        store = TableGroupStore.from_schema(
            schema, spec="hash[cr=4,dim=4]:mid,full:tiny,cafe[cr=16]:tail", seed=0
        )
        projected = [g for g in store.groups if g.projection is not None]
        assert len(projected) == 1 and projected[0].dim == 4
        before = projected[0].projection.copy()
        dataset = hetero_dataset()
        model = DLRM(store, schema.num_fields, schema.num_numerical, rng=0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        assert store.lookup(dataset.test_batch(16).categorical).shape == (16, 5, DIM)
        assert not np.array_equal(before, projected[0].projection)

    def test_sharded_group_composes(self):
        schema = hetero_schema()
        store = TableGroupStore.from_schema(
            schema, spec="full:tiny,cafe[cr=16,shards=2]:tail,hash[cr=8]:mid", seed=0
        )
        sharded = [g for g in store.groups if isinstance(g.backend, ShardedEmbeddingStore)]
        assert len(sharded) == 1 and sharded[0].backend.num_shards == 2
        dataset = hetero_dataset()
        model = DLRM(store, schema.num_fields, schema.num_numerical, rng=0)
        trainer = Trainer(model)
        losses = [trainer.train_step(b) for b in dataset.day_batches(0, 64)]
        assert np.isfinite(losses).all()

    def test_memory_floats_budget_override(self):
        schema = hetero_schema()
        configs = [
            FieldConfig(field=f.name, backend="hash", memory_floats=64 * DIM)
            for f in schema.fields
        ]
        store = TableGroupStore.from_configs(schema, configs, seed=0)
        assert store.num_groups == 1
        # One pooled hash group targeting the summed per-field budget.
        assert store.memory_floats() == pytest.approx(5 * 64 * DIM, rel=0.1)

    def test_from_schema_defaults_and_factory_helper(self):
        schema = hetero_schema()
        uniform = TableGroupStore.from_schema(schema, compression_ratio=10.0, seed=0)
        assert uniform.num_groups == 1  # "cafe:all" default
        via_factory = create_embedding_store(schema, spec=MIXED_SPEC, seed=0)
        assert isinstance(via_factory, TableGroupStore)
        plain = create_embedding_store(schema, spec="hash", compression_ratio=8.0, seed=0)
        assert isinstance(plain, ShardedEmbeddingStore) and plain.num_shards == 1
        sharded = create_embedding_store(schema, spec="hash", num_shards=4, seed=0)
        assert sharded.num_shards == 4
        with pytest.raises(ValueError, match="shards=N"):
            create_embedding_store(schema, spec=MIXED_SPEC, num_shards=4, seed=0)
        schema.configure_fields(MIXED_SPEC)
        model = DLRM.from_schema(schema, seed=0, rng=1)
        assert isinstance(model.store, TableGroupStore)
        assert model.store.num_groups == 3


class TestGroupSnapshots:
    def test_snapshot_frozen_while_training_continues(self):
        dataset = hetero_dataset()
        schema = dataset.schema
        store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        model = DLRM(store, schema.num_fields, schema.num_numerical, rng=0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)

        snapshot = store.snapshot()
        assert isinstance(snapshot, TableGroupSnapshot)
        ids = dataset.test_batch(128).categorical
        frozen = snapshot.lookup(ids).copy()
        for batch in dataset.day_batches(1, 64):
            trainer.train_step(batch)
        assert np.array_equal(frozen, snapshot.lookup(ids))
        assert not np.array_equal(frozen, store.lookup(ids))
        # Every group was written, so every group was privatised exactly once.
        assert store.cow_copies == store.num_groups

    def test_snapshot_without_writes_costs_no_copies(self):
        store = TableGroupStore.from_schema(hetero_schema(), spec=MIXED_SPEC, seed=0)
        ids = hetero_dataset().test_batch(32).categorical
        snapshot = store.snapshot()
        assert np.array_equal(snapshot.lookup(ids), store.lookup(ids))
        assert store.cow_copies == 0

    def test_serving_engine_publishes_group_snapshots(self):
        dataset = hetero_dataset()
        schema = dataset.schema
        store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        model = DLRM(store, schema.num_fields, schema.num_numerical, rng=0)
        trainer = Trainer(model)
        engine = ServingEngine(model, max_batch_size=32)
        assert isinstance(engine.snapshot, TableGroupSnapshot)
        test = dataset.test_batch(64)
        before = engine.predict(test.categorical, test.numerical).copy()
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        # Same snapshot → same answers; refresh → new parameters.
        assert np.array_equal(before, engine.predict(test.categorical, test.numerical))
        engine.refresh()
        assert not np.array_equal(before, engine.predict(test.categorical, test.numerical))


class TestGroupCheckpointing:
    def _trained_store(self, seed=0, spec=MIXED_SPEC):
        dataset = hetero_dataset()
        schema = dataset.schema
        store = TableGroupStore.from_schema(schema, spec=spec, seed=seed)
        for batch in dataset.day_batches(0, 64):
            ids = batch.categorical
            store.lookup(ids)
            store.apply_gradients(ids, np.ones(ids.shape + (DIM,), dtype=np.float32))
        return store, dataset

    def test_group_namespaced_round_trip_is_bit_exact(self):
        store, dataset = self._trained_store(seed=0)
        state = store.state_dict()
        assert int(state["num_groups"]) == 3
        assert any(key.startswith("group2.backend.") for key in state)
        restored = TableGroupStore.from_schema(dataset.schema, spec=MIXED_SPEC, seed=99)
        restored.load_state_dict(state)
        probe = dataset.test_batch(256).categorical
        assert np.array_equal(store.lookup(probe), restored.lookup(probe))
        assert restored.step() == store.step()

    def test_flat_state_dict_migrates_into_single_group_store(self):
        """Pre-table-group checkpoints (bare layer or sharded store, flat
        key space) load into a single-group store; multi-group refuses."""
        schema = hetero_schema()
        n = schema.num_features
        trained = make_cafe(n, seed=0)
        ids = np.random.default_rng(0).integers(0, n, size=(16, schema.num_fields))
        for _ in range(5):
            trained.lookup(ids)
            trained.apply_gradients(ids, np.ones(ids.shape + (DIM,), dtype=np.float32))
        flat = trained.state_dict()

        single = TableGroupStore(
            [
                TableGroup(
                    "g0_cafe",
                    make_cafe(n, seed=9),
                    field_indices=np.arange(schema.num_fields),
                    global_shift=np.zeros(schema.num_fields, dtype=np.int64),
                )
            ],
            num_fields=schema.num_fields,
            num_features=n,
            dim=DIM,
        )
        single.load_state_dict(flat)
        assert np.array_equal(single.lookup(ids), trained.lookup(ids))
        # The flat format stores the step inside the backend; the store
        # adopts it so snapshots and re-saved group checkpoints keep it.
        assert single.step() == trained.step()
        assert int(single.state_dict()["step"]) == trained.step()

        multi = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=0)
        with pytest.raises(ValueError, match="flat format"):
            multi.load_state_dict(flat)

    def test_structure_mismatches_rejected(self):
        store, dataset = self._trained_store(seed=0)
        state = store.state_dict()
        uniform = TableGroupStore.from_schema(dataset.schema, spec="cafe:all", seed=0)
        with pytest.raises(ValueError, match="groups"):
            uniform.load_state_dict(state)
        # Same spec but a tighter tiny threshold moves tiny_b (40 ids) into
        # the hash group — same group count, different field ownership.
        reassigned = TableGroupStore.from_schema(
            dataset.schema, spec=MIXED_SPEC, seed=0, tiny_max=10
        )
        with pytest.raises(ValueError, match="fields"):
            reassigned.load_state_dict(state)

    def test_load_does_not_corrupt_outstanding_snapshots(self):
        store, dataset = self._trained_store(seed=0)
        other, _ = self._trained_store(seed=42)
        snapshot = store.snapshot()
        probe = dataset.test_batch(128).categorical
        frozen = snapshot.lookup(probe).copy()
        store.load_state_dict(other.state_dict())
        assert np.array_equal(frozen, snapshot.lookup(probe))
        assert np.array_equal(store.lookup(probe), other.lookup(probe))

    def test_full_model_checkpoint_round_trip(self, tmp_path):
        """save_checkpoint/load_checkpoint carry the group-namespaced state
        through the .npz path, mixed policy included."""
        dataset = hetero_dataset()
        schema = dataset.schema

        def build(seed):
            store = TableGroupStore.from_schema(schema, spec=MIXED_SPEC, seed=seed)
            return DLRM(store, schema.num_fields, schema.num_numerical, rng=seed)

        model = build(0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        path = save_checkpoint(tmp_path / "groups.npz", model, step=trainer.global_step)

        restored = build(7)
        assert load_checkpoint(path, restored) == trainer.global_step
        test = dataset.test_batch(256)
        assert np.array_equal(
            model.predict_proba(test.categorical, test.numerical),
            restored.predict_proba(test.categorical, test.numerical),
        )
