"""What the one embedding store promises, for every backend.

``ShardedEmbeddingStore`` is the only store: every backend reaches the
trainer, a snapshot, a serving engine and a checkpoint through it.  Each
promise below is pinned for all eight backends at one shard (the backend
behind the store's checks), and for ``cafe`` at two, three and four as well
(one stack, the only multi-shard store):

* the routing plan built by ``lookup`` is reused by ``apply_gradients``,
  and it is the store's: one per step at every shard count, kept across a
  copy-on-write copy, and never touched by a snapshot read;
* a snapshot is frozen while training continues, costs nothing until the
  first write and then one copy per private shard (one per stack);
* a one-shard store is bit-exact with the bare backend;
* a serving engine answers from its snapshot until ``refresh()``;
* for the backends with state, ``state_dict`` / ``load_state_dict`` and
  ``save_checkpoint`` / ``load_checkpoint`` round-trip bit for bit, the
  store's ``step()`` (and so a pipeline's staleness) survives a restore, a
  restore leaves outstanding snapshots alone, and a checkpoint of another
  shard layout, a multi-shard checkpoint of a backend that does not stack,
  or row-optimizer state the store's row optimizer cannot take (another key,
  or an array of another length), is refused before anything changes.
"""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings import METHOD_NAMES, create_embedding, get_backend
from repro.errors import CheckpointLayoutError, OptimizerStateMismatchError
from repro.models.dlrm import DLRM
from repro.runtime.pipeline import OnlinePipeline, PipelineConfig
from repro.serving.engine import ServingEngine
from repro.store import ShardedEmbeddingStore, StoreSnapshot
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import Trainer

CHECKPOINTABLE = ["cafe", "cafe_ml", "full", "hash"]
#: ``(method, num_shards)``: every backend at one shard, and CAFE stacks of
#: two, three and four shards.
STACKS = [("cafe", 2), ("cafe", 3), ("cafe", 4)]
LAYOUTS = [(method, 1) for method in METHOD_NAMES] + STACKS
CHECKPOINT_LAYOUTS = [(method, 1) for method in CHECKPOINTABLE] + STACKS


def layout_ids(layouts):
    return [f"{method}-{num_shards}" for method, num_shards in layouts]

SCHEMA = DatasetSchema(
    name="contract",
    fields=[FieldSchema("a", 300), FieldSchema("b", 200), FieldSchema("c", 100)],
    num_numerical=2,
    embedding_dim=8,
    num_days=3,
    zipf_exponent=1.3,
)
DIM = SCHEMA.embedding_dim
SIDE_INPUTS = {
    "field_cardinalities": SCHEMA.field_cardinalities,
    "frequencies": np.arange(SCHEMA.num_features, 0, -1).astype(np.float64),
}
PROBE = np.arange(SCHEMA.num_fields * 100).reshape(-1, SCHEMA.num_fields) % SCHEMA.num_features


def backend_kwargs(method):
    return dict(
        num_features=SCHEMA.num_features,
        dim=DIM,
        compression_ratio=2.0,
        **{key: SIDE_INPUTS[key] for key in get_backend(method).requires},
    )


def build_store(method, num_shards, seed=0, **kwargs):
    return ShardedEmbeddingStore.build(
        method, num_shards=num_shards, seed=seed, **backend_kwargs(method), **kwargs
    )


def dataset():
    return SyntheticCTRDataset(SCHEMA, config=SyntheticConfig(samples_per_day=256, seed=0))


def steps(layer, count=4, seed=1):
    """Drive ``count`` lookup + apply steps with fixed random gradients."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ids = rng.integers(0, SCHEMA.num_features, size=(32, SCHEMA.num_fields))
        layer.lookup(ids)
        layer.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))


def model_on(store, seed=0):
    return DLRM(store, SCHEMA.num_fields, SCHEMA.num_numerical, rng=seed)


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("method, num_shards", LAYOUTS, ids=layout_ids(LAYOUTS))
class TestEveryBackend:
    def test_plan_built_by_lookup_is_reused_by_apply(self, method, num_shards):
        store = build_store(method, num_shards)
        steps(store, count=4)
        # One miss (lookup) and one hit (apply_gradients) per step.
        assert store.plan_stats.misses == 4
        assert store.plan_stats.hits == 4
        assert store.plan_stats.reuse_rate == 0.5

    def test_a_snapshot_between_lookup_and_update_keeps_the_plan(self, method, num_shards):
        """The copy-on-write copy a snapshot forces leaves the store's plan
        cache alone: the update still reuses the lookup's plan."""
        store = build_store(method, num_shards)
        rng = np.random.default_rng(6)
        for _ in range(4):
            ids = rng.integers(0, SCHEMA.num_features, size=(32, SCHEMA.num_fields))
            store.lookup(ids)
            store.snapshot()
            store.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))
        assert store.plan_stats.as_dict() == {"hits": 4, "misses": 4, "reuse_rate": 0.5}
        assert store.cow_copies == 4

    def test_snapshot_reads_leave_the_live_store_alone(self, method, num_shards):
        """A snapshot routes and gathers through its frozen table with no plan
        cache: reads count in no ``plan_stats`` and leave the store's cached
        plan (the trainer's) in place."""
        store = build_store(method, num_shards)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, SCHEMA.num_features, size=(32, SCHEMA.num_fields))
        store.lookup(ids)
        store.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))
        store.lookup(ids)
        view = store.snapshot()
        plan = store._cached_plan
        stats = [layer.plan_stats.as_dict() for layer in (store, *store.shards)]
        for probe in (ids, PROBE, ids, PROBE[:7], ids):
            view.lookup(probe)
        assert store._cached_plan is plan
        assert [layer.plan_stats.as_dict() for layer in (store, *store.shards)] == stats
        # The kept plan is the one the next update uses: a hit, not a rebuild.
        store.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))
        after = store.plan_stats
        assert (after.hits, after.misses) == (stats[0]["hits"] + 1, stats[0]["misses"])

    def test_snapshot_frozen_while_training_continues(self, method, num_shards):
        store = build_store(method, num_shards)
        steps(store, seed=1)
        snapshot = store.snapshot()
        assert isinstance(snapshot, StoreSnapshot)
        frozen = snapshot.lookup(PROBE).copy()
        steps(store, seed=2)
        assert np.array_equal(frozen, snapshot.lookup(PROBE))
        assert not np.array_equal(frozen, store.lookup(PROBE))
        assert store.cow_copies == 1  # a shard, or a whole stack, goes private in one copy

    def test_snapshot_without_writes_costs_no_copies(self, method, num_shards):
        store = build_store(method, num_shards)
        steps(store)
        snapshot = store.snapshot()
        assert np.array_equal(snapshot.lookup(PROBE), store.lookup(PROBE))
        assert store.cow_copies == 0

    def test_later_snapshot_sees_newer_parameters(self, method, num_shards):
        store = build_store(method, num_shards)
        first = store.snapshot()
        steps(store)
        second = store.snapshot()
        assert first.version < second.version
        assert second.step == store.step() == 4
        assert not np.array_equal(first.lookup(PROBE), second.lookup(PROBE))
        assert np.array_equal(second.lookup(PROBE), store.lookup(PROBE))

    def test_serving_engine_answers_from_its_snapshot_until_refresh(self, method, num_shards):
        data = dataset()
        model = model_on(build_store(method, num_shards))
        trainer = Trainer(model)
        engine = ServingEngine(model, max_batch_size=32)
        test = data.test_batch(64)
        before = engine.predict(test.categorical, test.numerical).copy()
        for batch in data.day_batches(0, 64):
            trainer.train_step(batch)
        assert np.array_equal(before, engine.predict(test.categorical, test.numerical))
        engine.refresh()
        served = engine.predict(test.categorical, test.numerical)
        assert not np.array_equal(before, served)
        assert np.array_equal(served, model.predict_proba(test.categorical, test.numerical))


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_one_shard_store_is_bit_exact_with_the_bare_backend(method):
    bare = create_embedding(method, rng=np.random.default_rng(0), **backend_kwargs(method))
    store = build_store(method, 1, seed=0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        ids = rng.integers(0, SCHEMA.num_features, size=(32, SCHEMA.num_fields))
        grads = rng.normal(scale=0.1, size=ids.shape + (DIM,))
        assert np.array_equal(store.lookup(ids), bare.lookup(ids))
        store.apply_gradients(ids, grads)
        bare.apply_gradients(ids, grads)
    assert np.array_equal(store.lookup(PROBE), bare.lookup(PROBE))
    assert store.step() == bare.step()


@pytest.mark.parametrize("method", CHECKPOINTABLE)
def test_a_bare_layer_state_brings_its_step_into_a_one_shard_store(method):
    bare = create_embedding(method, rng=np.random.default_rng(0), **backend_kwargs(method))
    steps(bare, count=5)
    store = build_store(method, 1, seed=9)
    store.load_state_dict(bare.state_dict())
    assert store.step() == bare.step() == 5
    assert np.array_equal(store.lookup(PROBE), bare.lookup(PROBE))


@pytest.mark.parametrize(
    "method, num_shards", CHECKPOINT_LAYOUTS, ids=layout_ids(CHECKPOINT_LAYOUTS)
)
class TestEveryCheckpointableBackend:
    def test_state_dict_round_trip_is_bit_exact(self, method, num_shards):
        store = build_store(method, num_shards, seed=0)
        steps(store)
        state = store.state_dict()
        assert int(state["num_shards"]) == num_shards
        restored = build_store(method, num_shards, seed=99)
        restored.load_state_dict(state)
        assert np.array_equal(store.lookup(PROBE), restored.lookup(PROBE))
        assert_states_equal(state, restored.state_dict())

    def test_step_and_pipeline_staleness_survive_a_restore(self, method, num_shards):
        source = build_store(method, num_shards, seed=5)
        steps(source, count=10, seed=4)
        pipeline = OnlinePipeline(
            model_on(build_store(method, num_shards, seed=0)),
            config=PipelineConfig(publish_every_steps=1000),
        )
        steps(pipeline.model.store, count=6)
        pipeline.publish()
        assert pipeline.staleness_steps() == 0
        pipeline.model.store.load_state_dict(source.state_dict())
        assert pipeline.model.store.step() == source.step() == 10
        assert pipeline.staleness_steps() == 4
        # A state without the step header (as older checkpoints wrote it)
        # still loads and leaves the step where it was.
        stepless = {key: value for key, value in source.state_dict().items() if key != "step"}
        fresh = build_store(method, num_shards, seed=7)
        fresh.load_state_dict(stepless)
        assert fresh.step() == 0
        assert np.array_equal(fresh.lookup(PROBE), source.lookup(PROBE))

    def test_restore_leaves_outstanding_snapshots_alone(self, method, num_shards):
        store = build_store(method, num_shards, seed=0)
        other = build_store(method, num_shards, seed=42)
        steps(other)
        snapshot = store.snapshot()
        frozen = snapshot.lookup(PROBE).copy()
        store.load_state_dict(other.state_dict())
        assert np.array_equal(frozen, snapshot.lookup(PROBE))
        assert np.array_equal(store.lookup(PROBE), other.lookup(PROBE))

    def test_model_checkpoint_round_trip(self, method, num_shards, tmp_path):
        data = dataset()
        model = model_on(build_store(method, num_shards, seed=0), seed=0)
        trainer = Trainer(model)
        for batch in data.day_batches(0, 64):
            trainer.train_step(batch)
        path = save_checkpoint(tmp_path / f"{method}.npz", model, step=trainer.global_step)
        restored = model_on(build_store(method, num_shards, seed=7), seed=7)
        assert load_checkpoint(path, restored) == trainer.global_step
        test = data.test_batch(128)
        assert np.array_equal(
            model.predict_proba(test.categorical, test.numerical),
            restored.predict_proba(test.categorical, test.numerical),
        )

    def test_other_shard_layout_is_refused_before_anything_changes(self, method, num_shards):
        store = build_store(method, num_shards, seed=0)
        steps(store)
        before = store.state_dict()
        other = build_store("cafe", num_shards + 1, seed=5)
        steps(other, seed=4)
        with pytest.raises(CheckpointLayoutError, match=f"has {num_shards + 1} shards"):
            store.load_state_dict(other.state_dict())
        assert_states_equal(before, store.state_dict())
        assert store.cow_copies == 0

    @pytest.mark.parametrize(
        "store_optimizer, sketched, match",
        [
            ("sgd", False, r"\['accumulator'\].*'sgd' takes \[\]"),
            ("adagrad", True, r"retired 'sketched_adagrad'.*'adagrad' takes \['accumulator'\]"),
        ],
        ids=["adagrad-into-sgd", "retired-sketched-into-adagrad"],
    )
    def test_row_optimizer_state_it_cannot_take_is_refused_whole(
        self, method, num_shards, store_optimizer, sketched, match
    ):
        store = build_store(method, num_shards, seed=0, optimizer=store_optimizer)
        steps(store)
        before = store.state_dict()
        other = build_store(method, num_shards, seed=5, optimizer="adagrad")
        steps(other, seed=4)
        state = other.state_dict()
        if sketched:  # the layout sketched_adagrad wrote, in place of the accumulator
            state = {key: value for key, value in state.items() if ".optimizer." not in key}
            for shard in range(num_shards):
                state[f"shard{shard}.optimizer.sketch_counters"] = np.zeros((3, 16))
                state[f"shard{shard}.optimizer.heavy_keys"] = np.full(4, -1)
                state[f"shard{shard}.optimizer.heavy_vals"] = np.zeros(4)
        with pytest.raises(OptimizerStateMismatchError, match=match):
            store.load_state_dict(state)
        assert_states_equal(before, store.state_dict())
        assert store.cow_copies == 0

    def test_row_optimizer_state_of_the_wrong_length_is_refused_whole(self, method, num_shards):
        store = build_store(method, num_shards, seed=0, optimizer="adagrad")
        steps(store, count=1)
        before = store.state_dict()
        other = build_store(method, num_shards, seed=5, optimizer="adagrad")
        steps(other, seed=4)
        state = other.state_dict()
        # The last shard's, so a restore that wrote shard by shard would show.
        key = f"shard{num_shards - 1}.optimizer.accumulator"
        state[key] = np.ones(state[key].shape[0] + 3, dtype=state[key].dtype)
        with pytest.raises(OptimizerStateMismatchError, match=r"'adagrad' takes \['accumulator'\]"):
            store.load_state_dict(state)
        assert_states_equal(before, store.state_dict())
        assert store.cow_copies == 0

    def test_sgd_state_loads_into_an_adagrad_store_cold(self, method, num_shards):
        source = build_store(method, num_shards, seed=5, optimizer="sgd")
        steps(source, seed=4)
        warm = build_store(method, num_shards, seed=0, optimizer="adagrad")
        steps(warm)
        warm.load_state_dict(source.state_dict())
        assert np.array_equal(warm.lookup(PROBE), source.lookup(PROBE))
        # Cold: the next steps match an adagrad store that never trained.
        fresh = build_store(method, num_shards, seed=7, optimizer="adagrad")
        fresh.load_state_dict(source.state_dict())
        steps(warm, seed=9)
        steps(fresh, seed=9)
        assert np.array_equal(warm.lookup(PROBE), fresh.lookup(PROBE))


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
@pytest.mark.parametrize("method", [name for name in CHECKPOINTABLE if name != "cafe"])
def test_a_multi_shard_checkpoint_of_a_backend_that_does_not_stack_is_refused(method, optimizer):
    # Written before a store of several shards had to be one CAFE stack: two
    # shards of another backend under the store's headers.
    shards = [
        create_embedding(method, rng=np.random.default_rng(index), optimizer=optimizer,
                         **backend_kwargs(method))
        for index in range(2)
    ]
    for shard in shards:
        steps(shard)
    state = {"num_shards": np.asarray(2), "step": np.asarray(4)}
    for index, shard in enumerate(shards):
        state.update({f"shard{index}.{key}": value for key, value in shard.state_dict().items()})
    store = build_store("cafe", 2, seed=0, optimizer=optimizer)
    steps(store)
    before = store.state_dict()
    assert any(".optimizer." in key for key in before) == (optimizer == "adagrad")
    with pytest.raises(CheckpointLayoutError, match="not a CAFE shard's"):
        store.load_state_dict(state)
    after = store.state_dict()
    assert after.keys() == before.keys()
    assert all(after[key].tobytes() == before[key].tobytes() for key in before)
    assert store.cow_copies == 0
