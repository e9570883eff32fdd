"""Tests for SystemConfig -> Session compilation (repro.api.session).

The two headline guarantees pinned here:

* **Round-trip bit-exactness** — building from a config and from its JSON
  round trip yields identical stores, losses, and (after a pipeline run)
  identical sparse state;
* **Front-door equivalence** — the Session wires the exact same system the
  pre-PR-5 entry points wired by hand, so the declarative path reproduces
  a hand-wired sharded pipeline result bit for bit.
"""

import numpy as np
import pytest

from repro.api.config import SystemConfig
from repro.api.session import build
from repro.embeddings import METHOD_NAMES, create_embedding
from repro.errors import ConfigurationError, OptimizerStateMismatchError
from repro.store import ShardedEmbeddingStore

#: A non-default store: a 2-shard CAFE stack.
SHARDED_STORE = {"spec": "cafe", "compression_ratio": 10.0, "num_shards": 2}

#: Keys every backend / store ``describe()`` must report.
CORE_DESCRIBE_KEYS = {
    "num_features",
    "dim",
    "dtype",
    "memory_floats",
    "compression_ratio",
}


def build_store(schema, spec="cafe", num_shards=1, **kwargs) -> ShardedEmbeddingStore:
    """A store over every field of ``schema``, wired by hand."""
    return ShardedEmbeddingStore.build(
        spec,
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        num_shards=num_shards,
        **kwargs,
    )


def tiny_config(**overrides) -> SystemConfig:
    data = {
        "seed": 0,
        "data": {"dataset": "criteo", "scale": "tiny"},
        "store": {"spec": "cafe", "compression_ratio": 10.0},
        "train": {"max_steps": 3},
    }
    data.update(overrides)
    return SystemConfig.from_dict(data)


def sharded_pipeline_config() -> SystemConfig:
    return SystemConfig.from_dict(
        {
            "seed": 0,
            "data": {"dataset": "criteo", "scale": "tiny"},
            "store": SHARDED_STORE,
            "pipeline": {
                "publish_every_steps": 5,
                "probe_every_steps": 2,
                "serving_micro_batch": 32,
                "max_steps": 12,
            },
        }
    )


class TestBuild:
    def test_a_samples_per_day_override_builds_the_dataset_once(self, monkeypatch):
        from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset

        built = []
        original = SyntheticCTRDataset.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SyntheticCTRDataset, "__init__", counting)
        config = tiny_config(seed=3)
        config.data.samples_per_day = 700
        with build(config) as session:
            assert built == [session.dataset]
            assert len(session.dataset.generate_day(0)) == 700
            # The samples are those of the config the override names, under
            # the default drift.
            direct = SyntheticCTRDataset(
                session.schema, config=SyntheticConfig(samples_per_day=700, seed=3)
            )
            for day in (0, session.dataset.test_day):
                ours, theirs = session.dataset.generate_day(day), direct.generate_day(day)
                assert np.array_equal(ours.categorical, theirs.categorical)
                assert np.array_equal(ours.labels, theirs.labels)

    def test_train_report_shape(self):
        with build(tiny_config()) as session:
            report = session.train()
        assert report["train"]["steps"] == 3
        assert np.isfinite(report["train"]["avg_train_loss"])
        assert 0.0 <= report["train"]["test_auc"] <= 1.0
        assert report["config"]["store"]["spec"] == "cafe"

    def test_build_accepts_dict_and_path(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(config.to_json(), encoding="utf-8")
        from_path = build(str(path))
        from_dict = build(config.to_dict())
        assert from_path.config == from_dict.config == config

    def test_snapshot_is_frozen(self):
        with build(tiny_config()) as session:
            session.train(max_steps=2)
            snapshot = session.snapshot()
            ids = session.dataset.test_batch(num_samples=4).categorical
            before = snapshot.lookup(ids).copy()
            session.train(max_steps=2)
            assert np.array_equal(snapshot.lookup(ids), before)


class TestRoundTripBitExactness:
    def test_json_round_trip_builds_identical_store(self):
        config = sharded_pipeline_config()
        rebuilt = SystemConfig.from_json(config.to_json())
        with build(config) as a, build(rebuilt) as b:
            assert a.store.describe() == b.store.describe()
            state_a = a.store.state_dict()
            state_b = b.store.state_dict()
            assert state_a.keys() == state_b.keys()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), key

    def test_round_trip_matches_first_step_loss_and_direct_construction(self):
        config = tiny_config(store=SHARDED_STORE)
        rebuilt = SystemConfig.from_json(config.to_json())

        # The pre-PR-5 hand wiring (what experiments and the old CLIs did).
        from repro.experiments.common import build_dataset
        from repro.models import create_model
        from repro.training.trainer import Trainer

        dataset = build_dataset("criteo", scale="tiny", seed=0)
        store = build_store(dataset.schema, seed=0, **SHARDED_STORE)
        model = create_model(
            "dlrm", store, num_fields=dataset.schema.num_fields,
            num_numerical=dataset.schema.num_numerical, rng=0,
        )
        trainer = Trainer(model)
        batch = next(dataset.training_stream(128))
        direct_loss = trainer.train_step(batch)

        losses = []
        for cfg in (config, rebuilt):
            with build(cfg) as session:
                first = next(session.dataset.training_stream(session.batch_size))
                losses.append(session.trainer.train_step(first))
        assert losses[0] == losses[1] == direct_loss

    def test_pipeline_state_bit_exact_after_round_trip(self):
        config = sharded_pipeline_config()
        rebuilt = SystemConfig.from_json(config.to_json())
        with build(config) as a, build(rebuilt) as b:
            report_a = a.run_pipeline()
            report_b = b.run_pipeline()
            assert report_a["pipeline"]["steps"] == report_b["pipeline"]["steps"] == 12
            state_a, state_b = a.store.state_dict(), b.store.state_dict()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), key


class TestFrontDoorEquivalence:
    def test_config_driven_pipeline_reproduces_hand_wired_sharded_run(self):
        """The acceptance criterion: `python -m repro pipeline --config ...`
        equals the hand wiring (store factory + OnlinePipeline)."""
        from repro.experiments.common import build_dataset
        from repro.models import create_model
        from repro.runtime.pipeline import OnlinePipeline, PipelineConfig

        dataset = build_dataset("criteo", scale="tiny", seed=0)
        store = build_store(dataset.schema, seed=0, **SHARDED_STORE)
        model = create_model(
            "dlrm", store, num_fields=dataset.schema.num_fields,
            num_numerical=dataset.schema.num_numerical, rng=0,
        )
        pipeline = OnlinePipeline(
            model,
            config=PipelineConfig(
                publish_every_steps=5,
                serving_micro_batch=32,
                probe_every_steps=2,
                max_steps=12,
            ),
        )
        probe = dataset.test_batch(num_samples=64)
        hand_report = pipeline.run(dataset.training_stream(128), probe_batch=probe)

        with build(sharded_pipeline_config()) as session:
            config_report = session.run_pipeline()

        assert config_report["pipeline"]["steps"] == hand_report.steps
        assert config_report["pipeline"]["avg_train_loss"] == round(
            hand_report.average_loss, 5
        )
        assert config_report["pipeline"]["publishes"] == hand_report.publishes
        assert config_report["store"] == store.describe()
        # Sparse state bit-exact: the config front door trained the exact
        # same system the hand wiring trained.
        hand_state = store.state_dict()
        config_state = session.store.state_dict()
        for key in hand_state:
            assert np.array_equal(hand_state[key], config_state[key]), key


class TestDirectConstructionKeepsWorking:
    def test_make_preset_and_store_factory_unchanged(self):
        """Direct construction without a config stays a supported library path."""
        from repro.data.schema import make_preset
        from repro.models import create_model

        schema = make_preset("criteo", base_cardinality=300, seed=0)
        store = build_store(schema, seed=0)
        model = create_model("dlrm", store, num_fields=schema.num_fields,
                             num_numerical=schema.num_numerical, rng=0)
        assert model.store is store
        assert (store.num_shards, store.describe()["backend"]) == (1, "CafeEmbedding")


class TestCheckpointLifecycle:
    def test_checkpoint_restore_round_trip(self, tmp_path):
        config = tiny_config()
        with build(config) as session:
            session.train(max_steps=3)
            path = session.checkpoint(tmp_path / "ckpt.npz")
            ids = session.dataset.test_batch(num_samples=8).categorical
            expected = session.store.lookup(ids).copy()
            step = session.trainer.global_step

        with build(config) as restored:
            assert restored.restore(path) == step
            assert restored.trainer.global_step == step
            assert np.array_equal(restored.store.lookup(ids), expected)


    @pytest.mark.parametrize("store_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("model_name", ["dlrm", "wdl"])
    @pytest.mark.parametrize("store_spec", ["cafe", "cafe_ml", "hash"])
    def test_restore_and_continue_is_bit_identical_to_the_uninterrupted_run(
        self, tmp_path, store_spec, model_name, store_dtype
    ):
        config = tiny_config(
            model={"name": model_name},
            store={"spec": store_spec, "compression_ratio": 10.0, "dtype": store_dtype},
        )
        with build(config) as session, build(config) as resumed:
            stream = iter(session.dataset.training_stream(session.batch_size))
            batches = [next(stream) for _ in range(35)]
            for batch in batches[:20]:
                session.trainer.train_step(batch)
            path = session.checkpoint(tmp_path / "ckpt.npz")
            expected = [session.trainer.train_step(batch) for batch in batches[20:]]

            assert resumed.restore(path) == 20
            optimizer = resumed.describe()["model"]["dense_optimizer"]
            assert optimizer == {"kind": "adam", "step_count": 20, "restored": True}
            assert [resumed.trainer.train_step(batch) for batch in batches[20:]] == expected
            for got, want in zip(resumed.model.parameters(), session.model.parameters()):
                assert got.data.tobytes() == want.data.tobytes()
            live, back = session.trainer.dense_optimizer, resumed.trainer.dense_optimizer
            assert live.step_count == back.step_count == 35
            for name, array in live.state.items():
                assert array.tobytes() == back.state[name].tobytes()

    def test_checkpoint_without_optimizer_section_loads_with_fresh_state(self, tmp_path):
        config = tiny_config()
        with build(config) as session, build(config) as restored:
            session.train(max_steps=5)
            path = session.checkpoint(tmp_path / "ckpt.npz")
            with np.load(path) as data:
                assert {"optim/kind", "optim/step_count", "optim/m", "optim/v"} <= set(data.files)
                payload = {k: data[k] for k in data.files if not k.startswith("optim/")}
            old = tmp_path / "old.npz"  # what every earlier commit wrote
            np.savez(old, **payload)

            restored.train(max_steps=2)  # moments that belong to another run
            assert restored.restore(old) == 5
            optimizer = restored.trainer.dense_optimizer
            assert optimizer.step_count == 0
            assert all(not array.any() for array in optimizer.state.values())
            assert restored.describe()["model"]["dense_optimizer"] == {
                "kind": "adam",
                "step_count": 0,
                "restored": False,
            }
            restored.train(max_steps=2)  # and it trains

    def test_optimizer_size_mismatch_is_a_named_error(self, tmp_path):
        with build(tiny_config()) as session:
            session.train(max_steps=2)
            path = session.checkpoint(tmp_path / "adam.npz")
        with build(tiny_config(model={"name": "wdl"})) as target:
            before = [p.data.copy() for p in target.model.parameters()]
            with pytest.raises(OptimizerStateMismatchError):
                target.restore(path)
            # Refused before anything was restored.
            for param, value in zip(target.model.parameters(), before):
                assert np.array_equal(param.data, value)

    @pytest.mark.parametrize("kind, arrays", [("sgd", ("velocity",)), ("adagrad", ("accumulator",))])
    def test_retired_dense_optimizer_checkpoint_is_refused_before_any_write(
        self, tmp_path, kind, arrays
    ):
        """The dense SGD / Adagrad wrote their own ``optim/kind`` and arrays."""
        with build(tiny_config()) as session:
            session.train(max_steps=3)
            path = session.checkpoint(tmp_path / "adam.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if not k.startswith("optim/")}
            size = data["optim/m"].size
        payload["optim/kind"] = np.asarray(kind)
        payload["optim/step_count"] = np.asarray(3)
        payload.update({f"optim/{name}": np.ones(size, dtype=np.float32) for name in arrays})
        retired = tmp_path / f"{kind}.npz"
        np.savez(retired, **payload)
        with build(tiny_config()) as target:
            target.train(max_steps=1)
            optimizer = target.trainer.dense_optimizer
            before = (
                [p.data.copy() for p in target.model.parameters()],
                {k: v.copy() for k, v in optimizer.state.items()},
                {k: v.copy() for k, v in target.store.state_dict().items()},
            )
            with pytest.raises(OptimizerStateMismatchError, match=kind):
                target.restore(retired)
            assert optimizer.step_count == 1 and not optimizer.restored
            for param, value in zip(target.model.parameters(), before[0]):
                assert np.array_equal(param.data, value)
            for name, array in optimizer.state.items():
                assert np.array_equal(array, before[1][name])
            after = target.store.state_dict()
            assert after.keys() == before[2].keys()
            assert all(np.array_equal(after[k], v) for k, v in before[2].items())


class TestDescribeSchema:
    """Every describe() surface reports the same core keys."""

    def _build_backend(self, method):
        kwargs = {"rng": 0}
        cr = 10.0
        if method == "full":
            cr = 1.0
        elif method in ("adaembed", "mde"):
            cr = 4.0
        if method == "mde":
            kwargs["field_cardinalities"] = [500, 400, 200, 100]
        if method == "offline":
            kwargs["frequencies"] = np.random.default_rng(0).random(1200)
        return create_embedding(
            method, num_features=1200, dim=8, compression_ratio=cr, **kwargs
        )

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_backend_describe_keys(self, method):
        info = self._build_backend(method).describe()
        assert CORE_DESCRIBE_KEYS <= set(info), method
        assert info["dtype"] == "float32"

    def test_sharded_store_describe_keys(self):
        from repro.store import ShardedEmbeddingStore

        store = ShardedEmbeddingStore.build(
            "cafe", num_features=1200, dim=8, num_shards=2, compression_ratio=10.0
        )
        info = store.describe()
        assert CORE_DESCRIBE_KEYS | {"num_shards", "backend", "stacked"} <= set(info)

    def test_session_describe_aggregates(self):
        with build(tiny_config()) as session:
            info = session.describe()
        assert {"config", "data", "store", "model", "registry"} <= set(info)
        assert CORE_DESCRIBE_KEYS <= set(info["store"])
        mde = {"name": "mde", "requires": ["field_cardinalities"]}
        assert mde in info["registry"]
        assert [row["name"] for row in info["registry"]] == list(METHOD_NAMES)
