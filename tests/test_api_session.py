"""Tests for SystemConfig -> Session compilation (repro.api.session).

The two headline guarantees pinned here:

* **Round-trip bit-exactness** — building from a config and from its JSON
  round trip yields identical stores, losses, and (after a pipeline run)
  identical sparse state;
* **Front-door equivalence** — the Session wires the exact same system the
  pre-PR-5 entry points wired by hand, so the declarative path reproduces
  the PR-4 mixed-policy pipeline result bit for bit.
"""

import numpy as np
import pytest

from repro.api.config import SystemConfig
from repro.api.session import build
from repro.embeddings import METHOD_NAMES, create_embedding, create_embedding_store
from repro.errors import ConfigurationError, OptimizerStateMismatchError

MIXED_SPEC = "full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid"

#: Keys every backend / store / group ``describe()`` must report.
CORE_DESCRIBE_KEYS = {
    "num_features",
    "dim",
    "dtype",
    "memory_floats",
    "compression_ratio",
}


def tiny_config(**overrides) -> SystemConfig:
    data = {
        "seed": 0,
        "data": {"dataset": "criteo", "scale": "tiny"},
        "store": {"spec": "cafe", "compression_ratio": 10.0},
        "train": {"max_steps": 3},
    }
    data.update(overrides)
    return SystemConfig.from_dict(data)


def mixed_pipeline_config() -> SystemConfig:
    return SystemConfig.from_dict(
        {
            "seed": 0,
            "data": {"dataset": "criteo", "scale": "tiny"},
            "store": {"spec": MIXED_SPEC, "compression_ratio": 10.0},
            "pipeline": {
                "publish_every_steps": 5,
                "probe_every_steps": 2,
                "micro_batch": 32,
                "max_steps": 12,
            },
        }
    )


class TestBuild:
    def test_train_report_shape(self):
        with build(tiny_config()) as session:
            report = session.train()
        assert report["train"]["steps"] == 3
        assert np.isfinite(report["train"]["avg_train_loss"])
        assert 0.0 <= report["train"]["test_auc"] <= 1.0
        assert report["config"]["store"]["spec"] == "cafe"

    def test_build_accepts_dict_and_path(self, tmp_path):
        config = tiny_config()
        path = config.save(tmp_path / "cfg.json")
        from_path = build(str(path))
        from_dict = build(config.to_dict())
        assert from_path.config == from_dict.config == config

    def test_explicit_fields_build_a_grouped_store(self):
        config = tiny_config()
        schema_fields = build(config).schema.fields
        field_list = [
            {"field": f.name, "backend": "full" if i < 2 else "hash",
             "compression_ratio": 8.0}
            for i, f in enumerate(schema_fields)
        ]
        grouped = SystemConfig.from_dict(
            {
                "data": {"dataset": "criteo", "scale": "tiny"},
                "store": {"spec": None, "fields": field_list},
                "train": {"max_steps": 2},
            }
        )
        with build(grouped) as session:
            assert session.store.num_groups == 2
            report = session.train()
        assert report["train"]["steps"] == 2

    def test_mismatched_fields_fail_at_build_time(self):
        config = SystemConfig.from_dict(
            {
                "data": {"dataset": "criteo", "scale": "tiny"},
                "store": {"spec": None, "fields": [{"field": "nope", "backend": "cafe"}]},
            }
        )
        with pytest.raises(Exception, match="field_configs|nope"):
            build(config)

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
        config = mixed_pipeline_config()
        rebuilt = SystemConfig.from_json(config.to_json())
        with build(config) as a, build(rebuilt) as b:
            assert a.store.describe() == b.store.describe()
            state_a = a.store.state_dict()
            state_b = b.store.state_dict()
            assert state_a.keys() == state_b.keys()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), key

    def test_round_trip_matches_first_step_loss_and_direct_construction(self):
        config = tiny_config(store={"spec": MIXED_SPEC, "compression_ratio": 10.0})
        rebuilt = SystemConfig.from_json(config.to_json())

        # The pre-PR-5 hand wiring (what experiments and the old CLIs did).
        from repro.experiments.common import build_dataset
        from repro.models import create_model
        from repro.training.trainer import Trainer

        dataset = build_dataset("criteo", scale="tiny", seed=0)
        store = create_embedding_store(
            dataset.schema,
            spec=MIXED_SPEC,
            compression_ratio=10.0,
            seed=0,
        )
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
        config = mixed_pipeline_config()
        rebuilt = SystemConfig.from_json(config.to_json())
        with build(config) as a, build(rebuilt) as b:
            report_a = a.run_pipeline()
            report_b = b.run_pipeline()
            assert report_a["pipeline"]["steps"] == report_b["pipeline"]["steps"] == 12
            state_a, state_b = a.store.state_dict(), b.store.state_dict()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), key


class TestFrontDoorEquivalence:
    def test_config_driven_pipeline_reproduces_hand_wired_mixed_policy_run(self):
        """The acceptance criterion: `python -m repro pipeline --config ...`
        equals the PR-4 wiring (store factory + OnlinePipeline by hand)."""
        from repro.experiments.common import build_dataset
        from repro.models import create_model
        from repro.runtime.pipeline import OnlinePipeline, PipelineConfig

        dataset = build_dataset("criteo", scale="tiny", seed=0)
        store = create_embedding_store(
            dataset.schema,
            spec=MIXED_SPEC,
            compression_ratio=10.0,
            seed=0,
        )
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

        with build(mixed_pipeline_config()) as session:
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

        schema = make_preset("criteo", base_cardinality=300,
                             field_spec="full:tiny,cafe:tail")
        store = create_embedding_store(schema, spec=None, seed=0)
        model = create_model("dlrm", store, num_fields=schema.num_fields,
                             num_numerical=schema.num_numerical, rng=0)
        assert model.store is store
        assert store.num_groups >= 2


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
    @pytest.mark.parametrize("dense_optimizer", ["adam", "adagrad", "sgd"])
    def test_restore_and_continue_is_bit_identical_to_the_uninterrupted_run(
        self, tmp_path, dense_optimizer, model_name, store_dtype
    ):
        config = tiny_config(
            model={"name": model_name},
            store={"spec": "cafe", "compression_ratio": 10.0, "dtype": store_dtype},
            train={"dense_optimizer": dense_optimizer},
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
            assert optimizer == {"kind": dense_optimizer, "step_count": 20, "restored": True}
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

    def test_optimizer_kind_or_size_mismatch_is_a_named_error(self, tmp_path):
        with build(tiny_config()) as session:
            session.train(max_steps=2)
            path = session.checkpoint(tmp_path / "adam.npz")
        for other in ({"train": {"dense_optimizer": "adagrad"}}, {"model": {"name": "wdl"}}):
            with build(tiny_config(**other)) as target:
                before = [p.data.copy() for p in target.model.parameters()]
                with pytest.raises(OptimizerStateMismatchError):
                    target.restore(path)
                # Refused before anything was restored.
                for param, value in zip(target.model.parameters(), before):
                    assert np.array_equal(param.data, value)


class TestDescribeSchema:
    """Every describe() surface reports the same core keys (the satellite
    bugfix: some group rows used to omit dtype / compression_ratio)."""

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
        assert CORE_DESCRIBE_KEYS | {"num_shards", "backend", "executor"} <= set(info)

    def test_table_group_describe_keys(self):
        from repro.data.schema import make_preset

        schema = make_preset("criteo", base_cardinality=300)
        store = create_embedding_store(schema, spec=MIXED_SPEC, seed=0)
        info = store.describe()
        assert CORE_DESCRIBE_KEYS | {"num_groups", "groups", "executor"} <= set(info)
        for group_row in info["groups"]:
            assert CORE_DESCRIBE_KEYS | {"name", "backend", "num_fields"} <= set(
                group_row
            ), group_row["name"]

    def test_session_describe_aggregates(self):
        with build(tiny_config()) as session:
            info = session.describe()
        assert {"config", "data", "store", "model", "registry"} <= set(info)
        assert CORE_DESCRIBE_KEYS <= set(info["store"])
        assert any(row["name"] == "cafe" for row in info["registry"])
