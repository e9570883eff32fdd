"""Tests for the OnlinePipeline: cadence, staleness, metrics, CLI."""

import itertools

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.errors import ConfigurationError
from repro.models.dlrm import DLRM
from repro.runtime import OnlinePipeline, PipelineConfig
from repro.serving import ReplicaTier
from repro.store import ShardedEmbeddingStore

DIM = 8


def tiny_dataset(seed=0, samples_per_day=384):
    schema = DatasetSchema(
        name="pipe",
        fields=[FieldSchema("a", 300), FieldSchema("b", 200), FieldSchema("c", 100)],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=3,
        zipf_exponent=1.3,
    )
    return SyntheticCTRDataset(
        schema, config=SyntheticConfig(samples_per_day=samples_per_day, seed=seed)
    )


def make_pipeline(dataset, replicas=0, **config):
    schema = dataset.schema
    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=schema.num_features,
        dim=DIM,
        num_shards=2,
        compression_ratio=5.0,
        seed=0,
    )
    model = DLRM(store, num_fields=schema.num_fields, num_numerical=schema.num_numerical, rng=0)
    defaults = dict(publish_every_steps=4, probe_every_steps=2, serving_micro_batch=32)
    defaults.update(config)
    tier = ReplicaTier(model, num_replicas=replicas, max_batch_size=64) if replicas else None
    return OnlinePipeline(model, config=PipelineConfig(**defaults), tier=tier)


class TestConfigValidation:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ConfigurationError, match="pipeline.publish_every_steps"):
            PipelineConfig(publish_every_steps=0)

    def test_rejects_negative_probe_cadence(self):
        with pytest.raises(ConfigurationError, match="pipeline.probe_every_steps"):
            PipelineConfig(probe_every_steps=-1)

    def test_rejects_an_empty_micro_batch(self):
        with pytest.raises(ConfigurationError, match="pipeline.serving_micro_batch must be positive"):
            PipelineConfig(serving_micro_batch=0)

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_rejects_a_step_bound_below_one(self, max_steps):
        with pytest.raises(ConfigurationError, match="pipeline.max_steps must be positive"):
            PipelineConfig(max_steps=max_steps)

    def test_a_bare_pipeline_takes_the_system_config_defaults(self):
        """``OnlinePipeline(model)`` runs the ``pipeline`` section's defaults:
        publish every 10 steps (20 before the two configs were one) and probe
        every 5 (0, no probes, before)."""
        from repro.api import SystemConfig

        pipeline = make_pipeline(tiny_dataset())
        bare = OnlinePipeline(pipeline.model)
        assert bare.config == PipelineConfig() == SystemConfig().pipeline
        assert (bare.config.publish_every_steps, bare.config.probe_every_steps) == (10, 5)
        assert bare.config.serving_micro_batch == bare.engine.max_batch_size == 64
        assert bare.config.max_steps is None

    def test_the_step_bound_draws_no_batch_past_it(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, max_steps=3, probe_every_steps=0)
        stream = iter(list(itertools.islice(dataset.training_stream(32), 5)))
        report = pipeline.run(stream)
        assert report.steps == len(report.losses) == 3
        assert len(list(stream)) == 2


class TestStalenessContract:
    def test_snapshot_never_older_than_cadence(self):
        """The acceptance criterion: while training runs, the engine serves
        from a snapshot no older than the configured cadence."""
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, publish_every_steps=4)
        report = pipeline.run(
            dataset.training_stream(64), probe_batch=dataset.test_batch(64)
        )
        assert report.steps > 8
        assert report.max_staleness_steps <= 4
        assert report.staleness_within_cadence

    def test_staleness_tracks_cadence_exactly_on_multiples(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, publish_every_steps=5, max_steps=15,
                                 probe_every_steps=0)
        report = pipeline.run(dataset.training_stream(64))
        # 15 steps / cadence 5: staleness climbs to exactly 5 before publish.
        assert report.max_staleness_steps == 5
        assert report.publishes == 3  # no trailing publish needed

    def test_final_publish_flushes_leftover_staleness(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, publish_every_steps=10, max_steps=13,
                                 probe_every_steps=0)
        report = pipeline.run(dataset.training_stream(64))
        assert report.publishes == 2  # one on cadence + one final
        assert pipeline.staleness_steps() == 0

    def test_served_answers_frozen_between_publishes(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, publish_every_steps=1000, probe_every_steps=0)
        probe = dataset.test_batch(16)
        before = pipeline.engine.predict(probe.categorical, probe.numerical).copy()
        for batch in itertools.islice(dataset.training_stream(64), 6):
            pipeline.trainer.train_step(batch)
        after = pipeline.engine.predict(probe.categorical, probe.numerical)
        # No publish happened, so serving stayed on the initial snapshot.
        assert np.array_equal(before, after)
        pipeline.publish()
        refreshed = pipeline.engine.predict(probe.categorical, probe.numerical)
        assert not np.array_equal(before, refreshed)


class TestReport:
    def test_report_dict_has_expected_keys_and_probe_stats(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, max_steps=8)
        report = pipeline.run(dataset.training_stream(64), probe_batch=dataset.test_batch(32))
        summary = report.as_dict()
        for key in (
            "steps", "steps_per_s", "avg_train_loss", "cadence_steps", "publishes",
            "publish_p50_ms", "max_staleness_steps", "staleness_within_cadence",
            "probe", "serving", "final_snapshot_version", "days_seen",
        ):
            assert key in summary
        assert "executor" not in summary
        assert summary["probe"]["count"] == 4  # probes every 2 of 8 steps
        # The two CAFE shards are one stack; the exchange is still counted.
        assert pipeline.model.store.executor.stats.grad_steps == 8
        assert np.isfinite(summary["avg_train_loss"])

    def test_each_probe_is_one_row_cycling_through_the_probe_batch(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, max_steps=7, probe_every_steps=1)
        probe_batch = dataset.test_batch(3)
        sent = []
        submit = pipeline.engine.submit

        def record(categorical, numerical=None):
            sent.append((categorical.copy(), numerical.copy()))
            return submit(categorical, numerical)

        pipeline.engine.submit = record
        report = pipeline.run(dataset.training_stream(64), probe_batch=probe_batch)
        assert report.probe_stats["count"] == 7
        for index, (categorical, numerical) in enumerate(sent):
            row = index % 3
            assert np.array_equal(categorical, probe_batch.categorical[row : row + 1])
            assert np.array_equal(numerical, probe_batch.numerical[row : row + 1])

    def test_losses_match_dedicated_trainer_bit_exact(self):
        """The pipeline must not perturb training: same seeds, same losses
        as a plain Trainer run (publishing is copy-on-write only)."""
        from repro.training.trainer import Trainer

        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, max_steps=10)
        report = pipeline.run(dataset.training_stream(64), probe_batch=dataset.test_batch(32))

        schema = dataset.schema
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=schema.num_features, dim=DIM, num_shards=2,
            compression_ratio=5.0, seed=0,
        )
        model = DLRM(store, num_fields=schema.num_fields, num_numerical=schema.num_numerical, rng=0)
        trainer = Trainer(model)
        reference = [
            trainer.train_step(batch)
            for i, batch in enumerate(tiny_dataset().training_stream(64))
            if i < 10
        ]
        assert report.losses == reference


class TestReplicaTier:
    def test_run_bootstraps_the_tier_and_probes_through_it(self):
        """``run`` ships a full base snapshot before the first step, one
        payload per cadence tick after it, and routes every probe through
        the replicas instead of the local engine."""
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, replicas=2, max_steps=8)
        report = pipeline.run(dataset.training_stream(64), probe_batch=dataset.test_batch(32))
        stats = report.replica_stats
        assert report.publishes == 2  # steps 4 and 8; the stream ends fresh
        assert stats["versions"] == [3, 3]  # bootstrap + two cadence ticks
        assert stats["publisher"]["full_publishes"] == 1
        assert stats["publisher"]["delta_publishes"] == 2
        assert stats["requests_served"] == 4  # probes every 2 of 8 steps
        assert report.probe_stats["count"] == 4
        assert report.serving_stats["requests_served"] == 0

    def test_a_ready_tier_is_not_bootstrapped_again(self):
        dataset = tiny_dataset()
        pipeline = make_pipeline(dataset, replicas=2, max_steps=4, probe_every_steps=0)
        pipeline.tier.publish()
        report = pipeline.run(dataset.training_stream(64))
        assert report.replica_stats["versions"] == [2, 2]
        assert report.replica_stats["publisher"]["full_publishes"] == 1


class TestPipelineCLI:
    def test_run_pipeline_session_smoke(self, tmp_path):
        import json

        from repro.api.cli import main

        out = tmp_path / "report.json"
        assert main(["pipeline", "--set", "pipeline.max_steps=8",
                     "--set", "pipeline.publish_every_steps=3",
                     "--set", "pipeline.probe_every_steps=2",
                     "--set", "store.num_shards=2", "--set", "store.executor=serial",
                     "--set", "pipeline.serving_micro_batch=16", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pipeline"]["steps"] == 8
        assert report["pipeline"]["staleness_within_cadence"] is True
        assert report["pipeline"]["max_staleness_steps"] <= 3
        assert report["store"]["num_shards"] == 2
        assert report["store"]["stacked"] is True

    def test_cli_writes_output_file(self, tmp_path):
        import json

        from repro.api.cli import main

        out = tmp_path / "report.json"
        assert main(["pipeline", "--set", "pipeline.max_steps=4",
                     "--set", "pipeline.publish_every_steps=2",
                     "--set", "pipeline.probe_every_steps=0",
                     "--output", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["pipeline"]["steps"] == 4
