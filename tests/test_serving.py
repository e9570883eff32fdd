"""Tests for the snapshot serving engine, latency stats and the serve CLI."""

import copy
import json

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.models.dlrm import DLRM
from repro.serving import LatencyTracker, ReplicaTier, ServingEngine
from repro.store import ShardedEmbeddingStore
from repro.training.latency import measure_serving_latency
from repro.training.trainer import Trainer

DIM = 8


def tiny_dataset(seed=0):
    schema = DatasetSchema(
        name="serve",
        fields=[FieldSchema("a", 200), FieldSchema("b", 150)],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=2,
        zipf_exponent=1.3,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=384, seed=seed))


def make_model(dataset, num_shards=2, seed=0):
    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=dataset.schema.num_features,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=10.0,
        seed=seed,
    )
    return DLRM(store, dataset.schema.num_fields, dataset.schema.num_numerical, rng=seed)


class TestLatencyTracker:
    def test_summary_percentiles(self):
        tracker = LatencyTracker()
        for ms in range(1, 101):
            tracker.record(ms / 1000.0)
        summary = tracker.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.5, abs=1.0)
        assert summary["p95_ms"] <= summary["p99_ms"] <= 100.0

    def test_empty_summary_is_zero_not_nan(self):
        """Percentiles of nothing must be NaN-safe: dashboards and the bench
        gate compare these numbers, and NaN poisons every comparison."""
        tracker = LatencyTracker()
        summary = tracker.summary()
        assert summary["count"] == 0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert summary[key] == 0.0
        assert tracker.percentile_ms(99.0) == 0.0

    def test_single_sample_percentiles_are_that_sample(self):
        tracker = LatencyTracker()
        tracker.record(0.005)
        summary = tracker.summary()
        assert summary["count"] == 1
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert summary[key] == pytest.approx(5.0)

    def test_record_many_equals_repeated_record(self):
        one_by_one, batched = LatencyTracker(), LatencyTracker()
        samples = [0.004, 0.001, 0.009, 0.002, 0.007, 0.003, 0.005]
        for seconds in samples:
            one_by_one.record(seconds)
        batched.record_many(samples[:3])
        batched.record_many(samples[3:])
        assert len(batched) == 7 and batched.summary() == one_by_one.summary()


class TestServingEngine:
    def test_micro_batching_queues_until_threshold(self):
        dataset = tiny_dataset()
        model = make_model(dataset)
        engine = ServingEngine(model, max_batch_size=4)
        batch = dataset.test_batch(16)
        pending = [engine.submit(batch.categorical[i], batch.numerical[i]) for i in range(3)]
        assert not any(p.done for p in pending)  # below the flush threshold
        fourth = engine.submit(batch.categorical[3], batch.numerical[3])
        assert all(p.done for p in pending) and fourth.done  # auto-flushed at 4
        assert engine.micro_batches == 1
        assert engine.stats()["avg_micro_batch_rows"] == 4.0

    def test_results_match_direct_prediction_on_frozen_model(self):
        dataset = tiny_dataset()
        model = make_model(dataset)
        trainer = Trainer(model)
        for b in dataset.day_batches(0, 64):
            trainer.train_step(b)
        engine = ServingEngine(model, max_batch_size=8)
        batch = dataset.test_batch(24)
        expected = model.predict_proba(batch.categorical, batch.numerical)
        handles = [engine.submit(batch.categorical[i], batch.numerical[i]) for i in range(24)]
        engine.flush()
        served = np.concatenate([h.result() for h in handles])
        assert np.allclose(served, expected)

    def test_snapshot_isolates_serving_from_training(self):
        dataset = tiny_dataset()
        model = make_model(dataset)
        trainer = Trainer(model)
        for b in dataset.day_batches(0, 64):
            trainer.train_step(b)
        engine = ServingEngine(model, max_batch_size=16)
        batch = dataset.test_batch(16)
        before = engine.predict(batch.categorical, batch.numerical)
        for b in dataset.day_batches(1, 64):
            trainer.train_step(b)
        # Same snapshot -> same answers, regardless of continued training.
        assert np.array_equal(before, engine.predict(batch.categorical, batch.numerical))
        engine.refresh()
        after = engine.predict(batch.categorical, batch.numerical)
        assert engine.snapshot_version == 2
        assert not np.array_equal(before, after)
        # The refreshed engine serves what the live model now predicts.
        assert np.allclose(after, model.predict_proba(batch.categorical, batch.numerical))

    def test_unserved_result_raises(self):
        dataset = tiny_dataset()
        engine = ServingEngine(make_model(dataset), max_batch_size=64)
        batch = dataset.test_batch(4)
        pending = engine.submit(batch.categorical[0], batch.numerical[0])
        with pytest.raises(RuntimeError):
            pending.result()

    def test_invalid_micro_batch_rejected(self):
        dataset = tiny_dataset()
        with pytest.raises(ValueError):
            ServingEngine(make_model(dataset), max_batch_size=0)

    def test_mixed_numerical_and_missing_requests_serve(self):
        """Requests that omit numerical features zero-fill at the model's
        width instead of crashing the shared micro-batch."""
        dataset = tiny_dataset()
        engine = ServingEngine(make_model(dataset), max_batch_size=8)
        batch = dataset.test_batch(4)
        with_num = engine.submit(batch.categorical[0], batch.numerical[0])
        without = engine.submit(batch.categorical[1], None)
        engine.flush()
        assert with_num.done and without.done
        expected = engine.predict(batch.categorical[1], np.zeros_like(batch.numerical[1]))
        assert np.allclose(without.result(), expected)

    def test_stats_shape(self):
        dataset = tiny_dataset()
        engine = ServingEngine(make_model(dataset), max_batch_size=8)
        batch = dataset.test_batch(20)
        for i in range(20):
            engine.submit(batch.categorical[i], batch.numerical[i])
        engine.flush()
        stats = engine.stats()
        assert stats["requests_served"] == 20
        assert stats["count"] == 20
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert stats["micro_batches"] >= 3


class TestServedModel:
    """A served model is the architecture + one flat weight copy + a store view."""

    def trained(self, steps_day=0):
        dataset = tiny_dataset()
        model = make_model(dataset)
        trainer = Trainer(model)
        for batch in dataset.day_batches(steps_day, 64):
            trainer.train_step(batch)
        return dataset, model, trainer

    def test_served_weights_share_no_memory(self):
        dataset, model, trainer = self.trained()
        engine = ServingEngine(model, max_batch_size=8)
        tier = ReplicaTier(model, num_replicas=2, max_batch_size=8)
        payload = tier.publish()
        served = [engine._frozen_model] + [r._serving.model for r in tier.replicas.replicas]
        optimizer = trainer.dense_optimizer
        live = [p.data for p in model.parameters()] + list(optimizer.state.values()) + [
            optimizer._grad, optimizer._update, optimizer._denom
        ]
        assert all(s.weights.size == model.num_parameters() for s in served)
        for index, frozen in enumerate(served):
            for array in live + [payload.dense_weights]:
                assert not np.shares_memory(frozen.weights, array)
            for other in served[index + 1:]:
                assert not np.shares_memory(frozen.weights, other.weights)
            assert all(np.shares_memory(view, frozen.weights) for view in frozen._views)
            assert np.array_equal(frozen.weights, model.flat_parameters())

    def test_training_after_a_publish_leaves_replies_bit_identical(self):
        dataset, model, trainer = self.trained()
        engine = ServingEngine(model, max_batch_size=8)
        tier = ReplicaTier(model, num_replicas=2, max_batch_size=8)
        tier.publish()
        batch = dataset.test_batch(16)
        servers = [engine] + tier.replicas.replicas
        before = [server.predict(batch.categorical, batch.numerical) for server in servers]
        weights_before = model.flat_parameters()
        for step in dataset.day_batches(1, 64):
            trainer.train_step(step)
        assert not np.array_equal(weights_before, model.flat_parameters())
        for server, reply in zip(servers, before):
            assert np.array_equal(server.predict(batch.categorical, batch.numerical), reply)
        engine.refresh()
        tier.publish()
        fresh = model.predict_proba(batch.categorical, batch.numerical)
        for server in servers:
            assert np.array_equal(server.predict(batch.categorical, batch.numerical), fresh)

    def test_no_dense_model_is_deep_copied_per_publish(self, monkeypatch):
        _, model, _ = self.trained()
        engine = ServingEngine(model, max_batch_size=8)
        tier = ReplicaTier(model, num_replicas=2, max_batch_size=8)
        copied = []
        original = copy.deepcopy

        def spy(value, memo=None):
            copied.append(type(value).__name__)
            return original(value, memo)

        monkeypatch.setattr(copy, "deepcopy", spy)
        engine.refresh()
        tier.publish()
        assert "DLRM" not in copied and "ServedModel" not in copied


class TestMeasureServingLatency:
    def test_returns_percentiles(self):
        dataset = tiny_dataset()
        model = make_model(dataset, num_shards=1)
        stats = measure_serving_latency(model, dataset.test_batch(32), micro_batch=8)
        assert stats["count"] == 32
        assert stats["p99_ms"] > 0


class TestServeCli:
    def test_end_to_end_report(self, tmp_path):
        from repro.api.cli import main

        out = tmp_path / "serving.json"
        code = main(
            [
                "serve",
                "--set", "serve.requests=64",
                "--set", "serve.warmup_steps=2",
                "--set", "store.num_shards=2",
                "--set", "serve.micro_batch=16",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["store"]["num_shards"] == 2
        serving = report["serving"]
        assert serving["requests_served"] == 64
        assert serving["requests_per_s"] > 0
        assert serving["p50_ms"] <= serving["p99_ms"]
