"""Integration tests: full training pipelines, checkpointing, and the
qualitative behaviours the paper's evaluation rests on (at micro scale)."""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings import create_embedding
from repro.experiments.common import ScaleSpec, build_dataset, run_single
from repro.models import create_model
from repro.training.trainer import Trainer, train_and_evaluate

MICRO = ScaleSpec("micro", base_cardinality=80, samples_per_day=1200, batch_size=128, test_samples=800)


def small_dataset(seed=0, num_days=4):
    schema = DatasetSchema(
        name="integration",
        fields=[FieldSchema(f"f{i}", 120 + 40 * i) for i in range(6)],
        num_numerical=3,
        embedding_dim=8,
        num_days=num_days,
        zipf_exponent=1.3,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=1500, seed=seed))


def train(dataset, method, cr, seed=0, model_name="dlrm", **embedding_kwargs):
    embedding = create_embedding(
        method,
        num_features=dataset.schema.num_features,
        dim=dataset.schema.embedding_dim,
        compression_ratio=cr,
        field_cardinalities=dataset.schema.field_cardinalities,
        frequencies=dataset.feature_frequencies() if method == "offline" else None,
        optimizer="adagrad",
        learning_rate=0.1,
        rng=np.random.default_rng(seed),
        **embedding_kwargs,
    )
    model = create_model(
        model_name,
        embedding,
        dataset.schema.num_fields,
        dataset.schema.num_numerical,
        rng=np.random.default_rng(seed + 1),
    )
    results = train_and_evaluate(
        model,
        dataset.training_stream(128),
        dataset.test_batch(1000),
    )
    return results, embedding, model


class TestLearningSignal:
    def test_uncompressed_model_beats_random(self):
        dataset = small_dataset()
        results, _, _ = train(dataset, "full", 1.0)
        assert results["test_auc"] > 0.58

    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    def test_all_architectures_learn(self, model_name):
        dataset = small_dataset()
        results, _, _ = train(dataset, "full", 1.0, model_name=model_name)
        assert results["test_auc"] > 0.55

    def test_compression_degrades_gracefully(self):
        """Aggressive compression should not push the model below chance."""
        dataset = small_dataset()
        results, _, _ = train(dataset, "hash", 50.0)
        assert results["test_auc"] > 0.5


class TestCafePipeline:
    def test_cafe_trains_and_populates_sketch(self):
        dataset = small_dataset()
        results, embedding, _ = train(dataset, "cafe", 20.0)
        assert np.isfinite(results["train_loss"])
        assert embedding.sketch.total_insertions > 0
        assert embedding.num_hot_features() > 0
        assert embedding.migrations_in >= embedding.num_hot_features()

    def test_cafe_hot_features_are_frequent_ones(self):
        """The features holding exclusive rows at the end of training should be
        drawn from the most frequent features — HotSketch doing its job."""
        dataset = small_dataset()
        _, embedding, _ = train(dataset, "cafe", 20.0)
        freqs = dataset.feature_frequencies()
        hot_mask = embedding.sketch.payloads != -1
        hot_features = embedding.sketch.keys[hot_mask]
        assert hot_features.size > 0
        hot_freq_mean = freqs[hot_features].mean()
        overall_mean = freqs[freqs > 0].mean()
        assert hot_freq_mean > 3 * overall_mean

    def test_cafe_not_worse_than_hash(self):
        """The paper's headline: CAFE matches or beats the Hash baseline.
        At micro scale we assert a tolerant version on the online metric."""
        dataset = small_dataset()
        hash_results, _, _ = train(dataset, "hash", 20.0)
        cafe_results, _, _ = train(dataset, "cafe", 20.0)
        assert cafe_results["train_loss"] <= hash_results["train_loss"] + 0.01

    def test_cafe_ml_runs(self):
        dataset = small_dataset()
        results, embedding, _ = train(dataset, "cafe_ml", 20.0)
        assert np.isfinite(results["train_loss"])
        assert embedding.secondary_table is not None


class TestCheckpointing:
    def test_model_and_cafe_state_roundtrip(self):
        """Paper §4 'Fault Tolerance': sketch state is saved and restored with
        the model so training can resume from checkpoints."""
        dataset = small_dataset()
        _, embedding, model = train(dataset, "cafe", 20.0)
        dense_state = model.state_dict()
        sparse_state = embedding.state_dict()

        fresh_embedding = create_embedding(
            "cafe",
            num_features=dataset.schema.num_features,
            dim=dataset.schema.embedding_dim,
            compression_ratio=20.0,
            optimizer="adagrad",
            learning_rate=0.1,
            rng=np.random.default_rng(99),
        )
        fresh_model = create_model(
            "dlrm",
            fresh_embedding,
            dataset.schema.num_fields,
            dataset.schema.num_numerical,
            rng=np.random.default_rng(98),
        )
        fresh_model.load_state_dict(dense_state)
        fresh_embedding.load_state_dict(sparse_state)

        batch = dataset.test_batch(200)
        original = model.predict_proba(batch.categorical, batch.numerical)
        restored = fresh_model.predict_proba(batch.categorical, batch.numerical)
        assert np.allclose(original, restored)


class TestExperimentShapes:
    def test_adaembed_memory_floor_matches_paper_shape(self):
        """AdaEmbed cannot reach large compression ratios (paper §5.2.1)."""
        dataset = build_dataset("criteo", scale=MICRO, seed=0, num_days=2)
        feasible = run_single(dataset, "adaembed", 5.0, scale=MICRO, seed=0)
        infeasible = run_single(dataset, "adaembed", 100.0, scale=MICRO, seed=0)
        assert feasible.feasible
        assert not infeasible.feasible

    def test_qr_cannot_reach_extreme_ratios(self):
        dataset = build_dataset("criteo", scale=MICRO, seed=0, num_days=2)
        infeasible = run_single(dataset, "qr", 10000.0, scale=MICRO, seed=0)
        assert not infeasible.feasible

    def test_cafe_feasible_at_extreme_ratio(self):
        """Only CAFE and Hash can compress to the most extreme ratios."""
        dataset = build_dataset("criteo", scale=MICRO, seed=0, num_days=2)
        cafe = run_single(dataset, "cafe", 1000.0, scale=MICRO, seed=0)
        hash_run = run_single(dataset, "hash", 1000.0, scale=MICRO, seed=0)
        assert cafe.feasible and hash_run.feasible
