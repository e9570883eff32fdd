"""Tests for the checkpoint utilities and the quantized embedding wrapper."""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.quantized import QuantizedEmbedding
from repro.models.dlrm import DLRM
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import Trainer

N = 600
DIM = 8


def tiny_dataset(seed=0):
    schema = DatasetSchema(
        name="ckpt",
        fields=[FieldSchema("a", 300), FieldSchema("b", 200), FieldSchema("c", 100)],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=3,
        zipf_exponent=1.3,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=600, seed=seed))


def build_model(dataset, embedding=None, seed=0):
    embedding = embedding or CafeEmbedding(
        num_features=dataset.schema.num_features,
        dim=DIM,
        num_hot_rows=12,
        num_shared_rows=24,
        rebalance_interval=3,
        learning_rate=0.1,
        rng=seed,
    )
    return DLRM(embedding, dataset.schema.num_fields, dataset.schema.num_numerical, rng=seed)


class TestCheckpoint:
    def test_roundtrip_with_cafe(self, tmp_path):
        dataset = tiny_dataset()
        model = build_model(dataset)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)

        path = save_checkpoint(tmp_path / "ckpt.npz", model, step=trainer.global_step)
        assert path.exists()

        restored_model = build_model(dataset, seed=42)
        step = load_checkpoint(path, restored_model)
        assert step == trainer.global_step

        test = dataset.test_batch(300)
        assert np.allclose(
            model.predict_proba(test.categorical, test.numerical),
            restored_model.predict_proba(test.categorical, test.numerical),
        )

    def test_roundtrip_without_sparse_state(self, tmp_path):
        """Embeddings without a state_dict (e.g. Q-R; hash/full grew one for
        table groups) still checkpoint the dense network and do not confuse
        the loader."""
        from repro.embeddings.qr_embedding import QRTrickEmbedding

        dataset = tiny_dataset()

        def qr():
            return QRTrickEmbedding(
                dataset.schema.num_features, DIM, num_remainder_rows=32, rng=0
            )

        model = build_model(dataset, embedding=qr())
        path = save_checkpoint(tmp_path / "qr.npz", model)
        restored = build_model(dataset, embedding=qr(), seed=9)
        load_checkpoint(path, restored)
        test = dataset.test_batch(200)
        assert np.allclose(
            model.predict_proba(test.categorical, test.numerical),
            restored.predict_proba(test.categorical, test.numerical),
        )

    def test_roundtrip_with_hash_sparse_state(self, tmp_path):
        """Hash tables now checkpoint: differently seeded restore targets
        come back bit-identical instead of merely same-shaped."""
        dataset = tiny_dataset()
        model = build_model(
            dataset, embedding=HashEmbedding(dataset.schema.num_features, DIM, num_rows=32, rng=0)
        )
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        path = save_checkpoint(tmp_path / "hash.npz", model)
        restored = build_model(
            dataset,
            embedding=HashEmbedding(dataset.schema.num_features, DIM, num_rows=32, rng=5),
            seed=9,
        )
        load_checkpoint(path, restored)
        assert np.array_equal(model.embedding.table, restored.embedding.table)

    def test_roundtrip_sharded_store_with_process_executor(self, tmp_path):
        """The full .npz checkpoint path over a process-executor sharded
        store restores bit-exact tables at the configured dtype."""
        from repro.store import ShardedEmbeddingStore

        dataset = tiny_dataset()

        def sharded_model(seed):
            store = ShardedEmbeddingStore.build(
                "cafe",
                num_features=dataset.schema.num_features,
                dim=DIM,
                num_shards=3,
                compression_ratio=10.0,
                seed=seed,
                dtype="float32",
                executor="processes",
            )
            return build_model(dataset, embedding=store, seed=seed)

        model = sharded_model(0)
        trainer = Trainer(model)
        try:
            for batch in dataset.day_batches(0, 64):
                trainer.train_step(batch)
            path = save_checkpoint(tmp_path / "sharded.npz", model, step=trainer.global_step)

            restored = sharded_model(42)
            try:
                assert load_checkpoint(path, restored) == trainer.global_step
                for shard_a, shard_b in zip(model.store.shards, restored.store.shards):
                    state_a, state_b = shard_a.state_dict(), shard_b.state_dict()
                    assert np.array_equal(state_a["hot_table"], state_b["hot_table"])
                    assert np.array_equal(state_a["shared_table"], state_b["shared_table"])
                    assert state_b["hot_table"].dtype == np.dtype("float32")
                test = dataset.test_batch(300)
                assert np.array_equal(
                    model.predict_proba(test.categorical, test.numerical),
                    restored.predict_proba(test.categorical, test.numerical),
                )
            finally:
                restored.store.executor.close()
        finally:
            model.store.executor.close()

    def test_mismatched_model_rejected(self, tmp_path):
        dataset = tiny_dataset()
        model = build_model(dataset)
        path = save_checkpoint(tmp_path / "ckpt.npz", model)
        other = DLRM(
            FullEmbedding(dataset.schema.num_features, DIM, rng=0),
            dataset.schema.num_fields,
            dataset.schema.num_numerical,
            rng=0,
            top_mlp=[32, 16],
        )
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(path, other)

    def test_creates_parent_directories(self, tmp_path):
        dataset = tiny_dataset()
        model = build_model(dataset)
        path = save_checkpoint(tmp_path / "nested" / "dir" / "ckpt.npz", model)
        assert path.exists()

    @pytest.mark.parametrize("table_dtype", ["float32", "float16"])
    def test_restore_preserves_configured_table_dtype(self, tmp_path, table_dtype):
        """Regression: restoring a checkpoint must keep the configured table
        dtype instead of silently promoting arrays to float64."""
        dataset = tiny_dataset()

        def typed_model(seed):
            embedding = CafeEmbedding(
                num_features=dataset.schema.num_features,
                dim=DIM,
                num_hot_rows=12,
                num_shared_rows=24,
                rebalance_interval=3,
                learning_rate=0.1,
                dtype=table_dtype,
                rng=seed,
            )
            return build_model(dataset, embedding=embedding, seed=seed)

        model = typed_model(0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        path = save_checkpoint(tmp_path / "typed.npz", model, step=trainer.global_step)

        restored = typed_model(7)
        load_checkpoint(path, restored)
        embedding = restored.embedding
        assert embedding.hot_table.dtype == np.dtype(table_dtype)
        assert embedding.shared_table.dtype == np.dtype(table_dtype)
        test = dataset.test_batch(200)
        assert np.allclose(
            model.predict_proba(test.categorical, test.numerical),
            restored.predict_proba(test.categorical, test.numerical),
        )

    def test_restore_preserves_dense_parameter_dtype(self, tmp_path):
        """Dense parameters restore at their configured dtype too: a float32
        autograd session must not come back as float64."""
        from repro.nn.tensor import get_default_dtype, set_default_dtype

        previous = get_default_dtype()
        try:
            set_default_dtype(np.float32)
            dataset = tiny_dataset()
            model = build_model(dataset)
            assert all(p.data.dtype == np.float32 for p in model.parameters())
            path = save_checkpoint(tmp_path / "f32.npz", model)
            restored = build_model(dataset, seed=3)
            load_checkpoint(path, restored)
            assert all(p.data.dtype == np.float32 for p in restored.parameters())
        finally:
            set_default_dtype(previous)


class TestQuantizedEmbedding:
    def test_invalid_bits(self):
        base = FullEmbedding(N, DIM, rng=0)
        with pytest.raises(ValueError):
            QuantizedEmbedding(base, bits=3)

    def test_lookup_shape_matches_base(self):
        base = FullEmbedding(N, DIM, rng=0)
        quantized = QuantizedEmbedding(base, bits=8)
        ids = np.asarray([[1, 2], [3, 4]])
        assert quantized.lookup(ids).shape == base.lookup(ids).shape

    def test_quantization_error_small_at_8_bits(self):
        base = FullEmbedding(N, DIM, rng=0)
        quantized = QuantizedEmbedding(base, bits=8)
        ids = np.arange(50)
        error = np.abs(quantized.lookup(ids) - base.lookup(ids)).max()
        value_range = base.lookup(ids).max() - base.lookup(ids).min()
        assert error <= value_range / 100

    def test_lower_bits_larger_error(self):
        base = FullEmbedding(N, DIM, rng=0)
        ids = np.arange(100)
        exact = base.lookup(ids)
        err4 = np.abs(QuantizedEmbedding(base, bits=4).lookup(ids) - exact).mean()
        err16 = np.abs(QuantizedEmbedding(base, bits=16).lookup(ids) - exact).mean()
        assert err4 > err16

    def test_memory_reflects_type_ratio(self):
        base = FullEmbedding(N, DIM, rng=0)
        int8 = QuantizedEmbedding(base, bits=8)
        int4 = QuantizedEmbedding(base, bits=4)
        assert int8.memory_floats() < base.memory_floats()
        assert int4.memory_floats() < int8.memory_floats()

    def test_gradients_reach_base_table(self):
        base = FullEmbedding(N, DIM, rng=0, learning_rate=0.1)
        quantized = QuantizedEmbedding(base, bits=8)
        before = base.table.copy()
        quantized.apply_gradients(np.asarray([5]), np.ones((1, DIM)))
        assert not np.allclose(base.table, before)
        assert quantized.step() == 1

    def test_composes_with_row_compression(self):
        """Quantization is orthogonal to row compression (paper §6.1): it can
        wrap CAFE and still train end to end."""
        dataset = tiny_dataset()
        cafe = CafeEmbedding(
            num_features=dataset.schema.num_features,
            dim=DIM,
            num_hot_rows=12,
            num_shared_rows=24,
            rebalance_interval=3,
            learning_rate=0.1,
            rng=0,
        )
        quantized = QuantizedEmbedding(cafe, bits=8)
        model = build_model(dataset, embedding=quantized)
        trainer = Trainer(model)
        losses = [trainer.train_step(batch) for batch in dataset.day_batches(0, 64)]
        assert np.isfinite(losses).all()
        assert quantized.memory_floats() < cafe.memory_floats()
        assert quantized.describe()["base_method"] == "CafeEmbedding"
