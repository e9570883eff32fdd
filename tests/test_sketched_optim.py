"""Sketch-compressed row-optimizer state.

The contract under test:

* :class:`repro.nn.optim.SketchedRowAdagrad` state survives a checkpoint
  round trip bit-exact;
* optimizer state at a quarter of exact Adagrad's memory keeps >= 0.98x its
  held-out AUC on a fixed-seed Zipf workload.
"""

import numpy as np
import pytest

from repro.nn.optim import (
    RowAdagrad,
    SketchedRowAdagrad,
    make_row_optimizer,
    parse_row_optimizer_spec,
)

DIM = 8


class TestSketchedRowAdagrad:
    def test_spec_parsing(self):
        name, options = parse_row_optimizer_spec("sketched_adagrad[frac=0.5,depth=5]")
        assert name == "sketched_adagrad"
        assert options == {"frac": 0.5, "depth": 5.0}
        assert parse_row_optimizer_spec("adagrad") == ("adagrad", {})
        with pytest.raises(ValueError, match="malformed"):
            parse_row_optimizer_spec("sketched_adagrad[frac]")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_row_optimizer_spec("sketched_adagrad[frac=abc]")
        with pytest.raises(ValueError, match="unknown sketched_adagrad option"):
            make_row_optimizer("sketched_adagrad[fraction=0.5]", 0.1)
        with pytest.raises(ValueError, match="takes no options"):
            make_row_optimizer("adagrad[frac=0.5]", 0.1)

    def test_memory_stays_within_budget(self):
        table = np.zeros((2000, DIM), dtype=np.float32)
        optimizer = SketchedRowAdagrad(0.1, frac=0.25)
        optimizer.update(table, np.asarray([1, 2, 3]), np.ones((3, DIM), np.float32))
        exact = RowAdagrad(0.1)
        exact.update(table.copy(), np.asarray([1]), np.ones((1, DIM), np.float32))
        assert optimizer.memory_floats() <= 0.25 * exact.memory_floats() + 1
        assert optimizer.memory_floats() > 0

    def test_effective_lr_decays_like_adagrad(self):
        """Repeated updates to one row shrink its step size monotonically."""
        table = np.zeros((100, DIM), dtype=np.float64)
        optimizer = SketchedRowAdagrad(0.1, frac=0.5, seed=1)
        rows = np.asarray([7])
        grad = np.ones((1, DIM), dtype=np.float64)
        deltas = []
        for _ in range(4):
            before = table[7].copy()
            optimizer.fused_apply(table, rows, grad)
            deltas.append(np.abs(table[7] - before).max())
        assert deltas == sorted(deltas, reverse=True)

    def test_collisions_only_shrink_the_step(self):
        """A colliding (overestimated) row steps no further than isolated
        Adagrad would — graceful degradation, never a blow-up."""
        table = np.zeros((1000, DIM), dtype=np.float64)
        optimizer = SketchedRowAdagrad(0.1, frac=0.05, heavy_frac=0.0, seed=2)
        exact_table = np.zeros((1000, DIM), dtype=np.float64)
        exact = RowAdagrad(0.1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            rows = np.unique(rng.integers(0, 1000, size=64))
            grads = rng.normal(size=(rows.size, DIM))
            optimizer.fused_apply(table, rows, grads)
            exact.fused_apply(exact_table, rows, grads)
        assert np.abs(table).max() <= np.abs(exact_table).max() + 1e-12

    def test_state_dict_round_trip(self):
        table = np.zeros((500, DIM), dtype=np.float32)
        optimizer = SketchedRowAdagrad(0.1, frac=0.3, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(3):
            rows = np.unique(rng.integers(0, 500, size=32))
            optimizer.fused_apply(
                table, rows, rng.normal(size=(rows.size, DIM)).astype(np.float32)
            )
        state = optimizer.state_dict()
        restored = SketchedRowAdagrad(0.1, frac=0.3, seed=5)
        restored.load_state_dict(state)
        # Same update on both sides of the round trip -> same table delta.
        t1, t2 = table.copy(), table.copy()
        rows = np.asarray([3, 14, 15])
        grads = np.ones((3, DIM), dtype=np.float32)
        optimizer.fused_apply(t1, rows, grads)
        restored.fused_apply(t2, rows, grads)
        assert np.array_equal(t1, t2)

    def test_invalid_options(self):
        with pytest.raises(ValueError, match="frac"):
            SketchedRowAdagrad(0.1, frac=0.0)
        with pytest.raises(ValueError, match="heavy_frac"):
            SketchedRowAdagrad(0.1, heavy_frac=1.0)
        with pytest.raises(ValueError, match="depth"):
            SketchedRowAdagrad(0.1, depth=0)


class TestCheckpointRoundTrip:
    def test_sketched_state_survives_save_and_restore(self, tmp_path):
        """save_checkpoint -> load_checkpoint restores the sketched
        accumulator: the restored model trains on bit-identically."""
        from repro.data.schema import DatasetSchema, FieldSchema
        from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
        from repro.embeddings.hash_embedding import HashEmbedding
        from repro.models.dlrm import DLRM
        from repro.training.checkpoint import load_checkpoint, save_checkpoint
        from repro.training.trainer import Trainer

        schema = DatasetSchema(
            name="ckpt",
            fields=[FieldSchema("a", 60), FieldSchema("b", 500)],
            num_numerical=0,
            embedding_dim=DIM,
        )
        dataset = SyntheticCTRDataset(
            schema, config=SyntheticConfig(samples_per_day=400, seed=0)
        )

        def build(rng_seed):
            embedding = HashEmbedding(
                schema.num_features,
                DIM,
                num_rows=64,
                optimizer="sketched_adagrad[frac=0.3]",
                learning_rate=0.1,
                rng=rng_seed,
            )
            return DLRM(embedding, schema.num_fields, schema.num_numerical, rng=rng_seed)

        model = build(0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        state = model.embedding.state_dict()
        assert any(key.startswith("optimizer.") for key in state)

        path = save_checkpoint(tmp_path / "sketched.npz", model, step=trainer.global_step)
        restored = build(42)
        load_checkpoint(path, restored)
        assert np.array_equal(model.embedding.table, restored.embedding.table)

        # The accumulator state (not just the table) must have crossed: one
        # more identical update lands identically on both models.
        ids = np.asarray([[1, 70], [2, 80]])
        grads = np.full((2, 2, DIM), 0.25, dtype=np.float32)
        model.embedding.apply_gradients(ids, grads)
        restored.embedding.apply_gradients(ids, grads)
        assert np.array_equal(model.embedding.table, restored.embedding.table)

    @pytest.mark.parametrize("method", ["hash", "cafe", "cafe_ml"])
    def test_old_checkpoints_without_optimizer_state_still_load(self, method):
        """Loading a state_dict without optimizer.* keys restarts cold."""
        from repro.embeddings import create_embedding

        embedding = create_embedding(
            method, 1000, DIM, compression_ratio=4.0, optimizer="sketched_adagrad", rng=0
        )
        ids = np.arange(40)
        embedding.apply_gradients(ids, np.full((40, DIM), 0.25, dtype=np.float32))
        state = embedding.state_dict()
        legacy = {k: v for k, v in state.items() if not k.startswith("optimizer.")}
        assert len(legacy) < len(state)
        fresh = create_embedding(
            method, 1000, DIM, compression_ratio=4.0, optimizer="sketched_adagrad", rng=1
        )
        fresh.load_state_dict(legacy)  # must not raise
        assert fresh.optimizer_memory_floats() == 0
        np.testing.assert_array_equal(fresh.lookup(ids), embedding.lookup(ids))


class TestQuarterMemoryKeepsAuc:
    """Optimizer-state compression at near-baseline quality, no clock: the
    same DLRM over the same Zipf CTR day under exact row Adagrad and under
    ``sketched_adagrad[frac=0.25]``.  Dataset, hash table (CR 4, so ids
    collide and revisit rows and the accumulator matters) and dense seeds
    are shared; the accumulator's representation is the only thing that
    moves."""

    BATCH = 128

    @staticmethod
    def _schema():
        from repro.data.schema import DatasetSchema, FieldSchema

        cards = (50, 400, 2000, 6000)
        return DatasetSchema(
            name="optimizer_memory",
            fields=[FieldSchema(f"f{i}", card) for i, card in enumerate(cards)],
            num_numerical=0,
            embedding_dim=16,
            num_days=2,
            zipf_exponent=1.05,
        )

    def _train_and_eval(self, optimizer, seed):
        """One day of training; ``(optimizer state floats, held-out AUC)``."""
        from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
        from repro.embeddings import create_embedding
        from repro.models.dlrm import DLRM
        from repro.training.trainer import Trainer

        schema = self._schema()
        dataset = SyntheticCTRDataset(
            schema, config=SyntheticConfig(samples_per_day=2048, seed=seed)
        )
        embedding = create_embedding(
            "hash",
            num_features=schema.num_features,
            dim=schema.embedding_dim,
            compression_ratio=4.0,
            optimizer=optimizer,
            learning_rate=0.1,
            dtype="float32",
            rng=np.random.default_rng(seed + 17),
        )
        model = DLRM(embedding, schema.num_fields, schema.num_numerical, rng=seed)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, self.BATCH):
            trainer.train_step(batch)
        auc = trainer.evaluate_auc(dataset.test_batch(2048))
        return embedding.optimizer_memory_floats(), float(auc)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quarter_memory_sketched_adagrad_keeps_auc(self, seed):
        exact_floats, exact_auc = self._train_and_eval("adagrad", seed)
        sketched_floats, sketched_auc = self._train_and_eval(
            "sketched_adagrad[frac=0.25]", seed
        )
        assert exact_auc > 0.5  # the baseline learned something to keep
        assert sketched_floats / exact_floats <= 0.25
        assert sketched_auc / exact_auc >= 0.98


class TestConfigWiring:
    def test_sketched_optimizer_round_trips_and_validates(self):
        from repro.api.config import SystemConfig
        from repro.errors import ConfigurationError

        config = SystemConfig.from_dict({"store": {"optimizer": "sketched_adagrad[frac=0.25]"}})
        assert SystemConfig.from_json(config.to_json()) == config
        with pytest.raises(ConfigurationError, match="store.optimizer"):
            SystemConfig.from_dict({"store": {"optimizer": "sketched_adagrad[frac=7]"}})
        with pytest.raises(ConfigurationError, match="store.optimizer"):
            SystemConfig.from_dict({"store": {"optimizer": "adagrab"}})
