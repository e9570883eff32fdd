"""Sketch-compressed optimizer state and sketched gradient exchange.

The contract under test:

* :class:`repro.sketch.CSVec` merges by addition — combining N per-worker
  sketches equals folding the whole stream into one sketch, in any order;
* heavy rows cross the sketched gradient exchange *exactly* (they ship as
  dense rows, never as estimates);
* :class:`repro.nn.optim.SketchedRowAdagrad` state survives a checkpoint
  round trip bit-exact;
* the sketched exchange is executor-independent: serial and processes
  produce bit-identical stores, at >= 1.5x fewer payload bytes per step
  than the (equally deduplicated) dense exchange;
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
from repro.sketch import CSVec
from repro.store.grad_exchange import (
    SketchedGradPayload,
    build_sketched_payload,
    exchange_width,
    reconstruct_gradients,
)

DIM = 8


def random_stream(n, num_keys=500, seed=0, dim=DIM):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, num_keys, size=n)
    values = rng.normal(scale=0.1, size=(n, dim))
    return keys, values


class TestCSVecMerge:
    def test_merge_of_workers_equals_single_stream_fold(self):
        """N per-worker sketches merged by addition == one global fold.

        Integer-valued vectors make every float sum exact, so the equality
        is bit-for-bit regardless of accumulation order.
        """
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 300, size=240)
        values = rng.integers(-5, 6, size=(240, DIM)).astype(np.float64)
        single = CSVec(64, DIM, depth=3, seed=9)
        single.insert(keys, values)
        workers = []
        for part in range(4):
            sketch = single.spawn()
            sketch.insert(keys[part::4], values[part::4])
            workers.append(sketch)
        merged = CSVec.merge_all(workers)
        assert np.array_equal(merged.table, single.table)
        # Mass counters accumulate sqrt() terms (irrational even for integer
        # vectors), so partition order shifts the last few ULPs.
        assert np.allclose(merged.counts, single.counts, rtol=1e-12, atol=1e-12)
        # Inputs untouched by merge_all.
        assert workers[0].table.sum() != pytest.approx(merged.table.sum())

    def test_merge_commutes_and_associates(self):
        keys, values = random_stream(300, seed=1)
        parts = []
        for i in range(3):
            sketch = CSVec(32, DIM, depth=3, seed=4)
            sketch.insert(keys[i::3], values[i::3])
            parts.append(sketch)
        a, b, c = parts
        ab_c = CSVec.merge_all([a, b, c])
        c_ba = CSVec.merge_all([c, b, a])
        assert np.allclose(ab_c.table, c_ba.table, rtol=1e-12, atol=1e-15)
        assert np.allclose(ab_c.counts, c_ba.counts, rtol=1e-12, atol=1e-15)

    def test_merge_rejects_incompatible(self):
        base = CSVec(32, DIM, depth=3, seed=4)
        for other in (
            CSVec(16, DIM, depth=3, seed=4),
            CSVec(32, DIM, depth=3, seed=5),
            CSVec(32, DIM + 1, depth=3, seed=4),
        ):
            with pytest.raises(ValueError, match="cannot merge"):
                base.merge(other)

    def test_query_recovers_isolated_key(self):
        """A key alone in its buckets comes back exactly."""
        sketch = CSVec(64, DIM, depth=3, seed=0)
        vec = np.arange(DIM, dtype=np.float64)
        sketch.insert(np.asarray([42]), vec[None, :])
        assert np.allclose(sketch.query(np.asarray([42]))[0], vec)

    def test_even_depth_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CSVec(32, DIM, depth=2)

    def test_memory_accounting(self):
        sketch = CSVec(10, 4, depth=3)
        assert sketch.memory_floats() == 3 * 10 * 4 + 3 * 10


def unique_stream(n, num_keys, seed, scale=0.01, dim=DIM):
    """``(ascending unique ids, one summed gradient row each)``: what the
    store's unique-first wrapper hands the exchange."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(num_keys, size=n, replace=False))
    return ids, rng.normal(scale=scale, size=(n, dim)).astype(np.float32)


class TestSketchedExchangePayload:
    def test_heavy_rows_cross_the_wire_exactly(self):
        """Sketch-identified heavy rows ship dense: recovery is bit-exact."""
        unique, summed = unique_stream(200, 400, seed=7)
        # Give a handful of ids overwhelming mass so they must rank heavy.
        heavy_at = np.asarray([3, 77, 150])
        summed[heavy_at] = 50.0
        width = exchange_width(unique.size)
        payload = build_sketched_payload(unique, summed, width=width, seed=11)
        recovered_ids, recovered = reconstruct_gradients(
            *payload.arrays(), payload.seed
        )
        assert np.array_equal(recovered_ids, unique)
        assert set(heavy_at.tolist()) <= set(payload.heavy_index.tolist())
        for idx in heavy_at:
            assert np.array_equal(recovered[idx], summed[idx]), (
                f"heavy id {unique[idx]} was estimated, not shipped exactly"
            )

    def test_payload_is_smaller_than_deduplicated_dense(self):
        """A deterministic byte count against the honest baseline: dense
        exchange ships the same unique rows (ids, summed gradients, scores),
        so the sketch itself — not deduplication — must buy the saving."""
        unique, summed = unique_stream(800, 2000, seed=8, scale=1.0, dim=16)
        payload = build_sketched_payload(
            unique, summed, width=exchange_width(unique.size), seed=0
        )
        dense_bytes = unique.nbytes + summed.nbytes + unique.size * 8  # + float64 scores
        assert dense_bytes == 800 * (8 + 16 * 4 + 8)
        assert payload.nbytes() == 800 * 8 + 80 * (4 + 64) + 3 * 34 * (64 + 4)
        assert payload.nbytes() * 3 <= dense_bytes

    def test_tail_estimates_are_bounded(self):
        """Tail recovery is approximate but in the right ballpark (median
        of signed buckets, not garbage)."""
        rng = np.random.default_rng(9)
        ids = np.arange(64)
        grads = rng.normal(scale=1.0, size=(64, DIM)).astype(np.float32)
        payload = build_sketched_payload(ids, grads, width=128, seed=3, heavy_frac=0.0)
        _, recovered = reconstruct_gradients(*payload.arrays(), payload.seed)
        # Wide sketch, few keys: most rows land alone in their buckets.
        errors = np.linalg.norm(recovered - grads, axis=1)
        assert np.median(errors) < 0.5


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


class TestSketchedExchangeParity:
    """serial == processes under grad_exchange='sketched'."""

    def make_store(self, kind, grad_exchange="sketched", num_shards=3):
        from repro.runtime import create_executor
        from repro.store import ShardedEmbeddingStore

        return ShardedEmbeddingStore.build(
            "hash",
            num_features=4000,
            dim=DIM,
            num_shards=num_shards,
            compression_ratio=10.0,
            seed=0,
            optimizer="sketched_adagrad[frac=0.25]",
            executor=create_executor(kind),
            grad_exchange=grad_exchange,
        )

    def workload(self, steps=4, batch=64):
        rng = np.random.default_rng(13)
        ids = rng.integers(0, 4000, size=(steps, batch))
        grads = rng.normal(scale=0.1, size=(steps, batch, DIM)).astype(np.float32)
        return ids, grads

    @pytest.mark.parametrize("kind", ["processes"])
    def test_serial_processes_parity_is_bit_exact(self, kind):
        from tests.test_runtime_process import assert_state_equal

        reference = self.make_store("serial")
        candidate = self.make_store(kind)
        ids, grads = self.workload()
        try:
            for step in range(ids.shape[0]):
                expect = reference.lookup(ids[step])
                actual = candidate.lookup(ids[step])
                assert np.array_equal(expect, actual)
                reference.apply_gradients(ids[step], grads[step])
                candidate.apply_gradients(ids[step], grads[step])
            assert_state_equal(reference.state_dict(), candidate.state_dict())
        finally:
            reference.executor.close()
            candidate.executor.close()

    def test_merged_step_sketch_is_exposed(self):
        store = self.make_store("serial")
        ids, grads = self.workload(steps=1)
        try:
            assert store.merged_grad_sketch() is None
            store.lookup(ids[0])
            store.apply_gradients(ids[0], grads[0])
            merged = store.merged_grad_sketch()
            assert isinstance(merged, CSVec)
            assert merged.counts.sum() > 0
        finally:
            store.executor.close()

    def test_sketched_exchange_payload_bytes_vs_deduplicated_dense(self):
        """Deterministic byte counts.  Dense exchange ships one row per
        distinct id too, so the ratio is what the sketch itself buys (the
        old ">= 2x" compared against an un-deduplicated dense payload)."""
        dense = self.make_store("serial", grad_exchange="dense", num_shards=4)
        sketched = self.make_store("serial", grad_exchange="sketched", num_shards=4)
        # A realistic training batch revisits hot ids (Zipf skew).  Tiny
        # duplicate-free batches can sit below the sketch's MIN_WIDTH floor.
        rng = np.random.default_rng(17)
        ids = rng.integers(0, 300, size=(3, 512))
        grads = rng.normal(scale=0.1, size=(3, 512, DIM)).astype(np.float32)
        unique_per_step = np.mean([np.unique(step_ids).size for step_ids in ids])
        try:
            for step in range(ids.shape[0]):
                for store in (dense, sketched):
                    store.lookup(ids[step])
                    store.apply_gradients(ids[step], grads[step])
            dense_bytes = dense.executor.stats.grad_bytes_per_step
            sketched_bytes = sketched.executor.stats.grad_bytes_per_step
            # int64 id + DIM float32 summed gradient + float64 score per distinct id.
            assert dense_bytes == pytest.approx(unique_per_step * (8 + 4 * DIM + 8))
            assert dense_bytes == pytest.approx(11696.0)
            assert sketched_bytes == pytest.approx(22876 / 3)
            assert sketched_bytes * 1.5 <= dense_bytes
            info = sketched.describe()["grad_exchange"]
            assert info["mode"] == "sketched"
            assert info["grad_bytes_per_step"] == pytest.approx(sketched_bytes, rel=1e-3)
            stats = sketched.executor.stats.as_dict()["grad_exchange"]
            assert stats["steps"] == ids.shape[0]
        finally:
            dense.executor.close()
            sketched.executor.close()

    def test_single_shard_sketched_mode_works(self):
        store = self.make_store("serial", num_shards=1)
        ids, grads = self.workload(steps=2)
        try:
            for step in range(ids.shape[0]):
                store.lookup(ids[step])
                store.apply_gradients(ids[step], grads[step])
            assert store.executor.stats.grad_exchange_mode == "sketched"
        finally:
            store.executor.close()


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
    def test_grad_exchange_round_trips_and_validates(self):
        from repro.api.config import SystemConfig
        from repro.errors import ConfigurationError

        config = SystemConfig.from_dict(
            {"store": {"grad_exchange": "sketched", "optimizer": "sketched_adagrad[frac=0.25]"}}
        )
        assert SystemConfig.from_json(config.to_json()) == config
        with pytest.raises(ConfigurationError, match="did you mean 'sketched'"):
            SystemConfig.from_dict({"store": {"grad_exchange": "sketchd"}})
        with pytest.raises(ConfigurationError, match="store.optimizer"):
            SystemConfig.from_dict({"store": {"optimizer": "sketched_adagrad[frac=7]"}})
        with pytest.raises(ConfigurationError, match="store.optimizer"):
            SystemConfig.from_dict({"store": {"optimizer": "adagrab"}})

    def test_grouped_store_rejects_sketched_exchange(self):
        from repro.data.schema import DatasetSchema, FieldSchema
        from repro.embeddings import create_embedding_store

        schema = DatasetSchema(
            name="grp",
            fields=[FieldSchema("tiny", 8), FieldSchema("tail", 4000)],
            num_numerical=0,
            embedding_dim=DIM,
        )
        with pytest.raises(ValueError, match="uniform sharded store"):
            create_embedding_store(
                schema, spec="full:tiny,hash[cr=8]:tail", grad_exchange="sketched"
            )
