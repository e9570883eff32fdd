"""Tests for the training loop, its keywords and latency helpers."""

import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dense_precision import quickstart

from repro.api import build
from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.stream import Batch, all_finite
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.full import FullEmbedding
from repro.errors import (
    BadBatchError,
    BatchShapeError,
    DataError,
    NonFiniteFeatureError,
    NonIntegerIdError,
)
from repro.models.dlrm import DLRM
from repro.training.latency import measure_latency, measure_sketch_throughput
from repro.training.trainer import (
    EVAL_BATCH_SIZE,
    EVAL_ROW_ALIGN,
    Trainer,
    TrainingHistory,
    eval_pieces,
    train_and_evaluate,
)
from repro.sketch.hotsketch import HotSketch


def toy_dataset(num_days=3, samples=1200, seed=0):
    schema = DatasetSchema(
        name="toy",
        fields=[FieldSchema("a", 150), FieldSchema("b", 80), FieldSchema("c", 40)],
        num_numerical=2,
        embedding_dim=8,
        num_days=num_days,
        zipf_exponent=1.4,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=samples, seed=seed))


def toy_model(dataset, seed=0, embedding=None):
    schema = dataset.schema
    embedding = embedding or FullEmbedding(schema.num_features, schema.embedding_dim, optimizer="adagrad", learning_rate=0.1, rng=seed)
    return DLRM(embedding, schema.num_fields, schema.num_numerical, rng=seed)


class TestTrainerKeywords:
    def test_defaults_are_adam_at_0_01(self):
        trainer = Trainer(toy_model(toy_dataset()))
        assert trainer.dense_optimizer.kind == "adam"
        assert trainer.dense_optimizer.lr == 0.01

    def test_keyword_sets_the_learning_rate(self):
        trainer = Trainer(toy_model(toy_dataset()), dense_learning_rate=0.5)
        assert trainer.dense_optimizer.kind == "adam"
        assert trainer.dense_optimizer.lr == 0.5

    def test_keywords_only(self):
        with pytest.raises(TypeError):
            Trainer(toy_model(toy_dataset()), 0.01)

    def test_non_positive_learning_rate(self):
        with pytest.raises(ValueError):
            Trainer(toy_model(toy_dataset()), dense_learning_rate=0.0)

    def test_dense_optimizer_is_not_a_keyword(self):
        with pytest.raises(TypeError, match="dense_optimizer"):
            Trainer(toy_model(toy_dataset()), dense_optimizer="adam")

    def test_predict_defaults_to_eval_batch_size_pieces(self, monkeypatch):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        batch = dataset.test_batch(2 * EVAL_BATCH_SIZE + 10)
        sizes = []
        predict_proba = trainer.model.predict_proba

        def recording(categorical, numerical):
            sizes.append(len(categorical))
            return predict_proba(categorical, numerical)

        monkeypatch.setattr(trainer.model, "predict_proba", recording)
        default = trainer.predict(batch)
        pieces, sizes[:] = list(sizes), []
        explicit = trainer.predict(batch, batch_size=EVAL_BATCH_SIZE)
        assert pieces == sizes == np.diff([0, *eval_pieces(len(batch), EVAL_BATCH_SIZE)]).tolist()
        assert np.array_equal(default, explicit)


    @pytest.mark.parametrize("size", [0, -1])
    def test_predict_refuses_a_batch_size_below_one(self, size):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        batch = dataset.test_batch(10)
        with pytest.raises(DataError, match="batch_size must be positive"):
            trainer.predict(batch, batch_size=size)
        with pytest.raises(DataError):
            trainer.evaluate_auc(batch, batch_size=size)

class TestTrainerBasics:
    def test_train_step_returns_finite_loss(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        batch = dataset.generate_day(0, num_samples=64)
        loss = trainer.train_step(batch)
        assert np.isfinite(loss)
        assert trainer.global_step == 1

    def test_training_reduces_loss(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        history = trainer.train_stream(dataset.training_stream(128))
        early = float(np.mean(history.losses[:5]))
        late = float(np.mean(history.losses[-5:]))
        assert late < early

    def test_history_eval_hooks(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        test_batch = dataset.test_batch(400)
        history = trainer.train_stream(
            dataset.training_stream(128), eval_batch=test_batch, eval_every=5
        )
        assert len(history.eval_steps) >= 1
        assert all(0.0 <= auc <= 1.0 for auc in history.eval_aucs)

    def test_max_steps(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        history = trainer.train_stream(dataset.training_stream(64), max_steps=3)
        assert len(history.losses) == 3

    def test_max_steps_zero_trains_nothing(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        before = trainer.model.store.state_dict()
        history = trainer.train_stream(dataset.training_stream(64), max_steps=0)
        assert history.losses == [] and trainer.global_step == 0
        after = trainer.model.store.state_dict()
        assert all(np.array_equal(before[key], after[key]) for key in before)

    def test_max_steps_draws_no_batch_past_the_bound(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        stream = iter(list(dataset.training_stream(64))[:5])
        trainer.train_stream(stream, max_steps=2)
        assert len(list(stream)) == 3

    def test_negative_max_steps_is_refused(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        with pytest.raises(ValueError, match="max_steps"):
            trainer.train_stream(dataset.training_stream(64), max_steps=-3)
        assert trainer.global_step == 0

    def test_predict_and_metrics(self):
        dataset = toy_dataset()
        trainer = Trainer(toy_model(dataset))
        batch = dataset.test_batch(500)
        probs = trainer.predict(batch, batch_size=200)
        assert probs.shape == (500,)
        assert 0.0 <= trainer.evaluate_auc(batch) <= 1.0
        assert trainer.evaluate_log_loss(batch) > 0

    def test_embedding_receives_sparse_updates(self):
        dataset = toy_dataset()
        embedding = FullEmbedding(dataset.schema.num_features, 8, learning_rate=0.1, rng=0)
        model = toy_model(dataset, embedding=embedding)
        trainer = Trainer(model)
        table_before = embedding.table.copy()
        trainer.train_step(dataset.generate_day(0, num_samples=64))
        assert not np.allclose(embedding.table, table_before)

    def test_works_with_cafe_embedding(self):
        dataset = toy_dataset()
        embedding = CafeEmbedding(
            num_features=dataset.schema.num_features,
            dim=8,
            num_hot_rows=16,
            num_shared_rows=16,
            rebalance_interval=2,
            learning_rate=0.1,
            rng=0,
        )
        trainer = Trainer(toy_model(dataset, embedding=embedding))
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        assert embedding.sketch.total_insertions > 0
        assert embedding.step() == trainer.global_step


class TestBadNumericalInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_numerical_is_refused_before_the_forward_pass(self, bad):
        dataset = toy_dataset()
        model = toy_model(dataset)
        trainer = Trainer(model)
        trainer.train_step(dataset.generate_day(0, num_samples=64))
        batch = dataset.generate_day(1, num_samples=64)
        batch.numerical[5, 1] = bad
        dense_before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(NonFiniteFeatureError, match="numerical"):
            trainer.train_step(batch)
        assert issubclass(NonFiniteFeatureError, BadBatchError)
        assert trainer.global_step == 1
        assert model.store.step() == 1
        assert trainer.dense_optimizer.step_count == 1
        for before, after in zip(dense_before, model.parameters()):
            assert np.array_equal(before, after.data)

    @pytest.mark.parametrize("part", ["fields", "numerical"])
    def test_mis_shaped_batch_is_refused_before_the_forward_pass(self, part):
        dataset = toy_dataset()
        model = toy_model(dataset)
        trainer = Trainer(model)
        trainer.train_step(dataset.generate_day(0, num_samples=64))
        batch = dataset.generate_day(1, num_samples=64)
        if part == "fields":  # 2 of 3 fields
            batch = Batch(batch.categorical[:, :-1], batch.numerical, batch.labels)
        else:  # 1 of 2 numerical columns
            batch = Batch(batch.categorical, batch.numerical[:, :-1], batch.labels)
        dense_before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(BatchShapeError, match="must have shape"):
            trainer.train_step(batch)
        with pytest.raises(BatchShapeError):
            model.predict_proba(batch.categorical, batch.numerical)
        assert issubclass(BatchShapeError, BadBatchError) and issubclass(BatchShapeError, ValueError)
        assert trainer.global_step == 1
        assert model.store.step() == 1
        assert trainer.dense_optimizer.step_count == 1
        for before, after in zip(dense_before, model.parameters()):
            assert np.array_equal(before, after.data)

    def test_all_finite_screen_is_exact(self):
        # Finite values whose sum overflows fall back to the exact test.
        assert all_finite(np.full(3, 1e308))
        with np.errstate(over="ignore"):
            assert all_finite(np.full((2, 3), 1e308))
        assert not all_finite(np.asarray([1.0, np.nan])) and not all_finite(np.full((2, 2), np.nan))


class TestBatchBoundary:
    """Refusals that leave parameters, optimizer, step counts and store alone."""

    def test_empty_batch_is_refused_with_nothing_touched(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        trainer = Trainer(model)
        trainer.train_step(dataset.generate_day(0, num_samples=64))
        empty = dataset.generate_day(1, num_samples=64)
        empty = Batch(empty.categorical[:0], empty.numerical[:0], empty.labels[:0])
        dense_before = [p.data.copy() for p in model.parameters()]
        optim_before = trainer.dense_optimizer.state_dict()
        store_before = model.store.state_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BatchShapeError, match="at least one row"):
                trainer.train_step(empty)
        assert trainer.global_step == 1
        assert model.store.step() == 1
        assert trainer.dense_optimizer.step_count == 1
        for before, after in zip(dense_before, model.parameters()):
            assert np.array_equal(before, after.data)
        for state_before, state_after in [
            (optim_before, trainer.dense_optimizer.state_dict()),
            (store_before, model.store.state_dict()),
        ]:
            assert state_before.keys() == state_after.keys()
            for key, value in state_before.items():
                assert np.array_equal(value, state_after[key]), key

    def test_float_ids_are_refused_at_the_model(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        trainer = Trainer(model)
        trainer.train_step(dataset.generate_day(0, num_samples=64))
        batch = dataset.generate_day(1, num_samples=64)
        floats = batch.categorical + 0.5
        with pytest.raises(NonIntegerIdError):
            model.predict_proba(floats, batch.numerical)
        batch.categorical = floats  # past Batch's own check
        dense_before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(NonIntegerIdError):
            trainer.train_step(batch)
        assert trainer.global_step == 1 and model.store.step() == 1
        for before, after in zip(dense_before, model.parameters()):
            assert np.array_equal(before, after.data)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_other_integer_ids_train_and_predict(self, dtype):
        dataset = toy_dataset()
        model = toy_model(dataset)
        batch = dataset.generate_day(0, num_samples=64)
        want = model.predict_proba(batch.categorical, batch.numerical)
        assert np.array_equal(model.predict_proba(batch.categorical.astype(dtype), batch.numerical), want)
        batch.categorical = batch.categorical.astype(dtype)
        assert np.isfinite(Trainer(model).train_step(batch))


class TestHistory:
    def test_average_and_smoothing(self):
        history = TrainingHistory(losses=[1.0, 2.0, 3.0, 4.0], steps=[1, 2, 3, 4])
        assert history.average_loss == pytest.approx(2.5)
        smooth = history.smoothed_losses(window=2)
        assert np.allclose(smooth, [1.5, 2.5, 3.5])

    def test_empty_history(self):
        history = TrainingHistory()
        assert np.isnan(history.average_loss)
        assert history.smoothed_losses().size == 0


class TestTrainAndEvaluate:
    def test_returns_all_metrics(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        results = train_and_evaluate(
            model,
            dataset.training_stream(128),
            dataset.test_batch(400),
        )
        assert set(results) >= {"train_loss", "test_auc", "test_log_loss", "history"}
        assert 0.0 <= results["test_auc"] <= 1.0

    def test_gradient_norm_collection(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        trainer = Trainer(model)
        norms = trainer.collect_gradient_norms(
            dataset.day_batches(0, 128), dataset.schema.num_features
        )
        assert norms.shape == (dataset.schema.num_features,)
        assert norms.sum() > 0
        # Frequent features should accumulate larger totals than the median feature.
        counts = np.bincount(
            dataset.generate_day(0).categorical.reshape(-1), minlength=dataset.schema.num_features
        )
        hottest = counts.argmax()
        assert norms[hottest] > np.median(norms[norms > 0])


class TestEvaluationPieces:
    """``predict`` runs in pieces of at most :data:`EVAL_BATCH_SIZE` rows and
    answers with the bits of one pass over all rows, at a transient of one
    piece's pass."""

    @staticmethod
    def session(model_name, dtype):
        session = build(quickstart(model__name=model_name, store__dtype=dtype))
        for batch in islice(session.dataset.training_stream(session.batch_size), 3):
            session.trainer.train_step(batch)
        return session

    @given(rows=st.integers(0, 20_000), batch_size=st.sampled_from([1, 7, 16, 100, 512, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_pieces_are_near_equal_blocks_and_no_sliver(self, rows, batch_size):
        ends = eval_pieces(rows, batch_size)
        sizes = np.diff([0, *ends])
        assert len(ends) == -(-rows // batch_size) and (not ends or ends[-1] == rows)
        assert 0 < sizes.min(initial=1) and sizes.max(initial=0) <= batch_size
        if batch_size % EVAL_ROW_ALIGN == 0:
            assert not (sizes[:-1] % EVAL_ROW_ALIGN).any()
            assert sizes.min(initial=rows) >= min(rows, batch_size // 2 - EVAL_ROW_ALIGN)
        elif rows:
            assert np.ptp(sizes) <= 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    def test_pieces_are_the_bits_of_one_pass(self, model_name, dtype):
        # The test-set sizes of experiments/common.py and perf/.
        with self.session(model_name, dtype) as session:
            for rows in (2048, 4096, 8192):
                test = session.dataset.test_batch(rows)
                one_pass = session.trainer.predict(test, batch_size=rows)
                assert np.array_equal(session.trainer.predict(test), one_pass), rows
            # A plain splitter would end this one with a 3-row sliver.  One
            # pass over 8 195 rows takes another BLAS path for a row or two
            # itself, so no cut gives its bits on every row: the pieces are
            # blocks (above) and agree to rounding.
            test = session.dataset.test_batch(16 * EVAL_BATCH_SIZE + 3)
            one_pass = session.trainer.predict(test, batch_size=len(test.labels))
            rtol = 1e-5 if dtype == "float32" else 1e-13
            np.testing.assert_allclose(session.trainer.predict(test), one_pass, rtol=rtol, atol=0)

    def test_evaluating_more_rows_holds_one_piece_of_transient(self):
        with self.session("dlrm", "float32") as session:
            trainer, dataset = session.trainer, session.dataset
            small, large = dataset.test_batch(512), dataset.test_batch(8192)
            tracemalloc.start()
            try:
                # A piece-sized workspace and store lookup cache exist, traced,
                # before either rise is measured.
                trainer.predict(small)
                rises = []
                for batch in (small, large):
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    trainer.predict(batch)
                    rises.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        # The pieces' outputs and their concatenation, and 64 KiB of slack.
        outputs = 2 * len(large.labels) * np.dtype(session.model.dtype).itemsize
        assert rises[1] <= rises[0] + outputs + 64 * 1024, rises


class TestLatencyHelpers:
    def test_measure_latency_report(self):
        dataset = toy_dataset()
        model = toy_model(dataset)
        train_batch = dataset.generate_day(0, num_samples=64)
        infer_batch = dataset.generate_day(0, num_samples=128, seed_offset=3)
        [report] = measure_latency({"full": model}, train_batch, infer_batch, repeats=2)
        assert report.train_latency_ms > 0
        assert report.inference_latency_ms > 0
        assert report.train_throughput > 0
        row = report.as_row()
        assert row["method"] == "full"

    def test_measure_sketch_throughput(self):
        sketch = HotSketch(num_buckets=64, slots_per_bucket=4)
        keys = np.random.default_rng(0).integers(0, 1000, size=5000)
        stats = measure_sketch_throughput(sketch, keys, np.ones(5000), repeats=2)
        assert stats["insert_ops_per_s"] > 0
        assert stats["query_ops_per_s"] > 0
