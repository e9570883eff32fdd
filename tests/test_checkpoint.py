"""Tests for the checkpoint utilities."""

from collections import Counter

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.errors import CheckpointLayoutError, SketchStateMismatchError
from repro.models.dlrm import DLRM
from repro.models.wdl import WDL
from repro.nn.module import Module
from repro.nn.optim import Optimizer, RowOptimizer
from repro.sketch.hotsketch import HotSketch
from repro.store import ShardedEmbeddingStore
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
        """Embeddings without a state_dict (e.g. Q-R) still checkpoint the
        dense network and do not confuse the loader."""
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

    def test_roundtrip_sharded_store(self, tmp_path):
        """The full .npz checkpoint path over a sharded store restores
        bit-exact tables at the configured dtype."""
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
            )
            return build_model(dataset, embedding=store, seed=seed)

        model = sharded_model(0)
        trainer = Trainer(model)
        for batch in dataset.day_batches(0, 64):
            trainer.train_step(batch)
        path = save_checkpoint(tmp_path / "sharded.npz", model, step=trainer.global_step)

        restored = sharded_model(42)
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

    def test_mismatched_model_rejected(self, tmp_path):
        dataset = tiny_dataset()
        model = build_model(dataset)
        path = save_checkpoint(tmp_path / "ckpt.npz", model)
        other = WDL(
            FullEmbedding(dataset.schema.num_features, DIM, rng=0),
            dataset.schema.num_fields,
            dataset.schema.num_numerical,
            rng=0,
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
        model (over a float32 store) must not come back as float64."""
        dataset = tiny_dataset()
        model = build_model(dataset)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        path = save_checkpoint(tmp_path / "f32.npz", model)
        restored = build_model(dataset, seed=3)
        load_checkpoint(path, restored)
        assert all(p.data.dtype == np.float32 for p in restored.parameters())


def sharded_cafe_model(dataset, num_shards, seed, method="cafe"):
    store = ShardedEmbeddingStore.build(
        method,
        num_features=dataset.schema.num_features,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=10.0,
        seed=seed,
        optimizer="adagrad",
    )
    return build_model(dataset, embedding=store, seed=seed)


def trained(model, dataset):
    trainer = Trainer(model)
    for batch in list(dataset.day_batches(0, 64))[:4]:
        trainer.train_step(batch)
    return trainer.dense_optimizer


def edited_checkpoint(tmp_path, method, num_shards, edit):
    """A checkpoint of a trained ``method`` model, its payload passed
    through ``edit(payload)`` before it is written."""
    dataset = tiny_dataset()
    source = sharded_cafe_model(dataset, num_shards=num_shards, seed=1, method=method)
    path = save_checkpoint(tmp_path / "edited.npz", source, optimizer=trained(source, dataset))
    with np.load(path) as data:
        payload = dict(data)
    edit(payload)
    np.savez(path, **payload)
    return path


def everything_a_restore_writes(model, optimizer) -> dict[str, np.ndarray]:
    state = {f"dense/{k}": v for k, v in model.state_dict().items()}
    state.update({f"optim/{k}": v for k, v in optimizer.state_dict().items()})
    state.update({f"sparse/{k}": v for k, v in model.store.state_dict().items()})
    return {key: np.array(value, copy=True) for key, value in state.items()}


def group_namespaced_checkpoint(path, model, optimizer):
    """What a two-group table-group store's checkpoint held: a ``num_groups``
    header and ``group{i}.backend.*`` keys where a sharded store has
    ``num_shards`` and ``shard{i}.*``."""
    payload = {"meta/step": np.asarray(7), "meta/has_sparse": np.asarray(1)}
    payload.update({f"dense/{k}": v + 1 for k, v in model.state_dict().items()})
    payload.update({f"optim/{k}": v for k, v in optimizer.state_dict().items()})
    payload.update({"sparse/num_groups": np.asarray(2), "sparse/step": np.asarray(7)})
    shard_state = model.store.shards[0].state_dict()
    for group in range(2):
        payload[f"sparse/group{group}.fields"] = np.asarray([group])
        for key, value in shard_state.items():
            payload[f"sparse/group{group}.backend.{key}"] = value
    np.savez(path, **payload)
    return path


class TestRefusedCheckpointRestoresNothing:
    """A checkpoint that does not fit the model is refused before the dense
    optimizer, the dense weights or any shard is written."""

    def test_other_shard_count(self, tmp_path):
        dataset = tiny_dataset()
        source = sharded_cafe_model(dataset, num_shards=2, seed=1)
        path = save_checkpoint(
            tmp_path / "two.npz", source, optimizer=trained(source, dataset)
        )
        self.assert_refused_untouched(path, dataset, match="has 2 shards, store has 4")

    def test_table_group_checkpoint(self, tmp_path):
        dataset = tiny_dataset()
        source = sharded_cafe_model(dataset, num_shards=1, seed=1)
        path = group_namespaced_checkpoint(
            tmp_path / "groups.npz", source, trained(source, dataset)
        )
        self.assert_refused_untouched(
            path, dataset, num_shards=1, match="table-group checkpoints are no longer loadable"
        )

    # Each array is the last of its section a restore that checked while it
    # wrote would reach: the last shard's, or after the shard's hot table.
    @pytest.mark.parametrize(
        "num_shards, key, match",
        [
            (4, "sparse/shard3.hot_table", r"\['hot_table'\].*not a CAFE shard's"),
            (1, "sparse/shard0.shared_table", r"\['shared_table'\]"),
            (1, "dense/top.layers.2.weight", r"\['top.layers.2.weight'\]"),
        ],
        ids=["4-shard-hot-table", "shared-table", "dense-parameter"],
    )
    def test_an_array_with_an_extra_row(self, tmp_path, num_shards, key, match):
        path = edited_checkpoint(tmp_path, "cafe", num_shards, extra_row(key))
        self.assert_refused_untouched(path, tiny_dataset(), match, num_shards)

    def test_a_sketch_of_another_geometry(self, tmp_path):
        def narrow_scores(payload):
            payload["sparse/shard0.sketch.scores"] = payload["sparse/shard0.sketch.scores"][:, :2]

        path = edited_checkpoint(tmp_path, "cafe", 1, narrow_scores)
        self.assert_refused_untouched(
            path, tiny_dataset(), r"\['scores'\]", num_shards=1, error=SketchStateMismatchError
        )

    def test_a_missing_dense_parameter(self, tmp_path):
        def drop_last_bias(payload):
            del payload["dense/top.layers.2.bias"]

        path = edited_checkpoint(tmp_path, "cafe", 1, drop_last_bias)
        self.assert_refused_untouched(
            path, tiny_dataset(), r"\['top.layers.2.bias'\]", num_shards=1, error=KeyError
        )

    @pytest.mark.parametrize(
        "method, key",
        [
            ("cafe_ml", "sparse/shard0.secondary_table"),
            ("full", "sparse/shard0.table"),
            ("hash", "sparse/shard0.table"),
        ],
    )
    def test_a_table_of_another_shape(self, tmp_path, method, key):
        path = edited_checkpoint(tmp_path, method, 1, extra_row(key))
        self.assert_refused_untouched(
            path, tiny_dataset(), rf"\['{key.rsplit('.', 1)[1]}'\]", num_shards=1, method=method
        )

    def test_a_hash_seed_of_another_value(self, tmp_path):
        def reseed(payload):
            payload["sparse/shard0.hash_seed"] = payload["sparse/shard0.hash_seed"] + 1

        path = edited_checkpoint(tmp_path, "hash", 1, reseed)
        self.assert_refused_untouched(
            path, tiny_dataset(), "rows would route differently", num_shards=1, method="hash"
        )

    # A CAFE shard's free rows and sketch-assigned rows must partition its
    # exclusive rows (the rule check_row_invariants holds a live layer to);
    # at 4 shards the last shard's are the ones that do not.
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda free: np.append(free[1:], 10_000),
            lambda free: np.append(free, free[0]),
        ],
        ids=["out-of-range", "duplicate"],
    )
    def test_free_rows_that_do_not_partition_the_exclusive_rows(self, tmp_path, num_shards, edit):
        key = f"sparse/shard{num_shards - 1}.free_rows"

        def unpartition(payload):
            payload[key] = edit(payload[key])

        path = edited_checkpoint(tmp_path, "cafe", num_shards, unpartition)
        self.assert_refused_untouched(path, tiny_dataset(), "do not partition", num_shards)

    def assert_refused_untouched(
        self, path, dataset, match, num_shards=4, error=CheckpointLayoutError, method="cafe"
    ):
        target = sharded_cafe_model(dataset, num_shards=num_shards, seed=2, method=method)
        optimizer = trained(target, dataset)
        before = everything_a_restore_writes(target, optimizer)
        with pytest.raises(error, match=match):
            load_checkpoint(path, target, optimizer=optimizer)
        after = everything_a_restore_writes(target, optimizer)
        assert sorted(after) == sorted(before)
        for key, value in before.items():
            assert after[key].dtype == value.dtype, key
            assert after[key].tobytes() == value.tobytes(), key


def extra_row(key):
    """An edit that gives the payload's ``key`` array one more row."""

    def edit(payload):
        payload[key] = np.concatenate([payload[key], payload[key][:1]])

    return edit


def count_calls(monkeypatch, cls, name) -> Counter:
    """Wrap ``cls.name`` to count its calls by the ``id`` of the object."""
    original, counts = getattr(cls, name), Counter()

    def counted(self, *args, **kwargs):
        counts[id(self)] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return counts


def assert_same_store_state(target, source) -> None:
    restored, saved = target.store.state_dict(), source.store.state_dict()
    assert sorted(restored) == sorted(saved)
    for key, value in saved.items():
        assert np.array_equal(restored[key], value), key


class TestRestoreChecksOnce:
    """A restore checks each object once, then only writes: a parent runs
    its parts' ``write_state`` after its own one ``check_state``."""

    @pytest.mark.parametrize("restore", ["load_checkpoint", "store.load_state_dict"])
    def test_each_shard_is_checked_once(self, tmp_path, monkeypatch, restore):
        dataset = tiny_dataset()
        source = sharded_cafe_model(dataset, num_shards=4, seed=1)
        path = save_checkpoint(tmp_path / "four.npz", source, optimizer=trained(source, dataset))
        target = sharded_cafe_model(dataset, num_shards=4, seed=2)
        optimizer = trained(target, dataset)
        shard_checks = count_calls(monkeypatch, CafeEmbedding, "check_state")
        sketch_checks = count_calls(monkeypatch, HotSketch, "check_state")
        row_checks = count_calls(monkeypatch, RowOptimizer, "check_state")
        store_checks = count_calls(monkeypatch, ShardedEmbeddingStore, "check_state")
        if restore == "load_checkpoint":
            load_checkpoint(path, target, optimizer=optimizer)
        else:
            target.store.load_state_dict(source.store.state_dict())
        shards = target.store.shards
        assert store_checks == {id(target.store): 1}
        assert shard_checks == {id(shard): 1 for shard in shards}
        assert sketch_checks == {id(shard.sketch): 1 for shard in shards}
        assert row_checks == {id(shard._optimizer): 1 for shard in shards}
        assert_same_store_state(target, source)

    def test_a_check_copies_no_state(self, tmp_path, monkeypatch):
        # The checks read shapes off the live arrays, never a state_dict() copy:
        # not the sparse side's (layers, sketches, row optimizers), not the
        # dense side's (every parameter, Adam's m and v).
        dataset = tiny_dataset()
        source = sharded_cafe_model(dataset, num_shards=4, seed=1)
        source_optimizer = trained(source, dataset)
        path = save_checkpoint(tmp_path / "four.npz", source, optimizer=source_optimizer)
        target = sharded_cafe_model(dataset, num_shards=4, seed=2)
        optimizer = trained(target, dataset)
        copies = {
            cls: count_calls(monkeypatch, cls, "state_dict")
            for cls in (CafeEmbedding, HotSketch, RowOptimizer, Module, Optimizer)
        }
        load_checkpoint(path, target, optimizer=optimizer)
        assert {cls.__name__: sum(counts.values()) for cls, counts in copies.items()} == {
            cls.__name__: 0 for cls in copies
        }
        assert_same_store_state(target, source)
        for name, value in source.state_dict().items():
            assert np.array_equal(target.state_dict()[name], value), name
        for name, value in source_optimizer.state_dict().items():
            assert np.array_equal(optimizer.state_dict()[name], value), name
