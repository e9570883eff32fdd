"""Tests for dataset schemas, presets, and the batch/stream utilities."""

import numpy as np
import pytest

from repro.data.schema import PAPER_DATASET_STATS, DatasetSchema, FieldSchema, make_preset
from repro.data.stream import Batch, iterate_batches
from repro.errors import DataError, NonIntegerIdError


class TestFieldSchema:
    def test_positive_cardinality_required(self):
        with pytest.raises(DataError):
            FieldSchema(name="bad", cardinality=0)


class TestDatasetSchema:
    def make(self):
        return DatasetSchema(
            name="toy",
            fields=[FieldSchema("a", 10), FieldSchema("b", 20), FieldSchema("c", 5)],
            num_numerical=2,
            embedding_dim=4,
            num_days=3,
        )

    def test_derived_quantities(self):
        schema = self.make()
        assert schema.num_fields == 3
        assert schema.num_features == 35
        assert schema.field_offsets.tolist() == [0, 10, 30, 35]
        assert schema.embedding_parameters == 140

    def test_global_id_roundtrip(self):
        schema = self.make()
        per_field = np.asarray([[1, 2, 3], [9, 19, 4]])
        global_ids = schema.to_global_ids(per_field)
        assert global_ids.tolist() == [[1, 12, 33], [9, 29, 34]]

    def test_global_id_shape_validated(self):
        schema = self.make()
        with pytest.raises(DataError):
            schema.to_global_ids(np.zeros((2, 2), dtype=np.int64))

    def test_validation(self):
        with pytest.raises(DataError):
            DatasetSchema(name="x", fields=[], num_numerical=0, embedding_dim=4)
        with pytest.raises(DataError):
            DatasetSchema(name="x", fields=[FieldSchema("a", 2)], num_numerical=-1, embedding_dim=4)
        with pytest.raises(DataError):
            DatasetSchema(name="x", fields=[FieldSchema("a", 2)], num_numerical=0, embedding_dim=0)


class TestPresets:
    def test_paper_stats_complete(self):
        assert set(PAPER_DATASET_STATS) == {"avazu", "criteo", "kdd12", "criteotb"}
        assert PAPER_DATASET_STATS["criteo"]["features"] == 33_762_577

    @pytest.mark.parametrize("name", ["avazu", "criteo", "kdd12", "criteotb"])
    def test_preset_structure_matches_paper(self, name):
        preset = make_preset(name, base_cardinality=100, seed=0)
        assert preset.num_fields == PAPER_DATASET_STATS[name]["fields"]
        assert preset.metadata["paper_stats"] == PAPER_DATASET_STATS[name]

    def test_preset_deterministic(self):
        a = make_preset("criteo", base_cardinality=200, seed=1)
        b = make_preset("criteo", base_cardinality=200, seed=1)
        assert a.field_cardinalities == b.field_cardinalities

    def test_preset_scale(self):
        small = make_preset("criteo", base_cardinality=100, seed=0)
        large = make_preset("criteo", base_cardinality=1000, seed=0)
        assert large.num_features > small.num_features

    def test_unknown_preset(self):
        with pytest.raises(DataError):
            make_preset("movielens", base_cardinality=50, seed=0)

    def test_criteo_has_numerical_avazu_does_not(self):
        assert make_preset("criteo", base_cardinality=50, seed=0).num_numerical == 13
        assert make_preset("avazu", base_cardinality=50, seed=0).num_numerical == 0


class TestBatch:
    def test_batch_validation(self):
        with pytest.raises(DataError):
            Batch(
                categorical=np.zeros((3, 2), dtype=np.int64),
                numerical=np.zeros((2, 1)),
                labels=np.zeros(3),
            )

    @pytest.mark.parametrize("block", ["categorical", "numerical", "labels"])
    def test_a_missing_block_is_a_data_error(self, block):
        blocks = dict(categorical=np.zeros((3, 2), dtype=np.int64), numerical=np.zeros((3, 1)), labels=np.zeros(3))
        blocks[block] = None if block != "categorical" else 7
        with pytest.raises(DataError, match=f"Batch {block} must hold one entry per row"):
            Batch(**blocks)

    def test_float_ids_are_refused_not_truncated(self):
        ids = np.arange(6).reshape(3, 2)
        with pytest.raises(NonIntegerIdError, match="must be integers"):
            Batch(ids + 0.5, np.zeros((3, 0)), np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_other_integer_ids_are_taken_as_int64(self, dtype):
        ids = np.arange(6).reshape(3, 2)
        batch = Batch(ids.astype(dtype), np.zeros((3, 0)), np.zeros(3))
        assert batch.categorical.dtype == np.int64 and np.array_equal(batch.categorical, ids)

    def test_len_counts_rows(self):
        batch = Batch(
            categorical=np.zeros((4, 1), dtype=np.int64),
            numerical=np.zeros((4, 0)),
            labels=np.asarray([1.0, 0.0, 1.0, 1.0]),
        )
        assert len(batch) == 4


class TestIterateBatches:
    def arrays(self, n=10):
        return (
            np.arange(n * 2, dtype=np.int64).reshape(n, 2),
            np.zeros((n, 1)),
            np.zeros(n),
        )

    def test_batch_sizes(self):
        cats, nums, labels = self.arrays(10)
        batches = list(iterate_batches(cats, nums, labels, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_content_preserved_in_order(self):
        cats, nums, labels = self.arrays(6)
        batches = list(iterate_batches(cats, nums, labels, batch_size=4))
        rebuilt = np.concatenate([b.categorical for b in batches])
        assert np.array_equal(rebuilt, cats)

    def test_invalid_batch_size(self):
        cats, nums, labels = self.arrays(4)
        with pytest.raises(DataError):
            list(iterate_batches(cats, nums, labels, batch_size=0))
