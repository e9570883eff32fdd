"""Tests for the Criteo TSV file reader (using small synthetic files)."""

import numpy as np
import pytest

from repro.data.criteo import NUM_CATEGORICAL, NUM_NUMERICAL, CriteoFileReader, criteo_schema
from repro.data.schema import DatasetSchema, FieldSchema
from repro.errors import DataError


def make_line(label=1, numeric_value=3, token="a1b2c3"):
    numerics = [str(numeric_value)] * NUM_NUMERICAL
    categoricals = [f"{token}{i:02d}" for i in range(NUM_CATEGORICAL)]
    return "\t".join([str(label)] + numerics + categoricals)


@pytest.fixture
def reader():
    return CriteoFileReader(criteo_schema(max_cardinality_per_field=1000, num_days=2))


class TestSchema:
    def test_structure(self):
        schema = criteo_schema(max_cardinality_per_field=500, embedding_dim=8)
        assert schema.num_fields == NUM_CATEGORICAL
        assert schema.num_numerical == NUM_NUMERICAL
        assert schema.num_features == 500 * NUM_CATEGORICAL
        assert schema.embedding_dim == 8

    def test_invalid_cardinality(self):
        with pytest.raises(DataError):
            criteo_schema(max_cardinality_per_field=0)

    def test_reader_rejects_wrong_schema(self):
        wrong = DatasetSchema(
            name="wrong", fields=[FieldSchema("a", 10)], num_numerical=2, embedding_dim=4
        )
        with pytest.raises(DataError):
            CriteoFileReader(wrong)


class TestParsing:
    def test_parse_basic_line(self, reader):
        labels, numerical, categorical = reader.parse_lines([make_line(label=1, numeric_value=7)])
        assert labels.tolist() == [1.0]
        assert numerical.shape == (1, NUM_NUMERICAL)
        assert np.allclose(numerical, np.log1p(7.0))
        assert categorical.shape == (1, NUM_CATEGORICAL)
        assert categorical.min() >= 0
        assert categorical.max() < 1000

    def test_missing_values(self, reader):
        line = "\t".join([""] + [""] * NUM_NUMERICAL + [""] * NUM_CATEGORICAL)
        labels, numerical, categorical = reader.parse_lines([line])
        assert labels[0] == 0.0
        assert np.allclose(numerical, 0.0)
        assert np.all(categorical == 0)

    def test_negative_numerical_clamped(self, reader):
        numerics = ["-5"] * NUM_NUMERICAL
        cats = ["x"] * NUM_CATEGORICAL
        line = "\t".join(["0"] + numerics + cats)
        _, numerical, _ = reader.parse_lines([line])
        assert np.allclose(numerical, 0.0)

    def test_malformed_line_rejected(self, reader):
        with pytest.raises(DataError):
            reader.parse_lines(["1\t2\t3"])

    def test_hash_is_deterministic_per_field(self, reader):
        a = reader._hash_token("deadbeef", field=0)
        b = reader._hash_token("deadbeef", field=0)
        c = reader._hash_token("deadbeef", field=1)
        assert a == b
        assert a != c  # different fields use different hash seeds (usually differ)


class TestBatchIteration:
    def test_iter_batches(self, tmp_path, reader):
        path = tmp_path / "day0.tsv"
        lines = [make_line(label=i % 2, numeric_value=i, token=f"t{i}") for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        batches = list(reader.iter_batches(path, batch_size=4, day=1))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0].day == 1
        # Global ids: field f's ids live in [f*1000, (f+1)*1000).
        assert np.all(batches[0].categorical[:, 1] >= 1000)
        assert np.all(batches[0].categorical[:, 1] < 2000)

    def test_missing_file(self, reader):
        with pytest.raises(DataError):
            list(reader.iter_batches("/nonexistent/criteo.tsv", batch_size=4))

    def test_invalid_batch_size(self, tmp_path, reader):
        path = tmp_path / "x.tsv"
        path.write_text(make_line() + "\n")
        with pytest.raises(DataError):
            list(reader.iter_batches(path, batch_size=0))

    def test_batches_feed_models(self, tmp_path, reader):
        """A Criteo-format file can drive a model end to end."""
        from repro.embeddings.hash_embedding import HashEmbedding
        from repro.models.dlrm import DLRM

        path = tmp_path / "train.tsv"
        lines = [make_line(label=i % 2, numeric_value=i, token=f"q{i}") for i in range(8)]
        path.write_text("\n".join(lines) + "\n")
        schema = reader.schema
        embedding = HashEmbedding(schema.num_features, schema.embedding_dim, num_rows=64, rng=0)
        model = DLRM(embedding, schema.num_fields, schema.num_numerical, rng=0)
        for batch in reader.iter_batches(path, batch_size=4):
            assert np.all(np.isfinite(model.predict_proba(batch.categorical, batch.numerical)))
