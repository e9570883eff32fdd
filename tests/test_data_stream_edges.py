"""Edge cases of the batch-stream layer the online protocol depends on:
empty days, single-batch days, and the last-day holdout boundary."""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.stream import Batch, iterate_batches
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.errors import DataError


def make_dataset(num_days=4, samples_per_day=100, seed=0):
    schema = DatasetSchema(
        name="edges",
        fields=[FieldSchema("a", 50), FieldSchema("b", 30)],
        num_numerical=1,
        embedding_dim=4,
        num_days=num_days,
        zipf_exponent=1.2,
    )
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=samples_per_day, seed=seed))


def empty_arrays():
    return (
        np.empty((0, 2), dtype=np.int64),
        np.empty((0, 1), dtype=np.float64),
        np.empty(0, dtype=np.float64),
    )


class TestEmptyDay:
    def test_iterate_batches_over_empty_day_yields_nothing(self):
        categorical, numerical, labels = empty_arrays()
        assert list(iterate_batches(categorical, numerical, labels, batch_size=32)) == []

    def test_empty_batch_is_consistent(self):
        categorical, numerical, labels = empty_arrays()
        batch = Batch(categorical=categorical, numerical=numerical, labels=labels, day=2)
        assert len(batch) == 0
        assert batch.day == 2


class TestSingleBatchDay:
    def test_day_smaller_than_batch_size_yields_one_batch(self):
        dataset = make_dataset(samples_per_day=40)
        batches = list(dataset.day_batches(0, batch_size=64))
        assert len(batches) == 1
        assert len(batches[0]) == 40
        assert batches[0].day == 0

    def test_day_exactly_one_batch(self):
        dataset = make_dataset(samples_per_day=64)
        batches = list(dataset.day_batches(1, batch_size=64))
        assert len(batches) == 1
        assert len(batches[0]) == 64

    def test_the_last_batch_keeps_the_short_tail(self):
        dataset = make_dataset(samples_per_day=100)
        data = dataset.generate_day(0)
        full = list(iterate_batches(data.categorical, data.numerical, data.labels, 64))
        assert [len(b) for b in full] == [64, 36]

    def test_non_positive_batch_size_rejected(self):
        categorical, numerical, labels = empty_arrays()
        with pytest.raises(DataError):
            list(iterate_batches(categorical, numerical, labels, batch_size=0))


class TestHoldoutBoundary:
    def test_training_stream_never_emits_the_test_day(self):
        dataset = make_dataset(num_days=4)
        days_seen = {batch.day for batch in dataset.training_stream(batch_size=32)}
        assert days_seen == {0, 1, 2}
        assert dataset.test_day == 3
        assert dataset.test_day not in days_seen

    def test_train_days_exclude_exactly_the_last_day(self):
        dataset = make_dataset(num_days=4)
        assert dataset.train_days == [0, 1, 2]
        assert dataset.test_day == 3

    def test_single_day_dataset_trains_and_tests_on_day_zero(self):
        """Degenerate one-day preset: there is no earlier day to train on, so
        day 0 serves both roles rather than leaving the stream empty."""
        dataset = make_dataset(num_days=1)
        assert dataset.train_days == [0]
        assert dataset.test_day == 0
        days_seen = {batch.day for batch in dataset.training_stream(batch_size=32)}
        assert days_seen == {0}

    def test_test_batch_differs_from_training_day_data(self):
        """The holdout uses a distinct seed offset: last-day evaluation data
        must not replay the very samples streamed during training."""
        dataset = make_dataset(num_days=2)
        train_last = dataset.generate_day(dataset.test_day)
        test = dataset.test_batch(num_samples=len(train_last))
        assert not np.array_equal(train_last.categorical, test.categorical)

    def test_chronological_order(self):
        dataset = make_dataset(num_days=4, samples_per_day=70)
        days = [batch.day for batch in dataset.training_stream(batch_size=32)]
        assert days == sorted(days)
